"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s or -rP to see them all).

The effect-recovery and null-robustness criteria (3, 4) drive the full
pipeline on 20 seeded synthetic corpora each and take a few minutes; the
rest are seconds.
"""

import itertools
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from editlift import causal, clickbait, cluster, synthbench as sb, textsim
from editlift.causal import MatchResult, Scenario, Selector, balance_check, estimate_eate
from editlift.cli import main as cli_main
from editlift.embedding import cosine
from editlift.nn import Mlp, SequenceClassifier, check_gradients


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"{'PASS' if passed else 'FAIL'}: {criterion}" + (f" ({detail})" if detail else "")
    print(line, flush=True)
    assert passed, line


def test_criterion_1_effect_formula_hand_oracle():
    t0 = time.time()
    matches = [MatchResult("t", ("c1", "c2", "c3", "c4", "c5"), (0.0,) * 5, 1.0)]
    outcomes = {"t": 10.0, "c1": 1.0, "c2": 2.0, "c3": 3.0, "c4": 4.0, "c5": 5.0}
    single = estimate_eate(matches, outcomes)

    multi = [
        MatchResult("t1", ("a", "b"), (0.0,) * 2, 1.0),
        MatchResult("t2", ("c", "d"), (0.0,) * 2, 1.0),
        MatchResult("t3", ("a", "d"), (0.0,) * 2, 1.0),
    ]
    outs = {"t1": 12.5, "t2": -3.25, "t3": 8.0, "a": 1.5, "b": 2.5, "c": -1.0, "d": 4.0}
    # hand evaluation: mean over treatments of (y_t - mean of its controls)
    expected = np.mean([12.5 - 2.0, -3.25 - 1.5, 8.0 - 2.75])
    got = estimate_eate(multi, outs)
    report(
        "criterion 1: effect-estimate hand oracle",
        single == 7.0 and abs(got - expected) < 1e-12 and time.time() - t0 < 1.0,
        f"single={single}, multi err={abs(got - expected):.2e}",
    )


def test_criterion_2_balance_gate_exactness():
    t0 = time.time()

    def gate(achieved):
        m = [MatchResult("t", ("c",), (0.0,), achieved)]
        return balance_check(m, mu=0.5, sigma=0.1, alpha=1.5, tau=0.8).passed

    boundary = 0.8
    ok = (
        gate(boundary)
        and gate(boundary + 1e-9)
        and not gate(boundary - 1e-9)
        and balance_check([MatchResult("t", ("c",), (0.0,), 1.0)],
                          0.5, 0.1, 1.5, 0.8).threshold == pytest.approx(0.8)
    )
    report("criterion 2: balance-gate boundary at 0.8 toggles at ±1e-9",
           ok and time.time() - t0 < 1.0)


SCENARIO = Scenario("edited-vs-mirrored", "synthwire", Selector("edited"), Selector("mirrored"))


def _benchmark_run(seed: int, delta: float):
    spec = sb.confounded_spec(n_records=5000, effect_likes=delta, seed=seed)
    corpus, truth = sb.generate(spec)
    table = sb.synthetic_table(spec, dim=32, seed=999)
    profiles = textsim.profile(corpus, table)
    reports = causal.run_scenario(corpus, profiles, SCENARIO, table, seed=seed)
    likes = next(r for r in reports if r.metric == "likes")
    return likes, corpus, truth


def test_criterion_3_effect_recovery():
    t0 = time.time()
    hits = 0
    outcomes = []
    for seed in range(20):
        r, _, _ = _benchmark_run(seed, 50.0)
        in_band = abs(r.mean_eate - 50.0) <= 0.15 * 50.0
        excludes_zero = r.ci_low > 0.0 or r.ci_high < 0.0
        hits += in_band and excludes_zero
        outcomes.append(round(r.mean_eate, 1))
    elapsed = time.time() - t0
    report(
        "criterion 3: +50-likes effect recovered within ±15% with CI excluding 0 on ≥18/20 seeds",
        hits >= 18 and elapsed < 600,
        f"hits={hits}/20, means={outcomes}, {elapsed:.0f}s",
    )


def test_criterion_4_null_robustness():
    t0 = time.time()
    discarded = 0
    naive_ok = 0
    for seed in range(20):
        r, corpus, truth = _benchmark_run(seed, 0.0)
        discarded += r.discarded
        treated_ids = {t.id for t in truth if t.treated}
        yt = np.array([rec.likes for rec in corpus if rec.id in treated_ids], dtype=float)
        yc = np.array([rec.likes for rec in corpus if rec.id not in treated_ids], dtype=float)
        gap = yt.mean() - yc.mean()
        se = np.sqrt(yt.var(ddof=1) / len(yt) + yc.var(ddof=1) / len(yc))
        naive_ok += gap > 3.0 * se
    elapsed = time.time() - t0
    report(
        "criterion 4: zero-effect confounded corpus discarded on ≥18/20 seeds, naive gap >3 SE",
        discarded >= 18 and naive_ok == 20 and elapsed < 600,
        f"discarded={discarded}/20, naive>3SE={naive_ok}/20, {elapsed:.0f}s",
    )


def test_criterion_5_gradient_verification():
    t0 = time.time()
    rng = np.random.default_rng(0)
    mlp = Mlp([12, 128, 64, 1], seed=1, l2_penalty=0.001, l2_layer=1)
    x = rng.normal(size=(10, 12))
    y = (rng.random(10) > 0.5).astype(float)
    mlp_err = check_gradients(mlp, (x, y))

    seq = SequenceClassifier(vocab_size=10, embed_size=4, hidden_size=8,
                             attention_size=6, seed=2)
    seqs = [[1, 4, 2], [3, 3, 9, 1, 8, 2], [5], [7, 6, 1, 2]]  # T <= 6
    seq_err = check_gradients(seq, (seqs, [1.0, 0.0, 1.0, 0.0]))
    elapsed = time.time() - t0
    report(
        "criterion 5: analytic gradients within 1e-4 of finite differences",
        mlp_err < 1e-4 and seq_err < 1e-4 and elapsed < 120,
        f"mlp={mlp_err:.2e}, gru+attention={seq_err:.2e}, {elapsed:.0f}s",
    )


PUBLIC_CLICKBAIT_DATA = os.environ.get(
    "EDITLIFT_CLICKBAIT_DATA",
    str(Path(__file__).resolve().parent.parent / "data" / "clickbait_headlines.csv"),
)


def test_criterion_6_clickbait_benchmark_synthetic():
    t0 = time.time()
    data = clickbait.synthetic_headlines(1000, seed=0)
    _, f1 = clickbait.train(data, split_seed=0, epochs=10)
    elapsed = time.time() - t0
    report(
        "criterion 6a: synthetic separable clickbait corpus reaches F1 ≥ 0.99",
        f1 >= 0.99 and elapsed < 900,
        f"f1={f1:.4f}, {elapsed:.0f}s",
    )


@pytest.mark.skipif(not Path(PUBLIC_CLICKBAIT_DATA).is_file(),
                    reason="public annotated headline corpus not present locally")
def test_criterion_6_clickbait_benchmark_public():
    t0 = time.time()
    data = clickbait.load_labeled_csv(PUBLIC_CLICKBAIT_DATA)
    if len(data) > 8000:  # desk-scale subsample, deterministic
        rng = np.random.default_rng(0)
        data = [data[i] for i in rng.permutation(len(data))[:8000]]
    _, f1 = clickbait.train(data, split_seed=0, epochs=10)
    elapsed = time.time() - t0
    report(
        "criterion 6b: public annotated corpus reaches F1 ≥ 0.90",
        f1 >= 0.90 and elapsed < 900,
        f"f1={f1:.4f}, n={len(data)}, {elapsed:.0f}s",
    )


def _reference_levenshtein(a, b):
    d = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        prev = d
        d = [i] + [0] * len(b)
        for j, cb in enumerate(b, 1):
            d[j] = min(prev[j] + 1, d[j - 1] + 1, prev[j - 1] + (ca != cb))
    return d[-1]


def _exact_u_oracle(x, y):
    pooled = np.concatenate([x, y])
    ranks = sps.rankdata(pooled)
    nx = len(x)
    u_obs = ranks[:nx].sum() - nx * (nx + 1) / 2
    mu = nx * len(y) / 2
    hits = total = 0
    for combo in itertools.combinations(range(len(pooled)), nx):
        u = ranks[list(combo)].sum() - nx * (nx + 1) / 2
        total += 1
        hits += abs(u - mu) >= abs(u_obs - mu) - 1e-9
    return u_obs, hits / total


def test_criterion_7_metric_properties():
    t0 = time.time()
    rng = np.random.default_rng(123)
    alphabet = list("abcdef gh")

    for _ in range(1000):
        a = "".join(rng.choice(alphabet, size=rng.integers(0, 41)))
        b = "".join(rng.choice(alphabet, size=rng.integers(0, 41)))
        d = textsim.normalized_edit_distance(a, b)
        assert d == textsim.normalized_edit_distance(b, a)
        assert 0.0 <= d <= 1.0
        assert textsim.normalized_edit_distance(a, a) == 0.0
        expected = 0.0 if not a and not b else \
            _reference_levenshtein(a, b) / max(len(a), len(b))
        assert d == pytest.approx(expected, abs=1e-12)

    for _ in range(1000):
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        c = float(rng.uniform(0.1, 10.0))
        assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
        assert abs(cosine(u, v)) <= 1.0 + 1e-12
        assert cosine(c * u, v) == pytest.approx(cosine(u, v), abs=1e-9)

    for _ in range(1000):
        nx = int(rng.integers(1, 7))
        ny = int(rng.integers(1, 13 - nx))
        x = rng.integers(0, 5, size=nx).astype(float)
        y = rng.integers(0, 5, size=ny).astype(float)
        u_exp, p_exp = _exact_u_oracle(x, y)
        got = textsim.mann_whitney_u(x, y)
        assert got.statistic == pytest.approx(u_exp, abs=1e-12)
        assert got.p_value == pytest.approx(p_exp, abs=1e-12)

    elapsed = time.time() - t0
    report("criterion 7: 1000 randomized checks per metric (edit distance, cosine, U test)",
           elapsed < 60, f"{elapsed:.0f}s")


def test_criterion_8_clustering():
    t0 = time.time()
    rng = np.random.default_rng(0)
    blobs = np.vstack([
        rng.normal((0.95, 0.05), 0.02, size=(70, 2)),
        rng.normal((0.85, 0.55), 0.02, size=(70, 2)),
        rng.normal((0.25, 0.85), 0.02, size=(70, 2)),
    ])
    k_selected = cluster.elbow_select(blobs, k_max=6, seed=0)

    wins = 0
    for trial in range(20):
        centers = np.random.default_rng(500 + trial).uniform(0, 1, size=(3, 2))
        pts = np.vstack([
            np.random.default_rng(900 + trial).normal(c, 0.04, size=(40, 2))
            for c in centers
        ])
        pp_inertia = cluster.best_fit(pts, k=3, seed=trial, restarts=10).inertia
        best_random = np.inf
        for restart in range(10):
            r = np.random.default_rng(7000 + 10 * trial + restart)
            centroids = pts[r.choice(len(pts), size=3, replace=False)]
            for _ in range(300):
                labels = np.argmin(
                    ((pts[:, None] - centroids[None]) ** 2).sum(axis=2), axis=1)
                new_c = np.array([
                    pts[labels == c].mean(axis=0) if np.any(labels == c) else centroids[c]
                    for c in range(3)
                ])
                if np.allclose(new_c, centroids):
                    break
                centroids = new_c
            labels = np.argmin(((pts[:, None] - centroids[None]) ** 2).sum(axis=2), axis=1)
            best_random = min(best_random, float(((pts - centroids[labels]) ** 2).sum()))
        wins += pp_inertia <= best_random + 1e-9
    elapsed = time.time() - t0
    report(
        "criterion 8: elbow finds k=3 on three blobs; seeded k-means++ ≤ random init on 20/20",
        k_selected == 3 and wins == 20 and elapsed < 60,
        f"k={k_selected}, wins={wins}/20, {elapsed:.0f}s",
    )


def test_criterion_9_pipeline_determinism(tmp_path):
    t0 = time.time()
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli_main(["synth", "--n-records", "2000", "--effect-likes", "50",
                         "--seed", "11", "--out", str(out)]) == 0
        assert cli_main(["profile", "--corpus", str(out / "corpus.jsonl"),
                         "--embeddings", str(out / "vectors.txt"),
                         "--out", str(out)]) == 0
        cfg = out / "config.json"
        cfg.write_text(
            '{"scenarios": [{"name": "edited-vs-mirrored", "outlet": "synthwire", '
            '"treatment": {"kind": "edited"}, "control": {"kind": "mirrored"}}]}'
        )
        assert cli_main(["estimate", "--corpus", str(out / "corpus.jsonl"),
                         "--embeddings", str(out / "vectors.txt"),
                         "--out", str(out), "--seed", "4", "--config", str(cfg)]) == 0
        outputs.append({
            name: (out / name).read_bytes()
            for name in ("corpus.jsonl", "truth.jsonl", "vectors.txt",
                         "profiles.csv", "profile_summary.json",
                         "eate_reports.json", "eate_reports.csv")
        })
    identical = all(outputs[0][name] == outputs[1][name] for name in outputs[0])
    elapsed = time.time() - t0
    report(
        "criterion 9: synth → estimate pipeline is byte-identical across reruns",
        identical and elapsed < 1200,
        f"{elapsed:.0f}s",
    )
