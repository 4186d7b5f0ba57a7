import dataclasses
import math
import tracemalloc
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from editlift import causal, synthbench as sb, textsim
from editlift.clickbait import CLICKBAIT_THRESHOLD
from editlift.causal import (
    CausalConfig,
    EateReport,
    Scenario,
    ScenarioError,
    Selector,
    UnitTable,
    balance_check,
    build_unit_table,
    estimate_eate,
    fold_matches,
    match,
    pairwise_similarity_stats,
    run_scenario,
    scenario_reports,
    select_units,
    train_propensity,
)
from editlift.corpus import ENGAGEMENT_METRICS, assign_time_block, normalize
from editlift.embedding import EmbeddingTable, embed_many, embed_text
from editlift.nn import AdamState, Mlp, adam_step
from editlift.nn.layers import _sigmoid
from editlift.textsim import mann_whitney_u

from conftest import ProfileRow, make_corpus, make_profiles, make_record, profile_rows


# ---------------------------------------------------------------------------
# The per-unit pipeline, as `run_scenario` computed it before it worked on
# table rows: one object per unit, a Python loop per match and a dict of
# outcomes per metric. The columnar code must reproduce it bit for bit.


@dataclass(frozen=True)
class RefUnit:
    record_id: str
    features: np.ndarray  # body-text document vector
    outcomes: dict[str, float]


@dataclass(frozen=True)
class RefMatch:
    treatment_id: str
    matched_control_ids: tuple[str, ...]
    mean_similarity: float


def reference_loss_and_grads(net, x, y):
    """Mlp.loss_and_grads as propensity training called it: ReLU hidden
    layers, a sigmoid output, a float ReLU mask from the derivative and a
    loss value on every step. The L2 term is on the last hidden layer."""
    params = net.buffer.params
    n_layers = len(params) // 2  # w0, b0, w1, b1, ...
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    n = x.shape[0]
    acts = [x]
    for i in range(n_layers):
        z = acts[-1] @ params[f"w{i}"]
        z += params[f"b{i}"]
        acts.append(_sigmoid(z) if i == n_layers - 1 else np.maximum(z, 0.0))
    pred = acts[-1][:, 0]
    p = np.clip(pred, 1e-12, 1.0 - 1e-12)
    value = float(np.mean(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))))
    dz = ((pred - y) / n)[:, None]
    grads = net.buffer.grad_views
    last = n_layers - 1
    for i in range(last, -1, -1):
        if i < last:
            dz = dx * (acts[i + 1] > 0.0).astype(np.float64)
        np.matmul(acts[i].T, dz, out=grads[f"w{i}"])
        np.sum(dz, axis=0, out=grads[f"b{i}"])
        if i > 0:
            dx = dz @ params[f"w{i}"].T
    if net.l2_penalty > 0.0:
        w = params[f"w{last - 1}"]
        value += net.l2_penalty * float(np.vdot(w, w))
        grads[f"w{last - 1}"] += 2.0 * net.l2_penalty * w
    return value, grads


def reference_train_propensity(treatments, controls, seed=0):
    """Stacked unit features, one permutation per epoch, a gather per batch,
    on the `causal.PROPENSITY_*` schedule."""
    if not treatments or not controls:
        raise ScenarioError("propensity training needs units in both groups")
    x = np.vstack([u.features for u in treatments] + [u.features for u in controls])
    y = np.concatenate([np.ones(len(treatments)), np.zeros(len(controls))])
    hidden, batch_size = causal.PROPENSITY_HIDDEN, causal.PROPENSITY_BATCH_SIZE
    net = Mlp([x.shape[1], hidden[0], hidden[1], 1], seed=seed,
              l2_penalty=causal.PROPENSITY_L2_PENALTY)
    opt = AdamState(learning_rate=causal.PROPENSITY_LEARNING_RATE)
    rng = np.random.default_rng(seed)
    for _ in range(causal.PROPENSITY_EPOCHS):
        order = rng.permutation(len(x))
        for start in range(0, len(order), batch_size):
            chunk = order[start:start + batch_size]
            reference_loss_and_grads(net, x[chunk], y[chunk])
            adam_step(opt, net.buffer)
    return net


def reference_match(treatments, controls, p_t, p_c, k):
    """Per-treatment full lexsort and a per-pair cosine loop, on the units'
    propensities p_t and p_c clipped to [1e-9, 1 - 1e-9]."""
    if len(controls) < k:
        raise ScenarioError(f"need at least k={k} controls, got {len(controls)}")
    p_t = np.clip(p_t, 1e-9, 1 - 1e-9)
    p_c = np.clip(p_c, 1e-9, 1 - 1e-9)
    control_ids = [u.record_id for u in controls]
    id_rank = np.argsort(np.argsort(control_ids, kind="stable"), kind="stable")
    control_mat = np.vstack([u.features for u in controls])
    control_norms = np.linalg.norm(control_mat, axis=1)
    results = []
    for unit, p in zip(treatments, p_t):
        gaps = np.abs(p_c - p)
        chosen = np.lexsort((id_rank, gaps))[:k]
        tvec = unit.features
        tnorm = float(np.linalg.norm(tvec))
        sims = []
        for c in chosen:
            denom = tnorm * control_norms[c]
            sims.append(float(control_mat[c] @ tvec / denom) if denom > 0 else 0.0)
        results.append(RefMatch(
            treatment_id=unit.record_id,
            matched_control_ids=tuple(control_ids[c] for c in chosen),
            mean_similarity=float(np.mean(sims)),
        ))
    return results


def reference_estimate_eate(matches, outcomes: dict[str, float]) -> float:
    total = 0.0
    for m in matches:
        y_t = outcomes[m.treatment_id]
        gaps = sum(y_t - outcomes[c] for c in m.matched_control_ids)
        total += gaps / len(m.matched_control_ids)
    return total / len(matches)


def reference_run_scenario(corpus, profiles, table, scenario, seed, config):
    treatments, controls = reference_select_units(corpus, profiles, scenario, table)
    min_treatments = max(config.min_group, causal.N_FOLDS)
    # the largest fold leaves the fewest controls to match against
    fewest_controls = len(controls) - math.ceil(len(controls) / causal.N_FOLDS)
    if (len(treatments) < min_treatments or len(controls) < config.min_group
            or fewest_controls < config.knn):
        raise ScenarioError("too few units")
    all_vectors = np.vstack([u.features for u in treatments] + [u.features for u in controls])
    mu, sigma = pairwise_similarity_stats(all_vectors)
    rng = np.random.default_rng(seed)
    t_folds = causal._fold_indices(len(treatments), rng)
    c_folds = causal._fold_indices(len(controls), rng)
    fold_values = {m: [] for m in ENGAGEMENT_METRICS}
    balances = []
    outcomes = {m: {u.record_id: u.outcomes[m] for u in treatments + controls}
                for m in ENGAGEMENT_METRICS}
    for fold in range(causal.N_FOLDS):
        held_out = [u for u, f in zip(treatments, t_folds) if f == fold]
        train_t = [u for u, f in zip(treatments, t_folds) if f != fold]
        train_c = [u for u, f in zip(controls, c_folds) if f != fold]
        model = reference_train_propensity(train_t, train_c, seed=seed * causal.N_FOLDS + fold + 1)
        matches = reference_match(
            held_out, train_c, model.predict(np.vstack([u.features for u in held_out])),
            model.predict(np.vstack([u.features for u in train_c])), config.knn)
        achieved = float(np.mean([m.mean_similarity for m in matches]))
        threshold = max(mu + config.alpha * sigma, config.tau)
        balances.append(causal.BalanceStats(
            mu=mu, sigma=sigma, alpha=config.alpha, tau=config.tau, threshold=threshold,
            achieved=achieved, passed=achieved >= threshold))
        for metric in ENGAGEMENT_METRICS:
            fold_values[metric].append(reference_estimate_eate(matches, outcomes[metric]))
    failed = any(not b.passed for b in balances)
    reports = []
    for metric in ENGAGEMENT_METRICS:
        values = np.asarray(fold_values[metric])
        mean = float(values.mean())
        half = causal.T_CRIT_95 * float(values.std(ddof=1)) / np.sqrt(causal.N_FOLDS)
        ci_low, ci_high = float(mean - half), float(mean + half)
        covers_zero = ci_low <= 0.0 <= ci_high
        reports.append(EateReport(
            scenario=scenario.name, metric=metric,
            fold_eates=tuple(float(v) for v in values), mean_eate=mean,
            ci_low=ci_low, ci_high=ci_high, discarded=bool(covers_zero or failed),
            discard_reason=("balance_failed" if failed
                            else "covers_zero" if covers_zero else None),
            balance=tuple(balances),
            naive_difference=(float(np.mean([u.outcomes[metric] for u in treatments]))
                              - float(np.mean([u.outcomes[metric] for u in controls]))),
            n_treatment=len(treatments), n_control=len(controls),
        ))
    return reports


def hand_table(rows) -> UnitTable:
    """Unit table of (record id, feature vector, likes) rows, in order; the
    filter and profile columns are placeholders."""
    n = len(rows)
    outcomes = np.zeros((n, len(ENGAGEMENT_METRICS)))
    outcomes[:, ENGAGEMENT_METRICS.index("likes")] = [likes for _, _, likes in rows]
    return UnitTable(
        profiles=make_profiles((rid, 0.0, 0.0, False) for rid, _, _ in rows),
        outlet=np.full(n, "x", dtype=object),
        section=np.full(n, None, dtype=object),
        time_block=np.full(n, "B1", dtype=object),
        features=np.array([np.atleast_1d(np.asarray(v, dtype=float)) for _, v, _ in rows]),
        zero_hit=np.zeros(n, dtype=bool),
        outcomes=outcomes,
    )


def match_units(treatments, controls, p_t, p_c, k):
    """`match` on a hand table of RefUnits with propensities p_t and p_c,
    returned as RefMatches."""
    units = hand_table([(u.record_id, u.features, 0.0) for u in treatments + controls])
    t_rows = np.arange(len(treatments))
    chosen, similarity = match(t_rows, len(treatments) + np.arange(len(controls)),
                               np.asarray(p_t, dtype=float), np.asarray(p_c, dtype=float),
                               units, k=k)
    ids = units.profiles.record_ids
    return [
        RefMatch(ids[t], tuple(ids[c] for c in row), float(sim))
        for t, row, sim in zip(t_rows, chosen, similarity)
    ]


def unit(rid, key):
    """A unit whose one body feature is `key`."""
    return RefUnit(record_id=rid, features=np.array([key]), outcomes={})


class TestMatch:
    def test_single_treatment_takes_all_five(self):
        controls = [unit(f"c{i}", float(i)) for i in range(5)]
        [result] = match_units([unit("t", 9.0)], controls, [0.25], [0.1 * i for i in range(5)],
                               k=5)
        assert set(result.matched_control_ids) == {f"c{i}" for i in range(5)}

    def test_excludes_farthest_propensity(self):
        controls = [unit(f"c{k}", k) for k in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)]
        [result] = match_units([unit("t", 9.0)], controls, [0.88],
                               [0.1, 0.2, 0.8, 0.85, 0.9, 0.95], k=5)
        assert "c1.0" not in result.matched_control_ids  # gap 0.78 is the largest

    def test_with_replacement_across_treatments(self):
        controls = [unit("c1", 1.0), unit("c2", 2.0)]
        results = match_units([unit("t1", 9.0), unit("t2", 8.0)], controls, [0.5, 0.5],
                              [0.5, 0.5], k=2)
        assert results[0].matched_control_ids == results[1].matched_control_ids

    def test_ties_break_on_ascending_record_id(self):
        controls = [unit("zeta", 1.0), unit("alpha", 2.0), unit("mid", 3.0)]
        [result] = match_units([unit("t", 9.0)], controls, [0.5], [0.5, 0.5, 0.5], k=2)
        assert result.matched_control_ids == ("alpha", "mid")

    def test_too_few_controls(self):
        with pytest.raises(ScenarioError):
            match_units([unit("t", 1.0)], [unit("c", 1.0)], [0.5], [0.5], k=5)

    def test_gap_values_recorded(self):
        # nearest first: c2's gap 0.1 before c1's 0.2, against table order
        controls = [unit("c1", 1.0), unit("c2", 2.0)]
        [result] = match_units([unit("t", 9.0)], controls, [0.5], [0.7, 0.4], k=2)
        assert result.matched_control_ids == ("c2", "c1")

    def test_returns_table_rows(self):
        # controls sit after unrelated rows; `chosen` indexes the whole table
        units = hand_table([("pad", 0.0, 0.0), ("c1", 1.0, 0.0), ("t", 9.0, 0.0),
                            ("c2", 2.0, 0.0)])
        chosen, similarity = match(np.array([2]), np.array([1, 3]), np.array([0.5]),
                                   np.array([0.4, 0.45]), units, k=2)
        assert chosen.tolist() == [[3, 1]]
        assert similarity.shape == (1,)


@st.composite
def match_problems(draw):
    n_t = draw(st.integers(1, 8))
    n_c = draw(st.integers(1, 25))
    # quarter-step propensities make exact gap ties common, on both sides of a
    # treatment; the ends are clipped into (0, 1)
    levels = draw(st.lists(st.integers(0, 4), min_size=n_t + n_c, max_size=n_t + n_c))
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=3), min_size=n_c, max_size=n_c,
                        unique=True))
    k = draw(st.integers(1, n_c))
    chunk_cells = draw(st.sampled_from([1, 3, causal.MATCH_CHUNK_CELLS]))
    seed = draw(st.integers(0, 2**16))
    return n_t, ids, [lv / 4 for lv in levels], k, chunk_cells, seed


class TestMatchVectorized:
    @settings(max_examples=200, deadline=None)
    @given(match_problems())
    def test_equals_per_unit_lexsort(self, problem):
        n_t, ids, scores, k, chunk_cells, seed = problem
        rng = np.random.default_rng(seed)

        def make(rid):
            return RefUnit(rid, rng.normal(size=4), {})

        treatments = [make(f"t{i}") for i in range(n_t)]
        controls = [make(rid) for rid in ids]
        p_t, p_c = np.array(scores[:n_t]), np.array(scores[n_t:])
        with mock.patch.object(causal, "MATCH_CHUNK_CELLS", chunk_cells):
            got = match_units(treatments, controls, p_t, p_c, k=k)
        assert got == reference_match(treatments, controls, p_t, p_c, k)

    def test_k_below_one_rejected(self):
        with pytest.raises(ScenarioError, match="at least 1"):
            match_units([unit("t", 1.0)], [unit("c", 1.0)], [0.5], [0.5], k=0)


def eate(spec, outcomes):
    """estimate_eate of hand matches [(treatment id, [control ids])] over
    `outcomes` (id -> value), one table row per id."""
    row = {rid: i for i, rid in enumerate(outcomes)}
    values = np.array([[v] for v in outcomes.values()], dtype=float)
    t_rows = np.array([row[t] for t, _ in spec])
    chosen = np.array([[row[c] for c in cs] for _, cs in spec])
    [value] = estimate_eate(t_rows, chosen, values)
    return value


class TestEate:
    def test_hand_oracle_single_treatment(self):
        outcomes = {"t": 10.0, "c1": 1.0, "c2": 2.0, "c3": 3.0, "c4": 4.0, "c5": 5.0}
        assert eate([("t", ["c1", "c2", "c3", "c4", "c5"])], outcomes) == 7.0

    def test_null_effect(self):
        outcomes = {"t": 4.0, "c1": 4.0, "c2": 4.0}
        assert eate([("t", ["c1", "c2"])], outcomes) == 0.0

    def test_two_treatments_average(self):
        outcomes = {"t1": 7.0, "c1": 0.0, "t2": 0.0, "c2": 7.0}
        assert eate([("t1", ["c1"]), ("t2", ["c2"])], outcomes) == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(0)
        spec = [(f"t{i}", [f"c{i}a", f"c{i}b"]) for i in range(6)]
        outcomes = {t: float(rng.integers(0, 50)) for t, _ in spec}
        for _, cs in spec:
            for c in cs:
                outcomes[c] = float(rng.integers(0, 50))
        base = eate(spec, outcomes)
        scaled = eate(spec, {k: 3.0 * v for k, v in outcomes.items()})
        shifted = eate(spec, {k: v + 17.0 for k, v in outcomes.items()})
        assert scaled == pytest.approx(3.0 * base)
        assert shifted == pytest.approx(base)

    def test_antisymmetry_under_role_swap(self):
        # one-to-one matching both directions on a symmetric design
        pairs = [("a1", "b1"), ("a2", "b2"), ("a3", "b3")]
        outcomes = {"a1": 5.0, "b1": 1.0, "a2": 8.0, "b2": 2.0, "a3": 3.0, "b3": 7.0}
        fwd = [(a, [b]) for a, b in pairs]
        rev = [(b, [a]) for a, b in pairs]
        assert eate(fwd, outcomes) == pytest.approx(-eate(rev, outcomes))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 12), st.integers(1, 30), st.integers(0, 2**16),
           st.booleans(), st.sampled_from([1, len(ENGAGEMENT_METRICS)]))
    def test_equals_per_unit_loop(self, n_t, k, n_c, seed, counts, n_metrics):
        # engagement counts, or arbitrary values where rounding order shows;
        # one outcome column as well as three, since numpy may reduce a
        # single column in another order
        rng = np.random.default_rng(seed)
        n = n_t + n_c
        shape = (n, n_metrics)
        outcomes = (rng.integers(0, 5000, size=shape).astype(float) if counts
                    else rng.normal(0.0, 1e3, size=shape) * 10.0 ** rng.integers(-6, 6, size=shape))
        ids = [f"u{i}" for i in range(n)]
        t_rows = rng.permutation(n_t)
        chosen = n_t + rng.integers(0, n_c, size=(n_t, k))
        got = estimate_eate(t_rows, chosen, outcomes)
        matches = [RefMatch(ids[t], tuple(ids[c] for c in row), 0.0)
                   for t, row in zip(t_rows, chosen)]
        assert got.shape == (n_metrics,)
        for i in range(n_metrics):
            by_id = dict(zip(ids, outcomes[:, i].tolist()))
            assert got[i] == reference_estimate_eate(matches, by_id)


class TestBalance:
    def matches_with_similarity(self, value):
        return np.array([value])

    def test_plugged_in_threshold(self):
        stats = balance_check(self.matches_with_similarity(1.0),
                              mu=0.5, sigma=0.1, alpha=1.5, tau=0.8)
        assert stats.threshold == pytest.approx(0.8)
        assert stats.passed

    def test_fail_below_tau(self):
        stats = balance_check(self.matches_with_similarity(0.79),
                              mu=0.5, sigma=0.1, alpha=1.5, tau=0.8)
        assert not stats.passed

    def test_degenerate_sigma(self):
        stats = balance_check(self.matches_with_similarity(0.9),
                              mu=0.85, sigma=0.0, alpha=1.5, tau=0.8)
        assert stats.threshold == pytest.approx(0.85)
        assert stats.passed

    def test_exact_toggle_at_boundary(self):
        at = balance_check(self.matches_with_similarity(0.8),
                           mu=0.5, sigma=0.1, alpha=1.5, tau=0.8)
        above = balance_check(self.matches_with_similarity(0.8 + 1e-9),
                              mu=0.5, sigma=0.1, alpha=1.5, tau=0.8)
        below = balance_check(self.matches_with_similarity(0.8 - 1e-9),
                              mu=0.5, sigma=0.1, alpha=1.5, tau=0.8)
        assert at.passed
        assert above.passed
        assert not below.passed

    def test_mu_alpha_sigma_arm_binds_when_larger(self):
        stats = balance_check(self.matches_with_similarity(0.9),
                              mu=0.7, sigma=0.2, alpha=1.5, tau=0.8)
        assert stats.threshold == pytest.approx(1.0)
        assert not stats.passed


class TestVecdotGuard:
    """`match` takes its cosines with np.vecdot and relies on it agreeing, bit
    for bit, with the 1-D `@` and np.linalg.norm of the per-pair loop. A
    platform where it does not would drift every report."""

    @pytest.mark.parametrize("dim", [1, 3, 8, 32, 100])
    def test_row_dots_equal_per_pair_matmul(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(40, 7, dim))
        b = rng.normal(size=(40, dim))
        got = np.vecdot(a, b[:, None, :])
        want = np.array([[a[t, j] @ b[t] for j in range(7)] for t in range(40)])
        assert np.array_equal(got, want)
        assert np.array_equal(np.sqrt(np.vecdot(b, b)),
                              np.array([np.linalg.norm(v) for v in b]))


def reference_pairwise_similarity_stats(vectors):
    """Pair statistics the O(n^2) way: every cosine of the upper triangle of
    the unit rows' Gram matrix, gathered through `np.triu_indices`."""
    vec = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(vec, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit_vecs = vec / safe[:, None]
    unit_vecs[norms == 0.0] = 0.0
    sims = (unit_vecs @ unit_vecs.T)[np.triu_indices(len(vec), k=1)]
    return float(sims.mean()), float(sims.std())


@st.composite
def pair_vectors(draw):
    n = draw(st.one_of(st.sampled_from([2, 3]), st.integers(2, 2500)))
    dim = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # an offset shared by every row moves the mean cosine away from 0
    vecs = rng.normal(size=(n, dim)) + draw(st.sampled_from([0.0, 0.5, 3.0])) * rng.normal(size=dim)
    zero = draw(st.lists(st.integers(0, n - 1), max_size=3))
    vecs[zero] = 0.0
    for _ in range(draw(st.integers(0, 3))):  # a row repeated, scaled or not
        src, dst = rng.integers(0, n, size=2)
        vecs[dst] = vecs[src] * draw(st.sampled_from([1.0, 2.5]))
    return vecs


class TestPairwiseStats:
    @settings(max_examples=40, deadline=None)
    @given(pair_vectors())
    def test_exact_equals_triu_indices_reference(self, vecs):
        (mu, sigma), (want_mu, want_sigma) = (pairwise_similarity_stats(vecs),
                                              reference_pairwise_similarity_stats(vecs))
        assert mu == pytest.approx(want_mu, rel=0.0, abs=1e-12)
        # sigma^2 to 1e-13 is sigma to 1e-12 wherever sigma >= 0.05; below
        # that the square root magnifies the rounding of a variance near 0
        # (one pair, or every row parallel) up to ~1e-8
        assert sigma**2 == pytest.approx(want_sigma**2, rel=0.0, abs=1e-13)

    def test_parallel_rows_sigma_finite(self):
        # every cosine is 1: the moment form's variance cancels to rounding
        rng = np.random.default_rng(7)
        vecs = rng.normal(size=(1, 32)) * rng.uniform(0.5, 2.0, size=(1000, 1))
        mu, sigma = pairwise_similarity_stats(vecs)
        want_mu, want_sigma = reference_pairwise_similarity_stats(vecs)
        assert mu == pytest.approx(want_mu, rel=0.0, abs=1e-12)
        assert math.isfinite(sigma) and sigma >= 0.0
        assert sigma == pytest.approx(want_sigma, rel=0.0, abs=1e-7)

    def test_peak_memory_is_a_few_rows(self):
        n, dim = 5000, 32
        vecs = np.random.default_rng(5).normal(size=(n, dim))
        tracemalloc.start()
        try:
            pairwise_similarity_stats(vecs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * n * dim * 8

    def test_exact_small(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        mu, sigma = pairwise_similarity_stats(vecs)
        sims = [0.0, 1 / np.sqrt(2), 1 / np.sqrt(2)]
        assert mu == pytest.approx(np.mean(sims))
        assert sigma == pytest.approx(np.std(sims))

    def test_zero_norm_rows_tolerated(self):
        vecs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        mu, sigma = pairwise_similarity_stats(vecs)
        assert np.isfinite(mu) and np.isfinite(sigma)

    def test_fewer_than_two_documents_rejected(self):
        with pytest.raises(ValueError, match="at least two documents"):
            pairwise_similarity_stats(np.ones((1, 4)))


def separable_units(n_per, seed, gap=3.0, base_likes=100.0, effect=0.0):
    """Treatments cluster at +gap/2, controls at -gap/2 along one axis."""
    rng = np.random.default_rng(seed)
    treatments = [
        RefUnit(f"t{i:03d}", rng.normal((gap / 2, 0.0), 1.0, size=2),
                {"replies": 0.0, "retweets": 0.0,
                 "likes": float(rng.poisson(base_likes + effect))})
        for i in range(n_per)
    ]
    controls = [
        RefUnit(f"c{i:03d}", rng.normal((-gap / 2, 0.0), 1.0, size=2),
                {"replies": 0.0, "retweets": 0.0,
                 "likes": float(rng.poisson(base_likes))})
        for i in range(n_per)
    ]
    return treatments, controls


def xy(treatments, controls):
    """Feature matrix (treatments first) and treatment labels."""
    x = np.array([u.features for u in treatments + controls])
    return x, np.concatenate([np.ones(len(treatments)), np.zeros(len(controls))])


def rank_auc(pos_scores, neg_scores) -> float:
    u = mann_whitney_u(list(pos_scores), list(neg_scores)).statistic
    return u / (len(pos_scores) * len(neg_scores))


class TestTrainPropensity:
    def test_separable_groups_high_auc(self, monkeypatch):
        monkeypatch.setattr(causal, "PROPENSITY_EPOCHS", 30)
        treatments, controls = separable_units(150, seed=0)
        fit_t, hold_t = treatments[:100], treatments[100:]
        fit_c, hold_c = controls[:100], controls[100:]
        model = train_propensity(*xy(fit_t, fit_c), 1)
        auc = rank_auc(
            model.predict(np.array([u.features for u in hold_t])),
            model.predict(np.array([u.features for u in hold_c])),
        )
        assert auc > 0.9

    def test_shuffled_labels_near_chance_auc(self, monkeypatch):
        monkeypatch.setattr(causal, "PROPENSITY_EPOCHS", 30)
        treatments, controls = separable_units(150, seed=2)
        pool = treatments + controls
        rng = np.random.default_rng(3)
        order = rng.permutation(len(pool))
        relabeled_t = [pool[i] for i in order[:150]]
        relabeled_c = [pool[i] for i in order[150:]]
        model = train_propensity(*xy(relabeled_t[:100], relabeled_c[:100]), 4)
        auc = rank_auc(
            model.predict(np.array([u.features for u in relabeled_t[100:]])),
            model.predict(np.array([u.features for u in relabeled_c[100:]])),
        )
        assert 0.4 <= auc <= 0.6

    def test_one_class_rejected(self):
        treatments, _ = separable_units(5, seed=5)
        with pytest.raises(ScenarioError):
            train_propensity(*xy(treatments, []), 0)

    def test_outputs_strictly_inside_unit_interval(self, monkeypatch):
        monkeypatch.setattr(causal, "PROPENSITY_EPOCHS", 50)
        treatments, controls = separable_units(50, seed=6)
        model = train_propensity(*xy(treatments, controls), 7)
        p = model.predict(np.array([u.features for u in treatments + controls]))
        assert np.all((p > 0) & (p < 1))

    # batch 7 of 5-dim rows puts most batches off a 16-byte boundary; batch
    # 64 leaves a partial last batch of the 160 rows; every case patches the
    # learning rate, which scripts/propensity_schedule.py rebinds between calls
    @pytest.mark.parametrize("dim,batch_size,learning_rate",
                             [(2, 32, 1e-3), (5, 7, 1e-3), (32, 32, 1e-3), (32, 64, 5e-3)],
                             ids=["2-32", "5-7", "32-32", "32-64"])
    def test_parameters_equal_reference_loop(self, dim, batch_size, learning_rate, monkeypatch):
        monkeypatch.setattr(causal, "PROPENSITY_BATCH_SIZE", batch_size)
        monkeypatch.setattr(causal, "PROPENSITY_HIDDEN", (16, 8))
        monkeypatch.setattr(causal, "PROPENSITY_LEARNING_RATE", learning_rate)
        monkeypatch.setattr(causal, "PROPENSITY_EPOCHS", 4)
        rng = np.random.default_rng(dim)
        treatments = [RefUnit(f"t{i}", rng.normal(0.5, 1.0, size=dim), {}) for i in range(70)]
        controls = [RefUnit(f"c{i}", rng.normal(-0.5, 1.0, size=dim), {}) for i in range(90)]
        got = train_propensity(*xy(treatments, controls), 3)
        want = reference_train_propensity(treatments, controls, seed=3)
        assert got.buffer.values.size == 16 * dim + 16 + 16 * 8 + 8 + 8 + 1
        assert np.array_equal(got.buffer.values, want.buffer.values)


class TestSelectUnits:
    def corpus_and_profiles(self):
        records, profiles = [], []
        for i in range(8):
            mirrored = i % 2 == 0
            records.append(make_record(
                rid=f"r{i}", outlet="x" if i < 6 else "y",
                headline="budget vote",
                post_text="budget vote" if mirrored else f"edited {i}",
                body_text="budget committee vote" if i != 5 else "",
                section="politics" if i < 4 else "sports",
            ))
            profiles.append(ProfileRow(f"r{i}", 0.0 if mirrored else 0.5, 1.0, mirrored))
        return make_corpus(records), profiles

    def table(self):
        from editlift.embedding import EmbeddingTable
        return EmbeddingTable(dim=2, vocab={
            "budget": np.array([1.0, 0.0]),
            "committee": np.array([0.5, 0.5]),
            "vote": np.array([0.0, 1.0]),
        })

    def test_outlet_filter_and_selectors(self):
        corpus, profiles = self.corpus_and_profiles()
        scenario = Scenario("s", "x", Selector("edited"), Selector("mirrored"))
        units = build_unit_table(corpus, make_profiles(profiles), self.table(),
                                 corpus.outlet_rows())
        treatments, controls = select_units(units, scenario)
        assert {units.profiles.record_ids[i] for i in treatments} == {"r1", "r3"}  # r5 has no body
        assert {units.profiles.record_ids[i] for i in controls} == {"r0", "r2", "r4"}

    def test_section_filter(self):
        corpus, profiles = self.corpus_and_profiles()
        scenario = Scenario("s", "x", Selector("edited"), Selector("mirrored"),
                            section="politics")
        units = build_unit_table(corpus, make_profiles(profiles), self.table(),
                                 corpus.outlet_rows())
        treatments, controls = select_units(units, scenario)
        assert {units.profiles.record_ids[i] for i in treatments} == {"r1", "r3"}
        assert {units.profiles.record_ids[i] for i in controls} == {"r0", "r2"}

    def test_cluster_selectors(self):
        corpus, profiles = self.corpus_and_profiles()
        profiles = [p._replace(cluster=i % 3) for i, p in enumerate(profiles)]
        scenario = Scenario("s", "x", Selector("cluster", cluster=1),
                            Selector("cluster", cluster=0))
        units = build_unit_table(corpus, make_profiles(profiles), self.table(),
                                 corpus.outlet_rows())
        treatments, controls = select_units(units, scenario)
        assert {units.profiles.record_ids[i] for i in treatments} == {"r1", "r4"}
        assert {units.profiles.record_ids[i] for i in controls} == {"r0", "r3"}

    def test_shift_selectors_and_exclude_mirrored(self):
        corpus, profiles = self.corpus_and_profiles()
        profiles = [
            p._replace(headline_clickbait=0.2,
                       post_clickbait=0.9 if int(p.record_id[1]) < 4 else 0.1)
            for p in profiles
        ]
        scenario = Scenario(
            "s", "x",
            Selector("shift", headline_class="NC", post_class="C"),
            Selector("shift", headline_class="NC", post_class="NC"),
            exclude_mirrored=True,
        )
        units = build_unit_table(corpus, make_profiles(profiles), self.table(),
                                 corpus.outlet_rows())
        treatments, controls = select_units(units, scenario)
        assert {units.profiles.record_ids[i] for i in treatments} == {"r1", "r3"}
        # mirrored records are excluded and the only NC->NC candidate (r5)
        # has no body text, so the control side comes back empty
        assert {units.profiles.record_ids[i] for i in controls} == set()

    def test_scenario_parsing(self):
        # every `Scenario` field is a scenario key, set away from its default
        obj = {
            "name": "clusters", "outlet": "x",
            "treatment": {"kind": "cluster", "cluster": 2},
            "control": {"kind": "cluster", "cluster": 0},
            "section": "politics",
            "time_block": "B2",
            "exclude_mirrored": True,
        }
        assert set(obj) == {f.name for f in dataclasses.fields(Scenario)}
        scenario = Scenario.from_dict(obj)
        assert scenario.treatment.cluster == 2
        assert scenario.control.cluster == 0
        for f in dataclasses.fields(Scenario):
            if f.name not in ("treatment", "control"):
                assert getattr(scenario, f.name) == obj[f.name] != f.default, f.name
        with pytest.raises(ScenarioError):
            Scenario.from_dict({"name": "bad", "outlet": "x",
                                "treatment": {"kind": "nope"},
                                "control": {"kind": "mirrored"}})

    @pytest.mark.parametrize("selector_json, selector", [
        ({"kind": "edited"}, Selector("edited")),
        ({"kind": "mirrored"}, Selector("mirrored")),
        ({"kind": "cluster", "cluster": 3}, Selector("cluster", cluster=3)),
        ({"kind": "shift", "headline": "NC", "post": "C"},
         Selector("shift", headline_class="NC", post_class="C")),
    ], ids=["edited", "mirrored", "cluster", "shift"])
    @pytest.mark.parametrize("filters, want", [
        ({}, {}),
        ({"section": "politics", "time_block": "B3", "exclude_mirrored": True},
         {"section": "politics", "time_block": "B3", "exclude_mirrored": True}),
        # null reads as the key left out
        ({"section": None, "time_block": None, "exclude_mirrored": None}, {}),
    ], ids=["left-out", "set", "null"])
    def test_scenario_decodes_every_selector_and_filter(self, selector_json, selector,
                                                        filters, want):
        obj = {"name": "s", "outlet": "x", "treatment": selector_json,
               "control": selector_json, **filters}
        assert Scenario.from_dict(obj) == Scenario("s", "x", selector, selector, **want)

    def test_cluster_index_is_a_json_integer(self):
        # an integral float is an integer, as for every other JSON integer;
        # `test_cli` checks the messages of the rejected values
        index = Selector.from_dict({"kind": "cluster", "cluster": 2.0}).cluster
        assert index == 2 and type(index) is int


def reference_matches(selector, profile):
    """Per-profile selector predicate, as selection ran before the unit table."""
    if selector.kind == "edited":
        return not profile.mirrored
    if selector.kind == "mirrored":
        return profile.mirrored
    if selector.kind == "cluster":
        return profile.cluster == selector.cluster
    if profile.headline_clickbait is None or profile.post_clickbait is None:
        raise ScenarioError(
            f"record {profile.record_id!r} lacks clickbait scores required by a shift selector"
        )
    got_h = "C" if profile.headline_clickbait > CLICKBAIT_THRESHOLD else "NC"
    got_p = "C" if profile.post_clickbait > CLICKBAIT_THRESHOLD else "NC"
    return got_h == selector.headline_class and got_p == selector.post_class


def reference_select_units(corpus, profiles, scenario, table):
    """Per-record selection, embedding each selected body on the spot; each
    record's profile row (row i for corpus record i) goes through
    `reference_matches`."""
    treatments, controls = [], []
    for record, prof in zip(corpus, profile_rows(profiles), strict=True):
        if record.outlet != scenario.outlet:
            continue
        if scenario.section is not None and record.section != scenario.section:
            continue
        if (scenario.time_block is not None
                and assign_time_block(record) != scenario.time_block):
            continue
        if scenario.exclude_mirrored and prof.mirrored:
            continue
        if not record.body_text.strip():
            continue
        in_t = reference_matches(scenario.treatment, prof)
        in_c = reference_matches(scenario.control, prof)
        if in_t and in_c:
            raise ScenarioError(
                f"scenario {scenario.name!r}: record {record.id!r} matches both selectors"
            )
        if not (in_t or in_c):
            continue
        vector, hits = embed_text(table, record.body_text)
        if hits == 0:
            continue
        unit = RefUnit(
            record_id=record.id,
            features=vector,
            outcomes={m: float(record.engagement(m)) for m in ENGAGEMENT_METRICS},
        )
        (treatments if in_t else controls).append(unit)
    return treatments, controls


SELECTION_VOCAB = ("budget", "committee", "vote", "storm", "court", "market")
SELECTION_SCENARIOS = [
    Scenario("edited-mirrored", "x", Selector("edited"), Selector("mirrored")),
    Scenario("mirrored-edited-politics", "x", Selector("mirrored"), Selector("edited"),
             section="politics"),
    Scenario("clusters-B2", "x", Selector("cluster", cluster=1),
             Selector("cluster", cluster=0), time_block="B2"),
    Scenario("clusters-y", "y", Selector("cluster", cluster=2),
             Selector("cluster", cluster=0)),
    Scenario("shift-no-mirrored", "x",
             Selector("shift", headline_class="NC", post_class="C"),
             Selector("shift", headline_class="NC", post_class="NC"),
             exclude_mirrored=True),
    Scenario("shift-vs-mirrored", "y", Selector("shift", headline_class="C", post_class="C"),
             Selector("mirrored"), time_block="B3"),
    Scenario("overlap", "x", Selector("edited"), Selector("cluster", cluster=1)),
]


def selection_corpus(seed, n=80, missing_scores=0.0):
    """Random records over two outlets, three sections and all time blocks,
    with blank and zero-hit bodies, unclustered and (at `missing_scores`)
    unscored records; profile row i is record i."""
    rng = np.random.default_rng(seed)
    records, profiles = [], []
    for i in range(n):
        kind = rng.choice(["words", "words", "words", "blank", "oov"])
        if kind == "words":
            body = " ".join(rng.choice(SELECTION_VOCAB, size=rng.integers(1, 6)))
        else:
            body = "   " if kind == "blank" else "zzz qqq"
        rid = f"r{rng.permutation(n)[0]:03d}-{i}"
        records.append(make_record(
            rid=rid, outlet=str(rng.choice(["x", "y"])), body_text=body,
            section=[None, "politics", "sports"][int(rng.integers(3))],
            created_at=f"2018-06-15T{int(rng.integers(24)):02d}:30:00Z",
            replies=int(rng.integers(50)), retweets=int(rng.integers(50)),
            likes=int(rng.integers(500)),
        ))
        scored = rng.random() >= missing_scores
        profiles.append(ProfileRow(
            rid, 0.5, 0.5, mirrored=bool(rng.random() < 0.4),
            cluster=None if rng.random() < 0.1 else int(rng.integers(3)),
            headline_clickbait=float(rng.random()) if scored else None,
            post_clickbait=float(rng.random()) if scored else None,
        ))
    vocab = {w: np.random.default_rng(j).normal(size=3) for j, w in enumerate(SELECTION_VOCAB)}
    return make_corpus(records), make_profiles(profiles), EmbeddingTable(dim=3, vocab=vocab)


class TestUnitTableSelection:
    """Table-masked selection against the per-record reference."""

    def assert_same(self, corpus, profiles, table, scenario, units):
        try:
            expected = reference_select_units(corpus, profiles, scenario, table)
        except ScenarioError as exc:
            with pytest.raises(ScenarioError) as got:
                select_units(units, scenario)
            assert str(got.value) == str(exc)
            return "error"
        got = select_units(units, scenario)
        for exp_arm, rows in zip(expected, got):
            assert [units.profiles.record_ids[i] for i in rows] == [u.record_id for u in exp_arm]
            assert ([dict(zip(ENGAGEMENT_METRICS, units.outcomes[i].tolist())) for i in rows]
                    == [u.outcomes for u in exp_arm])
            for e, i in zip(exp_arm, rows):
                assert np.array_equal(units.features[i], e.features)
        return len(got[0]) + len(got[1])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference(self, seed):
        corpus, profiles, table = selection_corpus(seed)
        units = build_unit_table(corpus, profiles, table, corpus.outlet_rows())
        outcomes = [self.assert_same(corpus, profiles, table, s, units)
                    for s in SELECTION_SCENARIOS]
        assert all(isinstance(o, int) and o > 0 for o in outcomes[:5])
        assert outcomes[-1] == "error"  # edited records in cluster 1 overlap

    @pytest.mark.parametrize("seed", range(3))
    def test_missing_scores_match_reference(self, seed):
        corpus, profiles, table = selection_corpus(seed, missing_scores=0.2)
        units = build_unit_table(corpus, profiles, table, corpus.outlet_rows())
        outcomes = [self.assert_same(corpus, profiles, table, s, units)
                    for s in SELECTION_SCENARIOS]
        assert outcomes[4] == "error"

    def zero_hit_case(self, treatment, control, clickbait=0.9):
        records = [
            make_record(rid="a", outlet="x", body_text="budget vote"),
            make_record(rid="z", outlet="x", body_text="zzz qqq"),
            make_record(rid="b", outlet="x", body_text=""),
        ]
        profiles = make_profiles([
            ProfileRow("a", 0.5, 0.5, mirrored=True, cluster=1,
                       headline_clickbait=0.1, post_clickbait=0.1),
            ProfileRow("z", 0.5, 0.5, mirrored=False, cluster=1,
                       headline_clickbait=clickbait, post_clickbait=clickbait),
            ProfileRow("b", 0.5, 0.5, mirrored=False, cluster=1),
        ])
        table = EmbeddingTable(dim=2, vocab={"budget": np.array([1.0, 0.0]),
                                             "vote": np.array([0.0, 1.0])})
        corpus = make_corpus(records)
        scenario = Scenario("s", "x", treatment, control)
        return corpus, profiles, table, scenario

    def test_zero_hit_record_still_raises_overlap(self):
        corpus, profiles, table, scenario = self.zero_hit_case(
            Selector("edited"), Selector("cluster", cluster=1))
        units = build_unit_table(corpus, profiles, table, corpus.outlet_rows())
        assert self.assert_same(corpus, profiles, table, scenario, units) == "error"
        with pytest.raises(ScenarioError, match="'z' matches both selectors"):
            select_units(units, scenario)

    def test_zero_hit_record_still_raises_missing_scores(self):
        corpus, profiles, table, scenario = self.zero_hit_case(
            Selector("mirrored"), Selector("shift", headline_class="C", post_class="C"),
            clickbait=None)
        units = build_unit_table(corpus, profiles, table, corpus.outlet_rows())
        assert self.assert_same(corpus, profiles, table, scenario, units) == "error"
        with pytest.raises(ScenarioError, match="'z' lacks clickbait scores"):
            select_units(units, scenario)

    def test_zero_hit_and_blank_bodies_excluded(self):
        corpus, profiles, table, scenario = self.zero_hit_case(
            Selector("mirrored"), Selector("shift", headline_class="C", post_class="C"))
        units = build_unit_table(corpus, profiles, table, corpus.outlet_rows())
        assert units.profiles.record_ids == ("a", "z")  # the blank body has no row
        assert units.zero_hit.tolist() == [False, True]
        assert self.assert_same(corpus, profiles, table, scenario, units) == 1
        treatments, controls = select_units(units, scenario)
        assert [units.profiles.record_ids[i] for i in treatments] == ["a"] and len(controls) == 0

    def test_each_eligible_body_embedded_once(self, monkeypatch):
        corpus, profiles, table = selection_corpus(0)
        calls = []  # the texts of each embed_many call

        def counting_embed(tbl, texts):
            calls.append(list(texts))
            return embed_many(tbl, texts)

        monkeypatch.setattr(causal, "embed_many", counting_embed)
        eligible = [r for r in corpus if r.outlet == "x" and r.body_text.strip()]
        units = build_unit_table(corpus, profiles, table, {"x"})
        assert len(calls) == 1 and len(calls[0]) == len(units) == len(eligible)
        assert units.profiles.record_ids == tuple(r.id for r in eligible)
        assert calls[0] == [normalize(r.body_text) for r in eligible]
        for scenario in SELECTION_SCENARIOS[:3]:
            select_units(units, scenario)
        assert len(calls) == 1  # selection embeds nothing


def small_benchmark(seed=0, delta=0.0, n=1200):
    spec = sb.confounded_spec(n_records=n, effect_likes=delta, seed=seed)
    corpus, truth = sb.generate(spec)
    table = sb.synthetic_table(spec, seed=999)
    profiles = textsim.profile(corpus, table)
    scenario = Scenario("edited-vs-mirrored", "synthwire",
                        Selector("edited"), Selector("mirrored"))
    return corpus, profiles, scenario, table


class TestRunScenario:
    def test_reports_structure_and_determinism(self):
        corpus, profiles, scenario, table = small_benchmark(seed=1, delta=40.0)
        units = build_unit_table(corpus, profiles, table, corpus.outlet_rows())
        a = run_scenario(units, scenario, seed=5)
        b = run_scenario(units, scenario, seed=5)
        assert [r.metric for r in a] == ["replies", "retweets", "likes"]
        for ra, rb in zip(a, b):
            assert ra == rb
            assert len(ra.fold_eates) == 10
            assert ra.mean_eate == pytest.approx(np.mean(ra.fold_eates), abs=1e-12)

    def test_discard_reason_names_the_first_failing_rule(self):
        corpus, profiles, scenario, table = small_benchmark(seed=1, delta=40.0)
        units = build_unit_table(corpus, profiles, table, corpus.outlet_rows())
        reports = {r.metric: r for r in run_scenario(units, scenario, seed=5)}
        assert all(b.passed for b in reports["likes"].balance)
        # the +40 likes effect is kept; replies and retweets carry none
        assert reports["likes"].ci_low > 0.0
        assert (reports["likes"].discard_reason, reports["likes"].discarded) == (None, False)
        for metric in ("replies", "retweets"):
            assert reports[metric].ci_low <= 0.0 <= reports[metric].ci_high
            assert (reports[metric].discard_reason, reports[metric].discarded) == (
                "covers_zero", True)
        # no achievable cosine reaches tau = 1.5: a balance failure is
        # named even where the interval also covers 0
        for r in run_scenario(units, scenario, seed=5, config=CausalConfig(tau=1.5)):
            assert (r.discard_reason, r.discarded) == ("balance_failed", True)

    @pytest.mark.parametrize("config", [CausalConfig(), CausalConfig(tau=0.0)],
                             ids=["tau-binds", "mu-alpha-sigma-binds"])
    def test_quadratic_pair_stats_change_only_the_balance_baseline(self, monkeypatch, config):
        corpus, profiles, scenario, table = small_benchmark(seed=6, delta=40.0, n=900)
        units = build_unit_table(corpus, profiles, table, corpus.outlet_rows())
        got = run_scenario(units, scenario, seed=11, config=config)
        monkeypatch.setattr(causal, "pairwise_similarity_stats",
                            reference_pairwise_similarity_stats)
        want = run_scenario(units, scenario, seed=11, config=config)
        baseline = ("mu", "sigma", "threshold")
        for g, w in zip(got, want, strict=True):
            assert dataclasses.replace(g, balance=()) == dataclasses.replace(w, balance=())
            for gb, wb in zip(g.balance, w.balance, strict=True):
                blank = dict.fromkeys(baseline, 0.0)
                assert dataclasses.replace(gb, **blank) == dataclasses.replace(wb, **blank)
                for name in baseline:
                    assert getattr(gb, name) == pytest.approx(getattr(wb, name),
                                                              rel=0.0, abs=1e-12)

    def test_ci_uses_student_t_9dof(self):
        corpus, profiles, scenario, table = small_benchmark(seed=2, delta=0.0)
        units = build_unit_table(corpus, profiles, table, corpus.outlet_rows())
        [r] = [x for x in run_scenario(units, scenario, seed=3)
               if x.metric == "likes"]
        from scipy import stats as sps
        values = np.array(r.fold_eates)
        half = sps.t.ppf(0.975, 9) * values.std(ddof=1) / np.sqrt(10)
        assert r.ci_low == pytest.approx(values.mean() - half, abs=1e-12)
        assert r.ci_high == pytest.approx(values.mean() + half, abs=1e-12)

    def test_t_constant_is_scipy_quantile(self):
        from scipy import stats as sps
        assert causal.T_CRIT_95 == float(sps.t.ppf(0.975, causal.N_FOLDS - 1))

    def test_insufficient_units_names_selector(self):
        corpus, profiles, scenario, table = small_benchmark(seed=3, n=1200)
        strict = CausalConfig(min_group=10_000)
        with pytest.raises(ScenarioError, match="edited"):
            run_scenario(build_unit_table(corpus, profiles, table, corpus.outlet_rows()),
                         scenario, seed=0, config=strict)
        # fewer treatment units than folds leaves a fold with nothing held out
        few = Scenario("few", "synthwire", Selector("edited"), Selector("mirrored"),
                       section="politics", time_block="B1")
        corpus, profiles, _, table = small_benchmark(seed=3, n=60)
        with pytest.raises(ScenarioError, match=r"edited\] yields 8 units \(minimum 10\)"):
            run_scenario(build_unit_table(corpus, profiles, table, corpus.outlet_rows()),
                         few, seed=0, config=CausalConfig(min_group=1))
        # each fold matches against the other nine folds' controls: of 30
        # controls the smallest such set holds 27, enough for knn=27 only
        corpus, profiles, _, table = small_benchmark(seed=1, n=300)
        units = build_unit_table(corpus, profiles, table, corpus.outlet_rows())
        for knn, minimum in ((28, 32), (30, 34)):
            with pytest.raises(ScenarioError, match=rf"^scenario 'few': control selector "
                               rf"\[mirrored\] yields 30 units \(minimum {minimum}\)$"):
                run_scenario(units, few, seed=0, config=CausalConfig(knn=knn, min_group=0))
        reports = run_scenario(units, few, seed=0, config=CausalConfig(knn=27, min_group=0))
        assert (reports[0].n_treatment, reports[0].n_control) == (28, 30)

    def test_discard_flag_matches_interval_and_balance(self):
        corpus, profiles, scenario, table = small_benchmark(seed=4, delta=0.0)
        units = build_unit_table(corpus, profiles, table, corpus.outlet_rows())
        reports = run_scenario(units, scenario, seed=4)
        for r in reports:
            includes_zero = r.ci_low <= 0.0 <= r.ci_high
            any_fail = any(not b.passed for b in r.balance)
            assert r.discarded == (includes_zero or any_fail)
            # plain Python scalars, so the CLI can serialize the report
            assert type(r.discarded) is bool
            assert type(r.ci_low) is type(r.ci_high) is float


class TestFoldMatches:
    def test_cross_fitting_invariant(self, monkeypatch):
        monkeypatch.setattr(causal, "PROPENSITY_EPOCHS", 1)
        corpus, profiles, scenario, table = small_benchmark(seed=1, n=300)
        units = build_unit_table(corpus, profiles, table, corpus.outlet_rows())
        t_rows, c_rows = select_units(units, scenario)
        folds = fold_matches(units, t_rows, c_rows, seed=3, knn=5)
        assert len(folds) == causal.N_FOLDS
        # the ten held-out sets partition the treatment rows, near evenly
        held_out = np.concatenate([f.held_out for f in folds])
        assert np.array_equal(np.sort(held_out), t_rows)
        sizes = [len(f.held_out) for f in folds]
        assert max(sizes) - min(sizes) <= 1
        # the controls are dealt into folds the same way, and each fold
        # trains and matches on all the controls but its own
        rng = np.random.default_rng(3)
        causal._fold_indices(len(t_rows), rng)
        c_folds = causal._fold_indices(len(c_rows), rng)
        for fold, f in enumerate(folds):
            assert np.array_equal(f.train_controls, c_rows[c_folds != fold])
            assert f.chosen.shape == (len(f.held_out), 5)
            assert f.similarity.shape == (len(f.held_out),)
            assert np.isin(f.chosen, f.train_controls).all()


def hand_folds(gaps, similarities):
    """(units, t_rows, c_rows, folds) of ten hand-built folds: fold f holds
    out treatment row f, whose likes exceed those of its one matched control
    by gaps[f], at similarity similarities[f]. Every body vector is
    orthogonal to every other, so the pair statistics are mu = sigma = 0."""
    n = causal.N_FOLDS
    units = hand_table([(f"t{f}", np.eye(2 * n)[f], 10.0 + gaps[f]) for f in range(n)]
                       + [(f"c{f}", np.eye(2 * n)[n + f], 10.0) for f in range(n)])
    t_rows, c_rows = np.arange(n), n + np.arange(n)
    folds = [causal.FoldMatch(np.array([f]), np.delete(c_rows, f),
                              np.array([[c_rows[(f + 1) % n]]]), np.array([similarities[f]]))
             for f in range(n)]
    return units, t_rows, c_rows, folds


class TestScenarioReports:
    @pytest.mark.parametrize("gap, reason", [(3.0, None), (0.0, "covers_zero")])
    def test_equal_fold_gaps_give_a_point_interval(self, gap, reason):
        units, t_rows, c_rows, folds = hand_folds([gap] * 10, [0.9] * 10)
        reports = {r.metric: r for r in scenario_reports(units, "s", t_rows, c_rows, folds,
                                                         CausalConfig())}
        likes = reports["likes"]
        assert likes.fold_eates == (gap,) * 10
        assert likes.ci_low == likes.ci_high == likes.mean_eate == gap
        assert (likes.discard_reason, likes.discarded) == (reason, reason is not None)
        assert likes.naive_difference == gap
        assert (likes.n_treatment, likes.n_control) == (10, 10)
        assert all(b.passed and (b.mu, b.sigma, b.threshold) == (0.0, 0.0, 0.8)
                   for b in likes.balance)

    def test_one_unbalanced_fold_discards_every_metric(self):
        units, t_rows, c_rows, folds = hand_folds([3.0] * 10, [0.9] * 9 + [0.79])
        reports = scenario_reports(units, "s", t_rows, c_rows, folds, CausalConfig())
        assert [b.passed for b in reports[0].balance] == [True] * 9 + [False]
        for r in reports:
            # replies and retweets carry no gap, so their intervals cover 0 too
            assert (r.discard_reason, r.discarded) == ("balance_failed", True), r.metric

    def test_trains_and_draws_nothing(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("scenario_reports must not train, match or draw")

        for name in ("train_propensity", "match"):
            monkeypatch.setattr(causal, name, forbidden)
        monkeypatch.setattr(np.random, "default_rng", forbidden)
        units, t_rows, c_rows, folds = hand_folds([3.0] * 10, [0.9] * 10)
        assert len(scenario_reports(units, "s", t_rows, c_rows, folds, CausalConfig())) == 3


def reference_case(name):
    """(corpus, profiles, table, scenario, config) of one reference case on a
    900-record confounded corpus with a +40 likes effect."""
    corpus, profiles, scenario, table = small_benchmark(seed=6, delta=40.0, n=900)
    config = CausalConfig()
    if name.startswith("knn"):
        config = CausalConfig(knn=int(name[3:]))
    elif name == "exclude-mirrored":
        # edited records alternate between clusters 1 and 0 and mirrored ones
        # sit in cluster 1, so only the exclusion keeps them out of treatment
        profiles = make_profiles(p._replace(cluster=1 if p.mirrored else i % 2)
                                 for i, p in enumerate(profile_rows(profiles)))
        scenario = Scenario("clusters", "synthwire", Selector("cluster", cluster=1),
                            Selector("cluster", cluster=0), exclude_mirrored=True)
    elif name == "zero-hit":
        # every seventh body has no in-vocabulary token
        corpus = make_corpus([dataclasses.replace(r, body_text="zzz qqq") if i % 7 == 0 else r
                              for i, r in enumerate(corpus)])
    elif name == "section-time-block":
        scenario = dataclasses.replace(scenario, name="politics-B2", section="politics",
                                       time_block="B2")
        config = CausalConfig(min_group=10)
    return corpus, profiles, table, scenario, config


class TestColumnarMatchesReference:
    """`run_scenario` on table rows against the per-unit pipeline."""

    @pytest.mark.parametrize("name", ["knn1", "knn5", "knn10", "exclude-mirrored",
                                      "zero-hit", "section-time-block"])
    def test_reports_equal_field_by_field(self, name):
        corpus, profiles, table, scenario, config = reference_case(name)
        units = build_unit_table(corpus, profiles, table, corpus.outlet_rows())
        if name == "zero-hit":
            assert units.zero_hit.sum() > 0
        got = run_scenario(units, scenario, seed=11, config=config)
        want = reference_run_scenario(corpus, profiles, table, scenario, 11, config)
        assert len(got) == len(want) == len(ENGAGEMENT_METRICS)
        for g, w in zip(got, want):
            for field in dataclasses.fields(EateReport):
                assert getattr(g, field.name) == getattr(w, field.name), field.name
