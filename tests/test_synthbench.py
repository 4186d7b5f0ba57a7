import hashlib
import json
from dataclasses import MISSING, asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from editlift import synthbench as sb
from editlift.cli import main
from editlift.corpus import load_corpus, save_corpus
from editlift.embedding import cosine, embed_text
from editlift.textsim import profile


def tiny_spec(n=80, seed=0, **overrides):
    base = dict(
        n_records=n,
        topics=(
            sb.TopicSpec("alpha", tuple(f"a{i}" for i in range(20)),
                         {"replies": 5.0, "retweets": 10.0, "likes": 50.0}),
            sb.TopicSpec("beta", tuple(f"b{i}" for i in range(20)),
                         {"replies": 2.0, "retweets": 4.0, "likes": 20.0}),
        ),
        treatment_rule={"alpha": 0.5, "beta": 0.5},
        seed=seed,
    )
    base.update(overrides)
    return sb.SynthSpec(**base)


class TestValidation:
    def test_minimum_size(self):
        with pytest.raises(ValueError, match="at least 60"):
            sb.generate(tiny_spec(n=59))

    def test_empty_vocabulary(self):
        spec = tiny_spec()
        bad = sb.SynthSpec(
            n_records=80,
            topics=(sb.TopicSpec("x", (), spec.topics[0].base_means),),
            treatment_rule={"x": 0.5},
        )
        with pytest.raises(ValueError, match="vocabulary"):
            sb.generate(bad)

    def test_probability_range(self):
        with pytest.raises(ValueError, match="outside"):
            sb.generate(tiny_spec(treatment_rule={"alpha": 1.5, "beta": 0.5}))

    def test_missing_rule(self):
        with pytest.raises(ValueError, match="treatment probability"):
            sb.generate(tiny_spec(treatment_rule={"alpha": 0.5}))


class TestGenerate:
    def test_deterministic(self, tmp_path):
        corpus_a, truth_a = sb.generate(tiny_spec(seed=5))
        corpus_b, truth_b = sb.generate(tiny_spec(seed=5))
        assert corpus_a.records == corpus_b.records
        assert truth_a == truth_b
        save_corpus(corpus_a, tmp_path / "a.jsonl")
        save_corpus(corpus_b, tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_passes_corpus_validation(self, tmp_path):
        corpus, _ = sb.generate(tiny_spec(n=100, seed=1))
        save_corpus(corpus, tmp_path / "c.jsonl")
        loaded = load_corpus(tmp_path / "c.jsonl", "jsonl")
        assert len(loaded) == 100
        assert loaded.rejects == ()

    def test_treatment_realized_as_editing(self):
        spec = tiny_spec(seed=2)
        corpus, truth = sb.generate(spec)
        treated = {t.id for t in truth if t.treated}
        mirrored = profile(corpus, sb.synthetic_table(spec, seed=spec.seed)).mirrored
        assert mirrored.tolist() == [r.id not in treated for r in corpus]

    def test_truth_sidecar_contents(self):
        corpus, truth = sb.generate(tiny_spec(seed=3, true_effect={"likes": 10.0}))
        by_id = {t.id: t for t in truth}
        assert set(by_id) == {r.id for r in corpus}
        for t in truth:
            assert t.topic in ("alpha", "beta")
            base = 50.0 if t.topic == "alpha" else 20.0
            expected = base + (10.0 if t.treated else 0.0)
            assert t.expected["likes"] == pytest.approx(expected)

    def test_stratified_counts(self):
        _, truth = sb.generate(tiny_spec(n=100, seed=4,
                                         treatment_rule={"alpha": 0.7, "beta": 0.2}))
        per_topic = {"alpha": [0, 0], "beta": [0, 0]}
        for t in truth:
            per_topic[t.topic][t.treated] += 1
        assert sum(per_topic["alpha"]) == 50
        assert per_topic["alpha"][1] == 35  # round(0.7 * 50)
        assert per_topic["beta"][1] == 10

    def test_null_uniform_rule_gap_within_2_se(self):
        spec = tiny_spec(n=5000, seed=6)
        corpus, truth = sb.generate(spec)
        treated_ids = {t.id for t in truth if t.treated}
        likes_t = np.array([r.likes for r in corpus if r.id in treated_ids], dtype=float)
        likes_c = np.array([r.likes for r in corpus if r.id not in treated_ids], dtype=float)
        gap = likes_t.mean() - likes_c.mean()
        se = np.sqrt(likes_t.var(ddof=1) / len(likes_t) + likes_c.var(ddof=1) / len(likes_c))
        assert abs(gap) <= 2 * se

    def test_injected_effect_visible_naively_without_confounding(self):
        spec = tiny_spec(n=5000, seed=7, true_effect={"likes": 50.0})
        corpus, truth = sb.generate(spec)
        treated_ids = {t.id for t in truth if t.treated}
        likes_t = np.mean([r.likes for r in corpus if r.id in treated_ids])
        likes_c = np.mean([r.likes for r in corpus if r.id not in treated_ids])
        assert abs((likes_t - likes_c) - 50.0) <= 5.0  # within 10%

    def test_confounded_null_has_biased_naive_gap(self):
        spec = sb.confounded_spec(n_records=5000, effect_likes=0.0, seed=8)
        corpus, truth = sb.generate(spec)
        treated_ids = {t.id for t in truth if t.treated}
        likes_t = np.array([r.likes for r in corpus if r.id in treated_ids], dtype=float)
        likes_c = np.array([r.likes for r in corpus if r.id not in treated_ids], dtype=float)
        gap = likes_t.mean() - likes_c.mean()
        se = np.sqrt(likes_t.var(ddof=1) / len(likes_t) + likes_c.var(ddof=1) / len(likes_c))
        assert gap > 3 * se

    def test_negative_effect_clamps_and_flags(self):
        spec = tiny_spec(seed=9, true_effect={"likes": -100.0})
        _, truth = sb.generate(spec)
        assert any(t.clamped for t in truth if t.treated)

    def test_overdispersion_increases_variance(self):
        plain, _ = sb.generate(tiny_spec(n=4000, seed=10, dispersion=0.0))
        noisy, _ = sb.generate(tiny_spec(n=4000, seed=10, dispersion=0.5))
        var_plain = np.var([r.likes for r in plain.records])
        var_noisy = np.var([r.likes for r in noisy.records])
        assert var_noisy > 1.5 * var_plain


class TestSyntheticTable:
    def test_topics_separate_families_close(self):
        spec = sb.confounded_spec(n_records=500, effect_likes=0.0, seed=0)
        table = sb.synthetic_table(spec, seed=1)
        corpus, truth = sb.generate(spec)
        topic_by_id = {t.id: t.topic for t in truth}
        family = {t.topic_id: t.family for t in spec.topics}
        doc = {r.id: embed_text(table, r.body_text)[0] for r in corpus}
        centroids = {}
        for r in corpus:
            centroids.setdefault(topic_by_id[r.id], []).append(doc[r.id])
        centroids = {k: np.mean(v, axis=0) for k, v in centroids.items()}
        same_family, cross_family = [], []
        names = sorted(centroids)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                sim = cosine(centroids[a], centroids[b])
                (same_family if family[a] == family[b] else cross_family).append(sim)
        assert min(same_family) > 0.9
        assert max(cross_family) < 0.5

    def test_covers_generated_bodies(self, monkeypatch):
        monkeypatch.setattr(sb, "TABLE_DIM", 16)
        spec = tiny_spec()
        table = sb.synthetic_table(spec, seed=spec.seed)
        assert table.dim == 16 and len(next(iter(table.vocab.values()))) == 16
        corpus, _ = sb.generate(spec)
        for record in corpus.records[:20]:
            assert embed_text(table, record.body_text)[1] > 0


class TestSpecIO:
    def test_load_spec_round_trip(self, tmp_path):
        # every `SynthSpec` and `TopicSpec` field is a spec key, and each is
        # set away from its default, so a field `load_spec` does not read fails
        topics = tuple(replace(t, family="fam") for t in tiny_spec().topics)
        spec = tiny_spec(topics=topics, true_effect={"likes": 25.0}, dispersion=0.1, seed=4,
                         outlet="wire")
        for obj in (spec, *spec.topics):
            for f in fields(obj):
                default = f.default if f.default_factory is MISSING else f.default_factory()
                assert getattr(obj, f.name) != default, f.name
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(asdict(spec)), encoding="utf-8")
        loaded = sb.load_spec(path)
        assert loaded == spec

    @pytest.mark.parametrize("spec", [
        sb.confounded_spec(n_records=300, effect_likes=50.0, seed=3),
        # a family of None is written as null, which reads as the default
        replace(sb.confounded_spec(n_records=300, effect_likes=0.0, seed=0),
                topics=tuple(replace(t, family=None)
                             for t in sb.confounded_spec(300, 0.0, 0).topics),
                dispersion=0.25, true_effect={"likes": 12.5, "replies": -1.0},
                outlet="elsewhere"),
    ], ids=["preset", "custom"])
    def test_load_spec_reads_what_asdict_writes(self, tmp_path, spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(asdict(spec)), encoding="utf-8")
        assert sb.load_spec(path) == spec

    def test_null_reads_as_the_default(self, tmp_path):
        obj = asdict(tiny_spec())
        defaults = {f.name: f.default if f.default_factory is MISSING else f.default_factory()
                    for f in fields(sb.SynthSpec)
                    if f.default is not MISSING or f.default_factory is not MISSING}
        assert set(defaults) == {"true_effect", "dispersion", "seed", "outlet"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**obj, **dict.fromkeys(defaults)}), encoding="utf-8")
        assert sb.load_spec(path) == replace(tiny_spec(), **defaults)

    def test_save_truth_jsonl(self, tmp_path):
        _, truth = sb.generate(tiny_spec(seed=11))
        sb.save_truth(truth, tmp_path / "truth.jsonl")
        lines = (tmp_path / "truth.jsonl").read_text().splitlines()
        assert len(lines) == len(truth)
        first = json.loads(lines[0])
        assert set(first) == {"id", "topic", "treated", "expected", "clamped"}

    def test_save_truth_line_pinned(self, tmp_path):
        truth = sb.TruthRecord(id="r1", topic="t0", treated=True, clamped=False,
                               expected={"retweets": 3.75, "likes": 12.5, "replies": 1.0})
        sb.save_truth([truth], tmp_path / "truth.jsonl")
        assert (tmp_path / "truth.jsonl").read_text() == (
            '{"clamped": false, "expected": {"likes": 12.5, "replies": 1.0, "retweets": 3.75}, '
            '"id": "r1", "topic": "t0", "treated": true}\n')


class TestPresetStream:
    """The confounded preset's draws are pinned: criteria 3, 4 and 9 read
    this stream, so a change to the generator must leave these files
    byte-identical. A spec with dispersion pins the `gamma` draws too."""

    @pytest.mark.parametrize("argv,digests", [
        (["--n-records", "300", "--seed", "0"], {
            "corpus.jsonl": "97c2ea49e64923a91fba9cb4c1d753afae38b9b3e8b4cca72b25c87e630e543c",
            "truth.jsonl": "3e08e2b2a83c19b880a8f2b16c56854b8ce14662e2033f05f7df440f15996e0a",
            "vectors.txt": "eece469a3087e51855aeaf7e2ac81e074c5a39cef0d6e1bbce5ea81d17732894",
        }),
        (["--n-records", "300", "--seed", "7", "--effect-likes", "50"], {
            "corpus.jsonl": "e6751c99e78fdf6b34fd66882afe13262a00cdb10a363a70fa3d426f8a0f6930",
            "truth.jsonl": "3c200e8face008e88824687c2da514506bba3f7eeadb375700bf8a5dad255b3c",
            "vectors.txt": "fb80fbaae08c0758e6852652d32be1eb86f1c3f0ef447259e65550393638c99a",
        }),
    ])
    def test_synth_outputs_pinned(self, tmp_path, argv, digests):
        assert main(["synth", *argv, "--out", str(tmp_path)]) == 0
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in digests} == digests

    def test_spec_outputs_pinned(self, tmp_path):
        # the spec path draws the gamma multipliers the preset never does,
        # and clamps the beta replies mean of 1 - 3 at zero
        spec = {
            "n_records": 120, "seed": 3, "dispersion": 0.4, "outlet": "specwire",
            "topics": [
                {"topic_id": "alpha", "vocabulary": [f"a{i}" for i in range(30)],
                 "base_means": {"replies": 4.0, "retweets": 9.0, "likes": 40.0}},
                {"topic_id": "beta", "vocabulary": [f"b{i}" for i in range(45)],
                 "base_means": {"replies": 1.0, "retweets": 3.0, "likes": 15.0}},
            ],
            "treatment_rule": {"alpha": 0.6, "beta": 0.3},
            "true_effect": {"likes": 12.0, "replies": -3.0},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["synth", "--spec", str(path), "--out", str(out)]) == 0
        truth = [json.loads(line) for line in (out / "truth.jsonl").read_text().splitlines()]
        assert any(t["clamped"] for t in truth)
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("corpus.jsonl", "truth.jsonl", "vectors.txt")} == {
            "corpus.jsonl": "dea600d121040d451cc70199b4fbe7ab715d58f2804c1a7b398d93491ed46f4b",
            "truth.jsonl": "d9859215ecc7409e9bcfcc39c9fc15bb7ad35ab42fc8d0733896230777fe7a05",
            "vectors.txt": "db7d1e28e47947af28d800eff73a0c5038d0a2a9f384926e5689a933670d49db",
        }


class TestDrawEquivalence:
    """`generate` draws word indices with `integers(0, n, size=k)`, which
    must take the same values from the bit generator that `choice(n,
    size=k)` does, or every pinned stream moves."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(0, 49))
    def test_integers_draws_what_choice_draws(self, seed, n, k):
        by_choice = np.random.default_rng(seed)
        by_integers = np.random.default_rng(seed)
        a = by_choice.choice(n, size=k)
        b = by_integers.integers(0, n, size=k)
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert by_choice.bit_generator.state == by_integers.bit_generator.state
