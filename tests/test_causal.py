from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from editlift import causal, synthbench as sb, textsim
from editlift.causal import (
    BalanceStats,
    CausalConfig,
    CausalUnit,
    MatchResult,
    PropensityModel,
    Scenario,
    ScenarioError,
    Selector,
    balance_check,
    build_unit_table,
    estimate_eate,
    match,
    pairwise_similarity_stats,
    run_scenario,
    select_units,
    train_propensity,
)
from editlift.corpus import ENGAGEMENT_METRICS, assign_time_block
from editlift.embedding import EmbeddingTable, embed_text
from editlift.textsim import EditProfile, mann_whitney_u

from conftest import make_corpus, make_record


class FixedScores:
    """Propensity stub returning predeclared scores by feature value."""

    def __init__(self, mapping):
        self.mapping = mapping

    def predict(self, features):
        features = np.atleast_2d(features)
        return np.array([self.mapping[float(f[0])] for f in features])


def unit(rid, score_key, likes=0.0, vec=None):
    features = np.array([score_key]) if vec is None else np.asarray(vec, dtype=float)
    return CausalUnit(record_id=rid, features=features,
                      outcomes={"replies": 0.0, "retweets": 0.0, "likes": likes})


class TestMatch:
    def test_single_treatment_takes_all_five(self):
        controls = [unit(f"c{i}", float(i)) for i in range(5)]
        model = FixedScores({float(i): 0.1 * i for i in range(5)} | {9.0: 0.25})
        [result] = match([unit("t", 9.0)], controls, model, k=5)
        assert set(result.matched_control_ids) == {f"c{i}" for i in range(5)}

    def test_excludes_farthest_propensity(self):
        scores = {1.0: 0.1, 2.0: 0.2, 3.0: 0.8, 4.0: 0.85, 5.0: 0.9, 6.0: 0.95, 9.0: 0.88}
        controls = [unit(f"c{k}", k) for k in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)]
        model = FixedScores(scores)
        [result] = match([unit("t", 9.0)], controls, model, k=5)
        assert "c1.0" not in result.matched_control_ids  # gap 0.78 is the largest

    def test_with_replacement_across_treatments(self):
        scores = {1.0: 0.5, 2.0: 0.5, 9.0: 0.5, 8.0: 0.5}
        controls = [unit("c1", 1.0), unit("c2", 2.0)]
        model = FixedScores(scores)
        results = match([unit("t1", 9.0), unit("t2", 8.0)], controls, model, k=2)
        assert results[0].matched_control_ids == results[1].matched_control_ids

    def test_ties_break_on_ascending_record_id(self):
        scores = {k: 0.5 for k in (1.0, 2.0, 3.0, 9.0)}
        controls = [unit("zeta", 1.0), unit("alpha", 2.0), unit("mid", 3.0)]
        [result] = match([unit("t", 9.0)], controls, model=FixedScores(scores), k=2)
        assert result.matched_control_ids == ("alpha", "mid")

    def test_too_few_controls(self):
        with pytest.raises(ScenarioError):
            match([unit("t", 1.0)], [unit("c", 1.0)], FixedScores({1.0: 0.5}), k=5)

    def test_gap_values_recorded(self):
        scores = {1.0: 0.4, 2.0: 0.7, 9.0: 0.5}
        controls = [unit("c1", 1.0), unit("c2", 2.0)]
        [result] = match([unit("t", 9.0)], controls, FixedScores(scores), k=2)
        assert result.propensity_gaps == pytest.approx((0.1, 0.2))


def reference_match(treatments, controls, model, k):
    """Per-treatment full lexsort, as `match` selected before it was vectorized."""
    p_t = model.predict(np.vstack([u.features for u in treatments]))
    p_c = model.predict(np.vstack([u.features for u in controls]))
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
        results.append(MatchResult(
            treatment_id=unit.record_id,
            matched_control_ids=tuple(control_ids[c] for c in chosen),
            propensity_gaps=tuple(float(gaps[c]) for c in chosen),
            mean_similarity=float(np.mean(sims)),
        ))
    return results


class KeyedScores:
    """Propensity stub: feature 0 of a unit is the key of its score."""

    def __init__(self, scores):
        self.scores = np.asarray(scores, dtype=float)

    def predict(self, features):
        return self.scores[np.atleast_2d(features)[:, 0].astype(int)]


@st.composite
def match_problems(draw):
    n_t = draw(st.integers(1, 8))
    n_c = draw(st.integers(1, 25))
    # quarter-step propensities make exact gap ties common, on both sides of a treatment
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

        def make(key, rid):
            vec = np.concatenate([[float(key)], rng.normal(size=3)])
            return CausalUnit(rid, vec, {})

        treatments = [make(i, f"t{i}") for i in range(n_t)]
        controls = [make(n_t + j, rid) for j, rid in enumerate(ids)]
        model = KeyedScores(scores)
        with mock.patch.object(causal, "MATCH_CHUNK_CELLS", chunk_cells):
            got = match(treatments, controls, model, k=k)
        assert got == reference_match(treatments, controls, model, k)

    def test_k_below_one_rejected(self):
        with pytest.raises(ScenarioError, match="at least 1"):
            match([unit("t", 1.0)], [unit("c", 1.0)], FixedScores({1.0: 0.5}), k=0)


class TestEate:
    def make_matches(self, spec):
        return [
            MatchResult(t, tuple(cs), (0.0,) * len(cs), 1.0) for t, cs in spec
        ]

    def test_hand_oracle_single_treatment(self):
        matches = self.make_matches([("t", ["c1", "c2", "c3", "c4", "c5"])])
        outcomes = {"t": 10.0, "c1": 1.0, "c2": 2.0, "c3": 3.0, "c4": 4.0, "c5": 5.0}
        assert estimate_eate(matches, outcomes) == 7.0

    def test_null_effect(self):
        matches = self.make_matches([("t", ["c1", "c2"])])
        outcomes = {"t": 4.0, "c1": 4.0, "c2": 4.0}
        assert estimate_eate(matches, outcomes) == 0.0

    def test_two_treatments_average(self):
        matches = self.make_matches([("t1", ["c1"]), ("t2", ["c2"])])
        outcomes = {"t1": 7.0, "c1": 0.0, "t2": 0.0, "c2": 7.0}
        assert estimate_eate(matches, outcomes) == 0.0

    def test_missing_outcome_error(self):
        matches = self.make_matches([("t", ["c1"])])
        with pytest.raises(ValueError, match="no outcome"):
            estimate_eate(matches, {"t": 1.0})

    def test_linearity(self):
        rng = np.random.default_rng(0)
        matches = self.make_matches(
            [(f"t{i}", [f"c{i}a", f"c{i}b"]) for i in range(6)]
        )
        outcomes = {m.treatment_id: float(rng.integers(0, 50)) for m in matches}
        for m in matches:
            for c in m.matched_control_ids:
                outcomes[c] = float(rng.integers(0, 50))
        base = estimate_eate(matches, outcomes)
        scaled = estimate_eate(matches, {k: 3.0 * v for k, v in outcomes.items()})
        shifted = estimate_eate(matches, {k: v + 17.0 for k, v in outcomes.items()})
        assert scaled == pytest.approx(3.0 * base)
        assert shifted == pytest.approx(base)

    def test_antisymmetry_under_role_swap(self):
        # one-to-one matching both directions on a symmetric design
        pairs = [("a1", "b1"), ("a2", "b2"), ("a3", "b3")]
        outcomes = {"a1": 5.0, "b1": 1.0, "a2": 8.0, "b2": 2.0, "a3": 3.0, "b3": 7.0}
        fwd = self.make_matches([(a, [b]) for a, b in pairs])
        rev = self.make_matches([(b, [a]) for a, b in pairs])
        assert estimate_eate(fwd, outcomes) == pytest.approx(
            -estimate_eate(rev, outcomes))


class TestBalance:
    def matches_with_similarity(self, value):
        return [MatchResult("t", ("c",), (0.0,), value)]

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


class TestPairwiseStats:
    def test_exact_small(self):
        vecs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        mu, sigma = pairwise_similarity_stats(vecs)
        sims = [0.0, 1 / np.sqrt(2), 1 / np.sqrt(2)]
        assert mu == pytest.approx(np.mean(sims))
        assert sigma == pytest.approx(np.std(sims))

    def test_sampled_close_to_exact(self):
        rng = np.random.default_rng(1)
        vecs = rng.normal(size=(300, 8))
        mu_exact, sd_exact = pairwise_similarity_stats(vecs)
        mu_sample, sd_sample = pairwise_similarity_stats(
            vecs, seed=2, exact_cutoff=10, sample_size=100_000)
        assert mu_sample == pytest.approx(mu_exact, abs=0.01)
        assert sd_sample == pytest.approx(sd_exact, abs=0.01)

    def test_chunked_sample_equals_unchunked_einsum(self):
        n = causal.PAIR_SAMPLE_CUTOFF + 1
        rng = np.random.default_rng(3)
        vecs = rng.normal(size=(n, 32))
        vecs[5] = 0.0
        # the unchunked computation: one gather of every sampled pair
        norms = np.linalg.norm(vecs, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms)
        unit_vecs = vecs / safe[:, None]
        unit_vecs[norms == 0.0] = 0.0
        draw = np.random.default_rng(4)
        i = draw.integers(0, n, size=causal.PAIR_SAMPLE_SIZE)
        j = draw.integers(0, n - 1, size=causal.PAIR_SAMPLE_SIZE)
        j = np.where(j >= i, j + 1, j)
        sims = np.einsum("nd,nd->n", unit_vecs[i], unit_vecs[j])
        assert causal.PAIR_SAMPLE_SIZE % causal.PAIR_CHUNK != 0  # a partial last chunk
        assert pairwise_similarity_stats(vecs, seed=4) == (float(sims.mean()), float(sims.std()))

    def test_zero_norm_rows_tolerated(self):
        vecs = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        mu, sigma = pairwise_similarity_stats(vecs)
        assert np.isfinite(mu) and np.isfinite(sigma)


def separable_units(n_per, seed, gap=3.0, base_likes=100.0, effect=0.0):
    """Treatments cluster at +gap/2, controls at -gap/2 along one axis."""
    rng = np.random.default_rng(seed)
    treatments = [
        CausalUnit(f"t{i:03d}", rng.normal((gap / 2, 0.0), 1.0, size=2),
                   {"replies": 0.0, "retweets": 0.0,
                    "likes": float(rng.poisson(base_likes + effect))})
        for i in range(n_per)
    ]
    controls = [
        CausalUnit(f"c{i:03d}", rng.normal((-gap / 2, 0.0), 1.0, size=2),
                   {"replies": 0.0, "retweets": 0.0,
                    "likes": float(rng.poisson(base_likes))})
        for i in range(n_per)
    ]
    return treatments, controls


def rank_auc(pos_scores, neg_scores) -> float:
    u = mann_whitney_u(list(pos_scores), list(neg_scores)).statistic
    return u / (len(pos_scores) * len(neg_scores))


class TestTrainPropensity:
    def test_separable_groups_high_auc(self):
        treatments, controls = separable_units(150, seed=0)
        fit_t, hold_t = treatments[:100], treatments[100:]
        fit_c, hold_c = controls[:100], controls[100:]
        model = train_propensity(fit_t, fit_c, seed=1, epochs=30)
        auc = rank_auc(
            model.predict(np.array([u.features for u in hold_t])),
            model.predict(np.array([u.features for u in hold_c])),
        )
        assert auc > 0.9

    def test_shuffled_labels_near_chance_auc(self):
        treatments, controls = separable_units(150, seed=2)
        pool = treatments + controls
        rng = np.random.default_rng(3)
        order = rng.permutation(len(pool))
        relabeled_t = [pool[i] for i in order[:150]]
        relabeled_c = [pool[i] for i in order[150:]]
        model = train_propensity(relabeled_t[:100], relabeled_c[:100], seed=4, epochs=30)
        auc = rank_auc(
            model.predict(np.array([u.features for u in relabeled_t[100:]])),
            model.predict(np.array([u.features for u in relabeled_c[100:]])),
        )
        assert 0.4 <= auc <= 0.6

    def test_one_class_rejected(self):
        treatments, _ = separable_units(5, seed=5)
        with pytest.raises(ScenarioError):
            train_propensity(treatments, [], seed=0)

    def test_outputs_strictly_inside_unit_interval(self):
        treatments, controls = separable_units(50, seed=6)
        model = train_propensity(treatments, controls, seed=7, epochs=50)
        p = model.predict(np.array([u.features for u in treatments + controls]))
        assert np.all((p > 0) & (p < 1))


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
            profiles.append(EditProfile(f"r{i}", 0.0 if mirrored else 0.5,
                                        1.0, mirrored))
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
        units = build_unit_table(corpus, profiles, self.table(), corpus.outlets())
        treatments, controls = select_units(units, scenario)
        assert {u.record_id for u in treatments} == {"r1", "r3"}  # r5 has no body
        assert {u.record_id for u in controls} == {"r0", "r2", "r4"}

    def test_section_filter(self):
        corpus, profiles = self.corpus_and_profiles()
        scenario = Scenario("s", "x", Selector("edited"), Selector("mirrored"),
                            section="politics")
        units = build_unit_table(corpus, profiles, self.table(), corpus.outlets())
        treatments, controls = select_units(units, scenario)
        assert {u.record_id for u in treatments} == {"r1", "r3"}
        assert {u.record_id for u in controls} == {"r0", "r2"}

    def test_cluster_selectors(self):
        corpus, profiles = self.corpus_and_profiles()
        profiles = [
            EditProfile(p.record_id, p.edit_distance, p.embedding_similarity,
                        p.mirrored, cluster=i % 3)
            for i, p in enumerate(profiles)
        ]
        scenario = Scenario("s", "x", Selector("cluster", cluster=1),
                            Selector("cluster", cluster=0))
        units = build_unit_table(corpus, profiles, self.table(), corpus.outlets())
        treatments, controls = select_units(units, scenario)
        assert {u.record_id for u in treatments} == {"r1", "r4"}
        assert {u.record_id for u in controls} == {"r0", "r3"}

    def test_shift_selectors_and_exclude_mirrored(self):
        corpus, profiles = self.corpus_and_profiles()
        profiles = [
            EditProfile(p.record_id, p.edit_distance, p.embedding_similarity,
                        p.mirrored, headline_clickbait=0.2,
                        post_clickbait=0.9 if int(p.record_id[1]) < 4 else 0.1)
            for p in profiles
        ]
        scenario = Scenario(
            "s", "x",
            Selector("shift", headline_class="NC", post_class="C"),
            Selector("shift", headline_class="NC", post_class="NC"),
            exclude_mirrored=True,
        )
        units = build_unit_table(corpus, profiles, self.table(), corpus.outlets())
        treatments, controls = select_units(units, scenario)
        assert {u.record_id for u in treatments} == {"r1", "r3"}
        # mirrored records are excluded and the only NC->NC candidate (r5)
        # has no body text, so the control side comes back empty
        assert {u.record_id for u in controls} == set()

    def test_scenario_parsing(self):
        scenario = Scenario.from_dict({
            "name": "clusters", "outlet": "x",
            "treatment": {"kind": "cluster", "cluster": 2},
            "control": {"kind": "cluster", "cluster": 0},
            "time_block": "B2",
            "exclude_mirrored": True,
        })
        assert scenario.treatment.cluster == 2
        assert scenario.time_block == "B2"
        with pytest.raises(ScenarioError):
            Scenario.from_dict({"name": "bad", "outlet": "x",
                                "treatment": {"kind": "nope"},
                                "control": {"kind": "mirrored"}})


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
    got_h = "C" if profile.headline_clickbait > causal.CLICKBAIT_THRESHOLD else "NC"
    got_p = "C" if profile.post_clickbait > causal.CLICKBAIT_THRESHOLD else "NC"
    return got_h == selector.headline_class and got_p == selector.post_class


def reference_select_units(corpus, profiles, scenario, table):
    """Per-record selection, embedding each selected body on the spot."""
    profile_by_id = {p.record_id: p for p in profiles}
    treatments, controls = [], []
    for record in corpus:
        if record.outlet != scenario.outlet:
            continue
        if scenario.section is not None and record.section != scenario.section:
            continue
        if (scenario.time_block is not None
                and assign_time_block(record) != scenario.time_block):
            continue
        prof = profile_by_id.get(record.id)
        if prof is None:
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
        doc = embed_text(table, record.body_text)
        if doc.is_zero_hit:
            continue
        unit = CausalUnit(
            record_id=record.id,
            features=doc.values,
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
    with blank and zero-hit bodies, unprofiled and unclustered records."""
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
        if rng.random() < 0.1:
            continue  # no profile
        scored = rng.random() >= missing_scores
        profiles.append(EditProfile(
            rid, 0.5, 0.5, mirrored=bool(rng.random() < 0.4),
            cluster=None if rng.random() < 0.1 else int(rng.integers(3)),
            headline_clickbait=float(rng.random()) if scored else None,
            post_clickbait=float(rng.random()) if scored else None,
        ))
    vocab = {w: np.random.default_rng(j).normal(size=3) for j, w in enumerate(SELECTION_VOCAB)}
    return make_corpus(records), profiles, EmbeddingTable(dim=3, vocab=vocab)


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
        for exp_arm, got_arm in zip(expected, got):
            assert [u.record_id for u in got_arm] == [u.record_id for u in exp_arm]
            assert [u.outcomes for u in got_arm] == [u.outcomes for u in exp_arm]
            for e, g in zip(exp_arm, got_arm):
                assert np.array_equal(g.features, e.features)
        return len(got[0]) + len(got[1])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference(self, seed):
        corpus, profiles, table = selection_corpus(seed)
        units = build_unit_table(corpus, profiles, table, corpus.outlets())
        outcomes = [self.assert_same(corpus, profiles, table, s, units)
                    for s in SELECTION_SCENARIOS]
        assert all(isinstance(o, int) and o > 0 for o in outcomes[:5])
        assert outcomes[-1] == "error"  # edited records in cluster 1 overlap

    @pytest.mark.parametrize("seed", range(3))
    def test_missing_scores_match_reference(self, seed):
        corpus, profiles, table = selection_corpus(seed, missing_scores=0.2)
        units = build_unit_table(corpus, profiles, table, corpus.outlets())
        outcomes = [self.assert_same(corpus, profiles, table, s, units)
                    for s in SELECTION_SCENARIOS]
        assert outcomes[4] == "error"

    def zero_hit_case(self, treatment, control, clickbait=0.9):
        records = [
            make_record(rid="a", outlet="x", body_text="budget vote"),
            make_record(rid="z", outlet="x", body_text="zzz qqq"),
            make_record(rid="b", outlet="x", body_text=""),
        ]
        profiles = [
            EditProfile("a", 0.5, 0.5, mirrored=True, cluster=1,
                        headline_clickbait=0.1, post_clickbait=0.1),
            EditProfile("z", 0.5, 0.5, mirrored=False, cluster=1,
                        headline_clickbait=clickbait, post_clickbait=clickbait),
            EditProfile("b", 0.5, 0.5, mirrored=False, cluster=1),
        ]
        table = EmbeddingTable(dim=2, vocab={"budget": np.array([1.0, 0.0]),
                                             "vote": np.array([0.0, 1.0])})
        corpus = make_corpus(records)
        scenario = Scenario("s", "x", treatment, control)
        return corpus, profiles, table, scenario

    def test_zero_hit_record_still_raises_overlap(self):
        corpus, profiles, table, scenario = self.zero_hit_case(
            Selector("edited"), Selector("cluster", cluster=1))
        units = build_unit_table(corpus, profiles, table, corpus.outlets())
        assert self.assert_same(corpus, profiles, table, scenario, units) == "error"
        with pytest.raises(ScenarioError, match="'z' matches both selectors"):
            select_units(units, scenario)

    def test_zero_hit_record_still_raises_missing_scores(self):
        corpus, profiles, table, scenario = self.zero_hit_case(
            Selector("mirrored"), Selector("shift", headline_class="C", post_class="C"),
            clickbait=None)
        units = build_unit_table(corpus, profiles, table, corpus.outlets())
        assert self.assert_same(corpus, profiles, table, scenario, units) == "error"
        with pytest.raises(ScenarioError, match="'z' lacks clickbait scores"):
            select_units(units, scenario)

    def test_zero_hit_and_blank_bodies_excluded(self):
        corpus, profiles, table, scenario = self.zero_hit_case(
            Selector("mirrored"), Selector("shift", headline_class="C", post_class="C"))
        units = build_unit_table(corpus, profiles, table, corpus.outlets())
        assert units.record_ids == ("a", "z")  # the blank body has no row
        assert units.zero_hit.tolist() == [False, True]
        assert self.assert_same(corpus, profiles, table, scenario, units) == 1
        treatments, controls = select_units(units, scenario)
        assert [u.record_id for u in treatments] == ["a"] and controls == []

    def test_each_eligible_body_embedded_once(self, monkeypatch):
        corpus, profiles, table = selection_corpus(0)
        calls = []

        def counting_embed(tbl, text):
            calls.append(text)
            return embed_text(tbl, text)

        monkeypatch.setattr(causal, "embed_text", counting_embed)
        profiled = {p.record_id for p in profiles}
        eligible = [r for r in corpus if r.outlet == "x" and r.id in profiled
                    and r.body_text.strip()]
        units = build_unit_table(corpus, profiles, table, {"x"})
        assert len(calls) == len(units) == len(eligible)
        assert units.record_ids == tuple(r.id for r in eligible)
        assert calls == [r.body_text for r in eligible]
        for scenario in SELECTION_SCENARIOS[:3]:
            select_units(units, scenario)
        assert len(calls) == len(eligible)  # selection embeds nothing


def small_benchmark(seed=0, delta=0.0, n=1200):
    spec = sb.confounded_spec(n_records=n, effect_likes=delta, seed=seed)
    corpus, truth = sb.generate(spec)
    table = sb.synthetic_table(spec, dim=32, seed=999)
    profiles = textsim.profile(corpus, table)
    scenario = Scenario("edited-vs-mirrored", "synthwire",
                        Selector("edited"), Selector("mirrored"))
    return corpus, profiles, scenario, table


class TestRunScenario:
    def test_reports_structure_and_determinism(self):
        corpus, profiles, scenario, table = small_benchmark(seed=1, delta=40.0)
        units = build_unit_table(corpus, profiles, table, corpus.outlets())
        a = run_scenario(units, scenario, seed=5)
        b = run_scenario(units, scenario, seed=5)
        assert [r.metric for r in a] == ["replies", "retweets", "likes"]
        for ra, rb in zip(a, b):
            assert ra == rb
            assert len(ra.fold_eates) == 10
            assert ra.mean_eate == pytest.approx(np.mean(ra.fold_eates), abs=1e-12)

    def test_zero_variance_folds_not_discarded(self):
        report = causal.EateReport(
            scenario="s", metric="likes", fold_eates=(3.0,) * 10, mean_eate=3.0,
            ci_low=3.0, ci_high=3.0, discarded=False, balance=(),
            naive_difference=0.0, n_treatment=10, n_control=10,
        )
        assert report.ci_low == report.ci_high == report.mean_eate

    def test_ci_uses_student_t_9dof(self):
        corpus, profiles, scenario, table = small_benchmark(seed=2, delta=0.0)
        units = build_unit_table(corpus, profiles, table, corpus.outlets())
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
            run_scenario(build_unit_table(corpus, profiles, table, corpus.outlets()),
                         scenario, seed=0, config=strict)
        # fewer treatment units than folds leaves a fold with nothing held out
        few = Scenario("few", "synthwire", Selector("edited"), Selector("mirrored"),
                       section="politics", time_block="B1")
        corpus, profiles, _, table = small_benchmark(seed=3, n=60)
        with pytest.raises(ScenarioError, match=r"edited\] yields 8 units \(minimum 10\)"):
            run_scenario(build_unit_table(corpus, profiles, table, corpus.outlets()),
                         few, seed=0, config=CausalConfig(min_group=1))

    def test_discard_flag_matches_interval_and_balance(self):
        corpus, profiles, scenario, table = small_benchmark(seed=4, delta=0.0)
        units = build_unit_table(corpus, profiles, table, corpus.outlets())
        reports = run_scenario(units, scenario, seed=4)
        for r in reports:
            includes_zero = r.ci_low <= 0.0 <= r.ci_high
            any_fail = any(not b.passed for b in r.balance)
            assert r.discarded == (includes_zero or any_fail)
            # plain Python scalars, so the CLI can serialize the report
            assert type(r.discarded) is bool
            assert type(r.ci_low) is type(r.ci_high) is float
