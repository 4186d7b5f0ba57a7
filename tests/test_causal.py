import numpy as np
import pytest

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
    estimate_eate,
    match,
    pairwise_similarity_stats,
    run_scenario,
    select_units,
    train_propensity,
)
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


class TestEate:
    def make_matches(self, spec):
        return [
            MatchResult(t, tuple(cs), (0.0,) * len(cs), 1.0) for t, cs in spec
        ]

    def test_hand_oracle_single_treatment(self):
        matches = self.make_matches([("t", ["c1", "c2", "c3", "c4", "c5"])])
        outcomes = {"t": 10.0, "c1": 1.0, "c2": 2.0, "c3": 3.0, "c4": 4.0, "c5": 5.0}
        assert estimate_eate(matches, outcomes, k=5) == 7.0

    def test_null_effect(self):
        matches = self.make_matches([("t", ["c1", "c2"])])
        outcomes = {"t": 4.0, "c1": 4.0, "c2": 4.0}
        assert estimate_eate(matches, outcomes, k=2) == 0.0

    def test_two_treatments_average(self):
        matches = self.make_matches([("t1", ["c1"]), ("t2", ["c2"])])
        outcomes = {"t1": 7.0, "c1": 0.0, "t2": 0.0, "c2": 7.0}
        assert estimate_eate(matches, outcomes, k=1) == 0.0

    def test_missing_outcome_error(self):
        matches = self.make_matches([("t", ["c1"])])
        with pytest.raises(ValueError, match="no outcome"):
            estimate_eate(matches, {"t": 1.0}, k=1)

    def test_linearity(self):
        rng = np.random.default_rng(0)
        matches = self.make_matches(
            [(f"t{i}", [f"c{i}a", f"c{i}b"]) for i in range(6)]
        )
        outcomes = {m.treatment_id: float(rng.integers(0, 50)) for m in matches}
        for m in matches:
            for c in m.matched_control_ids:
                outcomes[c] = float(rng.integers(0, 50))
        base = estimate_eate(matches, outcomes, k=2)
        scaled = estimate_eate(matches, {k: 3.0 * v for k, v in outcomes.items()}, k=2)
        shifted = estimate_eate(matches, {k: v + 17.0 for k, v in outcomes.items()}, k=2)
        assert scaled == pytest.approx(3.0 * base)
        assert shifted == pytest.approx(base)

    def test_antisymmetry_under_role_swap(self):
        # one-to-one matching both directions on a symmetric design
        pairs = [("a1", "b1"), ("a2", "b2"), ("a3", "b3")]
        outcomes = {"a1": 5.0, "b1": 1.0, "a2": 8.0, "b2": 2.0, "a3": 3.0, "b3": 7.0}
        fwd = self.make_matches([(a, [b]) for a, b in pairs])
        rev = self.make_matches([(b, [a]) for a, b in pairs])
        assert estimate_eate(fwd, outcomes, k=1) == pytest.approx(
            -estimate_eate(rev, outcomes, k=1))


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
        treatments, controls = select_units(corpus, profiles, scenario, self.table())
        assert {u.record_id for u in treatments} == {"r1", "r3"}  # r5 has no body
        assert {u.record_id for u in controls} == {"r0", "r2", "r4"}

    def test_section_filter(self):
        corpus, profiles = self.corpus_and_profiles()
        scenario = Scenario("s", "x", Selector("edited"), Selector("mirrored"),
                            section="politics")
        treatments, controls = select_units(corpus, profiles, scenario, self.table())
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
        treatments, controls = select_units(corpus, profiles, scenario, self.table())
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
        treatments, controls = select_units(corpus, profiles, scenario, self.table())
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
        a = run_scenario(corpus, profiles, scenario, table, seed=5)
        b = run_scenario(corpus, profiles, scenario, table, seed=5)
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
        [r] = [x for x in run_scenario(corpus, profiles, scenario, table, seed=3)
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
            run_scenario(corpus, profiles, scenario, table, seed=0, config=strict)
        # fewer treatment units than folds leaves a fold with nothing held out
        few = Scenario("few", "synthwire", Selector("edited"), Selector("mirrored"),
                       section="politics", time_block="B1")
        corpus, profiles, _, table = small_benchmark(seed=3, n=60)
        with pytest.raises(ScenarioError, match=r"edited\] yields 8 units \(minimum 10\)"):
            run_scenario(corpus, profiles, few, table, seed=0, config=CausalConfig(min_group=1))

    def test_discard_flag_matches_interval_and_balance(self):
        corpus, profiles, scenario, table = small_benchmark(seed=4, delta=0.0)
        reports = run_scenario(corpus, profiles, scenario, table, seed=4)
        for r in reports:
            includes_zero = r.ci_low <= 0.0 <= r.ci_high
            any_fail = any(not b.passed for b in r.balance)
            assert r.discarded == (includes_zero or any_fail)
            # plain Python scalars, so the CLI can serialize the report
            assert type(r.discarded) is bool
            assert type(r.ci_low) is type(r.ci_high) is float
