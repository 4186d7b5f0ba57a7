import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from editlift import cluster as cluster_module
from editlift.cluster import (
    MAX_LLOYD_ITERATIONS,
    RESTARTS,
    ClusterModel,
    _cluster_means,
    _seed_centroids,
    best_fit,
    canonical_order,
    cluster_fractions,
    elbow_select,
    fit_profiles,
    kmeanspp_fit,
    profile_points,
    save_model,
)
from conftest import make_corpus, make_profiles, make_record


def blobs(centers, n_per, spread, seed):
    rng = np.random.default_rng(seed)
    parts = [rng.normal(c, spread, size=(n_per, 2)) for c in centers]
    return np.vstack(parts)


def load_model(path) -> ClusterModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return ClusterModel(
        k=int(payload["k"]),
        centroids=np.asarray(payload["centroids"], dtype=np.float64),
        inertia=float(payload["inertia"]),
        seed=int(payload["seed"]),
    )


def reference_kmeanspp_fit(points, k, seed):
    """kmeanspp_fit on an [n, k, d] difference array with a boolean-mask mean
    per cluster; also tells whether an empty cluster was re-seated."""
    pts = np.asarray(points, dtype=np.float64)
    rng = np.random.default_rng(seed)
    centroids = _seed_centroids(pts, k, rng)
    labels = np.full(len(pts), -1, dtype=np.int64)
    reseated = False
    for _ in range(MAX_LLOYD_ITERATIONS):
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        for c in range(k):
            members = pts[new_labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
            else:
                worst = int(np.argmax(d2[np.arange(len(pts)), new_labels]))
                centroids[c] = pts[worst]
                new_labels[worst] = c
                reseated = True
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

    d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(len(pts)), labels].sum())
    return ClusterModel(k=k, centroids=centroids.copy(), inertia=inertia, seed=seed), reseated


@st.composite
def fit_problems(draw):
    """Uniform points, or points on a quarter-step grid (many duplicates, so
    clusters empty out and get re-seated), with any k up to n."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        cells = draw(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                              min_size=n, max_size=n))
        pts = np.array(cells, dtype=np.float64) * 0.25
    else:
        pts = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, 2))
    return pts, draw(st.integers(1, n)), draw(st.integers(0, 2**16))


class TestKmeansFit:
    def test_single_point(self):
        model = kmeanspp_fit([[0.0, 0.0]], k=1, seed=0)
        assert np.allclose(model.centroids, [[0.0, 0.0]])
        assert model.inertia == 0.0

    def test_two_tight_blobs(self):
        pts = blobs([(0.0, 0.0), (1.0, 1.0)], n_per=50, spread=0.01, seed=1)
        model = best_fit(pts, k=2, seed=0)
        ordered = model.centroids[np.argsort(model.centroids[:, 0])]
        assert np.all(np.abs(ordered[0] - [0.0, 0.0]) < 0.05)
        assert np.all(np.abs(ordered[1] - [1.0, 1.0]) < 0.05)
        labels = model.assign(pts)
        assert len(set(labels[:50])) == 1
        assert len(set(labels[50:])) == 1
        assert labels[0] != labels[50]

    def test_best_of_restarts_read_when_called(self, monkeypatch):
        pts = blobs([(0.0, 0.0), (1.0, 0.2), (0.4, 1.0)], n_per=20, spread=0.3, seed=3)
        fits = [kmeanspp_fit(pts, 3, seed=5 + i).inertia for i in range(RESTARTS)]
        assert best_fit(pts, 3, seed=5).inertia == min(fits)
        monkeypatch.setattr(cluster_module, "RESTARTS", 1)
        assert best_fit(pts, 3, seed=5).inertia == fits[0]

    def test_inertia_monotone_in_k(self):
        pts = blobs([(0.0, 0.0), (0.5, 1.0)], n_per=40, spread=0.2, seed=2)
        i1 = best_fit(pts, k=1, seed=0).inertia
        i2 = best_fit(pts, k=2, seed=0).inertia
        assert i2 <= i1

    def test_errors(self):
        with pytest.raises(ValueError):
            kmeanspp_fit([[0.0, 0.0]], k=0, seed=0)
        with pytest.raises(ValueError):
            kmeanspp_fit([[0.0, 0.0]], k=2, seed=0)

    def test_determinism(self):
        pts = blobs([(0, 0), (1, 0), (0, 1)], n_per=30, spread=0.1, seed=3)
        a = kmeanspp_fit(pts, k=3, seed=17)
        b = kmeanspp_fit(pts, k=3, seed=17)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia == b.inertia

    def test_equals_reference(self):
        reseated = []

        @settings(max_examples=300, deadline=None)
        @given(fit_problems())
        def check(problem):
            pts, k, seed = problem
            want, did_reseat = reference_kmeanspp_fit(pts, k, seed)
            got = kmeanspp_fit(pts, k, seed)
            assert np.array_equal(got.centroids, want.centroids)
            assert got.centroids.tobytes() == want.centroids.tobytes()
            assert got.inertia == want.inertia
            assert np.array_equal(got.assign(pts), want.assign(pts))
            reseated.append(did_reseat)

        check()
        assert any(reseated), "no generated case re-seated an empty cluster"

    def test_lloyd_beats_or_matches_random_init(self):
        # k-means++ (best of 10) vs uniform random seeding (best of 10)
        rng_global = np.random.default_rng(99)
        for trial in range(20):
            centers = rng_global.uniform(0, 1, size=(3, 2))
            pts = blobs(centers, n_per=30, spread=0.05, seed=trial)
            pp = best_fit(pts, k=3, seed=trial).inertia
            best_random = np.inf
            for restart in range(10):
                rng = np.random.default_rng(1000 * trial + restart)
                centroids = pts[rng.choice(len(pts), size=3, replace=False)]
                labels = np.argmin(
                    ((pts[:, None] - centroids[None]) ** 2).sum(axis=2), axis=1)
                for _ in range(300):
                    new_c = np.array([
                        pts[labels == c].mean(axis=0) if np.any(labels == c) else centroids[c]
                        for c in range(3)
                    ])
                    new_labels = np.argmin(
                        ((pts[:, None] - new_c[None]) ** 2).sum(axis=2), axis=1)
                    centroids = new_c
                    if np.array_equal(new_labels, labels):
                        break
                    labels = new_labels
                inertia = ((pts - centroids[labels]) ** 2).sum()
                best_random = min(best_random, inertia)
            assert pp <= best_random + 1e-9


class TestBincountMeanGuard:
    """`kmeanspp_fit` takes cluster means with np.bincount and relies on them
    agreeing, bit for bit, with the boolean-mask `mean(axis=0)` of each
    cluster's rows. A numpy where they do not would drift every centroid."""

    @pytest.mark.parametrize("n, k", [(1, 1), (7, 2), (9, 3), (100, 4), (2500, 8), (5000, 1)])
    def test_equals_mask_mean(self, n, k):
        rng = np.random.default_rng(n + k)
        pts = rng.normal(size=(n, 2)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 2))
        labels = np.concatenate([np.arange(k), rng.integers(0, k, size=n - k)])
        counts = np.bincount(labels, minlength=k)
        got = _cluster_means(np.ascontiguousarray(pts.T), labels, counts)
        want = np.array([pts[labels == c].mean(axis=0) for c in range(k)])
        assert got.tobytes() == want.tobytes()


class TestElbow:
    def test_three_blobs(self):
        pts = blobs([(0.9, 0.05), (0.8, 0.6), (0.2, 0.8)], n_per=60, spread=0.03, seed=5)
        assert elbow_select(pts, k_max=6, seed=0) == 3

    def test_single_blob(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0.4, 0.6, size=(200, 2))  # one featureless cloud
        assert elbow_select(pts, k_max=4, seed=0) == 1

    def test_threshold_rule_on_synthetic_ratios(self, monkeypatch):
        # inertias engineered so ratios are 0.5, 0.14, 0.05
        inertias = [1.0, 0.5, 0.43, 0.4085]
        monkeypatch.setattr(cluster_module, "best_fit", lambda pts, k, seed: ClusterModel(
            k=k, centroids=np.zeros((k, 2)), inertia=inertias[k - 1], seed=seed))
        pts = np.zeros((4, 2))
        # at k=2 the ratio 0.14 < ELBOW_THRESHOLD = 0.15 -> select 2
        assert elbow_select(pts, k_max=4, seed=0) == 2
        monkeypatch.setattr(cluster_module, "ELBOW_THRESHOLD", 0.1)
        assert elbow_select(pts, k_max=4, seed=0) == 3
        monkeypatch.setattr(cluster_module, "ELBOW_THRESHOLD", 0.01)  # no ratio below
        assert elbow_select(pts, k_max=4, seed=0) == 1

    def test_fits_equal_fresh_best_fits(self):
        pts = blobs([(0.9, 0.05), (0.8, 0.6), (0.2, 0.8)], n_per=30, spread=0.03, seed=9)
        fits = []
        k = elbow_select(pts, k_max=5, seed=2, fits=fits)
        assert [m.k for m in fits] == [1, 2, 3, 4, 5]
        for model in fits:
            fresh = best_fit(pts, model.k, seed=2)
            assert model.inertia == fresh.inertia and model.seed == fresh.seed
            assert model.centroids.tobytes() == fresh.centroids.tobytes()
        profiles = make_profiles((f"r{i}", d, s, False) for i, (s, d) in enumerate(pts))
        reused_model, reused = fit_profiles(profiles, fits[k - 1])
        fresh_model, fresh = fit_profiles(profiles, best_fit(pts, k, seed=2))
        assert np.array_equal(reused, fresh)
        assert reused_model.centroids.tobytes() == fresh_model.centroids.tobytes()

    def test_arguments(self):
        with pytest.raises(ValueError):
            elbow_select([[0, 0], [1, 1]], k_max=1, seed=0)
        with pytest.raises(ValueError):
            elbow_select([[0, 0]], k_max=2, seed=0)


class TestCanonicalOrder:
    def test_orders_by_edit_distance_coordinate(self):
        pts = blobs([(0.9, 0.05), (0.8, 0.55), (0.2, 0.9)], n_per=40, spread=0.02, seed=7)
        model = canonical_order(best_fit(pts, k=3, seed=1))
        dist_coords = model.centroids[:, 1]
        assert np.all(np.diff(dist_coords) >= 0)

    def test_stable_across_seeds(self):
        pts = blobs([(0.9, 0.05), (0.2, 0.9)], n_per=50, spread=0.02, seed=8)
        a = canonical_order(best_fit(pts, k=2, seed=3))
        b = canonical_order(best_fit(pts, k=2, seed=91))
        assert np.allclose(a.centroids, b.centroids, atol=0.02)


class TestFractions:
    def profiles(self, labels):
        return make_profiles((f"r{i}", 0.5, 0.5, False, c) for i, c in enumerate(labels))

    def corpus(self):
        return make_corpus([make_record(rid=f"r{i}", outlet="x") for i in range(4)])

    def test_counted_by_hand(self):
        fractions = cluster_fractions(self.profiles([0, 0, 1, 2]), self.corpus(), k=3)
        assert fractions["x"] == pytest.approx([0.5, 0.25, 0.25])

    def test_single_cluster(self):
        fractions = cluster_fractions(self.profiles([0] * 4), self.corpus(), k=3)
        assert fractions["x"] == pytest.approx([1.0, 0.0, 0.0])

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        records = [make_record(rid=f"r{i}", outlet=["a", "b"][i % 2]) for i in range(30)]
        profiles = self.profiles(rng.integers(0, 4, size=30).tolist())
        fractions = cluster_fractions(profiles, make_corpus(records), k=4)
        for row in fractions.values():
            assert sum(row) == pytest.approx(1.0, abs=1e-9)

    def test_missing_assignment_error(self):
        # r1's row has no cluster
        profiles = self.profiles([0, None, 1, 1])
        with pytest.raises(ValueError, match="record 'r1' has no cluster assignment"):
            cluster_fractions(profiles, self.corpus(), k=3)


class TestProfilesPipeline:
    def test_fit_profiles_relabels_canonically(self):
        rng = np.random.default_rng(11)
        rows = []
        for i in range(90):
            group = i % 3
            sim = [0.95, 0.85, 0.2][group] + rng.normal(0, 0.01)
            dist = [0.05, 0.6, 0.9][group] + rng.normal(0, 0.01)
            rows.append((f"r{i}", dist, sim, group == 0))
        profiles = make_profiles(rows)
        model, labels = fit_profiles(profiles, best_fit(profile_points(profiles), k=3, seed=0))
        # cluster 0 must be the low-edit-distance (mirroring-like) group
        assert labels[:3].tolist() == [0, 1, 2]

    def test_model_json_round_trip(self, tmp_path):
        pts = blobs([(0.9, 0.1), (0.3, 0.8)], n_per=25, spread=0.02, seed=12)
        model = best_fit(pts, k=2, seed=4)
        save_model(model, tmp_path / "model.json")
        again = load_model(tmp_path / "model.json")
        assert again.k == model.k
        assert np.allclose(again.centroids, model.centroids)
        assert again.inertia == pytest.approx(model.inertia)
        assert again.seed == model.seed

    def test_model_json_pinned(self, tmp_path):
        model = ClusterModel(k=2, centroids=np.array([[0.1, 0.25], [0.9, 1 / 3]]),
                             inertia=0.5, seed=4)
        save_model(model, tmp_path / "model.json")
        assert (tmp_path / "model.json").read_text() == (
            '{\n  "k": 2,\n  "centroids": [\n    [\n      0.1,\n      0.25\n    ],\n'
            '    [\n      0.9,\n      0.3333333333333333\n    ]\n  ],\n'
            '  "inertia": 0.5,\n  "seed": 4\n}\n')
