"""Seeded k-means++ over (embedding similarity, edit distance) points.

Editing-style groups come from clustering each record's 2-D similarity
profile. The cluster count is either fixed or picked by an elbow rule on
the marginal inertia reduction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import Corpus, write_text_atomic
from .textsim import Profiles

ELBOW_THRESHOLD = 0.15
MAX_LLOYD_ITERATIONS = 300
RESTARTS = 10  # seeded fits per cluster count, the lowest inertia kept


@dataclass(frozen=True)
class ClusterModel:
    k: int
    centroids: np.ndarray  # shape (k, 2)
    inertia: float
    seed: int

    def assign(self, points: np.ndarray) -> np.ndarray:
        """Index of the nearest centroid for each row of `points`."""
        return np.argmin(_sq_distances(np.asarray(points).T, self.centroids), axis=1)


def _seed_centroids(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first centroid uniform, the rest proportional to the
    squared distance to the nearest centroid chosen so far."""
    n = len(points)
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            # all remaining mass at the chosen centroids: pick uniformly
            centroids[i] = points[rng.integers(n)]
        else:
            r = rng.random() * total
            idx = int(np.searchsorted(np.cumsum(d2), r, side="right"))
            idx = min(idx, n - 1)
            centroids[i] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[i]) ** 2).sum(axis=1))
    return centroids


def _sq_distances(cols: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """[n, k] squared distances from n points, given as [d, n] coordinate
    columns, to each row of `centroids`.

    The per-coordinate squares are added in coordinate order, as numpy's
    `.sum(axis=2)` over an [n, k, d] difference array adds fewer than eight
    terms, so the values equal that form bit for bit without building it.
    """
    d2 = np.subtract.outer(cols[0], centroids[:, 0])
    d2 *= d2
    for col, centre in zip(cols[1:], centroids.T[1:]):
        diff = np.subtract.outer(col, centre)
        diff *= diff
        d2 += diff
    return d2


def _cluster_means(cols: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """[k, d] mean of each cluster's members; every count must be positive.

    `bincount` adds each cluster's weights one at a time in row order, the
    same order in which `points[labels == c].mean(axis=0)` sums its rows, so
    the means are bit-identical to that per-cluster form.
    """
    k = len(counts)
    return np.stack([np.bincount(labels, weights=col, minlength=k) / counts
                     for col in cols], axis=1)


def kmeanspp_fit(points, k: int, seed: int) -> ClusterModel:
    """One k-means++ seeding followed by Lloyd iterations to a fixpoint.

    Deterministic for a given (points, k, seed). Raises on k < 1 or fewer
    points than clusters.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-D array of shape (n, d)")
    if k < 1:
        raise ValueError("k must be a positive integer")
    if len(pts) < k:
        raise ValueError(f"need at least k={k} points, got {len(pts)}")

    rng = np.random.default_rng(seed)
    centroids = _seed_centroids(pts, k, rng)
    cols = np.ascontiguousarray(pts.T)
    labels = np.full(len(pts), -1, dtype=np.int64)
    for _ in range(MAX_LLOYD_ITERATIONS):
        d2 = _sq_distances(cols, centroids)
        new_labels = np.argmin(d2, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        if counts.all():
            centroids = _cluster_means(cols, new_labels, counts)
        else:
            # each re-seat moves a point out of its cluster, so the clusters
            # after it are averaged over the changed memberships
            for c in range(k):
                members = pts[new_labels == c]
                if len(members):
                    centroids[c] = members.mean(axis=0)
                else:
                    # re-seat an empty cluster on the point farthest from its centroid
                    worst = int(np.argmax(d2[np.arange(len(pts)), new_labels]))
                    centroids[c] = pts[worst]
                    new_labels[worst] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels

    d2 = _sq_distances(cols, centroids)
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(len(pts)), labels].sum())
    return ClusterModel(k=k, centroids=centroids.copy(), inertia=inertia, seed=seed)


def best_fit(points, k: int, seed: int) -> ClusterModel:
    """Best of RESTARTS seeded fits (seeds seed, seed + 1, ...), lowest
    inertia winning; ties keep the earliest restart."""
    best: ClusterModel | None = None
    for i in range(RESTARTS):
        model = kmeanspp_fit(points, k, seed + i)
        if best is None or model.inertia < best.inertia:
            best = model
    return best


def elbow_select(points, k_max: int, seed: int,
                 fits: list[ClusterModel] | None = None) -> int:
    """Smallest k whose marginal inertia reduction ratio drops below
    ELBOW_THRESHOLD.

    Ratio at k is (inertia(k) - inertia(k+1)) / inertia(k), each side from
    `best_fit`. When no k qualifies the data shows no elbow up to k_max and a
    single cluster is reported. A `fits` list receives those best fits, k = 1
    to k_max in order, so the caller can keep the selected k's fit
    (`fits[k - 1]`) instead of fitting it again.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    pts = np.asarray(points, dtype=np.float64)
    if len(pts) < k_max:
        raise ValueError(f"need at least k_max={k_max} points, got {len(pts)}")
    models = [best_fit(pts, k, seed) for k in range(1, k_max + 1)]
    if fits is not None:
        fits.extend(models)
    for k in range(1, k_max):
        cur, nxt = models[k - 1].inertia, models[k].inertia
        ratio = 0.0 if cur == 0.0 else (cur - nxt) / cur
        if ratio < ELBOW_THRESHOLD:
            return k
    return 1


def canonical_order(model: ClusterModel) -> ClusterModel:
    """Relabel clusters by ascending edit-distance coordinate of the centroid,
    so index 0 is always the most headline-preserving style."""
    order = np.lexsort((model.centroids[:, 0], model.centroids[:, 1]))
    return replace(model, centroids=model.centroids[order].copy())


def profile_points(profiles: Profiles) -> np.ndarray:
    """[n, 2] (embedding similarity, edit distance) point of each profile row."""
    return np.column_stack((profiles.embedding_similarity, profiles.edit_distance))


def fit_profiles(profiles: Profiles, fit: ClusterModel) -> tuple[ClusterModel, np.ndarray]:
    """Label the profile rows with `fit`, a fit of their points (`best_fit`,
    or the elbow's fit at the selected k); returns the canonical model and
    the [n] label of each profile row."""
    model = canonical_order(fit)
    return model, model.assign(profile_points(profiles))


def cluster_fractions(profiles: Profiles, corpus: Corpus, k: int) -> dict[str, list[float]]:
    """Per-outlet fraction of the corpus records in each of the k clusters of
    the profiles' cluster column; every row sums to 1. Profile row i must be
    corpus record i, which the caller checks (`Profiles.check_rows`); a row
    without a cluster is an error."""
    unset = np.flatnonzero(np.isnan(profiles.cluster))
    if len(unset):
        raise ValueError(f"record {profiles.record_ids[unset[0]]!r} has no cluster assignment")
    labels = profiles.cluster.astype(np.int64)
    fractions = {}
    for outlet, rows in corpus.outlet_rows().items():
        counts = np.bincount(labels[rows], minlength=k).tolist()
        fractions[outlet] = [c / sum(counts) for c in counts]
    return fractions


def save_model(model: ClusterModel, path: str | Path) -> None:
    """The `ClusterModel` fields as one JSON object, centroids as nested lists."""
    payload = {**vars(model), "centroids": model.centroids.tolist()}
    write_text_atomic(path, json.dumps(payload, indent=2) + "\n")
