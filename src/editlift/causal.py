"""Matched treatment-effect estimation for editing styles.

A `UnitTable` is built once per corpus (per `estimate` command): one row per
record with body text in the scenarios' outlets, holding its filter columns,
its profile row (which the selectors read), its body vector (each body
embedded exactly once) and its outcomes. The `estimate` command gives that
one table to its `--jobs` workers when the pool starts, so a scenario task
carries only the scenario, the seed and the settings.

A scenario (treatment selector vs control selector within one outlet) runs
in three steps on row indices into that table, chained by `run_scenario`.
`select_units` masks the rows into treatment and control arrays.
`fold_matches` cross-fits over ten folds: fold f trains a feed-forward
propensity model (`train_propensity`) on the other nine folds, and `match`
gives each held-out treatment row its k nearest training controls. Each
`FoldMatch` keeps `held_out`, `train_controls`, `chosen` [T_f, k] and
`similarity` [T_f], the mean body cosine to the matches. `scenario_reports`
trains and draws nothing: it runs `balance_check` on each fold's cosines and
`estimate_eate` on its outcome gaps, then a Student-t interval over the ten
fold values, which rest on disjoint treatment outcomes. A scenario whose
interval covers zero, or that fails balance on any fold, is discarded.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .clickbait import is_clickbait
from .corpus import (ENGAGEMENT_METRICS, TIME_BLOCKS, Corpus, assign_time_block, json_object,
                     json_value, normalize, reject_unknown_keys, require_keys)
from .embedding import EmbeddingTable, embed_many
from .nn import AdamState, Mlp, adam_step
from .textsim import Profiles

N_FOLDS = 10
# two-sided 95% Student-t quantile for N_FOLDS - 1 dof, i.e.
# float(scipy.stats.t.ppf(0.975, N_FOLDS - 1)); a constant keeps scipy.stats
# (about a second to import) off every command's start-up
T_CRIT_95 = 2.262157162798205
MATCH_CHUNK_CELLS = 1 << 20  # treatment x control gaps held at once by `match`
SHIFT_CLASSES = ("C", "NC")  # a shift selector's headline and post classes
# the keys a selector of each kind reads, besides "kind"
SELECTOR_KEYS = {"edited": (), "mirrored": (), "cluster": ("cluster",),
                 "shift": ("headline", "post")}
# the propensity network's training schedule; `train_propensity` says how
# the batch size and learning rate were chosen
PROPENSITY_EPOCHS = 3
PROPENSITY_BATCH_SIZE = 64
PROPENSITY_HIDDEN = (128, 64)  # ReLU hidden layer widths
PROPENSITY_LEARNING_RATE = 2e-3
PROPENSITY_L2_PENALTY = 0.001


class ScenarioError(ValueError):
    """Scenario cannot run (bad selectors, not enough units)."""


# ---------------------------------------------------------------------------
# Scenario definitions


@dataclass(frozen=True)
class Selector:
    """Predicate over a profiled record.

    kind: "edited" | "mirrored" | "cluster" | "shift"
      cluster requires `cluster`; shift requires headline/post classes
      ("C"/"NC") read off the profile's clickbait scores by
      clickbait.is_clickbait.
    """

    kind: str
    cluster: int | None = None
    headline_class: str | None = None
    post_class: str | None = None

    def mask(self, profiles: Profiles) -> np.ndarray:
        """Rows of `profiles` the selector picks. A shift selector picks no
        row that lacks clickbait scores; `select_units` reports those rows."""
        if self.kind == "edited":
            return ~profiles.mirrored
        if self.kind == "mirrored":
            return profiles.mirrored
        if self.kind == "cluster":
            return profiles.cluster == self.cluster  # NaN (unclustered) never equals
        if self.kind == "shift":
            # a NaN score reads as NC; those rows are errors, so none is picked
            return ((is_clickbait(profiles.headline_clickbait) == (self.headline_class == "C"))
                    & (is_clickbait(profiles.post_clickbait) == (self.post_class == "C"))
                    & ~profiles.lacks_scores)
        raise ScenarioError(f"unknown selector kind {self.kind!r}")

    @classmethod
    def from_dict(cls, obj: dict) -> "Selector":
        kind = json_value(obj, dict, "selector").get("kind")
        if kind not in SELECTOR_KEYS:
            raise ScenarioError(f"unknown selector kind {kind!r}")
        reject_unknown_keys(obj, {"kind", *SELECTOR_KEYS[kind]}, f"{kind} selector")
        require_keys(obj, SELECTOR_KEYS[kind], f"{kind} selector")
        if kind == "cluster":
            index = json_value(obj["cluster"], int, "cluster index")
            if index < 0:
                raise ScenarioError(f"cluster index must be at least 0, got {index}")
            if index > sys.float_info.max:  # it is compared with a float column
                raise ScenarioError(f"cluster index is beyond the float range: {index}")
            return cls(kind="cluster", cluster=index)
        if kind == "shift":
            for key in ("headline", "post"):
                if obj[key] not in SHIFT_CLASSES:
                    raise ScenarioError(f"shift {key} class must be \"C\" or \"NC\", "
                                        f"got {obj[key]!r}")
            return cls(kind="shift", headline_class=obj["headline"], post_class=obj["post"])
        return cls(kind=kind)

    def describe(self) -> str:
        if self.kind == "cluster":
            return f"cluster=={self.cluster}"
        if self.kind == "shift":
            return f"shift {self.headline_class}->{self.post_class}"
        return self.kind


@dataclass(frozen=True)
class Scenario:
    name: str
    outlet: str
    treatment: Selector
    control: Selector
    section: str | None = None
    time_block: str | None = None
    exclude_mirrored: bool = False

    @classmethod
    def from_dict(cls, obj: dict) -> "Scenario":
        scenario = json_object(cls, obj, "scenario")
        if scenario.time_block is not None and scenario.time_block not in TIME_BLOCKS:
            raise ScenarioError(f"unknown time block {scenario.time_block!r}")
        return scenario


# ---------------------------------------------------------------------------
# Unit table, propensity model, matching


@dataclass(frozen=True)
class UnitTable:
    """Per-record inputs of every scenario, one row per record with non-blank
    body text, in corpus order. Unset profile fields are NaN."""

    profiles: Profiles  # each row's profile row
    outlet: np.ndarray  # [n] object: str
    section: np.ndarray  # [n] object: str or None
    time_block: np.ndarray  # [n] object: "B1" | "B2" | "B3"
    features: np.ndarray  # [n, dim] body vectors
    zero_hit: np.ndarray  # [n] bool: body has no in-vocabulary token
    outcomes: np.ndarray  # [n, len(ENGAGEMENT_METRICS)]

    def __len__(self) -> int:
        return len(self.profiles)

    @cached_property
    def id_rank(self) -> np.ndarray:
        """[n] position of each row's record id in sorted id order; `match`
        breaks propensity ties on it."""
        order = sorted(range(len(self)), key=self.profiles.record_ids.__getitem__)
        rank = np.empty(len(self), dtype=np.int64)
        rank[order] = np.arange(len(self))
        return rank


def build_unit_table(corpus: Corpus, profiles: Profiles, table: EmbeddingTable,
                     outlets) -> UnitTable:
    """Embed each eligible record's body once and collect its columns.

    Profile row i must be corpus record i (`Profiles.check_rows`). Eligible:
    the record sits in one of `outlets` and has non-blank body text.
    """
    profiles.check_rows(corpus)
    outlets = set(outlets)
    rows = np.array([i for i, r in enumerate(corpus)
                     if r.outlet in outlets and r.body_text.strip()], dtype=np.int64)
    records = [corpus.records[i] for i in rows]
    features, hits = embed_many(table, [normalize(r.body_text) for r in records])
    return UnitTable(
        profiles=profiles.take(rows),
        outlet=np.array([r.outlet for r in records], dtype=object),
        section=np.array([r.section for r in records], dtype=object),
        time_block=np.array([assign_time_block(r) for r in records], dtype=object),
        features=features,
        zero_hit=hits == 0,
        outcomes=np.array([float(r.engagement(m)) for r in records for m in ENGAGEMENT_METRICS],
                          dtype=np.float64).reshape(len(records), len(ENGAGEMENT_METRICS)),
    )


@dataclass(frozen=True)
class BalanceStats:
    mu: float
    sigma: float
    alpha: float
    tau: float
    threshold: float  # max(mu + alpha * sigma, tau)
    achieved: float
    passed: bool


@dataclass(frozen=True)
class EateReport:
    scenario: str
    metric: str
    fold_eates: tuple[float, ...]
    mean_eate: float
    ci_low: float
    ci_high: float
    discarded: bool
    # "balance_failed" if any fold fails balance, else "covers_zero" if the
    # interval covers 0, else None (kept)
    discard_reason: str | None
    balance: tuple[BalanceStats, ...]
    naive_difference: float
    n_treatment: int
    n_control: int


def train_propensity(x: np.ndarray, y: np.ndarray, seed: int) -> Mlp:
    """Fit the propensity network, treatment (y = 1) vs control (y = 0), on
    the body vectors x [n, dim] with binary cross-entropy, on the
    PROPENSITY_* schedule: PROPENSITY_EPOCHS epochs, ReLU hidden layers of
    PROPENSITY_HIDDEN units, Adam.

    Each epoch shuffles the rows once and steps through consecutive batches
    of the shuffled arrays. The L2 penalty applies to the last hidden
    layer's weights only. The few-epoch default is deliberate: the matching
    step needs the coarse topic-level treatment rates, and longer schedules
    mostly memorize individual assignments, which destabilizes matching.
    The schedule does not calibrate the robustness interval; cross-fitting
    does that: `fold_matches` matches each fold's treatment units with a
    model that never saw them.

    `scripts/propensity_schedule.py` chose the batch size and learning rate
    at PROPENSITY_EPOCHS epochs; the schedule is read here, when the
    function is called, so the script can rebind it.
    """
    n_treated = int(np.count_nonzero(y))
    if n_treated == 0 or n_treated == len(y):
        raise ScenarioError("propensity training needs units in both groups")
    net = Mlp([x.shape[1], *PROPENSITY_HIDDEN, 1], seed=seed, l2_penalty=PROPENSITY_L2_PENALTY)
    opt = AdamState(learning_rate=PROPENSITY_LEARNING_RATE)
    rng = np.random.default_rng(seed)
    for _ in range(PROPENSITY_EPOCHS):
        order = rng.permutation(len(x))
        x_epoch, y_epoch = x[order], y[order]
        for start in range(0, len(x), PROPENSITY_BATCH_SIZE):
            stop = start + PROPENSITY_BATCH_SIZE
            net.gradients(x_epoch[start:stop], y_epoch[start:stop])
            adam_step(opt, net.buffer)
    return net


def match(treatment_rows: np.ndarray, control_rows: np.ndarray, p_t: np.ndarray,
          p_c: np.ndarray, units: UnitTable, k: int) -> tuple[np.ndarray, np.ndarray]:
    """k nearest controls by |propensity gap| for each treatment row of `units`.

    `p_t` [T] and `p_c` [C] are the propensities of the treatment and control
    rows, clipped here to [1e-9, 1 - 1e-9]. Returns (chosen, similarity):
    `chosen` [T, k] holds the table rows of each treatment's matched
    controls, nearest first, and `similarity` [T] each treatment's mean
    body-vector cosine to its matches (0 for a pair with a zero vector).
    Matching is with replacement; gap ties break on ascending record id.
    """
    if k < 1:
        raise ScenarioError(f"k must be at least 1, got {k}")
    if len(control_rows) < k:
        raise ScenarioError(f"need at least k={k} controls, got {len(control_rows)}")
    p_t = np.clip(p_t, 1e-9, 1.0 - 1e-9)
    p_c = np.clip(p_c, 1e-9, 1.0 - 1e-9)
    chosen = control_rows[_nearest_controls(p_t, p_c, units.id_rank[control_rows], k)]

    # np.vecdot takes each dot product as the 1-D `@` does, bit for bit
    t_vecs = units.features[treatment_rows]
    c_vecs = units.features[chosen]  # [T, k, dim]
    denom = np.sqrt(np.vecdot(t_vecs, t_vecs))[:, None] * np.linalg.norm(c_vecs, axis=-1)
    cosines = np.zeros_like(denom)
    np.divide(np.vecdot(c_vecs, t_vecs[:, None, :]), denom, out=cosines, where=denom > 0)
    return chosen, cosines.mean(axis=1)


def _nearest_controls(p_t: np.ndarray, p_c: np.ndarray, id_rank: np.ndarray,
                      k: int) -> np.ndarray:
    """Control indices [len(p_t), k]: each treatment's k smallest |p_c - p|,
    ties broken on ascending `id_rank`, nearest first.

    Works on chunks of treatment rows. Only the controls whose gap is at most
    the row's k-th smallest gap can be chosen, so only those are sorted.
    """
    chosen = np.empty((len(p_t), k), dtype=np.int64)
    step = max(1, MATCH_CHUNK_CELLS // len(p_c))
    for start in range(0, len(p_t), step):
        gaps = np.abs(p_c[None, :] - p_t[start:start + step, None])
        kth = np.partition(gaps, k - 1, axis=1)[:, k - 1]
        rows, cols = np.nonzero(gaps <= kth[:, None])  # rows ascending
        order = np.lexsort((id_rank[cols], gaps[rows, cols], rows))
        counts = np.bincount(rows, minlength=len(gaps))
        first = np.cumsum(counts) - counts  # each row's first candidate in `order`
        chosen[start:start + len(gaps)] = cols[order][first[:, None] + np.arange(k)]
    return chosen


def pairwise_similarity_stats(vectors: np.ndarray) -> tuple[float, float]:
    """Mean and standard deviation of cosine similarity over all n(n-1)/2
    document pairs; a pair with a zero vector has cosine 0.

    Exact at every n, from the unit rows' second moments rather than the
    pairs themselves: with s the sum of the unit rows u_i, q_i = u_i . u_i
    and G = U^T U ([dim, dim]), the pair cosines sum to (s . s - sum q_i) / 2
    and their squares to (||G||_F^2 - sum q_i^2) / 2. That is O(n dim^2)
    time and O(n dim + dim^2) memory, with no n x n Gram matrix.
    """
    vec = np.asarray(vectors, dtype=np.float64)
    n = len(vec)
    if n < 2:
        raise ValueError("need at least two documents for pair statistics")
    norms = np.linalg.norm(vec, axis=1)
    unit = vec / np.where(norms == 0.0, 1.0, norms)[:, None]
    unit[norms == 0.0] = 0.0
    total = unit.sum(axis=0)
    sq_norms = np.vecdot(unit, unit)
    moments = unit.T @ unit
    pairs2 = n * (n - 1)  # twice the pair count
    mean = (total @ total - sq_norms.sum()) / pairs2
    var = (np.vdot(moments, moments) - sq_norms @ sq_norms) / pairs2 - mean * mean
    return float(mean), float(np.sqrt(max(var, 0.0)))


def balance_check(similarity: np.ndarray, mu: float, sigma: float,
                  alpha: float, tau: float) -> BalanceStats:
    """Semantic-balance gate on one fold's matches.

    `similarity` [T] holds each treatment unit's mean cosine to its matched
    controls (the second array `match` returns). The achieved value is its
    mean; it must reach max(mu + alpha * sigma, tau).
    """
    if len(similarity) == 0:
        raise ValueError("no matches to check")
    achieved = float(np.mean(similarity))
    threshold = max(mu + alpha * sigma, tau)
    return BalanceStats(
        mu=mu, sigma=sigma, alpha=alpha, tau=tau, threshold=threshold,
        achieved=achieved, passed=achieved >= threshold,
    )


def estimate_eate(treatment_rows: np.ndarray, chosen: np.ndarray,
                  outcomes: np.ndarray) -> np.ndarray:
    """Average over treatment units of the mean outcome gap to their matches,
    for every outcome column at once.

    `chosen` [T, k] holds the matched control rows of each treatment row (as
    `match` returns them) and `outcomes` [n, metrics] is indexed by row.
    Both averages sum left to right: numpy's pairwise summation would round
    differently once eight or more terms are summed.
    """
    if len(treatment_rows) == 0:
        raise ValueError("no matches to aggregate")
    gaps = outcomes[treatment_rows][:, None, :] - outcomes[chosen]  # [T, k, metrics]
    per_unit = np.add.accumulate(gaps, axis=1)[:, -1] / chosen.shape[1]
    return np.add.accumulate(per_unit, axis=0)[-1] / len(treatment_rows)


# ---------------------------------------------------------------------------
# Scenario runner


@dataclass(frozen=True)
class CausalConfig:
    knn: int = 5
    alpha: float = 1.5
    tau: float = 0.8
    min_group: int = 30


def select_units(units: UnitTable, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Apply the scenario's filters and selectors to the table's rows.

    Returns the treatment rows and the control rows, each ascending (corpus
    order). Rows whose body has no in-vocabulary token are dropped (the
    propensity model consumes body vectors). The first filtered row, in
    corpus order, that a shift selector cannot read (no clickbait scores) or
    that both selectors pick raises `ScenarioError`, zero-hit or not.
    """
    profiles = units.profiles
    rows = units.outlet == scenario.outlet
    if scenario.section is not None:
        rows &= units.section == scenario.section
    if scenario.time_block is not None:
        rows &= units.time_block == scenario.time_block
    if scenario.exclude_mirrored:
        rows &= ~profiles.mirrored
    in_t = scenario.treatment.mask(profiles) & rows
    in_c = scenario.control.mask(profiles) & rows
    unreadable = np.zeros(len(units), dtype=bool)
    if "shift" in (scenario.treatment.kind, scenario.control.kind):
        unreadable = profiles.lacks_scores & rows
    errors = np.flatnonzero(unreadable | (in_t & in_c))
    if len(errors):
        i = errors[0]
        if unreadable[i]:
            raise ScenarioError(f"record {profiles.record_ids[i]!r} lacks clickbait scores "
                                "required by a shift selector")
        raise ScenarioError(f"scenario {scenario.name!r}: record {profiles.record_ids[i]!r} "
                            "matches both selectors")
    return np.flatnonzero(in_t & ~units.zero_hit), np.flatnonzero(in_c & ~units.zero_hit)


def _fold_indices(n: int, rng: np.random.Generator) -> np.ndarray:
    """Fold label per unit: a seeded shuffle dealt round-robin into 10 folds."""
    labels = np.empty(n, dtype=np.int64)
    labels[rng.permutation(n)] = np.arange(n) % N_FOLDS
    return labels


class FoldMatch(NamedTuple):
    """One cross-fitting fold's matches, all as table rows."""

    held_out: np.ndarray  # [T_f] the fold's treatment rows, ascending
    train_controls: np.ndarray  # [C_f] the other nine folds' control rows, ascending
    chosen: np.ndarray  # [T_f, k] each held-out row's matched controls, nearest first
    similarity: np.ndarray  # [T_f] each held-out row's mean body cosine to its matches


def fold_matches(units: UnitTable, t_rows: np.ndarray, c_rows: np.ndarray, seed: int,
                 knn: int) -> list[FoldMatch]:
    """Cross-fitted matches of the treatment rows, one `FoldMatch` per fold.

    Both arms' rows are dealt into ten folds by `seed`. Fold f trains its
    propensity model (seed `seed * N_FOLDS + f + 1`) on the other nine folds
    and matches its held-out treatment rows to their control rows, so every
    treatment row is matched once, by a model it did not train.
    """
    rng = np.random.default_rng(seed)
    t_folds = _fold_indices(len(t_rows), rng)
    c_folds = _fold_indices(len(c_rows), rng)
    folds = []
    for fold in range(N_FOLDS):
        held_out = t_rows[t_folds == fold]
        train_t = t_rows[t_folds != fold]
        train_c = c_rows[c_folds != fold]
        model = train_propensity(units.features[np.concatenate([train_t, train_c])],
                                 np.concatenate([np.ones(len(train_t)), np.zeros(len(train_c))]),
                                 seed * N_FOLDS + fold + 1)
        folds.append(FoldMatch(held_out, train_c, *match(
            held_out, train_c, model.predict(units.features[held_out]),
            model.predict(units.features[train_c]), units, k=knn)))
    return folds


def scenario_reports(units: UnitTable, name: str, t_rows: np.ndarray, c_rows: np.ndarray,
                     folds: list[FoldMatch], config: CausalConfig) -> list[EateReport]:
    """One report per engagement metric of scenario `name` from its fold
    matches; trains nothing and draws no random number.

    Each fold gates balance against the pair statistics of all the
    scenario's rows and gives one effect estimate per metric. The folds
    share no treatment outcome, so the spread of their values carries the
    estimate's sampling error: the report's interval is Student-t (9 dof)
    over them. `discarded` is set when the interval covers zero or any fold
    fails balance, and `discard_reason` says which (a balance failure first).
    """
    mu, sigma = pairwise_similarity_stats(units.features[np.concatenate([t_rows, c_rows])])
    balances = tuple(balance_check(f.similarity, mu, sigma, config.alpha, config.tau)
                     for f in folds)
    # one row per metric, so each metric's fold values lie contiguous
    fold_eates = np.stack([estimate_eate(f.held_out, f.chosen, units.outcomes)
                           for f in folds], axis=1)
    any_balance_failure = any(not b.passed for b in balances)
    reports = []
    for i, metric in enumerate(ENGAGEMENT_METRICS):
        values = fold_eates[i]
        mean = float(values.mean())
        half = T_CRIT_95 * float(values.std(ddof=1)) / np.sqrt(N_FOLDS)
        ci_low, ci_high = float(mean - half), float(mean + half)
        reason = ("balance_failed" if any_balance_failure
                  else "covers_zero" if ci_low <= 0.0 <= ci_high else None)
        naive = (float(np.mean(units.outcomes[t_rows, i]))
                 - float(np.mean(units.outcomes[c_rows, i])))
        reports.append(EateReport(
            scenario=name, metric=metric, fold_eates=tuple(float(v) for v in values),
            mean_eate=mean, ci_low=ci_low, ci_high=ci_high, discarded=reason is not None,
            discard_reason=reason, balance=balances, naive_difference=naive,
            n_treatment=len(t_rows), n_control=len(c_rows)))
    return reports


def run_scenario(units: UnitTable, scenario: Scenario, seed: int,
                 config: CausalConfig = CausalConfig()) -> list[EateReport]:
    """`select_units`, `fold_matches`, then `scenario_reports`: the reports
    of one scenario. An arm too small for the protocol raises `ScenarioError`."""
    t_rows, c_rows = select_units(units, scenario)
    # every fold needs a held-out treatment unit, and matches against the
    # other folds' controls: of n controls the smallest such set holds
    # floor(9n / 10), which reaches knn from n = ceil(10 knn / 9)
    for arm, selector, rows, minimum in (
            ("treatment", scenario.treatment, t_rows, N_FOLDS),
            ("control", scenario.control, c_rows, -(-N_FOLDS * config.knn // (N_FOLDS - 1)))):
        minimum = max(config.min_group, minimum)
        if len(rows) < minimum:
            raise ScenarioError(f"scenario {scenario.name!r}: {arm} selector "
                                f"[{selector.describe()}] yields {len(rows)} units "
                                f"(minimum {minimum})")
    folds = fold_matches(units, t_rows, c_rows, seed, config.knn)
    return scenario_reports(units, scenario.name, t_rows, c_rows, folds, config)
