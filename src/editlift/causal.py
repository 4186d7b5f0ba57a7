"""Matched treatment-effect estimation for editing styles.

A `UnitTable` is built once per corpus (per `estimate` command): one row per
record with body text in the scenarios' outlets, holding its filter columns,
its profile row (which the selectors read), its body vector (each body
embedded exactly once) and its outcomes. The `estimate` command gives that
one table to its `--jobs` workers when the pool starts, so a scenario task
carries only the scenario, the seed and the settings.

Every step of a scenario (treatment selector vs control selector within one
outlet) works on row indices into that table. `select_units` masks the rows
and returns the treatment and control row arrays; `train_propensity` fits a
feed-forward propensity model (treatment given body text) on the rows'
feature matrix; `match` returns, for each treatment row, the table rows of
its k nearest controls by the propensities `run_scenario` passes in, as a
[T, k] matrix, with each treatment's mean body cosine to its matches;
`balance_check` gates on those cosines; and `estimate_eate` averages the
outcome gaps of every engagement metric at once. The robustness interval is cross-fitted over ten
folds: each fold's propensity model is trained on the other nine folds, and
only the fold's own held-out treatment units are matched and estimated, so
every treatment unit is estimated exactly once and the ten fold values rest
on disjoint treatment outcomes. A scenario whose interval covers zero, or
that fails balance on any fold, is discarded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .clickbait import is_clickbait
from .corpus import (ENGAGEMENT_METRICS, TIME_BLOCKS, Corpus, assign_time_block,
                     check_field_keys, json_value, normalize, reject_unknown_keys, require_keys)
from .embedding import EmbeddingTable, embed_many
from .nn import AdamState, Mlp, adam_step
from .textsim import Profiles

N_FOLDS = 10
# two-sided 95% Student-t quantile for N_FOLDS - 1 dof, i.e.
# float(scipy.stats.t.ppf(0.975, N_FOLDS - 1)); a constant keeps scipy.stats
# (about a second to import) off every command's start-up
T_CRIT_95 = 2.262157162798205
PAIR_SAMPLE_CUTOFF = 2000  # documents above which pair statistics are sampled
PAIR_SAMPLE_SIZE = 200_000  # pairs sampled above the cutoff
PAIR_CHUNK = 8192  # sampled pairs per dot-product chunk
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
            index = obj["cluster"]
            if isinstance(index, bool) or not isinstance(index, int) or index < 0:
                raise ScenarioError(f"bad cluster index {index!r}")
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
        block = json_value(obj, dict, "scenario").get("time_block")
        check_field_keys(obj, cls, "scenario")
        if block is not None and block not in TIME_BLOCKS:
            raise ScenarioError(f"unknown time block {block!r}")
        for key in ("name", "outlet", "section"):
            if key != "section" or obj.get(key) is not None:
                json_value(obj.get(key), str, key)
        exclude_mirrored = obj.get("exclude_mirrored")
        if exclude_mirrored is not None and not isinstance(exclude_mirrored, bool):
            raise ScenarioError(f"exclude_mirrored must be true or false, "
                                f"got {exclude_mirrored!r}")
        return cls(
            name=obj["name"],
            outlet=obj["outlet"],
            treatment=Selector.from_dict(obj["treatment"]),
            control=Selector.from_dict(obj["control"]),
            section=obj.get("section"),
            time_block=block,
            exclude_mirrored=bool(exclude_mirrored),
        )


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
    The schedule does not calibrate the robustness interval; `run_scenario`
    does that by estimating each fold on treatment units its model never
    saw.

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


def pairwise_similarity_stats(vectors: np.ndarray, seed: int) -> tuple[float, float]:
    """Mean and standard deviation of cosine similarity over document pairs.

    Exact over all n(n-1)/2 pairs up to PAIR_SAMPLE_CUTOFF documents; beyond
    that, a seeded uniform sample of PAIR_SAMPLE_SIZE pairs, whose dot
    products are taken in chunks of PAIR_CHUNK rows.

    The exact path holds no more than the n x n Gram matrix: the strict upper
    triangle is packed, row by row, into the front of the Gram's own buffer,
    in the order of `gram[np.triu_indices(n, 1)]`, and the deviation is taken
    in place. The Gram stays one `unit @ unit.T` (a symmetric rank-k update):
    a Gram assembled from row-block products differs from it in the last bit.
    """
    vec = np.asarray(vectors, dtype=np.float64)
    n = len(vec)
    if n < 2:
        raise ValueError("need at least two documents for pair statistics")
    norms = np.linalg.norm(vec, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = vec / safe[:, None]
    unit[norms == 0.0] = 0.0
    if n <= PAIR_SAMPLE_CUTOFF:
        flat = (unit @ unit.T).reshape(-1)
        packed = 0
        for row in range(n - 1):
            # the row's source offset row * n + row + 1 is never below
            # `packed`, so the (possibly overlapping) copy reads no packed slot
            width = n - 1 - row
            source = row * (n + 1) + 1
            flat[packed:packed + width] = flat[source:source + width]
            packed += width
        sims = flat[:packed]
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=PAIR_SAMPLE_SIZE)
        j = rng.integers(0, n - 1, size=PAIR_SAMPLE_SIZE)
        j = np.where(j >= i, j + 1, j)  # uniform over ordered pairs with i != j
        sims = np.empty(PAIR_SAMPLE_SIZE, dtype=np.float64)
        left = np.empty((PAIR_CHUNK, unit.shape[1]), dtype=np.float64)
        right = np.empty_like(left)
        for start in range(0, PAIR_SAMPLE_SIZE, PAIR_CHUNK):
            stop = min(start + PAIR_CHUNK, PAIR_SAMPLE_SIZE)
            # every index is in range, so "clip" changes nothing; unlike the
            # default "raise" it gathers straight into `out`, unbuffered
            a = np.take(unit, i[start:stop], axis=0, out=left[:stop - start], mode="clip")
            b = np.take(unit, j[start:stop], axis=0, out=right[:stop - start], mode="clip")
            np.einsum("nd,nd->n", a, b, out=sims[start:stop])
    return mean_std_in_place(sims)


def mean_std_in_place(values: np.ndarray) -> tuple[float, float]:
    """`(float(values.mean()), float(values.std()))` bit for bit, through
    np.std's own steps (subtract the mean, square, add, divide, root), but
    overwriting the 1-D `values` instead of allocating a deviation array."""
    mean = values.mean()
    values -= mean
    np.square(values, out=values)
    return float(mean), float(np.sqrt(np.add.reduce(values) / len(values)))


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


def run_scenario(units: UnitTable, scenario: Scenario, seed: int,
                 config: CausalConfig = CausalConfig()) -> list[EateReport]:
    """Full protocol for one scenario of the unit table; one report per
    engagement metric.

    Treatment and control rows are each dealt into ten folds. Fold f trains
    its own propensity model on the other nine folds of both arms (fold-
    specific initialization and batch order), matches fold f's held-out
    treatment rows against those nine folds' control rows, runs the balance
    gate on those matches, and records the effect estimate over them. Every
    treatment unit is thus estimated once, by a model it did not train, and
    the fold values share no treatment outcome, so their spread carries the
    estimate's sampling error rather than only the variability of training
    and matching. The report's mean is the mean of the ten fold values and
    its interval is Student-t (9 dof) over them; `discarded` is set when the
    interval covers zero or any fold fails balance.
    """
    t_rows, c_rows = select_units(units, scenario)
    min_treatments = max(config.min_group, N_FOLDS)  # every fold needs a held-out unit
    if len(t_rows) < min_treatments:
        raise ScenarioError(
            f"scenario {scenario.name!r}: treatment selector "
            f"[{scenario.treatment.describe()}] yields {len(t_rows)} units "
            f"(minimum {min_treatments})"
        )
    # every fold matches against the other folds' controls; of n controls the
    # smallest such set holds floor(9n / 10), which reaches knn from
    # n = ceil(10 knn / 9)
    min_controls = max(config.min_group, -(-N_FOLDS * config.knn // (N_FOLDS - 1)))
    if len(c_rows) < min_controls:
        raise ScenarioError(
            f"scenario {scenario.name!r}: control selector "
            f"[{scenario.control.describe()}] yields {len(c_rows)} units "
            f"(minimum {min_controls})"
        )

    mu, sigma = pairwise_similarity_stats(units.features[np.concatenate([t_rows, c_rows])],
                                          seed=seed)

    rng = np.random.default_rng(seed)
    t_folds = _fold_indices(len(t_rows), rng)
    c_folds = _fold_indices(len(c_rows), rng)

    # one row per metric, so each metric's ten fold values lie contiguous
    fold_eates = np.empty((len(ENGAGEMENT_METRICS), N_FOLDS))
    balances: list[BalanceStats] = []
    for fold in range(N_FOLDS):
        held_out = t_rows[t_folds == fold]
        train_t = t_rows[t_folds != fold]
        train_c = c_rows[c_folds != fold]
        model = train_propensity(
            units.features[np.concatenate([train_t, train_c])],
            np.concatenate([np.ones(len(train_t)), np.zeros(len(train_c))]),
            seed * N_FOLDS + fold + 1,
        )
        chosen, similarity = match(held_out, train_c, model.predict(units.features[held_out]),
                                   model.predict(units.features[train_c]), units, k=config.knn)
        balances.append(balance_check(similarity, mu, sigma, config.alpha, config.tau))
        fold_eates[:, fold] = estimate_eate(held_out, chosen, units.outcomes)

    any_balance_failure = any(not b.passed for b in balances)
    reports = []
    for i, metric in enumerate(ENGAGEMENT_METRICS):
        values = fold_eates[i]
        mean = float(values.mean())
        spread = float(values.std(ddof=1))
        half = T_CRIT_95 * spread / np.sqrt(N_FOLDS)
        ci_low, ci_high = float(mean - half), float(mean + half)
        naive = (float(np.mean(units.outcomes[t_rows, i]))
                 - float(np.mean(units.outcomes[c_rows, i])))
        reports.append(
            EateReport(
                scenario=scenario.name,
                metric=metric,
                fold_eates=tuple(float(v) for v in values),
                mean_eate=mean,
                ci_low=ci_low,
                ci_high=ci_high,
                discarded=bool(ci_low <= 0.0 <= ci_high or any_balance_failure),
                balance=tuple(balances),
                naive_difference=naive,
                n_treatment=len(t_rows),
                n_control=len(c_rows),
            )
        )
    return reports

