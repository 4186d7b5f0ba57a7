"""Matched treatment-effect estimation for editing styles.

A `UnitTable` is built once per corpus (per `estimate` command): one row per
profiled record with body text, holding its filter columns, the profile
columns the selectors read, its body vector (each body embedded exactly once)
and its outcomes. The `estimate` command gives that one table to its `--jobs`
workers when the pool starts, so a scenario task carries only the scenario,
the seed and the settings. For a scenario (treatment selector vs control
selector within one outlet), `select_units` masks the table's rows; then the
pipeline is: train a feed-forward propensity model (treatment given body
text), match each treatment unit to its k nearest controls by propensity,
gate on the semantic-balance condition, and average the per-unit outcome
gaps. The robustness interval is cross-fitted over ten folds: each fold's
propensity model is trained on the other nine folds, and only the fold's own
held-out treatment units are matched and estimated, so every treatment unit
is estimated exactly once and the ten fold values rest on disjoint treatment
outcomes. A scenario whose interval covers zero, or that fails balance on
any fold, is discarded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .clickbait import CLICKBAIT_THRESHOLD
from .corpus import ENGAGEMENT_METRICS, TIME_BLOCKS, Corpus, assign_time_block
from .embedding import EmbeddingTable, embed_text
from .nn import AdamState, Mlp, adam_step
from .textsim import EditProfile

DEFAULT_ALPHA = 1.5
DEFAULT_TAU = 0.8
DEFAULT_KNN = 5
DEFAULT_MIN_GROUP = 30
N_FOLDS = 10
# two-sided 95% Student-t quantile for N_FOLDS - 1 dof, i.e.
# float(scipy.stats.t.ppf(0.975, N_FOLDS - 1)); a constant keeps scipy.stats
# (about a second to import) off every command's start-up
T_CRIT_95 = 2.262157162798205
PAIR_SAMPLE_CUTOFF = 2000
PAIR_SAMPLE_SIZE = 200_000
PAIR_CHUNK = 8192  # sampled pairs per dot-product chunk
MATCH_CHUNK_CELLS = 1 << 20  # treatment x control gaps held at once by `match`


class ScenarioError(Exception):
    """Scenario cannot run (bad selectors, not enough units)."""


# ---------------------------------------------------------------------------
# Scenario definitions


@dataclass(frozen=True)
class Selector:
    """Predicate over a profiled record.

    kind: "edited" | "mirrored" | "cluster" | "shift"
      cluster requires `cluster`; shift requires headline/post classes
      ("C"/"NC") read off the profile's clickbait scores at
      clickbait.CLICKBAIT_THRESHOLD.
    """

    kind: str
    cluster: int | None = None
    headline_class: str | None = None
    post_class: str | None = None

    def mask(self, units: "UnitTable") -> np.ndarray:
        """Rows of `units` the selector picks. A shift selector picks no row
        that lacks clickbait scores; `select_units` reports those rows."""
        if self.kind == "edited":
            return ~units.mirrored
        if self.kind == "mirrored":
            return units.mirrored
        if self.kind == "cluster":
            return units.cluster == self.cluster  # NaN (unclustered) never equals
        if self.kind == "shift":
            # NaN scores compare False; those rows are errors, not "NC"
            got_h = np.where(units.headline_clickbait > CLICKBAIT_THRESHOLD, "C", "NC")
            got_p = np.where(units.post_clickbait > CLICKBAIT_THRESHOLD, "C", "NC")
            return ((got_h == self.headline_class) & (got_p == self.post_class)
                    & ~units.lacks_scores)
        raise ScenarioError(f"unknown selector kind {self.kind!r}")

    @classmethod
    def from_dict(cls, obj: dict) -> "Selector":
        kind = obj.get("kind")
        if kind == "cluster":
            return cls(kind="cluster", cluster=int(obj["cluster"]))
        if kind == "shift":
            return cls(kind="shift", headline_class=obj["headline"], post_class=obj["post"])
        if kind in ("edited", "mirrored"):
            return cls(kind=kind)
        raise ScenarioError(f"unknown selector kind {kind!r}")

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
        block = obj.get("time_block")
        if block is not None and block not in TIME_BLOCKS:
            raise ScenarioError(f"unknown time block {block!r}")
        return cls(
            name=obj["name"],
            outlet=obj["outlet"],
            treatment=Selector.from_dict(obj["treatment"]),
            control=Selector.from_dict(obj["control"]),
            section=obj.get("section"),
            time_block=block,
            exclude_mirrored=bool(obj.get("exclude_mirrored", False)),
        )


# ---------------------------------------------------------------------------
# Unit table, propensity model, matching


@dataclass(frozen=True)
class UnitTable:
    """Per-record inputs of every scenario, one row per profiled record with
    non-blank body text, in corpus order. Missing profile fields are NaN."""

    record_ids: tuple[str, ...]
    outlet: np.ndarray  # [n] object: str
    section: np.ndarray  # [n] object: str or None
    time_block: np.ndarray  # [n] object: "B1" | "B2" | "B3"
    mirrored: np.ndarray  # [n] bool
    cluster: np.ndarray  # [n] float64
    headline_clickbait: np.ndarray  # [n] float64
    post_clickbait: np.ndarray  # [n] float64
    features: np.ndarray  # [n, dim] body vectors
    zero_hit: np.ndarray  # [n] bool: body has no in-vocabulary token
    outcomes: np.ndarray  # [n, len(ENGAGEMENT_METRICS)]

    def __len__(self) -> int:
        return len(self.record_ids)

    @property
    def lacks_scores(self) -> np.ndarray:
        return np.isnan(self.headline_clickbait) | np.isnan(self.post_clickbait)


def _or_nan(value) -> float:
    return np.nan if value is None else float(value)


def build_unit_table(corpus: Corpus, profiles: list[EditProfile], table: EmbeddingTable,
                     outlets) -> UnitTable:
    """Embed each eligible record's body once and collect its columns.

    Eligible: the record sits in one of `outlets` and has a profile and
    non-blank body text.
    """
    profile_by_id = {p.record_id: p for p in profiles}
    outlets = set(outlets)
    rows = []
    for record in corpus:
        if record.outlet not in outlets:
            continue
        prof = profile_by_id.get(record.id)
        if prof is None or not record.body_text.strip():
            continue
        rows.append((record, prof))

    features = np.zeros((len(rows), table.dim), dtype=np.float64)
    zero_hit = np.zeros(len(rows), dtype=bool)
    for i, (record, _) in enumerate(rows):
        doc = embed_text(table, record.body_text)
        features[i] = doc.values
        zero_hit[i] = doc.is_zero_hit
    return UnitTable(
        record_ids=tuple(r.id for r, _ in rows),
        outlet=np.array([r.outlet for r, _ in rows], dtype=object),
        section=np.array([r.section for r, _ in rows], dtype=object),
        time_block=np.array([assign_time_block(r) for r, _ in rows], dtype=object),
        mirrored=np.array([p.mirrored for _, p in rows], dtype=bool),
        cluster=np.array([_or_nan(p.cluster) for _, p in rows], dtype=np.float64),
        headline_clickbait=np.array([_or_nan(p.headline_clickbait) for _, p in rows],
                                    dtype=np.float64),
        post_clickbait=np.array([_or_nan(p.post_clickbait) for _, p in rows],
                                dtype=np.float64),
        features=features,
        zero_hit=zero_hit,
        outcomes=np.array([float(r.engagement(m)) for r, _ in rows for m in ENGAGEMENT_METRICS],
                          dtype=np.float64).reshape(len(rows), len(ENGAGEMENT_METRICS)),
    )


@dataclass(frozen=True)
class CausalUnit:
    record_id: str
    features: np.ndarray  # body-text document vector
    outcomes: dict[str, float]


@dataclass
class PropensityModel:
    """Three-layer feed-forward net on averaged body-text vectors."""

    network: Mlp

    def predict(self, features: np.ndarray) -> np.ndarray:
        p = self.network.predict(np.atleast_2d(features))
        return np.clip(p, 1e-9, 1.0 - 1e-9)


@dataclass(frozen=True)
class MatchResult:
    treatment_id: str
    matched_control_ids: tuple[str, ...]
    propensity_gaps: tuple[float, ...]
    mean_similarity: float  # mean body-vector cosine between treatment and its matches


@dataclass(frozen=True)
class BalanceStats:
    mu: float
    sigma: float
    alpha: float
    tau: float
    achieved: float
    passed: bool

    @property
    def threshold(self) -> float:
        return max(self.mu + self.alpha * self.sigma, self.tau)


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


def train_propensity(treatments: list[CausalUnit], controls: list[CausalUnit],
                     seed: int = 0, epochs: int = 3, batch_size: int = 32,
                     hidden: tuple[int, int] = (128, 64), learning_rate: float = 1e-3,
                     l2_penalty: float = 0.001) -> PropensityModel:
    """Fit treatment-vs-control on body vectors with binary cross-entropy.

    The L2 penalty applies to the last hidden layer's weights only. The few-
    epoch default is deliberate: the matching step needs the coarse topic-
    level treatment rates, and longer schedules mostly memorize individual
    assignments, which destabilizes matching. The schedule does not
    calibrate the robustness interval; `run_scenario` does that by
    estimating each fold on treatment units its model never saw.
    """
    if not treatments or not controls:
        raise ScenarioError("propensity training needs units in both groups")
    x = np.vstack([u.features for u in treatments] + [u.features for u in controls])
    y = np.concatenate([np.ones(len(treatments)), np.zeros(len(controls))])
    dim = x.shape[1]
    net = Mlp(
        [dim, hidden[0], hidden[1], 1],
        activations=["relu", "relu", "sigmoid"],
        seed=seed,
        loss="bce",
        l2_penalty=l2_penalty,
        l2_layer=1,
    )
    opt = AdamState(learning_rate=learning_rate)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(len(x))
        for start in range(0, len(order), batch_size):
            chunk = order[start:start + batch_size]
            net.loss_and_grads(x[chunk], y[chunk])
            adam_step(opt, net.buffer)
    return PropensityModel(network=net)


def match(treatments: list[CausalUnit], controls: list[CausalUnit],
          model: PropensityModel, k: int = DEFAULT_KNN) -> list[MatchResult]:
    """k nearest controls by |propensity gap| for each treatment unit.

    Matching is with replacement; gap ties break on ascending record id.
    """
    if k < 1:
        raise ScenarioError(f"k must be at least 1, got {k}")
    if len(controls) < k:
        raise ScenarioError(f"need at least k={k} controls, got {len(controls)}")
    p_t = model.predict(np.vstack([u.features for u in treatments]))
    p_c = model.predict(np.vstack([u.features for u in controls]))
    control_ids = [u.record_id for u in controls]
    id_rank = np.argsort(np.argsort(control_ids, kind="stable"), kind="stable")
    chosen = _nearest_controls(p_t, p_c, id_rank, k)
    gaps = np.abs(p_c[chosen] - p_t[:, None])

    control_mat = np.vstack([u.features for u in controls])
    control_norms = np.linalg.norm(control_mat, axis=1)

    results = []
    for unit, row, row_gaps in zip(treatments, chosen.tolist(), gaps.tolist()):
        tvec = unit.features
        tnorm = float(np.linalg.norm(tvec))
        sims = []
        for c in row:
            denom = tnorm * control_norms[c]
            sims.append(float(control_mat[c] @ tvec / denom) if denom > 0 else 0.0)
        results.append(
            MatchResult(
                treatment_id=unit.record_id,
                matched_control_ids=tuple(control_ids[c] for c in row),
                propensity_gaps=tuple(row_gaps),
                mean_similarity=float(np.mean(sims)),
            )
        )
    return results


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


def pairwise_similarity_stats(vectors: np.ndarray, seed: int = 0,
                              exact_cutoff: int = PAIR_SAMPLE_CUTOFF,
                              sample_size: int = PAIR_SAMPLE_SIZE) -> tuple[float, float]:
    """Mean and standard deviation of cosine similarity over document pairs.

    Exact over all n(n-1)/2 pairs up to `exact_cutoff` documents; beyond that,
    a seeded uniform sample of pairs, whose dot products are taken in chunks
    of PAIR_CHUNK rows.
    """
    vec = np.asarray(vectors, dtype=np.float64)
    n = len(vec)
    if n < 2:
        raise ValueError("need at least two documents for pair statistics")
    norms = np.linalg.norm(vec, axis=1)
    safe = np.where(norms == 0.0, 1.0, norms)
    unit = vec / safe[:, None]
    unit[norms == 0.0] = 0.0
    if n <= exact_cutoff:
        gram = unit @ unit.T
        iu = np.triu_indices(n, k=1)
        sims = gram[iu]
    else:
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=sample_size)
        j = rng.integers(0, n - 1, size=sample_size)
        j = np.where(j >= i, j + 1, j)  # uniform over ordered pairs with i != j
        sims = np.empty(sample_size, dtype=np.float64)
        for start in range(0, sample_size, PAIR_CHUNK):
            stop = start + PAIR_CHUNK
            np.einsum("nd,nd->n", unit[i[start:stop]], unit[j[start:stop]],
                      out=sims[start:stop])
    return float(sims.mean()), float(sims.std())


def balance_check(matches: list[MatchResult], mu: float, sigma: float,
                  alpha: float = DEFAULT_ALPHA, tau: float = DEFAULT_TAU) -> BalanceStats:
    """Semantic-balance gate on the matched pairs.

    The achieved value is the mean over treatment units of their mean matched
    similarity; it must reach max(mu + alpha * sigma, tau).
    """
    if not matches:
        raise ValueError("no matches to check")
    achieved = float(np.mean([m.mean_similarity for m in matches]))
    threshold = max(mu + alpha * sigma, tau)
    return BalanceStats(
        mu=mu, sigma=sigma, alpha=alpha, tau=tau,
        achieved=achieved, passed=achieved >= threshold,
    )


def estimate_eate(matches: list[MatchResult], outcomes: dict[str, float]) -> float:
    """Average over treatment units of the mean outcome gap to their matches."""
    if not matches:
        raise ValueError("no matches to aggregate")
    total = 0.0
    for m in matches:
        y_t = _lookup_outcome(outcomes, m.treatment_id)
        gaps = sum(y_t - _lookup_outcome(outcomes, c) for c in m.matched_control_ids)
        total += gaps / len(m.matched_control_ids)
    return total / len(matches)


def _lookup_outcome(outcomes: dict[str, float], record_id: str) -> float:
    try:
        return outcomes[record_id]
    except KeyError:
        raise ValueError(f"no outcome recorded for {record_id!r}") from None


# ---------------------------------------------------------------------------
# Scenario runner


@dataclass(frozen=True)
class CausalConfig:
    knn: int = DEFAULT_KNN
    alpha: float = DEFAULT_ALPHA
    tau: float = DEFAULT_TAU
    min_group: int = DEFAULT_MIN_GROUP
    epochs: int = 3
    batch_size: int = 32
    hidden: tuple[int, int] = (128, 64)
    learning_rate: float = 1e-3
    l2_penalty: float = 0.001


def select_units(units: UnitTable, scenario: Scenario
                 ) -> tuple[list[CausalUnit], list[CausalUnit]]:
    """Apply the scenario's filters and selectors to the table's rows.

    Records whose body has no in-vocabulary token are excluded (the
    propensity model consumes body vectors). The first filtered row, in
    corpus order, that a shift selector cannot read (no clickbait scores) or
    that both selectors pick raises `ScenarioError`, zero-hit or not.
    """
    rows = units.outlet == scenario.outlet
    if scenario.section is not None:
        rows &= units.section == scenario.section
    if scenario.time_block is not None:
        rows &= units.time_block == scenario.time_block
    if scenario.exclude_mirrored:
        rows &= ~units.mirrored
    in_t = scenario.treatment.mask(units) & rows
    in_c = scenario.control.mask(units) & rows
    unreadable = np.zeros(len(units), dtype=bool)
    if "shift" in (scenario.treatment.kind, scenario.control.kind):
        unreadable = units.lacks_scores & rows
    errors = np.flatnonzero(unreadable | (in_t & in_c))
    if len(errors):
        i = errors[0]
        if unreadable[i]:
            raise ScenarioError(f"record {units.record_ids[i]!r} lacks clickbait scores "
                                "required by a shift selector")
        raise ScenarioError(f"scenario {scenario.name!r}: record {units.record_ids[i]!r} "
                            "matches both selectors")

    def take(mask: np.ndarray) -> list[CausalUnit]:
        return [
            CausalUnit(
                record_id=units.record_ids[i],
                features=units.features[i],
                outcomes=dict(zip(ENGAGEMENT_METRICS, units.outcomes[i].tolist())),
            )
            for i in np.flatnonzero(mask & ~units.zero_hit)
        ]

    return take(in_t), take(in_c)


def _fold_indices(n: int, rng: np.random.Generator) -> np.ndarray:
    """Fold label per unit: a seeded shuffle dealt round-robin into 10 folds."""
    labels = np.empty(n, dtype=np.int64)
    labels[rng.permutation(n)] = np.arange(n) % N_FOLDS
    return labels


def run_scenario(units: UnitTable, scenario: Scenario, seed: int = 0,
                 config: CausalConfig = CausalConfig()) -> list[EateReport]:
    """Full protocol for one scenario of the unit table; one report per
    engagement metric.

    Treatment and control units are each dealt into ten folds. Fold f trains
    its own propensity model on the other nine folds of both arms (fold-
    specific initialization and batch order), matches fold f's held-out
    treatment units against those nine folds' controls, runs the balance
    gate on those matches, and records the effect estimate over them. Every
    treatment unit is thus estimated once, by a model it did not train, and
    the fold values share no treatment outcome, so their spread carries the
    estimate's sampling error rather than only the variability of training
    and matching. The report's mean is the mean of the ten fold values and
    its interval is Student-t (9 dof) over them; `discarded` is set when the
    interval covers zero or any fold fails balance.
    """
    treatments, controls = select_units(units, scenario)
    min_treatments = max(config.min_group, N_FOLDS)  # every fold needs a held-out unit
    if len(treatments) < min_treatments:
        raise ScenarioError(
            f"scenario {scenario.name!r}: treatment selector "
            f"[{scenario.treatment.describe()}] yields {len(treatments)} units "
            f"(minimum {min_treatments})"
        )
    if len(controls) < max(config.min_group, config.knn):
        raise ScenarioError(
            f"scenario {scenario.name!r}: control selector "
            f"[{scenario.control.describe()}] yields {len(controls)} units "
            f"(minimum {config.min_group})"
        )

    all_vectors = np.vstack([u.features for u in treatments] + [u.features for u in controls])
    mu, sigma = pairwise_similarity_stats(all_vectors, seed=seed)

    rng = np.random.default_rng(seed)
    t_folds = _fold_indices(len(treatments), rng)
    c_folds = _fold_indices(len(controls), rng)

    fold_values: dict[str, list[float]] = {m: [] for m in ENGAGEMENT_METRICS}
    balances: list[BalanceStats] = []
    outcomes = {
        m: {u.record_id: u.outcomes[m] for u in treatments + controls}
        for m in ENGAGEMENT_METRICS
    }

    for fold in range(N_FOLDS):
        held_out = [u for u, f in zip(treatments, t_folds) if f == fold]
        train_treatments = [u for u, f in zip(treatments, t_folds) if f != fold]
        train_controls = [u for u, f in zip(controls, c_folds) if f != fold]
        model = train_propensity(
            train_treatments, train_controls,
            seed=seed * N_FOLDS + fold + 1,
            epochs=config.epochs,
            batch_size=config.batch_size,
            hidden=config.hidden,
            learning_rate=config.learning_rate,
            l2_penalty=config.l2_penalty,
        )
        matches = match(held_out, train_controls, model, k=config.knn)
        balances.append(balance_check(matches, mu, sigma, config.alpha, config.tau))
        for metric in ENGAGEMENT_METRICS:
            fold_values[metric].append(estimate_eate(matches, outcomes[metric]))

    any_balance_failure = any(not b.passed for b in balances)
    reports = []
    for metric in ENGAGEMENT_METRICS:
        values = np.asarray(fold_values[metric])
        mean = float(values.mean())
        spread = float(values.std(ddof=1))
        half = T_CRIT_95 * spread / np.sqrt(N_FOLDS)
        ci_low, ci_high = float(mean - half), float(mean + half)
        naive = (
            float(np.mean([u.outcomes[metric] for u in treatments]))
            - float(np.mean([u.outcomes[metric] for u in controls]))
        )
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
                n_treatment=len(treatments),
                n_control=len(controls),
            )
        )
    return reports


def report_to_dict(report: EateReport) -> dict:
    return {
        "scenario": report.scenario,
        "metric": report.metric,
        "fold_eates": list(report.fold_eates),
        "mean_eate": report.mean_eate,
        "ci_low": report.ci_low,
        "ci_high": report.ci_high,
        "discarded": report.discarded,
        "naive_difference": report.naive_difference,
        "n_treatment": report.n_treatment,
        "n_control": report.n_control,
        "balance": [
            {
                "mu": b.mu, "sigma": b.sigma, "alpha": b.alpha, "tau": b.tau,
                "threshold": b.threshold, "achieved": b.achieved, "passed": b.passed,
            }
            for b in report.balance
        ],
    }
