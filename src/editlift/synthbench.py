"""Synthetic paired corpora with known treatment effects.

Records are grouped into topics that drive both the chance of the post being
edited (the treatment) and the engagement level (the outcome), giving a
controllable confounder. The generator also emits a matching word-vector
table so the whole pipeline can run without external assets.

Engagement counts draw from a gamma-mixed Poisson: `dispersion` is the
variance of the mean multiplier, so 0 gives plain Poisson and larger values
heavier tails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

from .corpus import (ENGAGEMENT_METRICS, TEXT_ENCODING, Corpus, PairedRecord,
                     check_field_keys, json_value, reject_unknown_keys, write_text_atomic)
from .embedding import EmbeddingTable

HEADLINE_TOKENS = (4, 9)  # [low, high) words of a generated headline
BODY_TOKENS = (20, 45)  # [low, high) words of a generated body
YEAR_START = datetime(2018, 1, 1)  # posts fall in the 365 days from here
TABLE_DIM = 32  # width of the word vectors `synthetic_table` makes
TOKEN_NOISE = 0.45  # scatter of a token's vector around its topic direction
FAMILY_OFFSET = 0.15  # sibling topics' offset from their family direction
PRESET_VOCAB_SIZE = 150  # words per topic of the confounded preset


@dataclass(frozen=True)
class TopicSpec:
    topic_id: str
    vocabulary: tuple[str, ...]
    base_means: dict[str, float]  # metric -> expected count for controls
    family: str | None = None  # topics in one family embed close together


@dataclass(frozen=True)
class SynthSpec:
    n_records: int
    topics: tuple[TopicSpec, ...]
    treatment_rule: dict[str, float]  # topic_id -> probability of an edited post
    true_effect: dict[str, float] = field(default_factory=dict)  # metric -> additive delta
    dispersion: float = 0.0
    seed: int = 0
    outlet: str = "synthwire"

    def validate(self) -> None:
        if self.n_records < 60:
            raise ValueError("n_records must be at least 60")
        if not self.topics:
            raise ValueError("at least one topic required")
        for topic in self.topics:
            if not topic.vocabulary:
                raise ValueError(f"topic {topic.topic_id!r} has an empty vocabulary")
            missing = [m for m in ENGAGEMENT_METRICS if m not in topic.base_means]
            if missing:
                raise ValueError(f"topic {topic.topic_id!r} lacks base means for {missing}")
            if topic.topic_id not in self.treatment_rule:
                raise ValueError(f"no treatment probability for topic {topic.topic_id!r}")
            reject_unknown_keys(topic.base_means, ENGAGEMENT_METRICS,
                                f"topic {topic.topic_id!r} base_means")
        reject_unknown_keys(self.treatment_rule, [t.topic_id for t in self.topics],
                            "treatment_rule")
        reject_unknown_keys(self.true_effect, ENGAGEMENT_METRICS, "true_effect")
        for tid, prob in self.treatment_rule.items():
            if not 0.0 <= prob <= 1.0:
                raise ValueError(f"treatment probability for {tid!r} outside [0, 1]: {prob}")
        if self.dispersion < 0.0:
            raise ValueError("dispersion must be non-negative")


@dataclass(frozen=True)
class TruthRecord:
    id: str
    topic: str
    treated: bool
    expected: dict[str, float]  # pre-noise expected outcome per metric
    clamped: bool


def generate(spec: SynthSpec) -> tuple[Corpus, list[TruthRecord]]:
    """Deterministically realize a spec into a corpus plus per-record truth.

    Topic sizes and per-topic treated counts are stratified to their exact
    expected values (probabilities realized as counts, assignment seeded), so
    repeated seeds differ only in text composition and outcome noise.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    n = spec.n_records
    n_topics = len(spec.topics)

    sizes = [n // n_topics + (1 if i < n % n_topics else 0) for i in range(n_topics)]
    topic_of = np.repeat(np.arange(n_topics), sizes)
    treated = np.zeros(n, dtype=bool)
    offset = 0
    for t_index, topic in enumerate(spec.topics):
        size = sizes[t_index]
        n_treated = int(round(spec.treatment_rule[topic.topic_id] * size))
        picks = rng.permutation(size)[:n_treated]
        treated[offset + picks] = True
        offset += size

    order = rng.permutation(n)
    topic_of = topic_of[order]
    treated = treated[order]

    records = []
    truth = []
    width = len(str(n))
    for i in range(n):
        topic = spec.topics[topic_of[i]]
        rid = f"s{i + 1:0{width}d}"
        vocab = topic.vocabulary

        h_len = int(rng.integers(*HEADLINE_TOKENS))
        headline = " ".join(vocab[j] for j in rng.choice(len(vocab), size=h_len))
        b_len = int(rng.integers(*BODY_TOKENS))
        body = " ".join(vocab[j] for j in rng.choice(len(vocab), size=b_len))
        if treated[i]:
            extra = " ".join(vocab[j] for j in rng.choice(len(vocab), size=2))
            post = f"{headline} {extra}"
        else:
            post = headline

        minute = int(rng.integers(0, 365 * 24 * 60))
        created = (YEAR_START + timedelta(minutes=minute)).strftime("%Y-%m-%dT%H:%M:00Z")

        expected = {}
        counts = {}
        clamped = False
        for metric in ENGAGEMENT_METRICS:
            mean = topic.base_means[metric]
            if treated[i]:
                mean += spec.true_effect.get(metric, 0.0)
            expected[metric] = mean
            lam = mean
            if spec.dispersion > 0.0:
                lam = mean * rng.gamma(1.0 / spec.dispersion, spec.dispersion)
            if lam < 0.0:
                lam = 0.0
                clamped = True
            counts[metric] = int(rng.poisson(lam))

        records.append(
            PairedRecord(
                id=rid,
                outlet=spec.outlet,
                headline=headline,
                body_text=body,
                post_text=post,
                created_at=created,
                replies=counts["replies"],
                retweets=counts["retweets"],
                likes=counts["likes"],
                section="politics" if topic_of[i] % 2 == 0 else "entertainment",
            )
        )
        truth.append(
            TruthRecord(
                id=rid,
                topic=topic.topic_id,
                treated=bool(treated[i]),
                expected=expected,
                clamped=clamped,
            )
        )
    corpus = Corpus(records=tuple(records), source_path=f"synthetic:seed={spec.seed}")
    return corpus, truth


def synthetic_table(spec: SynthSpec, seed: int) -> EmbeddingTable:
    """TABLE_DIM-wide word vectors aligned with the spec's topics.

    Each topic family gets a random unit direction; topics inside a family
    sit at symmetric FAMILY_OFFSET offsets from it (cosine about
    1 - 2*FAMILY_OFFSET^2 between siblings), and unrelated families are
    mutually near-orthogonal. Tokens scatter around their topic's direction
    with TOKEN_NOISE. Seeded separately from the corpus so one table serves
    every corpus built on the same layout.
    """
    rng = np.random.default_rng(seed)

    def unit() -> np.ndarray:
        v = rng.normal(size=TABLE_DIM)
        return v / np.linalg.norm(v)

    family_centers: dict[str, np.ndarray] = {}
    members: dict[str, int] = {}
    vocab: dict[str, np.ndarray] = {}
    for topic in spec.topics:
        family = topic.family or topic.topic_id
        if family not in family_centers:
            family_centers[family] = unit()
            members[family] = 0
        side = 1.0 if members[family] % 2 == 0 else -1.0
        members[family] += 1
        axis = unit()
        base = family_centers[family]
        axis = axis - (axis @ base) * base
        axis /= np.linalg.norm(axis)
        center = np.sqrt(1.0 - FAMILY_OFFSET ** 2) * base + side * FAMILY_OFFSET * axis
        scale = TOKEN_NOISE / np.sqrt(TABLE_DIM)
        for token in topic.vocabulary:
            vocab[token] = center + rng.normal(0.0, scale, size=TABLE_DIM)
    return EmbeddingTable(dim=TABLE_DIM, vocab=vocab)


def confounded_spec(n_records: int, effect_likes: float, seed: int) -> SynthSpec:
    """Benchmark layout: five treatment-probability levels, each a family of
    two semantically close topics with very different engagement scales.

    Editing probability rises with the family's engagement level, so the
    naive treated-vs-control gap is strongly biased. Within a family the
    propensity score cannot tell the sibling topics apart (same probability,
    nearby text), which keeps matched pairs semantically balanced while
    leaving honest fold-to-fold matching variability for the robustness
    interval to measure.
    """
    levels = (
        (0.85, "buzz", (("bustle", 1300.0), ("gossip", 350.0))),
        (0.65, "biz", (("markets", 900.0), ("mergers", 240.0))),
        (0.50, "law", (("courts", 650.0), ("filings", 170.0))),
        (0.35, "sci", (("science", 420.0), ("journals", 110.0))),
        (0.15, "wx", (("storms", 260.0), ("forecast", 70.0))),
    )
    topics = []
    rule = {}
    for prob, family, pair in levels:
        for name, likes in pair:
            vocabulary = tuple(f"{name}{i:02d}" for i in range(PRESET_VOCAB_SIZE))
            topics.append(
                TopicSpec(
                    topic_id=name,
                    vocabulary=vocabulary,
                    base_means={
                        "likes": likes,
                        "retweets": likes * 0.3,
                        "replies": likes * 0.08,
                    },
                    family=family,
                )
            )
            rule[name] = prob
    effect = {"likes": effect_likes} if effect_likes else {}
    return SynthSpec(
        n_records=n_records,
        topics=tuple(topics),
        treatment_rule=rule,
        true_effect=effect,
        seed=seed,
    )


def save_truth(truth: list[TruthRecord], path: str | Path) -> None:
    """One JSON object per record, its keys the `TruthRecord` fields, sorted."""
    write_text_atomic(path, "".join(json.dumps(vars(t), sort_keys=True) + "\n" for t in truth))


def load_spec(path: str | Path) -> SynthSpec:
    """Parse a generator spec from JSON, whose keys are the `SynthSpec`
    fields and each topic's the `TopicSpec` fields; a key left out takes the
    field's default. A value of the wrong JSON type, an unknown key or a
    missing required key raises ValueError naming the key."""
    payload = json_value(json.loads(Path(path).read_text(encoding=TEXT_ENCODING)), dict,
                         "the spec")
    check_field_keys(payload, SynthSpec, "spec")
    return SynthSpec(**{key: _SPEC_VALUES[key](value) for key, value in payload.items()})


def _topic(value) -> TopicSpec:
    t = json_value(value, dict, "topics entry")
    check_field_keys(t, TopicSpec, "topic")
    return TopicSpec(**{key: _TOPIC_VALUES[key](value) for key, value in t.items()})


def _floats(value, key: str) -> dict[str, float]:
    return {k: json_value(v, float, f"{key}[{k!r}]")
            for k, v in json_value(value, dict, key).items()}


# each spec and topic key's value check and conversion
_SPEC_VALUES = {
    "n_records": lambda v: json_value(v, int, "n_records"),
    "topics": lambda v: tuple(map(_topic, json_value(v, list, "topics"))),
    "treatment_rule": lambda v: _floats(v, "treatment_rule"),
    "true_effect": lambda v: _floats(v, "true_effect"),
    "dispersion": lambda v: json_value(v, float, "dispersion"),
    "seed": lambda v: json_value(v, int, "seed"),
    "outlet": lambda v: json_value(v, str, "outlet"),
}
_TOPIC_VALUES = {
    "topic_id": lambda v: json_value(v, str, "topic_id"),
    "vocabulary": lambda v: tuple(json_value(w, str, "vocabulary entry")
                                  for w in json_value(v, list, "vocabulary")),
    "base_means": lambda v: _floats(v, "base_means"),
    "family": lambda v: None if v is None else json_value(v, str, "family"),
}
