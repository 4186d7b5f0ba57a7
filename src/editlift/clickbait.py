"""Clickbait scoring: train the bidirectional GRU + attention classifier on
labeled headlines, score headline/post pairs, and tabulate how often outlets
shift a text's clickbait class when posting.

Training data is a list of (text, label) pairs with label 1 = clickbait.
A text's class is C exactly when its score exceeds the 0.5 threshold.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .embedding import EmbeddingTable, tokenize
from .nn import AdamState, SequenceClassifier, adam_step, load_params, save_params
from .textsim import EditProfile

MIN_DATASET_SIZE = 20
MAX_SEQUENCE_TOKENS = 64
CLICKBAIT_THRESHOLD = 0.5


@dataclass(frozen=True)
class LabeledHeadline:
    text: str
    label: int  # 1 = clickbait, 0 = non-clickbait


@dataclass
class ClickbaitModel:
    network: SequenceClassifier
    token_ids: dict[str, int]  # id 0 is the unknown token
    threshold: float = CLICKBAIT_THRESHOLD
    max_tokens: int = MAX_SEQUENCE_TOKENS

    def encode(self, text: str) -> list[int]:
        if not text.strip():
            raise ValueError("cannot score empty text")
        tokens = tokenize(text)[: self.max_tokens]
        ids = [self.token_ids.get(t, SequenceClassifier.UNKNOWN_ID) for t in tokens]
        return ids or [SequenceClassifier.UNKNOWN_ID]


@dataclass(frozen=True)
class ShiftTable:
    """Conditional probabilities of the post's class given the headline's.

    Cells with an empty conditioning class are None and reported with their
    zero denominator.
    """

    outlet: str
    p_nc_given_c: float | None
    p_c_given_nc: float | None
    n_headline_c: int
    n_headline_nc: int


def f1_score(y_true, y_pred) -> float:
    """Harmonic mean of precision and recall on the positive class."""
    y_true = np.asarray(y_true, dtype=np.int64)
    y_pred = np.asarray(y_pred, dtype=np.int64)
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2.0 * precision * recall / (precision + recall)


def stratified_split(dataset: list[LabeledHeadline], test_fraction: float,
                     seed: int) -> tuple[list[int], list[int]]:
    """Index split preserving the class ratio; deterministic for a seed."""
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for cls in (0, 1):
        members = [i for i, ex in enumerate(dataset) if ex.label == cls]
        perm = rng.permutation(len(members))
        n_test = int(round(len(members) * test_fraction))
        for j, p in enumerate(perm):
            (test_idx if j < n_test else train_idx).append(members[p])
    return sorted(train_idx), sorted(test_idx)


def _build_vocab(texts) -> dict[str, int]:
    ids: dict[str, int] = {}
    for text in texts:
        for token in tokenize(text):
            if token not in ids:
                ids[token] = len(ids) + 1  # 0 stays reserved for unknown
    return ids


def train(dataset: list[LabeledHeadline], split_seed: int = 0, epochs: int = 10,
          batch_size: int = 32, embed_size: int = 50, hidden_size: int = 64,
          learning_rate: float = 1e-3, clip_norm: float = 5.0,
          patience: int = 3, table: EmbeddingTable | None = None,
          ) -> tuple[ClickbaitModel, float]:
    """Train on a 90:10 stratified split; returns (model, held-out F1).

    Token vectors are trainable; when a pretrained table is supplied, rows
    for known tokens start from it (projected or padded to embed_size).
    Training stops early once validation F1 has not improved for `patience`
    epochs.
    """
    if len(dataset) < MIN_DATASET_SIZE:
        raise ValueError(f"need at least {MIN_DATASET_SIZE} examples, got {len(dataset)}")
    labels = {ex.label for ex in dataset}
    if labels != {0, 1}:
        raise ValueError("training data must contain both classes")
    for ex in dataset:
        if not ex.text.strip():
            raise ValueError("training example with empty text")

    train_idx, test_idx = stratified_split(dataset, 0.1, split_seed)
    train_set = [dataset[i] for i in train_idx]
    test_set = [dataset[i] for i in test_idx]

    token_ids = _build_vocab(ex.text for ex in train_set)
    network = SequenceClassifier(
        vocab_size=len(token_ids) + 1,
        embed_size=embed_size,
        hidden_size=hidden_size,
        seed=split_seed,
    )
    if table is not None:
        for token, tid in token_ids.items():
            vec = table.vocab.get(token)
            if vec is None:
                continue
            if vec.size >= embed_size:
                network.embed[tid] = vec[:embed_size]
            else:
                network.embed[tid, : vec.size] = vec

    model = ClickbaitModel(network=network, token_ids=token_ids)
    sequences = [model.encode(ex.text) for ex in train_set]
    targets = np.array([ex.label for ex in train_set], dtype=np.float64)

    # carve a stratified validation slice out of the training split
    val_train_idx, val_idx = stratified_split(train_set, 0.1, split_seed + 1)
    fit_seqs = [sequences[i] for i in val_train_idx]
    fit_y = targets[val_train_idx]
    val_seqs = [sequences[i] for i in val_idx]
    val_y = targets[val_idx]

    opt = AdamState(learning_rate=learning_rate, clip_norm=clip_norm)
    rng = np.random.default_rng(split_seed + 2)
    best_val = -1.0
    stale = 0
    for _epoch in range(epochs):
        order = rng.permutation(len(fit_seqs))
        for start in range(0, len(order), batch_size):
            chunk = order[start:start + batch_size]
            network.loss_and_grads([fit_seqs[i] for i in chunk], fit_y[chunk])
            adam_step(opt, network.buffer)
        val_pred = (network.score_batch(val_seqs) > model.threshold).astype(int)
        val_f1 = f1_score(val_y.astype(int), val_pred)
        if val_f1 > best_val:
            best_val = val_f1
            stale = 0
        else:
            stale += 1
            if stale >= patience:
                break

    test_scores = score_many(model, [ex.text for ex in test_set])
    test_pred = (test_scores > model.threshold).astype(int)
    test_f1 = f1_score([ex.label for ex in test_set], test_pred)
    return model, test_f1


def score(model: ClickbaitModel, text: str) -> float:
    """Sigmoid clickbait score in [0, 1]."""
    return float(model.network.score_batch([model.encode(text)])[0])


def score_many(model: ClickbaitModel, texts) -> np.ndarray:
    return model.network.score_batch([model.encode(t) for t in texts])


def classify(model: ClickbaitModel, text: str) -> str:
    """"C" when the score strictly exceeds the threshold, else "NC"."""
    return "C" if score(model, text) > model.threshold else "NC"


def score_profiles(model: ClickbaitModel, corpus: Corpus,
                   profiles: list[EditProfile]) -> list[EditProfile]:
    """Fill headline_clickbait / post_clickbait for every profiled record."""
    by_id = {r.id: r for r in corpus}
    missing = [p.record_id for p in profiles if p.record_id not in by_id]
    if missing:
        raise ValueError(f"profiles reference records absent from corpus: {missing[:3]}")
    headline_scores = score_many(model, [by_id[p.record_id].headline for p in profiles])
    post_scores = score_many(model, [by_id[p.record_id].post_text for p in profiles])
    return [
        replace(p, headline_clickbait=float(h), post_clickbait=float(t))
        for p, h, t in zip(profiles, headline_scores, post_scores)
    ]


def conditional_shift_table(profiles: list[EditProfile], corpus: Corpus,
                            outlet: str, threshold: float = CLICKBAIT_THRESHOLD) -> ShiftTable:
    """Empirical P(post class | headline class) for one outlet."""
    outlet_ids = {r.id for r in corpus.by_outlet(outlet)}
    n_c = n_nc = shift_c_to_nc = shift_nc_to_c = 0
    for p in profiles:
        if p.record_id not in outlet_ids:
            continue
        if p.headline_clickbait is None or p.post_clickbait is None:
            raise ValueError(f"record {p.record_id!r} lacks clickbait scores")
        headline_c = p.headline_clickbait > threshold
        post_c = p.post_clickbait > threshold
        if headline_c:
            n_c += 1
            shift_c_to_nc += not post_c
        else:
            n_nc += 1
            shift_nc_to_c += post_c
    return ShiftTable(
        outlet=outlet,
        p_nc_given_c=(shift_c_to_nc / n_c) if n_c else None,
        p_c_given_nc=(shift_nc_to_c / n_nc) if n_nc else None,
        n_headline_c=n_c,
        n_headline_nc=n_nc,
    )


def load_labeled_csv(path: str | Path) -> list[LabeledHeadline]:
    """Read training data from a `text,label` CSV (header required)."""
    out = []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        if not reader.fieldnames or not {"text", "label"} <= set(reader.fieldnames):
            raise ValueError(f"{path}: expected columns text,label")
        for row in reader:
            label = int(row["label"])
            if label not in (0, 1):
                raise ValueError(f"{path}: label must be 0 or 1, got {row['label']!r}")
            out.append(LabeledHeadline(text=row["text"], label=label))
    return out


def save_model(model: ClickbaitModel, path: str | Path) -> None:
    tokens = sorted(model.token_ids, key=model.token_ids.get)
    meta = {
        "kind": "clickbait",
        "tokens": tokens,
        "threshold": model.threshold,
        "max_tokens": model.max_tokens,
        "embed_size": model.network.embed_size,
        "hidden_size": model.network.hidden_size,
        "attention_size": model.network.attention_size,
        "seed": model.network.seed,
    }
    save_params(path, model.network.params, meta)


def load_model(path: str | Path) -> ClickbaitModel:
    meta, params = load_params(path)
    if meta.get("kind") != "clickbait":
        raise ValueError(f"{path}: not a clickbait model file")
    network = SequenceClassifier(
        vocab_size=len(meta["tokens"]) + 1,
        embed_size=int(meta["embed_size"]),
        hidden_size=int(meta["hidden_size"]),
        attention_size=int(meta["attention_size"]),
        seed=int(meta["seed"]),
    )
    network.set_params(params)
    token_ids = {t: i + 1 for i, t in enumerate(meta["tokens"])}
    return ClickbaitModel(
        network=network,
        token_ids=token_ids,
        threshold=float(meta["threshold"]),
        max_tokens=int(meta["max_tokens"]),
    )


# ---------------------------------------------------------------------------
# Bundled synthetic benchmark corpus: two disjoint vocabularies, perfectly
# separable, used wherever the real annotated corpus is unavailable.

_BAIT_WORDS = (
    "unbelievable shocking insane epic crazy secret tricks hacks genius "
    "jaw dropping weirdest craziest actually literally obsessed viral "
    "guess ranked quiz totally mindblowing hilarious awkward cutest"
).split()

_NEWS_WORDS = (
    "senate committee budget quarterly earnings policy minister council "
    "election treaty inflation drought verdict parliament regulator court "
    "announces report approves survey study officials province exports"
).split()


def synthetic_headlines(n: int = 1000, seed: int = 0) -> list[LabeledHeadline]:
    """Deterministic separable corpus: label 1 texts draw only bait words,
    label 0 texts only newsroom words."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = i % 2
        words = _BAIT_WORDS if label == 1 else _NEWS_WORDS
        length = int(rng.integers(4, 11))
        picks = rng.choice(len(words), size=length)
        out.append(LabeledHeadline(text=" ".join(words[j] for j in picks), label=label))
    return out
