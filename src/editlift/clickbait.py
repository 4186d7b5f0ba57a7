"""Clickbait scoring: train the bidirectional GRU + attention classifier on
labeled headlines, score headline/post pairs, and tabulate how often outlets
shift a text's clickbait class when posting.

Training data is a list of (text, label) pairs with label 1 = clickbait.
The classifier's architecture and training schedule are fixed. A text's
class is C exactly when `is_clickbait` holds for its score (the score
exceeds CLICKBAIT_THRESHOLD), and NC otherwise; training's F1, the shift
table and the `shift` scenario selectors all classify through it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import Corpus, csv_rows, write_bytes_atomic
from .embedding import tokenize
from .nn import AdamState, SequenceClassifier, adam_step, load_params, params_to_bytes
from .textsim import Profiles

MIN_DATASET_SIZE = 20
MAX_SEQUENCE_TOKENS = 64  # tokens of a text the classifier reads
CLICKBAIT_THRESHOLD = 0.5
TEST_FRACTION = 0.1  # of each class, held out by `stratified_split`
BATCH_SIZE = 32
EMBED_SIZE = 50
HIDDEN_SIZE = 64
LEARNING_RATE = 1e-3
PATIENCE = 3  # epochs without a better validation F1 before training stops
# header values every model file records; a file with others was made for
# another classification rule, so `load_model` rejects it
_FIXED_META = {"threshold": CLICKBAIT_THRESHOLD, "max_tokens": MAX_SEQUENCE_TOKENS}


@dataclass(frozen=True)
class LabeledHeadline:
    text: str
    label: int  # 1 = clickbait, 0 = non-clickbait


@dataclass
class ClickbaitModel:
    network: SequenceClassifier
    token_ids: dict[str, int]  # id 0 is the unknown token

    def encode(self, text: str) -> list[int]:
        if not text.strip():
            raise ValueError("cannot score empty text")
        tokens = tokenize(text)[:MAX_SEQUENCE_TOKENS]
        ids = [self.token_ids.get(t, SequenceClassifier.UNKNOWN_ID) for t in tokens]
        return ids or [SequenceClassifier.UNKNOWN_ID]


def is_clickbait(scores) -> np.ndarray:
    """Whether each score puts its text in class C; a NaN score reads as
    not C."""
    return np.asarray(scores, dtype=np.float64) > CLICKBAIT_THRESHOLD


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


def stratified_split(dataset: list[LabeledHeadline],
                     seed: int) -> tuple[list[int], list[int]]:
    """(train, test) index split holding out TEST_FRACTION of each class;
    deterministic for a seed."""
    rng = np.random.default_rng(seed)
    train_idx: list[int] = []
    test_idx: list[int] = []
    for cls in (0, 1):
        members = [i for i, ex in enumerate(dataset) if ex.label == cls]
        perm = rng.permutation(len(members))
        n_test = int(round(len(members) * TEST_FRACTION))
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


def train(dataset: list[LabeledHeadline], split_seed: int,
          epochs: int) -> tuple[ClickbaitModel, float]:
    """Train on a 90:10 stratified split; returns (model, held-out F1).

    Token vectors are trained from their seeded initialization. Training
    stops early once validation F1 has not improved for PATIENCE epochs.
    """
    if len(dataset) < MIN_DATASET_SIZE:
        raise ValueError(f"need at least {MIN_DATASET_SIZE} examples, got {len(dataset)}")
    labels = {ex.label for ex in dataset}
    if labels != {0, 1}:
        raise ValueError("training data must contain both classes")
    for ex in dataset:
        if not ex.text.strip():
            raise ValueError("training example with empty text")

    train_idx, test_idx = stratified_split(dataset, split_seed)
    train_set = [dataset[i] for i in train_idx]
    test_set = [dataset[i] for i in test_idx]

    token_ids = _build_vocab(ex.text for ex in train_set)
    network = SequenceClassifier(
        vocab_size=len(token_ids) + 1,
        embed_size=EMBED_SIZE,
        hidden_size=HIDDEN_SIZE,
        seed=split_seed,
    )
    model = ClickbaitModel(network=network, token_ids=token_ids)
    sequences = [model.encode(ex.text) for ex in train_set]
    targets = np.array([ex.label for ex in train_set], dtype=np.float64)

    # carve a stratified validation slice out of the training split
    val_train_idx, val_idx = stratified_split(train_set, split_seed + 1)
    fit_seqs = [sequences[i] for i in val_train_idx]
    fit_y = targets[val_train_idx]
    val_seqs = [sequences[i] for i in val_idx]
    val_y = targets[val_idx]

    opt = AdamState(learning_rate=LEARNING_RATE)
    rng = np.random.default_rng(split_seed + 2)
    best_val = -1.0
    stale = 0
    for _epoch in range(epochs):
        order = rng.permutation(len(fit_seqs))
        for start in range(0, len(order), BATCH_SIZE):
            chunk = order[start:start + BATCH_SIZE]
            network.loss_and_grads([fit_seqs[i] for i in chunk], fit_y[chunk])
            adam_step(opt, network.buffer)
        val_f1 = f1_score(val_y, is_clickbait(network.score_batch(val_seqs)))
        if val_f1 > best_val:
            best_val = val_f1
            stale = 0
        else:
            stale += 1
            if stale >= PATIENCE:
                break

    test_pred = is_clickbait(score_many(model, [ex.text for ex in test_set]))
    test_f1 = f1_score([ex.label for ex in test_set], test_pred)
    return model, test_f1


def score_many(model: ClickbaitModel, texts) -> np.ndarray:
    """[len(texts)] sigmoid clickbait score in [0, 1] of each text."""
    return model.network.score_batch([model.encode(t) for t in texts])


def score_profiles(model: ClickbaitModel, corpus: Corpus, profiles: Profiles) -> Profiles:
    """`profiles` with the headline and post clickbait columns filled; profile
    row i must be corpus record i (`Profiles.check_rows`)."""
    profiles.check_rows(corpus)
    return replace(profiles,
                   headline_clickbait=score_many(model, [r.headline for r in corpus]),
                   post_clickbait=score_many(model, [r.post_text for r in corpus]))


def conditional_shift_table(profiles: Profiles, rows) -> dict:
    """Empirical P(post class | headline class) over the given row positions
    of `profiles` (one outlet's records), as `clickbait_shift.json` holds it
    per outlet: `p_nc_given_c`, `p_c_given_nc`, and their denominators
    `n_headline_c` and `n_headline_nc`. A cell whose conditioning class is
    empty is None."""
    unscored = np.flatnonzero(profiles.lacks_scores[rows])
    if len(unscored):
        rid = profiles.record_ids[rows[unscored[0]]]
        raise ValueError(f"record {rid!r} lacks clickbait scores")
    headline_c = is_clickbait(profiles.headline_clickbait[rows])
    post_c = is_clickbait(profiles.post_clickbait[rows])
    n_c = int(np.count_nonzero(headline_c))
    n_nc = len(rows) - n_c
    return {
        "p_nc_given_c": int(np.count_nonzero(headline_c & ~post_c)) / n_c if n_c else None,
        "p_c_given_nc": int(np.count_nonzero(post_c & ~headline_c)) / n_nc if n_nc else None,
        "n_headline_c": n_c,
        "n_headline_nc": n_nc,
    }


def load_labeled_csv(path: str | Path) -> list[LabeledHeadline]:
    """Read training data from a `text,label` CSV (header required). A row
    with fewer or more cells than the header, a blank text or a label other
    than 0 or 1 raises ValueError naming the file and line."""
    out = []
    for line, row, problem in csv_rows(path, ("text", "label")):
        where = f"{path} line {line}"
        if problem is not None:
            raise ValueError(f"{where}: {problem}")
        if not row["text"].strip():
            raise ValueError(f"{where}: missing text")
        if row["label"].strip() not in ("0", "1"):
            raise ValueError(f"{where}: label must be 0 or 1, got {row['label']!r}")
        out.append(LabeledHeadline(text=row["text"], label=int(row["label"])))
    return out


def save_model(model: ClickbaitModel, path: str | Path) -> None:
    """Write the model atomically: a failed write leaves the previous file."""
    tokens = sorted(model.token_ids, key=model.token_ids.get)
    meta = {
        "kind": "clickbait",
        "tokens": tokens,
        **_FIXED_META,
        "embed_size": model.network.embed_size,
        "hidden_size": model.network.hidden_size,
        "attention_size": model.network.hidden_size,  # the attention width
        "seed": model.network.seed,
    }
    write_bytes_atomic(path, params_to_bytes(model.network.buffer.params, meta))


def load_model(path: str | Path) -> ClickbaitModel:
    """Read a model `save_model` wrote; a malformed file, or one made for
    another threshold, token limit or attention width, raises ValueError
    naming the path."""
    meta, params = load_params(path)
    if meta.get("kind") != "clickbait":
        raise ValueError(f"{path}: not a clickbait model file")
    try:
        network = SequenceClassifier(
            vocab_size=len(meta["tokens"]) + 1,
            embed_size=int(meta["embed_size"]),
            hidden_size=int(meta["hidden_size"]),
            seed=int(meta["seed"]),
        )
        for key, value in {**_FIXED_META, "attention_size": network.hidden_size}.items():
            if meta[key] != value:
                raise ValueError(f"model file has {key} {meta[key]!r}, expected {value!r}")
        network.buffer.assign(params)
        token_ids = {t: i + 1 for i, t in enumerate(meta["tokens"])}
        return ClickbaitModel(network=network, token_ids=token_ids)
    except KeyError as exc:
        raise ValueError(f"{path}: model file lacks {exc}") from None
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: {exc}") from None


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
        # draws what `rng.choice(len(words), size=length)` does, at less cost
        picks = rng.integers(0, len(words), size=length).tolist()
        out.append(LabeledHeadline(text=" ".join([words[j] for j in picks]), label=label))
    return out
