"""Word-vector table loading, bag-of-words document embedding, cosine similarity.

The on-disk format is the common word-vector text layout: an optional
"<count> <dim>" header line, then one token followed by `dim` floats per
line. Documents embed as the average of their in-vocabulary token vectors.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import TEXT_ENCODING, normalize, write_text_atomic

_TOKEN_SPLIT = re.compile("[" + re.escape(string.punctuation) + r"\s]+")


def tokenize(text: str) -> list[str]:
    """`corpus.normalize` the text (so a word stored decomposed finds its
    composed vector), lowercase it and split on whitespace plus ASCII
    punctuation."""
    return [t for t in _TOKEN_SPLIT.split(normalize(text).lower()) if t]


@dataclass(frozen=True)
class EmbeddingTable:
    dim: int
    vocab: dict[str, np.ndarray]


def load_table(path: str | Path) -> EmbeddingTable:
    """Parse a word-vector text file.

    The header line, when present, must agree with the per-line dimension;
    any line whose float count disagrees, or that holds a nan/inf entry, is
    a ValueError with its line number.
    """
    path = Path(path)
    with open(path, encoding=TEXT_ENCODING) as fh:
        raw = fh.readlines()

    dim: int | None = None
    body = list(enumerate(raw, start=1))
    if body:
        head = raw[0].split()
        if len(head) == 2:
            try:
                int(head[0]), int(head[1])
            except ValueError:
                pass
            else:
                dim = int(head[1])
                body = body[1:]

    vocab: dict[str, np.ndarray] = {}
    for line_no, line in body:
        if not line.strip():
            continue
        parts = line.rstrip("\n").split(" ")
        token = parts[0]
        try:
            vec = np.asarray([float(x) for x in parts[1:] if x != ""], dtype=np.float64)
        except ValueError:
            raise ValueError(f"{path} line {line_no}: non-numeric vector entry") from None
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"{path} line {line_no}: non-finite vector entry")
        if dim is None:
            if vec.size == 0:
                raise ValueError(f"{path} line {line_no}: no vector values")
            dim = int(vec.size)
        if vec.size != dim:
            raise ValueError(
                f"{path} line {line_no}: expected {dim} floats, found {vec.size}"
            )
        vocab[token] = vec
    if not vocab:
        raise ValueError(f"{path}: empty vector file")
    return EmbeddingTable(dim=int(dim), vocab=vocab)


def save_table(table: EmbeddingTable, path: str | Path) -> None:
    """Write a table, atomically, in the same text format load_table reads."""
    lines = [f"{len(table.vocab)} {table.dim}\n"]
    lines.extend(token + " " + " ".join(repr(float(x)) for x in vec) + "\n"
                 for token, vec in table.vocab.items())
    write_text_atomic(path, "".join(lines))


def embed_text(table: EmbeddingTable, text: str) -> tuple[np.ndarray, int]:
    """(vector [dim], hits): the average of the vectors of the text's
    in-vocabulary tokens (bag of words), and how many tokens hit.

    Out-of-vocabulary tokens are dropped; a document with no hits gets the
    zero vector and 0 hits, so callers can exclude it.
    """
    total = np.zeros(table.dim, dtype=np.float64)
    hits = 0
    for token in tokenize(text):
        vec = table.vocab.get(token)
        if vec is not None:
            total += vec
            hits += 1
    if hits:
        total /= hits
    return total, hits


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity of two float arrays; 0.0 when either has zero norm."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b) / (na * nb))
