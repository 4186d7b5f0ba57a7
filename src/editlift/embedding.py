"""Word-vector table loading, bag-of-words document embedding, cosine similarity.

The on-disk format is the common word-vector text layout: an optional
"<count> <dim>" header line, then one token followed by `dim` floats per
line. Documents embed as the average of their in-vocabulary token vectors,
many at a time (`embed_many`).
"""

from __future__ import annotations

import string
from array import array
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .corpus import TEXT_ENCODING, normalize, write_text_atomic

_PUNCTUATION_TO_SPACE = str.maketrans(string.punctuation, " " * len(string.punctuation))


def tokenize(text: str) -> list[str]:
    """`corpus.normalize` the text (so a word stored decomposed finds its
    composed vector), lowercase it and split on whitespace plus ASCII
    punctuation."""
    return _tokens(normalize(text))


def _tokens(normalized: str) -> list[str]:
    # `str.split` splits on the code points `str.isspace` accepts, as the
    # regex class `\s` does
    return normalized.lower().translate(_PUNCTUATION_TO_SPACE).split()


@dataclass(frozen=True)
class EmbeddingTable:
    dim: int
    vocab: dict[str, np.ndarray]

    @cached_property
    def rows(self) -> tuple[dict[str, int], np.ndarray]:
        """({token: row}, [1 + len(vocab), dim] matrix): the vocabulary's
        vectors as rows 1.., under a zero row 0 that no token maps to.
        The empty token, which `tokenize` never yields, is left out."""
        index = {token: row for row, token in enumerate(self.vocab, start=1) if token}
        matrix = np.zeros((len(self.vocab) + 1, self.dim), dtype=np.float64)
        if self.vocab:
            matrix[1:] = list(self.vocab.values())
        return index, matrix


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
    lines.extend(token + " " + " ".join(map(repr, vec.tolist())) + "\n"
                 for token, vec in table.vocab.items())
    write_text_atomic(path, "".join(lines))


def embed_many(table: EmbeddingTable, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """([n, dim] vectors, [n] hits) of `corpus.normalize`d texts: row i is the
    average of the vectors of text i's in-vocabulary tokens (bag of words),
    and hits[i] how many tokens hit.

    Out-of-vocabulary tokens are dropped; a text with no hits gets the zero
    vector and 0 hits, so callers can exclude it. Each text is tokenized
    once, then all texts are summed one token position at a time, so each
    vector is still a left-to-right sum from +0.0, then divided by its hits,
    as a loop over its tokens would compute it.
    """
    index, matrix = table.rows
    lookup = index.get
    # the rows of every text's hits, text after text, as one compact buffer;
    # row ids are >= 1, so `if row` drops exactly the misses
    packed, counts = array("i"), []
    for text in texts:
        before = len(packed)
        packed.extend([row for row in map(lookup, _tokens(text)) if row])
        counts.append(len(packed) - before)
    token_rows = np.frombuffer(packed, dtype=np.int32)
    hits = np.array(counts, dtype=np.int64)
    order = np.argsort(hits, kind="stable")
    # in hit order, the texts with more than j hits are the suffix first[j]:,
    # and at[i] is sorted text i's offset of its next token in token_rows
    first = np.searchsorted(hits[order], np.arange(hits.max(initial=0)), "right")
    at = (np.cumsum(hits) - hits)[order]
    sums = np.zeros((len(texts), table.dim), dtype=np.float64)
    for f in first.tolist():
        sums[f:] += matrix[token_rows[at[f:]]]
        at[f:] += 1
    vectors = np.empty_like(sums)
    vectors[order] = sums
    np.divide(vectors, hits[:, None], out=vectors, where=hits[:, None] > 0)
    return vectors, hits


def embed_text(table: EmbeddingTable, text: str) -> tuple[np.ndarray, int]:
    """(vector [dim], hits) of one text, as `embed_many` embeds its
    `corpus.normalize`d form."""
    vectors, hits = embed_many(table, [normalize(text)])
    return vectors[0], int(hits[0])


def cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray | float:
    """Cosine similarity of two float arrays along their last axis; 0.0
    where either side has zero norm. 1-D arrays give a scalar."""
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    na = np.sqrt(np.vecdot(a, a))
    nb = np.sqrt(np.vecdot(b, b))
    out = np.zeros(na.shape, dtype=np.float64)
    np.divide(np.vecdot(a, b), na * nb, out=out, where=(na != 0.0) & (nb != 0.0))
    return out[()]
