"""Headline-to-post similarity profiling and distribution comparison tests.

Two axes describe how far a post drifted from its headline: normalized
Levenshtein distance (lexical change) and embedding cosine similarity
(semantic preservation). The distance uses the bit-vector algorithm of
Myers (J. ACM 46(3), 1999) in Hyyrö's Levenshtein form (Nordic J.
Computing 10, 2003). Outlet-level distributions are compared with the
Mann-Whitney U test.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .corpus import Corpus, csv_rows, normalize, write_text_atomic
from .embedding import EmbeddingTable, cosine, embed_many

EXACT_MAX_N = 20  # combined sample size up to which `mann_whitney_u` enumerates


def _shared_length(same, limit: int) -> int:
    """The largest k <= limit with same(k), for a `same` that holds up to
    some length and fails beyond it: try k = 1, 2, 4, ..., then bisect."""
    low, high = 0, 1
    while high <= limit and same(high):
        low, high = high, 2 * high
    high = min(high, limit + 1)  # same(high) fails, or high exceeds limit
    while high - low > 1:
        mid = (low + high) // 2
        if same(mid):
            low = mid
        else:
            high = mid
    return low


def normalized_edit_distance(a: str, b: str) -> float:
    """Levenshtein distance over Unicode scalar values, divided by max length.

    Unit-cost insert/delete/substitute. Returns 0.0 for two empty strings.
    A shared prefix and suffix leave the distance unchanged, so they are
    stripped first, by slice comparisons (one character's on a pair that
    differs at the start). The rest is bit-parallel: Myers' algorithm (J.
    ACM 46(3), 1999) in the Levenshtein form of Hyyrö (Nordic J. Computing
    10, 2003). DP rows index the shorter string; bit i of `pv`/`mv` marks a
    +1/-1 step from row i to row i+1 of the current DP column, and one pass
    of word operations per character of the longer string advances to the
    next column. Python ints are unbounded, so every `~` and `<<` is masked
    to the shorter length.
    """
    if a == b:
        return 0.0
    longest = max(len(a), len(b))
    head = _shared_length(lambda k: a[:k] == b[:k], min(len(a), len(b)))
    a, b = a[head:], b[head:]
    tail = _shared_length(lambda k: a[-k:] == b[-k:], min(len(a), len(b)))
    a, b = a[:len(a) - tail], b[:len(b) - tail]
    if not a or not b:
        return max(len(a), len(b)) / longest
    if len(b) > len(a):
        a, b = b, a
    peq: dict[str, int] = {}
    for i, ch in enumerate(b):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    mask = (1 << len(b)) - 1
    last = 1 << (len(b) - 1)
    pv, mv, dist = mask, 0, len(b)
    for ch in a:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
    return dist / longest


def _finite_cell(cell: str) -> float | None:
    try:
        value = float(cell)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _unit_cell(cell: str) -> float | None:
    value = _finite_cell(cell)
    return value if value is not None and 0.0 <= value <= 1.0 else None


def _label_cell(cell: str) -> float | None:
    return float(cell) if cell.isascii() and cell.isdigit() else None


def _blank_or(parse):
    return lambda cell: math.nan if cell == "" else parse(cell)


def _nan_blank(write):
    return lambda value: "" if math.isnan(value) else write(value)


@dataclass(frozen=True)
class Cell:
    """How one value column of the profile CSV is written and read. `parse`
    returns None for a cell that breaks `rule`; `dtype` is the column's
    array type."""

    write: Callable[[object], str]
    parse: Callable[[str], object]
    rule: str
    dtype: type = np.float64


def _column(cell: Cell):
    """A `Profiles` field that is a value column of the profile CSV."""
    return field(metadata={"cell": cell})


@dataclass(frozen=True)
class Profiles:
    """One profile row per record, as columns. Cluster and clickbait values
    are NaN until the `cluster` and `clickbait score` commands set them.

    The fields are the profile CSV's columns, in order; each value column
    declares its `Cell`, which is the one parse rule of its cells.
    """

    record_ids: tuple[str, ...]
    edit_distance: np.ndarray = _column(Cell(repr, _unit_cell, "a finite number in [0, 1]"))
    # no upper bound: a cosine of equal vectors can read 1.0000000000000002
    embedding_similarity: np.ndarray = _column(Cell(repr, _finite_cell, "a finite number"))
    mirrored: np.ndarray = _column(Cell({True: "true", False: "false"}.get,
                                        {"true": True, "false": False}.get, "true or false",
                                        bool))
    # an integer label, or NaN
    cluster: np.ndarray = _column(Cell(_nan_blank(lambda label: str(int(label))),
                                       _blank_or(_label_cell), "blank or a non-negative integer"))
    headline_clickbait: np.ndarray = _column(Cell(_nan_blank(repr), _blank_or(_unit_cell),
                                                  "blank or a number in [0, 1]"))
    post_clickbait: np.ndarray = _column(Cell(_nan_blank(repr), _blank_or(_unit_cell),
                                              "blank or a number in [0, 1]"))

    def __len__(self) -> int:
        return len(self.record_ids)

    @property
    def lacks_scores(self) -> np.ndarray:
        """[n] bool: the row lacks a headline or a post clickbait score."""
        return np.isnan(self.headline_clickbait) | np.isnan(self.post_clickbait)

    def take(self, rows: np.ndarray) -> "Profiles":
        """The table of the given rows, in the given order."""
        return Profiles(tuple(self.record_ids[i] for i in rows),
                        **{name: getattr(self, name)[rows] for name in _CELLS})

    def check_rows(self, corpus: Corpus) -> None:
        """Raise ValueError unless row i of this table is corpus record i, for
        every i; the message names the first record where the two differ."""
        ids = tuple(r.id for r in corpus)
        if self.record_ids == ids:
            return
        i = next((i for i, (a, b) in enumerate(zip(self.record_ids, ids)) if a != b),
                 min(len(self), len(ids)))
        if i < len(ids) and ids[i] not in set(self.record_ids):
            raise ValueError(f"corpus record {ids[i]!r} has no profile row")
        if i < len(self) and self.record_ids[i] not in set(ids):
            raise ValueError(f"profile row for record {self.record_ids[i]!r} "
                             "names no corpus record")
        raise ValueError(f"profile row {i + 1} (record {self.record_ids[i]!r}) is out of "
                         "corpus order: row i must be corpus record i")


# each value column's cell codec, in column order; the id column is named in
# the singular, one id per row
_CELLS = {f.name: f.metadata["cell"] for f in fields(Profiles)[1:]}
PROFILE_COLUMNS = ("record_id", *_CELLS)


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float


def profile(corpus: Corpus, table: EmbeddingTable) -> Profiles:
    """One profile row per record, in corpus order.

    Distances are computed on normalized texts; similarity is the cosine of
    the two bag-of-words document vectors; a record is mirrored when its
    normalized headline and post are equal (exact and case-sensitive: only
    whitespace and Unicode composition differences are forgiven). Cluster and
    clickbait columns stay unset here.
    """
    headlines = [normalize(r.headline) for r in corpus]
    posts = [normalize(r.post_text) for r in corpus]
    mirrored = np.array([h == p for h, p in zip(headlines, posts)], dtype=bool)
    # one embedding per headline and per edited post; a mirrored post's
    # vector is its headline's
    n = len(corpus)
    edited = np.flatnonzero(~mirrored)
    vectors, _ = embed_many(table, headlines + [posts[i] for i in edited.tolist()])
    similarity = cosine(vectors[:n], vectors[:n])
    similarity[edited] = cosine(vectors[edited], vectors[n:])
    return Profiles(
        record_ids=tuple(r.id for r in corpus),
        edit_distance=np.array([normalized_edit_distance(h, p)
                                for h, p in zip(headlines, posts)], dtype=np.float64),
        embedding_similarity=similarity,
        mirrored=mirrored,
        cluster=np.full(n, np.nan),
        headline_clickbait=np.full(n, np.nan),
        post_clickbait=np.full(n, np.nan),
    )


def profiles_to_csv(profiles: Profiles, path: str | Path) -> None:
    """Fixed-column CSV export, written atomically; unset values are left
    blank."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(PROFILE_COLUMNS)
    writer.writerows(zip(profiles.record_ids,
                         *(map(cell.write, getattr(profiles, name).tolist())
                           for name, cell in _CELLS.items())))
    write_text_atomic(path, buf.getvalue())


def profiles_from_csv(path: str | Path) -> Profiles:
    """Read what `profiles_to_csv` wrote; a blank cell reads as unset (NaN).
    A cell that breaks its column's rule (`Cell.rule`) raises ValueError
    naming the file, line and column."""
    ids, seen = [], set()
    columns = {name: [] for name in _CELLS}
    for line, row, problem in csv_rows(path, PROFILE_COLUMNS):
        if problem is not None:
            raise ValueError(f"{path} line {line}: {problem}")
        if row["record_id"] in seen:  # named by its file line, unlike `check_rows`
            raise ValueError(f"{path} line {line}: duplicate record_id {row['record_id']!r}")
        seen.add(row["record_id"])
        ids.append(row["record_id"])
        for name, cell in _CELLS.items():
            value = cell.parse(row[name])
            if value is None:
                raise ValueError(f"{path} line {line}: {name} must be {cell.rule}, "
                                 f"got {row[name]!r}")
            columns[name].append(value)
    return Profiles(tuple(ids), **{name: np.array(values, dtype=_CELLS[name].dtype)
                                   for name, values in columns.items()})


def _midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank.

    A run of c equal values ending at sorted position e (1-based) holds ranks
    e - c + 1 .. e, whose mean is (2e - c + 1) / 2: an exact half-integer.
    """
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    return ((2 * np.cumsum(counts) - counts + 1) / 2)[inverse]


def _exact_u_pvalue(ranks: np.ndarray, nx: int, u_obs: float) -> float:
    """Two-sided exact p under the permutation null.

    Counts the assignments of nx ranks (out of all midranks) whose U deviates
    from nx*ny/2 at least as much as the observed U. Doubled midranks are
    integers, so the count-per-rank-sum table is exact.
    """
    doubled = np.rint(ranks * 2).astype(np.int64)
    # ways[j, s] = number of size-j subsets with doubled-rank sum s
    ways = np.zeros((nx + 1, doubled.sum() + 1), dtype=np.int64)
    ways[0, 0] = 1
    for d in doubled:
        # numpy reads overlapping operands as if copied first, so every
        # subset takes this rank at most once
        ways[1:, d:] += ways[:-1, :ways.shape[1] - d]
    mu2 = nx * (len(ranks) - nx)  # on the doubled scale: U2 = 2R - nx(nx+1), E[U2] = nx*ny
    u2 = np.arange(ways.shape[1]) - nx * (nx + 1)
    extreme = np.abs(u2 - mu2) >= abs(2 * u_obs - mu2) - 1e-9
    return int(ways[nx, extreme].sum()) / int(ways[nx].sum())


def mann_whitney_u(x, y) -> TestResult:
    """Two-sided Mann-Whitney U test with midrank tie handling.

    The statistic is the x-side U (count of (x, y) pairs with x > y, ties
    counting one half). p-values come from exact enumeration when the
    combined sample size is at most EXACT_MAX_N, otherwise from the
    tie-corrected normal approximation with continuity correction.
    """
    x = np.asarray(list(x), dtype=np.float64)
    y = np.asarray(list(y), dtype=np.float64)
    if x.size == 0 or y.size == 0:
        raise ValueError("mann_whitney_u requires non-empty samples")
    nx, ny = int(x.size), int(y.size)
    combined = np.concatenate([x, y])
    ranks = _midranks(combined)
    rx = float(ranks[:nx].sum())
    u = rx - nx * (nx + 1) / 2.0

    n = nx + ny
    if n <= EXACT_MAX_N:
        p = _exact_u_pvalue(ranks, nx, u)
        return TestResult(statistic=u, p_value=min(1.0, p))

    mu = nx * ny / 2.0
    _, counts = np.unique(combined, return_counts=True)
    tie_term = float(np.sum(counts.astype(np.float64) ** 3 - counts))
    sigma2 = nx * ny / 12.0 * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma2 <= 0:  # every value identical
        return TestResult(statistic=u, p_value=1.0)
    # continuity correction toward the mean
    dev = max(abs(u - mu) - 0.5, 0.0)
    p = math.erfc(dev / math.sqrt(2.0 * sigma2))
    return TestResult(statistic=u, p_value=min(1.0, p))

