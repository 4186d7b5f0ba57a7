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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, normalize, write_text_atomic
from .embedding import EmbeddingTable, cosine, embed_text

EXACT_MAX_N = 20  # combined sample size up to which `mann_whitney_u` enumerates
PROFILE_COLUMNS = (
    "record_id",
    "edit_distance",
    "embedding_similarity",
    "mirrored",
    "cluster",
    "headline_clickbait",
    "post_clickbait",
)


def normalized_edit_distance(a: str, b: str) -> float:
    """Levenshtein distance over Unicode scalar values, divided by max length.

    Unit-cost insert/delete/substitute. Returns 0.0 for two empty strings.
    Bit-parallel: Myers' algorithm (J. ACM 46(3), 1999) in the Levenshtein
    form of Hyyrö (Nordic J. Computing 10, 2003). DP rows index the shorter
    string; bit i of `pv`/`mv` marks a +1/-1 step from row i to row i+1 of
    the current DP column, and one pass of word operations per character
    of the longer string advances to the next column. Python ints are
    unbounded, so every `~` and `<<` is masked to the shorter length.
    """
    if a == b:
        return 0.0
    if not a or not b:
        return 1.0
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
    return dist / len(a)


@dataclass(frozen=True)
class Profiles:
    """One profile row per record, as columns. Cluster and clickbait values
    are NaN until the `cluster` and `clickbait score` commands set them."""

    record_ids: tuple[str, ...]
    edit_distance: np.ndarray  # [n] float64
    embedding_similarity: np.ndarray  # [n] float64
    mirrored: np.ndarray  # [n] bool
    cluster: np.ndarray  # [n] float64: an integer label, or NaN
    headline_clickbait: np.ndarray  # [n] float64
    post_clickbait: np.ndarray  # [n] float64

    def __len__(self) -> int:
        return len(self.record_ids)

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
    distance, similarity, mirrored = [], [], []
    for record in corpus:
        headline = normalize(record.headline)
        post = normalize(record.post_text)
        distance.append(normalized_edit_distance(headline, post))
        similarity.append(cosine(embed_text(table, headline)[0], embed_text(table, post)[0]))
        mirrored.append(headline == post)
    n = len(corpus)
    return Profiles(
        record_ids=tuple(r.id for r in corpus),
        edit_distance=np.array(distance, dtype=np.float64),
        embedding_similarity=np.array(similarity, dtype=np.float64),
        mirrored=np.array(mirrored, dtype=bool),
        cluster=np.full(n, np.nan),
        headline_clickbait=np.full(n, np.nan),
        post_clickbait=np.full(n, np.nan),
    )


def _float_cell(value: float) -> str:
    return "" if math.isnan(value) else repr(value)


def profiles_to_csv(profiles: Profiles, path: str | Path) -> None:
    """Fixed-column CSV export, written atomically; unset values are left
    blank."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(PROFILE_COLUMNS)
    writer.writerows(
        (rid, repr(d), repr(s), "true" if m else "false",
         "" if math.isnan(c) else int(c), _float_cell(h), _float_cell(p))
        for rid, d, s, m, c, h, p in zip(
            profiles.record_ids, profiles.edit_distance.tolist(),
            profiles.embedding_similarity.tolist(), profiles.mirrored.tolist(),
            profiles.cluster.tolist(), profiles.headline_clickbait.tolist(),
            profiles.post_clickbait.tolist()))
    write_text_atomic(path, buf.getvalue())


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


# each value column's one parse rule, and what it accepts; a rule returns
# None for a cell it refuses. Similarity has no upper bound: a cosine of
# equal vectors can read 1.0000000000000002
_CELL_RULES = {
    "edit_distance": (_unit_cell, "a finite number in [0, 1]"),
    "embedding_similarity": (_finite_cell, "a finite number"),
    "mirrored": ({"true": True, "false": False}.get, "true or false"),
    "cluster": (_blank_or(_label_cell), "blank or a non-negative integer"),
    "headline_clickbait": (_blank_or(_unit_cell), "blank or a number in [0, 1]"),
    "post_clickbait": (_blank_or(_unit_cell), "blank or a number in [0, 1]"),
}


def profiles_from_csv(path: str | Path) -> Profiles:
    """Read what `profiles_to_csv` wrote; a blank cell reads as unset (NaN).
    A cell that breaks its column's rule (`_CELL_RULES`) raises ValueError
    naming the file, line and column."""
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(PROFILE_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"profile CSV missing columns: {sorted(missing)}")
        rows, seen = [], set()
        for row in reader:
            # DictReader fills a short row's missing cells with None and files
            # a long row's surplus cells under the None key
            if None in row or None in row.values():
                raise ValueError(f"{path} line {reader.line_num}: expected "
                                 f"{len(PROFILE_COLUMNS)} cells")
            if row["record_id"] in seen:  # named by its file line, unlike `check_rows`
                raise ValueError(f"{path} line {reader.line_num}: duplicate record_id "
                                 f"{row['record_id']!r}")
            seen.add(row["record_id"])
            values = [row["record_id"]]
            for column, (parse, rule) in _CELL_RULES.items():
                value = parse(row[column])
                if value is None:
                    raise ValueError(f"{path} line {reader.line_num}: {column} must be "
                                     f"{rule}, got {row[column]!r}")
                values.append(value)
            rows.append(values)
    ids, distance, similarity, mirrored, cluster, headline, post = (
        zip(*rows) if rows else ((),) * len(PROFILE_COLUMNS))
    return Profiles(
        record_ids=ids,
        edit_distance=np.array(distance, dtype=np.float64),
        embedding_similarity=np.array(similarity, dtype=np.float64),
        mirrored=np.array(mirrored, dtype=bool),
        cluster=np.array(cluster, dtype=np.float64),
        headline_clickbait=np.array(headline, dtype=np.float64),
        post_clickbait=np.array(post, dtype=np.float64),
    )


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

