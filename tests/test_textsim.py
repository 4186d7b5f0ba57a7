import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from editlift import textsim
from editlift.corpus import normalize
from editlift.embedding import EmbeddingTable, embed_text
from editlift.textsim import (
    mann_whitney_u,
    normalized_edit_distance,
    profile,
    profiles_from_csv,
    profiles_to_csv,
)

from conftest import make_corpus, make_profiles, make_record, profile_rows


def reference_levenshtein(a: str, b: str) -> int:
    """Quadratic-space DP oracle, straight from the recurrence."""
    rows, cols = len(a) + 1, len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        d[i][0] = i
    for j in range(cols):
        d[0][j] = j
    for i in range(1, rows):
        for j in range(1, cols):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[-1][-1]


@st.composite
def edit_pairs(draw):
    """String pairs whose lengths cross the 64- and 128-bit word boundaries.

    Small and non-ASCII alphabets, one-character repeats and shared
    prefixes/suffixes give long runs of matches, which exercise the carries
    of the bit-parallel distance.
    """
    alphabet = draw(st.sampled_from(["a", "ab", "abcde xyz", "éàü€𝄞 a", "日本語ab"]))

    def text(max_len=160):
        n = draw(st.integers(0, max_len))
        return draw(st.text(alphabet=alphabet, min_size=n, max_size=n))

    a = text()
    kind = draw(st.sampled_from(["free", "prefix", "suffix", "repeat"]))
    if kind == "free":
        b = text()
    elif kind == "prefix":
        b = a[:draw(st.integers(0, len(a)))] + text(40)
    elif kind == "suffix":
        b = text(40) + a[draw(st.integers(0, len(a))):]
    else:
        b = alphabet[0] * draw(st.integers(0, 160))
    return a, b


class TestEditDistance:
    def test_identical(self):
        assert normalized_edit_distance("abc", "abc") == 0.0

    def test_kitten_sitting(self):
        assert normalized_edit_distance("kitten", "sitting") == pytest.approx(3 / 7, abs=1e-9)

    def test_all_insertions(self):
        assert normalized_edit_distance("", "abc") == 1.0

    def test_both_empty(self):
        assert normalized_edit_distance("", "") == 0.0

    def test_unicode_scalars(self):
        # one substitution over two characters
        assert normalized_edit_distance("éa", "ea") == 0.5

    @given(st.text(max_size=40), st.text(max_size=40))
    @settings(max_examples=200)
    def test_symmetry_bounds_identity(self, a, b):
        d = normalized_edit_distance(a, b)
        assert d == normalized_edit_distance(b, a)
        assert 0.0 <= d <= 1.0
        assert normalized_edit_distance(a, a) == 0.0

    def test_agreement_with_reference_dp(self):
        rng = np.random.default_rng(42)
        alphabet = "abcde xyz"
        for _ in range(1000):
            n1, n2 = rng.integers(0, 41, size=2)
            a = "".join(rng.choice(list(alphabet), size=n1))
            b = "".join(rng.choice(list(alphabet), size=n2))
            expected = (
                0.0 if not a and not b
                else reference_levenshtein(a, b) / max(len(a), len(b))
            )
            assert normalized_edit_distance(a, b) == pytest.approx(expected, abs=1e-12)

    @given(edit_pairs())
    @settings(max_examples=200, deadline=None)
    def test_bit_parallel_matches_reference_dp(self, pair):
        a, b = pair
        expected = 0.0 if not a and not b else reference_levenshtein(a, b) / max(len(a), len(b))
        assert normalized_edit_distance(a, b) == expected


class TestProfile:
    def table(self):
        return EmbeddingTable(dim=2, vocab={
            "alpha": np.array([1.0, 0.0]),
            "beta": np.array([0.0, 1.0]),
        })

    def test_mirrored_record(self):
        corpus = make_corpus([make_record(headline="alpha beta", post_text="alpha  beta")])
        [p] = profile_rows(profile(corpus, self.table()))
        assert p.mirrored
        assert p.edit_distance == 0.0
        assert p.embedding_similarity == pytest.approx(1.0)

    def test_disjoint_texts(self):
        corpus = make_corpus([
            make_record(rid="r1", headline="alpha", post_text="beta"),
            make_record(rid="r2", headline="alpha alpha", post_text="zq"),
        ])
        profiles = profile_rows(profile(corpus, self.table()))
        assert profiles[0].embedding_similarity == pytest.approx(0.0)
        # hand DP: levenshtein(alpha, beta) = 4, over max length 5
        assert profiles[0].edit_distance == pytest.approx(0.8)
        assert embed_text(self.table(), normalize("zq"))[1] == 0  # misses the vocabulary
        assert profiles[1].embedding_similarity == 0.0

    def test_cardinality_and_order(self):
        corpus = make_corpus([make_record(rid=f"r{i}") for i in range(5)])
        profiles = profile(corpus, self.table())
        assert profiles.record_ids == tuple(f"r{i}" for i in range(5))
        assert np.isnan(profiles.cluster).all() and np.isnan(profiles.post_clickbait).all()

    def test_deterministic(self):
        corpus = make_corpus([make_record(rid=f"r{i}", post_text=f"alpha {i}")
                              for i in range(4)])
        assert (profile_rows(profile(corpus, self.table()))
                == profile_rows(profile(corpus, self.table())))

    def test_csv_round_trip(self, tmp_path):
        rows = [
            ("r1", 0.25, 0.5, False, 2, 0.9, 0.1),
            ("r,2", 0.1 + 0.2, 1 / 3, True),  # quoted id, shortest-repr floats
        ]
        path = tmp_path / "profiles.csv"
        profiles_to_csv(make_profiles(rows), path)
        assert path.read_text().splitlines() == [
            ",".join(textsim.PROFILE_COLUMNS),
            "r1,0.25,0.5,false,2,0.9,0.1",
            '"r,2",0.30000000000000004,0.3333333333333333,true,,,',
        ]
        again = profiles_from_csv(path)
        assert profile_rows(again) == profile_rows(make_profiles(rows))
        assert again.cluster.dtype == np.float64 and np.isnan(again.cluster[1])
        profiles_to_csv(again, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_columns_pinned(self):
        # the header follows the `Profiles` fields, so renaming a field would
        # change the file format
        assert textsim.PROFILE_COLUMNS == (
            "record_id", "edit_distance", "embedding_similarity", "mirrored", "cluster",
            "headline_clickbait", "post_clickbait")

    def test_short_row_and_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "profiles.csv"
        path.write_text(",".join(textsim.PROFILE_COLUMNS) + "\nr1,0.25,0.5,false,,,\nr2,0.5\n")
        with pytest.raises(ValueError, match="line 3: expected 7 cells"):
            profiles_from_csv(path)
        # a surplus cell is rejected, not dropped
        path.write_text(",".join(textsim.PROFILE_COLUMNS) + "\na,0.5,0.5,false,,0,0.1,0.1\n")
        with pytest.raises(ValueError, match="line 2: expected 7 cells"):
            profiles_from_csv(path)
        path.write_text(",".join(textsim.PROFILE_COLUMNS) + "\nr1,0.25,0.5,false,,,\n"
                        "r2,0.5,0.5,true,,,\nr1,0.5,0.5,true,,,\n")
        with pytest.raises(ValueError, match="line 4: duplicate record_id 'r1'"):
            profiles_from_csv(path)

    @pytest.mark.parametrize("column, cell, rule", [
        ("edit_distance", "nan", "a finite number in [0, 1]"),
        ("edit_distance", "inf", "a finite number in [0, 1]"),
        ("edit_distance", "1.5", "a finite number in [0, 1]"),
        ("edit_distance", "abc", "a finite number in [0, 1]"),
        ("edit_distance", "", "a finite number in [0, 1]"),
        ("embedding_similarity", "-inf", "a finite number"),
        ("embedding_similarity", "nan", "a finite number"),
        ("mirrored", "True", "true or false"),
        ("mirrored", "yes", "true or false"),
        ("cluster", "1.0", "blank or a non-negative integer"),
        ("cluster", "-1", "blank or a non-negative integer"),
        ("headline_clickbait", "1.5", "blank or a number in [0, 1]"),
        ("post_clickbait", "nan", "blank or a number in [0, 1]"),
        # accepted: a cosine a hair above 1, and blank cluster and scores
        ("embedding_similarity", "1.0000000000000002", None),
        ("cluster", "", None),
        ("headline_clickbait", "", None),
    ])
    def test_bad_cell_names_path_line_and_column(self, tmp_path, column, cell, rule):
        good = dict(zip(textsim.PROFILE_COLUMNS, ["r1", "0.25", "0.5", "false", "1", "0.9", "0.1"]))
        path = tmp_path / "profiles.csv"
        lines = [",".join(textsim.PROFILE_COLUMNS), ",".join(good.values()),
                 ",".join({**good, "record_id": "r2", column: cell}.values())]
        path.write_text("\n".join(lines) + "\n")
        if rule is None:
            assert len(profiles_from_csv(path)) == 2
            return
        with pytest.raises(ValueError) as exc:
            profiles_from_csv(path)
        assert str(exc.value) == f"{path} line 3: {column} must be {rule}, got {cell!r}"


class TestCheckRows:
    """Profile row i must be corpus record i; the error names the first
    record where the two differ."""

    def check(self, profile_ids, corpus_ids=("a", "b", "c")):
        corpus = make_corpus([make_record(rid=rid) for rid in corpus_ids])
        make_profiles((rid, 0.5, 0.5, False) for rid in profile_ids).check_rows(corpus)

    def test_aligned_table_passes(self):
        self.check(("a", "b", "c"))

    @pytest.mark.parametrize("profile_ids,error", [
        (("a", "c"), "corpus record 'b' has no profile row"),
        (("a", "b"), "corpus record 'c' has no profile row"),
        (("a", "x", "b", "c"), "profile row for record 'x' names no corpus record"),
        (("a", "b", "c", "x"), "profile row for record 'x' names no corpus record"),
        (("a", "c", "b"), "profile row 2 (record 'c') is out of corpus order"),
        (("a", "b", "c", "b"), "profile row 4 (record 'b') is out of corpus order"),
    ])
    def test_first_difference_named(self, profile_ids, error):
        with pytest.raises(ValueError) as exc:
            self.check(profile_ids)
        assert str(exc.value).startswith(error)


def exact_u_by_enumeration(x, y):
    """Independent oracle: count U over every split of the pooled values."""
    from itertools import combinations

    pooled = list(x) + list(y)
    nx = len(x)
    ranks = sps.rankdata(pooled)
    u_obs = ranks[:nx].sum() - nx * (nx + 1) / 2
    mu = nx * (len(pooled) - nx) / 2
    hits = total = 0
    for combo in combinations(range(len(pooled)), nx):
        u = ranks[list(combo)].sum() - nx * (nx + 1) / 2
        total += 1
        hits += abs(u - mu) >= abs(u_obs - mu) - 1e-9
    return u_obs, hits / total


def reference_exact_u_pvalue(ranks, nx, u_obs):
    """The count-per-rank-sum DP `textsim._exact_u_pvalue` replaced: one dict
    of doubled-rank sums per subset size."""
    n = len(ranks)
    ny = n - nx
    doubled = np.rint(ranks * 2).astype(np.int64)
    ways = [dict() for _ in range(nx + 1)]
    ways[0][0] = 1
    for d in doubled:
        for j in range(nx - 1, -1, -1):
            if not ways[j]:
                continue
            nxt = ways[j + 1]
            for s, c in ways[j].items():
                nxt[s + d] = nxt.get(s + d, 0) + c
    mu2 = nx * ny
    dev_obs = abs(2 * u_obs - mu2)
    hits = total = 0
    for s, c in ways[nx].items():
        total += c
        if abs(s - nx * (nx + 1) - mu2) >= dev_obs - 1e-9:
            hits += c
    return hits / total


class TestMannWhitney:
    def test_exact_p_equals_dict_dp(self):
        rng = np.random.default_rng(19)
        for _ in range(3000):
            n = int(rng.integers(2, textsim.EXACT_MAX_N + 1))
            nx = int(rng.integers(1, n))
            # few distinct values, so most samples carry ties
            pooled = rng.integers(0, int(rng.integers(1, 8)), size=n).astype(float)
            ranks = textsim._midranks(pooled)
            u_obs = float(ranks[:nx].sum()) - nx * (nx + 1) / 2.0
            assert (textsim._exact_u_pvalue(ranks, nx, u_obs)
                    == reference_exact_u_pvalue(ranks, nx, u_obs))

    def test_no_wins(self):
        result = mann_whitney_u([1, 2], [3, 4])
        assert result.statistic == 0.0

    def test_identical_multisets(self):
        result = mann_whitney_u([1, 2, 3], [1, 2, 3])
        assert result.p_value >= 0.99

    def test_empty_sample_error(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])

    def test_exact_matches_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            nx = int(rng.integers(1, 7))
            ny = int(rng.integers(1, 13 - nx))
            x = rng.integers(0, 6, size=nx).astype(float)
            y = rng.integers(0, 6, size=ny).astype(float)
            expected_u, expected_p = exact_u_by_enumeration(x, y)
            got = mann_whitney_u(x, y)
            assert got.statistic == pytest.approx(expected_u)
            assert got.p_value == pytest.approx(expected_p, abs=1e-12)

    def test_exact_vs_normal_approx(self, monkeypatch):
        rng = np.random.default_rng(11)
        x = rng.normal(0.0, 1.0, size=10)
        y = rng.normal(0.5, 1.0, size=10)
        exact = mann_whitney_u(x, y)  # combined n = 20 = EXACT_MAX_N -> exact path
        monkeypatch.setattr(textsim, "EXACT_MAX_N", 0)
        approx = mann_whitney_u(x, y)
        assert abs(exact.p_value - approx.p_value) < 0.02

    def test_complement_identity_tie_free(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.permutation(100)[:6].astype(float)
            y = rng.permutation(100)[50:58].astype(float)
            u_xy = mann_whitney_u(x, y).statistic
            u_yx = mann_whitney_u(y, x).statistic
            assert u_xy + u_yx == pytest.approx(len(x) * len(y))

    def test_agrees_with_scipy_large_samples(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, size=60)
        y = rng.normal(0.4, 1.2, size=45)
        ours = mann_whitney_u(x, y)
        theirs = sps.mannwhitneyu(x, y, alternative="two-sided", method="asymptotic")
        assert ours.statistic == pytest.approx(theirs.statistic)
        assert ours.p_value == pytest.approx(theirs.pvalue, abs=1e-9)


def reference_midranks(values: np.ndarray) -> np.ndarray:
    """Midranks by walking the stably sorted values run by run."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=np.float64)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


class TestMidranks:
    def test_equals_run_walk_on_tie_heavy_arrays(self):
        rng = np.random.default_rng(13)
        cases = [np.array([]), np.array([2.5]), np.array([-0.0, 0.0, 1.0, -0.0]),
                 np.full(9, 4.0)]
        for _ in range(300):
            n = int(rng.integers(1, 200))
            levels = int(rng.integers(1, max(2, n // 3)))
            cases.append(rng.integers(0, levels, size=n) / 4.0 - 1.0)
        for values in cases:
            assert np.array_equal(textsim._midranks(values), reference_midranks(values))


def welch_t(x, y) -> tuple[float, float]:
    """Two-sided Welch unequal-variance t test: (t, p-value)."""
    x = np.asarray(list(x), dtype=np.float64)
    y = np.asarray(list(y), dtype=np.float64)
    if x.size < 2 or y.size < 2:
        raise ValueError("welch_t requires at least 2 observations per sample")
    vx = float(np.var(x, ddof=1))
    vy = float(np.var(y, ddof=1))
    if vx == 0.0 and vy == 0.0:
        if float(np.mean(x)) == float(np.mean(y)):
            return 0.0, 1.0
        raise ValueError("welch_t undefined: zero variance in both samples")
    sx = vx / x.size
    sy = vy / y.size
    t = (float(np.mean(x)) - float(np.mean(y))) / math.sqrt(sx + sy)
    dof = (sx + sy) ** 2 / (
        (sx ** 2 / (x.size - 1)) + (sy ** 2 / (y.size - 1))
    )
    p = 2.0 * float(sps.t.sf(abs(t), dof))
    return t, min(1.0, p)


class TestWelchT:
    def test_equal_samples(self):
        t, p = welch_t([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0
        assert p == pytest.approx(1.0)

    def test_large_separation(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 0.01, size=4)
        y = 10.0 + rng.normal(0.0, 0.01, size=4)
        assert welch_t(x, y)[1] < 0.001

    def test_swap_negates_t(self):
        x = [1.0, 2.0, 4.0]
        y = [2.0, 5.0, 9.0, 3.0]
        t_xy, p_xy = welch_t(x, y)
        t_yx, p_yx = welch_t(y, x)
        assert t_xy == pytest.approx(-t_yx)
        assert p_xy == pytest.approx(p_yx)

    def test_degenerate_variance_error(self):
        with pytest.raises(ValueError):
            welch_t([1.0, 1.0], [2.0, 2.0])

    def test_small_sample_error(self):
        with pytest.raises(ValueError):
            welch_t([1.0], [2.0, 3.0])

    def test_agrees_with_scipy(self):
        rng = np.random.default_rng(9)
        x = rng.normal(0, 1, size=12)
        y = rng.normal(0.3, 2.0, size=17)
        t, p = welch_t(x, y)
        theirs = sps.ttest_ind(x, y, equal_var=False)
        assert t == pytest.approx(theirs.statistic)
        assert p == pytest.approx(theirs.pvalue)
