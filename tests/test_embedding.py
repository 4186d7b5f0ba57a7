import re
import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from editlift.corpus import normalize
from editlift.embedding import (
    cosine,
    embed_many,
    embed_text,
    load_table,
    save_table,
    tokenize,
    EmbeddingTable,
)

REGEX_SPLIT = re.compile("[" + re.escape(string.punctuation) + r"\s]+")


def reference_embed(table, text):
    """The per-token loop `embed_many` replaces: sum the hits' vectors left
    to right from +0.0, then divide by the hit count."""
    total = np.zeros(table.dim, dtype=np.float64)
    hits = 0
    for token in REGEX_SPLIT.split(normalize(text).lower()):
        vec = table.vocab.get(token) if token else None
        if vec is not None:
            total += vec
            hits += 1
    if hits:
        total /= hits
    return total, hits


def small_table():
    return EmbeddingTable(dim=3, vocab={
        "a": np.array([1.0, 0.0, 0.0]),
        "b": np.array([0.0, 1.0, 0.0]),
        "c": np.array([0.0, 0.0, 1.0]),
    })


class TestLoadTable:
    def test_header_format(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 3\na 1 0 0\nb 0 1 0\n", encoding="utf-8")
        table = load_table(path)
        assert table.dim == 3
        assert len(table.vocab) == 2
        assert np.allclose(table.vocab["a"], [1, 0, 0])

    def test_dimension_mismatch_fatal(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("a 1 0 0\nb 1 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2"):
            load_table(path)

    @pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
    def test_non_finite_entry_fatal(self, tmp_path, entry):
        path = tmp_path / "v.txt"
        path.write_text(f"bar 1 0 2\nfoo 1 {entry} 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"v\.txt line 2: non-finite"):
            load_table(path)

    def test_header_disagreement_fatal(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1 3\na 1 0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_table(path)

    def test_dim_inferred_without_header(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("alpha " + " ".join(["0.5"] * 300) + "\n", encoding="utf-8")
        assert load_table(path).dim == 300

    def test_empty_file_fatal(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="empty"):
            load_table(path)

    def test_round_trip(self, tmp_path, tiny_vectors):
        table = load_table(tiny_vectors)
        save_table(table, tmp_path / "copy.txt")
        again = load_table(tmp_path / "copy.txt")
        assert again.dim == table.dim
        assert set(again.vocab) == set(table.vocab)
        for token in table.vocab:
            assert np.array_equal(again.vocab[token], table.vocab[token])


class TestTokenize:
    def test_lowercases_and_splits_punctuation(self):
        assert tokenize("Hello, World! It's 2-for-1") == \
            ["hello", "world", "it", "s", "2", "for", "1"]

    def test_empty(self):
        assert tokenize("...!!!") == []

    @given(st.text(max_size=60))
    def test_same_tokens_as_regex_split(self, text):
        # `str.split` and the regex class `\s` agree on what is whitespace
        assert tokenize(text) == [t for t in REGEX_SPLIT.split(normalize(text).lower()) if t]

    def test_decomposed_text_finds_composed_vector(self):
        # NFD "café" (e + combining acute) reads as the NFC token
        composed = "caf\u00e9"
        assert tokenize("Cafe\u0301 open") == [composed, "open"]
        table = EmbeddingTable(dim=1, vocab={composed: np.ones(1)})
        assert embed_text(table, "cafe\u0301")[1] == 1


class TestEmbedText:
    def test_average_of_identical_vectors(self):
        vector, hits = embed_text(small_table(), "a a")
        assert np.allclose(vector, [1, 0, 0])
        assert hits == 2

    def test_component_wise_mean(self):
        vector, hits = embed_text(small_table(), "a b")
        assert np.allclose(vector, [0.5, 0.5, 0.0])
        assert hits == 2

    def test_oov_gives_zero_vector(self):
        vector, hits = embed_text(small_table(), "zzz-unknown")
        assert np.array_equal(vector, np.zeros(3))
        assert hits == 0

    def test_oov_tokens_dropped_from_average(self):
        vector, hits = embed_text(small_table(), "a mystery")
        assert np.allclose(vector, [1, 0, 0])
        assert hits == 1

    @given(st.permutations(["a", "b", "c", "a"]))
    def test_permutation_invariance(self, tokens):
        reference, _ = embed_text(small_table(), "a a b c")
        vector, _ = embed_text(small_table(), " ".join(tokens))
        assert np.allclose(vector, reference)


def random_table(seed=0, words=12, dim=5):
    rng = np.random.default_rng(seed)
    return EmbeddingTable(dim=dim, vocab={f"w{i}": rng.normal(size=dim) for i in range(words)})


# words of documents: in- and out-of-vocabulary ones, repeated
words = st.lists(st.sampled_from([f"w{i}" for i in range(12)] + ["oov", "Zz"]), max_size=70)
# documents: empty, zero-hit and long ones; and sets of very unequal
# length, short ones beside a few of hundreds of words
documents = st.one_of(
    st.lists(words.map(" , ".join), max_size=25),
    st.lists(st.one_of(words.map(" ".join),
                       st.tuples(words, st.integers(5, 20)).map(lambda w: " ".join(w[0] * w[1]))),
             max_size=12))


class TestEmbedMany:
    @given(documents)
    @settings(max_examples=150, deadline=None)
    def test_equal_to_per_text_loop(self, texts):
        table = random_table()
        vectors, hits = embed_many(table, [normalize(t) for t in texts])
        want = [reference_embed(table, t) for t in texts]
        assert vectors.shape == (len(texts), table.dim) and hits.shape == (len(texts),)
        assert np.array_equal(vectors, np.array([v for v, _ in want]).reshape(vectors.shape))
        assert hits.tolist() == [h for _, h in want]
        for text, (vector, count) in zip(texts, want):
            got, got_hits = embed_text(table, text)
            assert np.array_equal(got, vector) and got_hits == count

    def test_edge_documents(self):
        # two zero-hit texts, a 7-hit text among short ones, and a text twice
        table = random_table()
        texts = ["", "oov zz", "w1", "w1 w1 w1", " ".join(["w2", "w3", "oov"] * 3) + " w4",
                 "w5 w6", "w1"]
        vectors, hits = embed_many(table, texts)
        assert hits.tolist() == [0, 0, 1, 3, 7, 2, 1]
        assert not vectors[:2].any() and np.array_equal(vectors[2], vectors[6])
        for vector, text in zip(vectors, texts):
            assert np.array_equal(vector, reference_embed(table, text)[0])

    def test_memory_is_tokens_plus_output(self):
        # 46,000 hits against a [250, 16] output: the peak is the packed hit
        # rows (4 bytes a hit) and a few output-sized arrays, never a
        # [hits, dim] gather or a padded [texts, longest] id matrix
        table = random_table(dim=16)
        rng = np.random.default_rng(0)
        texts = [" ".join(rng.choice([*table.vocab, "oov"], 200)) for _ in range(250)]
        embed_many(table, texts[:1])  # builds `table.rows` outside the trace
        tracemalloc.start()
        try:
            vectors, hits = embed_many(table, texts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hits.sum() > 10 * vectors.size
        assert peak <= 4 * hits.sum() + 6 * vectors.nbytes

    def test_no_texts(self):
        vectors, hits = embed_many(random_table(), [])
        assert vectors.shape == (0, 5) and hits.shape == (0,)

    def test_empty_token_never_hits(self):
        # a vector line that starts with a space stores the empty token
        table = EmbeddingTable(dim=1, vocab={"": np.ones(1), "a": np.ones(1)})
        assert embed_many(table, [", a ,"])[1].tolist() == [1]


finite_vec = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False).map(
        lambda v: 0.0 if abs(v) < 1e-6 else v
    ),
    min_size=3,
    max_size=3,
)


class TestCosine:
    def test_identity(self):
        v = np.array([0.3, 0.4, 0.5])
        assert cosine(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine(np.array([1.0, 0, 0]), np.array([0, 1.0, 0])) == 0.0

    def test_hand_computed(self):
        value = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert value == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)

    def test_zero_norm_is_zero(self):
        assert cosine(np.zeros(3), np.array([1.0, 2, 3])) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(3), np.zeros(4))

    @given(finite_vec, finite_vec)
    def test_symmetry_and_bounds(self, u, v):
        a = np.array(u)
        b = np.array(v)
        assert cosine(a, b) == pytest.approx(cosine(b, a))
        assert abs(cosine(a, b)) <= 1 + 1e-12

    def test_rows_equal_one_dimensional_calls(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(30, 7)), rng.normal(size=(30, 7))
        a[4] = 0.0
        b[9] = 0.0
        got = cosine(a, b)
        assert got.shape == (30,) and got[4] == got[9] == 0.0
        assert np.array_equal(got, [cosine(u, v) for u, v in zip(a, b)])
        assert np.array_equal(got, [np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
                                    if u.any() and v.any() else 0.0 for u, v in zip(a, b)])
        assert np.ndim(cosine(a[0], b[0])) == 0

    @given(finite_vec, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, u, c):
        a = np.array(u)
        b = np.array([0.5, -1.0, 2.0])
        assert cosine(c * a, b) == pytest.approx(cosine(a, b), abs=1e-9)
