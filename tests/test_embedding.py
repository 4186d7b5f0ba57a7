import numpy as np
import pytest
from hypothesis import given, strategies as st

from editlift.embedding import (
    cosine,
    embed_text,
    load_table,
    save_table,
    tokenize,
    EmbeddingTable,
)


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

    @given(finite_vec, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, u, c):
        a = np.array(u)
        b = np.array([0.5, -1.0, 2.0])
        assert cosine(c * a, b) == pytest.approx(cosine(a, b), abs=1e-9)
