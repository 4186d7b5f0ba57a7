import hashlib
import os

import numpy as np
import pytest

from editlift import clickbait as cb
from editlift.causal import Selector, build_unit_table
from editlift.cli import main
from editlift.embedding import EmbeddingTable
from editlift.nn import SequenceClassifier, load_params

from conftest import ProfileRow, make_corpus, make_profiles, make_record


@pytest.fixture(scope="module")
def trained():
    data = cb.synthetic_headlines(400, seed=0)
    model, f1 = cb.train(data, split_seed=0, epochs=8)
    return model, f1


class TestTrain:
    def test_separable_corpus_f1(self, trained):
        _, f1 = trained
        assert f1 >= 0.99

    def test_too_few_examples(self):
        data = cb.synthetic_headlines(10, seed=0)
        with pytest.raises(ValueError, match="at least"):
            cb.train(data, split_seed=0, epochs=10)

    def test_single_class_rejected(self):
        data = [cb.LabeledHeadline(f"text {i}", 1) for i in range(30)]
        with pytest.raises(ValueError, match="both classes"):
            cb.train(data, split_seed=0, epochs=10)

    def test_same_seed_reproduces_model_and_f1(self):
        data = cb.synthetic_headlines(120, seed=3)
        model_a, f1_a = cb.train(data, split_seed=5, epochs=2)
        model_b, f1_b = cb.train(data, split_seed=5, epochs=2)
        assert f1_a == f1_b
        for name, value in model_a.network.buffer.params.items():
            assert np.array_equal(value, model_b.network.buffer.params[name])


class TestStratifiedSplit:
    def test_preserves_class_ratio_within_one(self):
        data = [cb.LabeledHeadline(f"t{i}", int(i < 70)) for i in range(100)]
        train_idx, test_idx = cb.stratified_split(data, seed=0)
        test_pos = sum(data[i].label for i in test_idx)
        assert abs(test_pos - 7) <= 1
        assert len(test_idx) == 10
        assert sorted(train_idx + test_idx) == list(range(100))

    def test_deterministic(self):
        data = [cb.LabeledHeadline(f"t{i}", i % 2) for i in range(50)]
        assert cb.stratified_split(data, seed=4) == cb.stratified_split(data, seed=4)


class TestF1:
    def test_hand_counted_confusion_matrix(self):
        # 10 examples: tp=3, fp=1, fn=2, tn=4
        y_true = [1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
        y_pred = [1, 1, 1, 0, 0, 1, 0, 0, 0, 0]
        precision = 3 / 4
        recall = 3 / 5
        expected = 2 * precision * recall / (precision + recall)
        assert cb.f1_score(y_true, y_pred) == pytest.approx(expected)

    def test_zero_when_no_positive_predictions(self):
        assert cb.f1_score([1, 0], [0, 0]) == 0.0


class TestScore:
    def test_range_and_determinism(self, trained):
        model, _ = trained
        for text in ("totally shocking secret", "committee approves treaty", "xyzzy"):
            s = cb.score_many(model, [text])[0]
            assert 0.0 <= s <= 1.0
            assert cb.score_many(model, [text])[0] == s

    def test_separable_scores_polarized(self, trained):
        model, _ = trained
        assert cb.score_many(model, ["unbelievable insane viral tricks"])[0] > 0.9
        assert cb.score_many(model, ["parliament approves quarterly budget report"])[0] < 0.1

    def test_unknown_tokens_fall_back_to_unk_vector(self, trained):
        model, _ = trained
        unknown_a, = cb.score_many(model, ["zzz qqq www"])
        unknown_b, = cb.score_many(model, ["mmm nnn ooo"])
        assert unknown_a == unknown_b

    def test_empty_text_rejected(self, trained):
        model, _ = trained
        with pytest.raises(ValueError):
            cb.score_many(model, ["   "])


class TestClassify:
    def test_threshold_rule(self):
        # the boundary of the one C/NC rule, read by every consumer alike: a
        # score of exactly 0.5 is NC, the next float above it is C, and a NaN
        # score is never C
        half, above = 0.5, float(np.nextafter(0.5, 1.0))
        assert cb.is_clickbait([half, above, np.nan]).tolist() == [False, True, False]

        profiles = make_profiles([("r0", 0.5, 0.5, False, None, half, above),
                                  ("r1", 0.5, 0.5, False, None, above, half),
                                  ("r2", 0.5, 0.5, False, None, np.nan, above)])
        table = cb.conditional_shift_table(profiles, np.array([0, 1]))
        assert (table["n_headline_c"], table["n_headline_nc"]) == (1, 1)
        assert table["p_nc_given_c"] == table["p_c_given_nc"] == 1.0
        with pytest.raises(ValueError, match="record 'r2' lacks clickbait scores"):
            cb.conditional_shift_table(profiles, np.arange(3))

        corpus = make_corpus([make_record(rid=f"r{i}", outlet="x") for i in range(3)])
        units = build_unit_table(corpus, profiles,
                                 EmbeddingTable(dim=1, vocab={"budget": np.ones(1)}), {"x"})
        picks = {(h, p): Selector("shift", headline_class=h,
                                  post_class=p).mask(units.profiles).tolist()
                 for h in ("C", "NC") for p in ("C", "NC")}
        assert picks == {("NC", "C"): [True, False, False], ("C", "NC"): [False, True, False],
                         ("C", "C"): [False] * 3, ("NC", "NC"): [False] * 3}


class TestShiftTable:
    def build_profiles(self, headline_classes, post_classes):
        return make_profiles(
            ProfileRow(f"r{i}", 0.5, 0.5, False,
                       headline_clickbait=0.9 if h == "C" else 0.1,
                       post_clickbait=0.9 if p == "C" else 0.1)
            for i, (h, p) in enumerate(zip(headline_classes, post_classes)))

    def shift_table(self, profiles):
        return cb.conditional_shift_table(profiles, np.arange(len(profiles)))

    def test_counted_by_hand(self):
        table = self.shift_table(self.build_profiles("C C NC NC".split(), "NC C C NC".split()))
        assert table == {"p_nc_given_c": 0.5, "p_c_given_nc": 0.5,
                         "n_headline_c": 2, "n_headline_nc": 2}

    def test_undefined_cell_flagged(self):
        table = self.shift_table(self.build_profiles(["NC", "NC"], ["C", "NC"]))
        assert table["p_nc_given_c"] is None
        assert table["n_headline_c"] == 0

    def test_complement_identity(self):
        table = self.shift_table(self.build_profiles("C C C NC".split(), "NC C C C".split()))
        p_c_given_c = 1.0 - table["p_nc_given_c"]
        assert table["p_nc_given_c"] + p_c_given_c == pytest.approx(1.0)

    def test_only_given_rows_counted(self):
        profiles = self.build_profiles("C C NC NC".split(), "NC C C NC".split())
        table = cb.conditional_shift_table(profiles, np.array([0, 2]))
        assert (table["n_headline_c"], table["n_headline_nc"]) == (1, 1)
        assert table["p_nc_given_c"] == table["p_c_given_nc"] == 1.0

    def test_unscored_row_named(self):
        profiles = make_profiles([("r0", 0.5, 0.5, False, None, 0.9, 0.1),
                                  ("r1", 0.5, 0.5, False)])
        with pytest.raises(ValueError, match="record 'r1' lacks clickbait scores"):
            self.shift_table(profiles)


class TestScoreProfiles:
    def test_fills_both_columns(self, trained):
        model, _ = trained
        records = [
            make_record(rid="r0", headline="shocking secret trick",
                        post_text="senate passes budget"),
            make_record(rid="r1", headline="council verdict announced",
                        post_text="craziest viral quiz"),
        ]
        corpus = make_corpus(records)
        profiles = make_profiles([("r0", 0.5, 0.5, False), ("r1", 0.5, 0.5, False)])
        scored = cb.score_profiles(model, corpus, profiles)
        assert scored.record_ids == ("r0", "r1")
        assert scored.headline_clickbait[0] > 0.5 > scored.post_clickbait[0]
        assert scored.headline_clickbait[1] < 0.5 < scored.post_clickbait[1]
        assert np.isnan(profiles.headline_clickbait).all()  # the input is left as it was
        # row i must be corpus record i: a permuted table is not reordered
        permuted = make_profiles([("r1", 0.5, 0.5, False), ("r0", 0.5, 0.5, False)])
        with pytest.raises(ValueError, match=r"profile row 1 \(record 'r1'\) is out of "
                                             "corpus order"):
            cb.score_profiles(model, corpus, permuted)


class TestPersistence:
    def test_save_load_round_trip(self, trained, tmp_path):
        model, _ = trained
        path = tmp_path / "model.bin"
        cb.save_model(model, path)
        again = cb.load_model(path)
        texts = ["insane viral secret", "regulator approves exports", "hello world"]
        assert cb.score_many(again, texts) == pytest.approx(cb.score_many(model, texts),
                                                            abs=1e-15)
        assert again.token_ids == model.token_ids
        # the header still records the attention width, which is the GRU's
        meta, _ = load_params(path)
        assert meta["attention_size"] == meta["hidden_size"] == cb.HIDDEN_SIZE

    def test_failed_rewrite_leaves_previous_model(self, trained, tmp_path, monkeypatch):
        model, _ = trained
        path = tmp_path / "model.bin"
        cb.save_model(model, path)
        before = path.read_bytes()

        def fail_replace(src, dst):
            raise OSError("disk full")

        # the new model is written in full; the rename over the old one fails
        monkeypatch.setattr(os, "replace", fail_replace)
        other = cb.ClickbaitModel(
            network=SequenceClassifier(vocab_size=3, embed_size=2, hidden_size=3, seed=0),
            token_ids={"a": 1, "b": 2})
        with pytest.raises(OSError, match="disk full"):
            cb.save_model(other, path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
        again = cb.load_model(path)
        assert np.array_equal(again.network.buffer.values, model.network.buffer.values)

    def test_labeled_csv_loader(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,label\nhello there,0\nwow insane,1\n", encoding="utf-8")
        data = cb.load_labeled_csv(path)
        assert data == [cb.LabeledHeadline("hello there", 0),
                        cb.LabeledHeadline("wow insane", 1)]

    def test_labeled_csv_rejects_bad_label(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("text,label\nhello,2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            cb.load_labeled_csv(path)

    @pytest.mark.parametrize("rows, line, error", [
        ("hello world\n", 2, "expected 2 cells"),
        ("good news,0\n" * 30 + "hello world\n", 32, "expected 2 cells"),
        ("hello,1,extra\n", 2, "expected 2 cells"),
        ("hello,1\n,0\n", 3, "missing text"),
        ("  ,1\n", 2, "missing text"),
        ("hello,1.0\n", 2, "label must be 0 or 1, got '1.0'"),
        ("hello,\n", 2, "label must be 0 or 1, got ''"),
    ])
    def test_labeled_csv_names_bad_line(self, tmp_path, capsys, rows, line, error):
        path = tmp_path / "data.csv"
        path.write_text("text,label\n" + rows, encoding="utf-8")
        with pytest.raises(ValueError) as exc:
            cb.load_labeled_csv(path)
        assert str(exc.value) == f"{path} line {line}: {error}"
        # the command reports it as one error line, exit 1
        code = main(["clickbait", "train", "--train-data", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {path} line {line}: {error}\n"
        assert not (tmp_path / "o").exists()


class TestSyntheticCorpus:
    def test_deterministic(self):
        assert cb.synthetic_headlines(50, seed=9) == cb.synthetic_headlines(50, seed=9)

    def test_stream_pinned(self):
        # the clickbait model of every describe chain trains on this stream
        data = cb.synthetic_headlines(250, seed=0)
        text = "".join(f"{ex.label} {ex.text}\n" for ex in data)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
            "880921754337c98faa91a4955830c7c8cd760358acd1013d2029b7b3a71d2703")

    def test_balanced_and_disjoint(self):
        data = cb.synthetic_headlines(100, seed=2)
        assert sum(ex.label for ex in data) == 50
        bait_tokens = {t for ex in data if ex.label == 1 for t in ex.text.split()}
        news_tokens = {t for ex in data if ex.label == 0 for t in ex.text.split()}
        assert not bait_tokens & news_tokens
