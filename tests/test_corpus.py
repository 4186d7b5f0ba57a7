import json
import os
import re
import stat
import unicodedata
from datetime import datetime, timedelta, timezone
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from editlift import cli
from editlift import corpus as cm
from editlift.corpus import (
    Corpus,
    assign_time_block,
    load_corpus,
    normalize,
    save_corpus,
)
from editlift.embedding import EmbeddingTable
from editlift.textsim import profile

from conftest import make_corpus, make_record, record_row, write_jsonl


def is_mirrored(record) -> bool:
    """Whether `profile` marks the record's post as mirroring its headline."""
    table = EmbeddingTable(dim=1, vocab={"x": np.ones(1)})
    return bool(profile(make_corpus([record]), table).mirrored[0])


# every code point for which `str.isspace()` holds
SPACES = [chr(cp) for cp in range(0x110000) if chr(cp).isspace()]


class TestNormalize:
    def test_whitespace_rule(self):
        assert normalize("  Hello\t world ") == "Hello world"

    def test_fixed_point(self):
        assert normalize("abc") == "abc"

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        assert normalize(normalize(text)) == normalize(text)

    def test_unicode_composition(self):
        decomposed = "café"
        composed = "café"
        assert normalize(decomposed) == normalize(composed)

    # the corpus reader rejects a blank headline or post with `strip`, which
    # must agree with `normalize` on which texts are empty
    @given(st.text(max_size=40))
    def test_empty_exactly_when_strip_is(self, text):
        assert bool(normalize(text)) == bool(text.strip())

    def test_empty_exactly_when_strip_is_at_every_space(self):
        assert len(SPACES) > 20
        for space in SPACES:
            for text in (space, " " + space, space + " ", space + "\u3000", space + "\u0301"):
                assert bool(normalize(text)) == bool(text.strip()), hex(ord(space))

    # `normalize` splits on `str.split`'s whitespace, which must be the
    # whitespace the `\s` regex matches and `strip` trims
    @given(st.text(alphabet=st.one_of(st.sampled_from(SPACES), st.characters()), max_size=60))
    def test_same_as_regex_collapse(self, text):
        expected = re.sub(r"\s+", " ", unicodedata.normalize("NFC", text)).strip()
        assert normalize(text) == expected

    def test_every_space_collapses(self):
        text = "a" + "b".join(SPACES) + " c" + "".join(SPACES)
        assert normalize(text) == " ".join(["a"] + ["b"] * (len(SPACES) - 1) + ["c"])


class TestWriteAtomic:
    """An artifact gets the mode a plain `open(path, "w")` would give a new
    file, whatever mode the file it replaces had."""

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_mode_follows_umask(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            cm.write_bytes_atomic(tmp_path / "new.txt", b"x")
            with open(tmp_path / "plain.txt", "w"):
                pass
            (tmp_path / "old.txt").write_bytes(b"")
            os.chmod(tmp_path / "old.txt", 0o640)
            cm.write_text_atomic(tmp_path / "old.txt", "y")
        finally:
            os.umask(old)
        modes = {name: stat.S_IMODE((tmp_path / name).stat().st_mode)
                 for name in ("new.txt", "plain.txt", "old.txt")}
        assert modes == dict.fromkeys(modes, 0o666 & ~umask)
        assert (tmp_path / "old.txt").read_text() == "y"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["new.txt", "old.txt", "plain.txt"]


class TestMirroring:
    def test_whitespace_normalized_equality(self):
        assert is_mirrored(make_record(headline="A B", post_text="A  B"))

    def test_case_sensitive(self):
        assert not is_mirrored(make_record(headline="A B", post_text="a b"))

    def test_unequal_strings(self):
        assert not is_mirrored(make_record(headline="X", post_text="Even wow: X"))

    @given(st.text(min_size=1, max_size=40).filter(lambda s: normalize(s)))
    def test_invariant_to_surrounding_whitespace(self, text):
        record = make_record(headline="  " + text + "\t", post_text=text)
        assert is_mirrored(record)

    @staticmethod
    def reported_fractions(tmp_path, vectors, records) -> dict[str, tuple[int, float]]:
        """(records, mirroring_fraction) of each outlet, as `profile` reports
        them in profile_summary.json."""
        path = tmp_path / "corpus.jsonl"
        save_corpus(make_corpus(records), path)
        out = tmp_path / "out"
        assert cli.main(["profile", "--corpus", str(path), "--embeddings", str(vectors),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "profile_summary.json").read_text(encoding="utf-8"))
        return {outlet: (s["records"], s["mirroring_fraction"])
                for outlet, s in summary["outlets"].items()}

    def test_fraction_counted_by_hand(self, tmp_path, tiny_vectors):
        records = [
            make_record(rid="a", headline="H one", post_text="H one"),
            make_record(rid="b", headline="H two", post_text="changed"),
            make_record(rid="c", headline="H three", post_text="changed again"),
            make_record(rid="d", headline="H four", post_text="other words"),
        ]
        assert self.reported_fractions(tmp_path, tiny_vectors, records) == {"wire": (4, 0.25)}

    def test_fraction_extremes(self, tmp_path, tiny_vectors):
        mirrored = [make_record(rid=str(i)) for i in range(3)]
        (tmp_path / "m").mkdir()
        assert self.reported_fractions(tmp_path / "m", tiny_vectors, mirrored) == {
            "wire": (3, 1.0)}
        edited = [make_record(rid=str(i), post_text=f"edited {i}") for i in range(3)]
        (tmp_path / "e").mkdir()
        assert self.reported_fractions(tmp_path / "e", tiny_vectors, edited) == {
            "wire": (3, 0.0)}

    def test_per_outlet_counts_sum_to_total(self, tmp_path, tiny_vectors):
        records = []
        for i in range(12):
            outlet = ["a", "b", "c"][i % 3]
            mirrored = i % 2 == 0
            records.append(make_record(
                rid=f"r{i}", outlet=outlet, headline=f"H {i}",
                post_text=f"H {i}" if mirrored else f"edited {i}",
            ))
        total = sum(1 for r in records if is_mirrored(r))
        reported = self.reported_fractions(tmp_path, tiny_vectors, records)
        assert set(reported) == {"a", "b", "c"}
        per_outlet = sum(round(fraction * n) for n, fraction in reported.values())
        assert per_outlet == total == 6


class TestTimeBlocks:
    @pytest.mark.parametrize("created,block", [
        ("2018-06-15T13:00:00Z", "B2"),   # 09:00 local
        ("2018-06-15T03:59:00Z", "B3"),   # 23:59 prior day local
        ("2018-06-15T04:00:00Z", "B1"),   # 00:00 local
        ("2018-06-15T12:59:59Z", "B1"),   # 08:59:59 local
        ("2018-06-15T20:59:59Z", "B2"),   # 16:59:59 local
        ("2018-06-15T21:00:00Z", "B3"),   # 17:00 local
    ])
    def test_block_boundaries(self, created, block):
        assert assign_time_block(make_record(created_at=created)) == block

    @given(st.integers(min_value=0, max_value=24 * 60 - 1))
    def test_partition(self, minute):
        created = f"2018-03-02T{minute // 60:02d}:{minute % 60:02d}:00Z"
        assert assign_time_block(make_record(created_at=created)) in cm.TIME_BLOCKS

    def test_same_blocks_as_shifted_clock(self):
        # every minute of a year: the local hour taken mod 24 is the hour of
        # the instant shifted by -4 h, as blocks were first assigned
        start = datetime(2018, 1, 1, tzinfo=timezone.utc)
        for hours in range(365 * 24):
            instant = start + timedelta(hours=hours)
            local = (instant - timedelta(hours=4)).hour
            block = "B1" if local < 9 else "B2" if local < 17 else "B3"
            stem = instant.strftime("%Y-%m-%dT%H")
            for minute in range(60):
                # `assign_time_block` reads only `created_at`
                record = SimpleNamespace(created_at=f"{stem}:{minute:02d}:00Z")
                assert assign_time_block(record) == block

    @pytest.mark.parametrize("created", ["0001-01-01T00:00:00Z", "0001-01-01T03:59:00Z",
                                         "9999-12-31T23:59:59Z", "9999-12-31T18:59:00-05:00"])
    def test_ends_of_the_date_range(self, created):
        # local 19:59 up to 23:59, from instants whose -4 h shift would leave
        # the date range, or whose offset reaches into its last hour
        assert assign_time_block(make_record(created_at=created)) == "B3"


class TestOutletRows:
    def test_positions_in_first_appearance_order(self):
        corpus = make_corpus([make_record(rid=f"r{i}", outlet=o)
                              for i, o in enumerate(["b", "a", "b", "c", "a"])])
        rows = corpus.outlet_rows()
        assert list(rows) == ["b", "a", "c"]
        assert rows == {"b": [0, 2], "a": [1, 4], "c": [3]}


class TestLoadCorpus:
    def test_three_valid_lines(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [record_row(rid=f"r{i}") for i in range(3)])
        corpus = load_corpus(path, "jsonl")
        assert len(corpus) == 3
        assert corpus.rejects == ()

    def test_missing_field_rejected_with_line_number(self, tmp_path):
        rows = [record_row(rid="r1"), record_row(rid="r2")]
        bad = record_row(rid="r3")
        del bad["post_text"]
        path = write_jsonl(tmp_path / "c.jsonl", rows + [bad])
        corpus = load_corpus(path, "jsonl")
        assert len(corpus) == 2
        assert len(corpus.rejects) == 1
        assert corpus.rejects[0].line_no == 3
        assert "post_text" in corpus.rejects[0].reason

    def test_duplicate_id_fatal(self, tmp_path):
        path = write_jsonl(
            tmp_path / "c.jsonl", [record_row(rid="a1"), record_row(rid="a1")]
        )
        with pytest.raises(ValueError, match="duplicate id"):
            load_corpus(path, "jsonl")

    def test_no_valid_records_fatal(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [{"id": "x"}])
        with pytest.raises(ValueError, match="no valid records"):
            load_corpus(path, "jsonl")

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(ValueError):
            load_corpus(tmp_path / "absent.jsonl", "jsonl")

    def test_invalid_json_line_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{not json\n")
            import json
            fh.write(json.dumps(record_row()) + "\n")
        corpus = load_corpus(path, "jsonl")
        assert len(corpus) == 1
        assert corpus.rejects[0].line_no == 1

    def test_negative_engagement_rejected(self, tmp_path):
        # (field values, reject reason): a value of the wrong JSON type is
        # rejected, never coerced
        cases = [
            ({"likes": -1}, "likes is negative: -1"),
            ({"likes": 10 ** 400}, f"likes is beyond the float range: {10 ** 400}"),
            ({"likes": 3.7}, "likes must be an integer, got 3.7"),
            ({"likes": True}, "likes must be an integer, got True"),
            ({"replies": "3"}, "replies must be an integer, got '3'"),
            ({"outlet": ["a"]}, "outlet must be a string, got ['a']"),
            ({"headline": 7}, "headline must be a string, got 7"),
            ({"body_text": 1.5}, "body_text must be a string, got 1.5"),
            ({"post_text": {"a": 1}}, "post_text must be a string, got {'a': 1}"),
            ({"created_at": 20180615}, "created_at must be a string, got 20180615"),
            ({"section": 3}, "section must be a string, got 3"),
            ({"id": 1.5}, "id must be a string or an integer, got 1.5"),
            ({"id": True}, "id must be a string or an integer, got True"),
        ]
        rows = [record_row(id=7, retweets=2.0)]
        rows += [record_row(rid=f"r{i}", **values) for i, (values, _) in enumerate(cases)]
        corpus = load_corpus(write_jsonl(tmp_path / "c.jsonl", rows), "jsonl")
        # an integer id and an integral float count are no coercion
        assert [(r.id, r.retweets) for r in corpus] == [("7", 2)]
        assert [(r.line_no, r.reason) for r in corpus.rejects] == [
            (i + 2, reason) for i, (_, reason) in enumerate(cases)]

        # a CSV count cell must read as a decimal integer
        path = tmp_path / "c.csv"
        path.write_text("id,outlet,headline,body_text,post_text,created_at,replies,retweets,likes\n"
                        "a,w,H,B,P,2018-06-15T13:00:00Z,1,2,3\n"
                        "b,w,H,B,P,2018-06-15T13:00:00Z,1,2,3.5\n"
                        "c,w,H,B,P,2018-06-15T13:00:00Z,1,-2,3\n")
        corpus = load_corpus(path, fmt="csv")
        assert [r.likes for r in corpus] == [3]
        assert [(r.line_no, r.reason) for r in corpus.rejects] == [
            (3, "likes must be an integer, got '3.5'"), (4, "retweets is negative: -2")]

    def test_bad_timestamp_rejected(self, tmp_path):
        path = write_jsonl(
            tmp_path / "c.jsonl",
            [record_row(), record_row(rid="r2", created_at="yesterday"),
             record_row(rid="r3", created_at="9999-12-31T23:00:00-05:00")],
        )
        corpus = load_corpus(path, "jsonl")
        assert len(corpus) == 1
        assert corpus.rejects[1].reason == (
            "created_at '9999-12-31T23:00:00-05:00' is outside the UTC date range")

    def test_csv_import(self, tmp_path):
        import csv

        path = tmp_path / "c.csv"
        rows = [record_row(rid=f"r{i}") for i in range(2)]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        corpus = load_corpus(path, fmt="csv")
        assert len(corpus) == 2
        assert corpus.records[0].likes == 3

    def test_csv_rejects_named_by_file_line(self, tmp_path):
        # the quoted body of record a spans lines 2-4; a record is named by the
        # file line it ends on, and a row of more or fewer cells than the
        # header is rejected, not read with a cell dropped or missing
        header = ("id,outlet,headline,body_text,post_text,created_at,replies,retweets,likes,"
                  "section\n")
        path = tmp_path / "c.csv"
        path.write_text(header
                        + 'a,w,H,"one\ntwo\nthree",P,2018-06-15T13:00:00Z,1,2,3,politics\n'
                        + "b,w,H,B,P,2018-06-15T13:00:00Z,1,2,x,politics\n"
                        + "c,w,H,B,P,2018-06-15T13:00:00Z,1,2,3,politics,EXTRA\n"
                        + "d,w,H,B,P,2018-06-15T13:00:00Z,1,2,3\n", encoding="utf-8")
        corpus = load_corpus(path, fmt="csv")
        assert [(r.id, r.body_text) for r in corpus] == [("a", "one\ntwo\nthree")]
        assert [(r.line_no, r.reason) for r in corpus.rejects] == [
            (5, "likes must be an integer, got 'x'"), (6, "expected 10 cells"),
            (7, "expected 10 cells")]

        path.write_text(header
                        + 'a,w,H,"one\ntwo\nthree",P,2018-06-15T13:00:00Z,1,2,3,politics\n'
                        + "a,w,H,B,P,2018-06-15T13:00:00Z,1,2,3,politics\n", encoding="utf-8")
        with pytest.raises(ValueError,
                           match=r"c\.csv:5: duplicate id 'a' \(first seen on line 4\)"):
            load_corpus(path, fmt="csv")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            load_corpus(tmp_path / "c.xml", fmt="xml")


class TestRoundTrip:
    def test_save_and_reload_identical(self, tmp_path):
        rows = [
            record_row(rid="r1", section="politics"),
            record_row(rid="r2", headline="Café news", post_text="Café news"),
            record_row(rid="r3", post_text="totally different"),
        ]
        first = load_corpus(write_jsonl(tmp_path / "a.jsonl", rows), "jsonl")
        save_corpus(first, tmp_path / "b.jsonl")
        second = load_corpus(tmp_path / "b.jsonl", "jsonl")
        assert first.records == second.records

    def test_saved_bytes_pinned(self, tmp_path):
        # a record with no section writes no section key, and non-ASCII text
        # is written as itself, not escaped
        records = [make_record(rid="r1", headline="Café “news”", post_text="Café news — now"),
                   make_record(rid="r2", section="politics")]
        save_corpus(make_corpus(records), tmp_path / "c.jsonl")
        assert (tmp_path / "c.jsonl").read_bytes() == (
            '{"id": "r1", "outlet": "wire", "headline": "Café “news”", "body_text": '
            '"The committee approved the annual budget today.", "post_text": '
            '"Café news — now", "created_at": "2018-06-15T13:00:00Z", "replies": 1, '
            '"retweets": 2, "likes": 3}\n'
            '{"id": "r2", "outlet": "wire", "headline": "Budget vote passes", "body_text": '
            '"The committee approved the annual budget today.", "post_text": '
            '"Budget vote passes", "created_at": "2018-06-15T13:00:00Z", "replies": 1, '
            '"retweets": 2, "likes": 3, "section": "politics"}\n').encode("utf-8")
