"""Paired-record corpus: data model, file ingestion, normalization.

A corpus is a list of (headline, body, post, engagement) records tied to a
media outlet. JSONL is the canonical on-disk format; CSV is a convenience
importer with identical field names. `write_bytes_atomic` is the one writer
every artifact of the package goes through; `write_text_atomic` encodes text
for it. Every text input is read as UTF-8 with an optional byte-order mark
(`TEXT_ENCODING`, as spreadsheet exports write), and `csv_rows` is the one
reader of a CSV input. `json_value` is the one type check of a value read
from a JSON config, scenario, spec or corpus record, and `reject_unknown_keys`
and `require_keys` the checks of its keys (`check_field_keys` applies both
to the fields of a dataclass).
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import tempfile
import unicodedata
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path

ENGAGEMENT_METRICS = ("replies", "retweets", "likes")

_WS_RUN = re.compile(r"\s+")
_DECIMAL = re.compile(r"-?[0-9]+")  # a CSV count cell
TEXT_ENCODING = "utf-8-sig"  # UTF-8, a leading byte-order mark dropped


_JSON_KINDS = {dict: "a JSON object", list: "a JSON list", str: "a string",
               int: "an integer", float: "a finite number"}


def json_value(value, kind: type, what: str):
    """`value` checked to be of the JSON type `kind` (one of _JSON_KINDS);
    ValueError names `what`. A bool is no number, and a float is an integer
    only when it has no fractional part; numbers come back as `kind`."""
    if kind is not float and isinstance(value, kind) and not isinstance(value, bool):
        return value  # the common case, taken once per corpus field
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if kind is float:
        ok = is_number and math.isfinite(value)
    elif kind is int:
        ok = is_number and (isinstance(value, int) or value.is_integer())
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ValueError(f"{what} must be {_JSON_KINDS[kind]}, got {value!r}")
    return kind(value) if kind in (int, float) else value


def reject_unknown_keys(obj: dict, known, what: str) -> None:
    """ValueError naming the keys of `obj` outside `known`: a misspelt key
    would otherwise drop its value unseen."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")


def require_keys(obj: dict, required, what: str) -> None:
    """ValueError naming the keys of `required` that `obj` lacks: indexing
    would raise a KeyError that shows only the key."""
    missing = [key for key in required if key not in obj]
    if missing:
        raise ValueError(f"missing {what} key(s): {', '.join(map(repr, missing))}")


def check_field_keys(obj: dict, cls, what: str) -> None:
    """ValueError unless the keys of `obj` are fields of the dataclass `cls`
    and include every field that has no default."""
    reject_unknown_keys(obj, [f.name for f in fields(cls)], what)
    require_keys(obj, [f.name for f in fields(cls)
                       if f.default is MISSING and f.default_factory is MISSING], what)


def csv_rows(path: str | Path, columns):
    """(file line, row, problem) of each record of the CSV file `path`, whose
    header must hold every name of `columns` (ValueError names the file and
    the missing ones). `row` maps each header name to its cell; a row of
    more or fewer cells than the header comes as (line, None, "expected N
    cells"). A record is named by the file line it ends on, since a quoted
    cell may span lines."""
    with open(path, encoding=TEXT_ENCODING, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in columns if c not in (reader.fieldnames or ())]
        if missing:
            raise ValueError(f"{path}: header lacks column(s) {', '.join(missing)}")
        for row in reader:
            # DictReader fills a short row's missing cells with None and files
            # a long row's surplus cells under the None key
            if None in row or None in row.values():
                yield reader.line_num, None, f"expected {len(reader.fieldnames)} cells"
            else:
                yield reader.line_num, row, None


@dataclass(frozen=True)
class PairedRecord:
    """One news article paired with the social post that shared it."""

    id: str
    outlet: str
    headline: str
    body_text: str
    post_text: str
    created_at: str  # ISO-8601 UTC instant, e.g. "2018-06-15T13:00:00Z"
    replies: int
    retweets: int
    likes: int
    section: str | None = None

    def engagement(self, metric: str) -> int:
        if metric not in ENGAGEMENT_METRICS:
            raise ValueError(f"unknown engagement metric: {metric!r}")
        return getattr(self, metric)


# the fields a record must give: those of `PairedRecord` without a default
REQUIRED_KEYS = tuple(f.name for f in fields(PairedRecord) if f.default is MISSING)


@dataclass(frozen=True)
class RejectedLine:
    line_no: int
    reason: str


@dataclass(frozen=True)
class Corpus:
    records: tuple[PairedRecord, ...]
    source_path: str
    rejects: tuple[RejectedLine, ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def outlet_rows(self) -> dict[str, list[int]]:
        """{outlet: ascending positions of its records}, outlets in order of
        first appearance."""
        rows: dict[str, list[int]] = {}
        for i, r in enumerate(self.records):
            rows.setdefault(r.outlet, []).append(i)
        return rows


def normalize(text: str) -> str:
    """Canonical text normalization: NFC compose, trim, collapse whitespace runs.

    Idempotent: normalize(normalize(x)) == normalize(x).
    """
    return _WS_RUN.sub(" ", unicodedata.normalize("NFC", text)).strip()


def parse_timestamp(value: str) -> datetime:
    """Parse an ISO-8601 instant into an aware UTC datetime."""
    try:
        dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError as exc:
        raise ValueError(f"invalid created_at timestamp {value!r}: {exc}") from None
    if dt.tzinfo is None:
        raise ValueError(f"created_at {value!r} has no UTC offset")
    return dt.astimezone(timezone.utc)


# Posting-time blocks on a fixed UTC-4 clock (eastern daylight offset,
# applied year-round for determinism).
TIME_BLOCKS = ("B1", "B2", "B3")
_EASTERN_OFFSET = timedelta(hours=-4)


def assign_time_block(record: PairedRecord) -> str:
    """Map the record's posting instant to one of three local-time blocks.

    B1 = [00:00, 09:00), B2 = [09:00, 17:00), B3 = [17:00, 24:00), measured
    on a fixed UTC-4 clock.
    """
    local = parse_timestamp(record.created_at) + _EASTERN_OFFSET
    if local.hour < 9:
        return "B1"
    if local.hour < 17:
        return "B2"
    return "B3"


def _checked_record(obj: dict) -> PairedRecord:
    """Validate one raw mapping into a PairedRecord; raises ValueError that
    names the field. Values are checked with `json_value`, never coerced:
    counts are integers, and the text, outlet, time and section fields are
    strings."""
    missing = [k for k in REQUIRED_KEYS if k not in obj or obj[k] is None]
    if missing:
        raise ValueError(f"missing required field(s): {', '.join(missing)}")

    if isinstance(obj["id"], bool) or not isinstance(obj["id"], (str, int)):
        raise ValueError(f"id must be a string or an integer, got {obj['id']!r}")
    rid = str(obj["id"]).strip()
    if not rid:
        raise ValueError("empty id")

    counts = {}
    for metric in ENGAGEMENT_METRICS:
        n = json_value(obj[metric], int, metric)
        if n < 0:
            raise ValueError(f"{metric} is negative: {n}")
        counts[metric] = n

    text = {key: json_value(obj[key], str, key)
            for key in ("outlet", "headline", "body_text", "post_text", "created_at")}
    # `normalize` leaves a text empty exactly when `strip` does: both drop
    # the code points `str.isspace` accepts, and NFC maps no other code
    # point to one of them
    if not text["headline"].strip():
        raise ValueError("headline empty after normalization")
    if not text["post_text"].strip():
        raise ValueError("post_text empty after normalization")
    parse_timestamp(text["created_at"])  # validation only; stored verbatim

    section = obj.get("section")
    if section is not None:
        section = json_value(section, str, "section") or None

    return PairedRecord(id=rid, **text, **counts, section=section)


def _iter_jsonl(path: Path):
    with open(path, encoding=TEXT_ENCODING) as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                yield line_no, None, f"invalid JSON: {exc.msg}"
                continue
            if not isinstance(obj, dict):
                yield line_no, None, "line is not a JSON object"
                continue
            yield line_no, obj, None


def _iter_csv(path: Path):
    for line_no, row, problem in csv_rows(path, REQUIRED_KEYS):
        if problem is not None:
            yield line_no, None, problem
            continue
        obj = {k: v for k, v in row.items() if v != ""}
        # every cell is a string: a count cell reads as a decimal integer,
        # and any other count cell is left for `_checked_record` to reject
        for metric in ENGAGEMENT_METRICS:
            if _DECIMAL.fullmatch(obj.get(metric, "")):
                obj[metric] = int(obj[metric])
        yield line_no, obj, None


def load_corpus(path: str | Path, fmt: str) -> Corpus:
    """Load and validate a paired corpus.

    Malformed lines are skipped and reported in Corpus.rejects with their
    line numbers. A missing file, a CSV header without a required column,
    duplicate ids and an empty result raise ValueError.
    """
    path = Path(path)
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"unknown corpus format {fmt!r} (expected jsonl or csv)")
    if not path.is_file():
        raise ValueError(f"corpus file not found: {path}")

    rows = _iter_jsonl(path) if fmt == "jsonl" else _iter_csv(path)
    records: list[PairedRecord] = []
    rejects: list[RejectedLine] = []
    seen_ids: dict[str, int] = {}
    for line_no, obj, err in rows:
        if err is not None:
            rejects.append(RejectedLine(line_no, err))
            continue
        try:
            record = _checked_record(obj)
        except ValueError as exc:
            rejects.append(RejectedLine(line_no, str(exc)))
            continue
        if record.id in seen_ids:
            raise ValueError(
                f"{path}:{line_no}: duplicate id {record.id!r} "
                f"(first seen on line {seen_ids[record.id]})"
            )
        seen_ids[record.id] = line_no
        records.append(record)

    if not records:
        raise ValueError(f"{path}: no valid records ({len(rejects)} rejected)")
    return Corpus(records=tuple(records), source_path=str(path), rejects=tuple(rejects))


def write_bytes_atomic(path: str | Path, data: bytes) -> None:
    """Write `data` to a temporary file in the target's directory and rename
    it over `path`, so readers see either the old file or the whole new one."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    """`write_bytes_atomic` of `text` as UTF-8, newlines untranslated."""
    write_bytes_atomic(path, text.encode("utf-8"))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write records back out as canonical JSONL (round-trips with load_corpus):
    one object per record, its keys the `PairedRecord` fields in order, with
    no `section` key when the record has none."""
    lines = []
    for r in corpus.records:
        obj = vars(r)
        if r.section is None:
            obj = obj.copy()
            del obj["section"]
        lines.append(json.dumps(obj, ensure_ascii=False) + "\n")
    write_text_atomic(path, "".join(lines))
