import importlib.util
import json
from collections import namedtuple
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from editlift.corpus import Corpus, PairedRecord
from editlift.textsim import PROFILE_COLUMNS, Profiles

# one profile row as the per-record tests write it; None is unset
ProfileRow = namedtuple("ProfileRow", PROFILE_COLUMNS, defaults=(None, None, None))


def check_gradients(model, batch, h: float = 1e-5) -> float:
    """Max relative error between analytic and central finite-difference
    gradients.

    `model` must expose `buffer` (a ParamBuffer holding its live parameters)
    and `loss_and_grads(*batch)`, which fills `buffer.grads`. Every entry of
    the flat parameter buffer is perturbed by +/- h.
    """
    model.loss_and_grads(*batch)
    # the next call overwrites the gradient buffer, so keep a copy
    analytic = model.buffer.grads.copy()
    values = model.buffer.values
    worst = 0.0
    for i in range(values.size):
        orig = values[i]
        values[i] = orig + h
        up, _ = model.loss_and_grads(*batch)
        values[i] = orig - h
        down, _ = model.loss_and_grads(*batch)
        values[i] = orig
        numeric = (up - down) / (2.0 * h)
        denom = max(1e-6, abs(analytic[i]) + abs(numeric))
        worst = max(worst, abs(analytic[i] - numeric) / denom)
    return worst


def make_record(rid="r1", outlet="wire", headline="Budget vote passes",
                body_text="The committee approved the annual budget today.",
                post_text="Budget vote passes", created_at="2018-06-15T13:00:00Z",
                replies=1, retweets=2, likes=3, section=None) -> PairedRecord:
    return PairedRecord(
        id=rid, outlet=outlet, headline=headline, body_text=body_text,
        post_text=post_text, created_at=created_at, replies=replies,
        retweets=retweets, likes=likes, section=section,
    )


def make_corpus(records, source="test://corpus") -> Corpus:
    return Corpus(records=tuple(records), source_path=source)


def make_profiles(rows) -> Profiles:
    """A profile table of `ProfileRow`s (or plain tuples in that column
    order), in order; None is unset (NaN)."""
    rows = [ProfileRow(*row) for row in rows]
    return Profiles(
        tuple(r.record_id for r in rows),
        *(np.array([np.nan if getattr(r, f.name) is None else getattr(r, f.name) for r in rows],
                   dtype=f.metadata["cell"].dtype)
          for f in fields(Profiles)[1:]),
    )


def profile_rows(profiles: Profiles) -> list[ProfileRow]:
    """The rows of a profile table, NaN read back as None."""
    columns = [getattr(profiles, f.name).tolist() for f in fields(Profiles)[1:]]
    return [ProfileRow(rid, *(None if v != v else v for v in values))  # NaN != NaN
            for rid, *values in zip(profiles.record_ids, *columns)]


def write_jsonl(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def record_row(rid="r1", **overrides):
    row = {
        "id": rid,
        "outlet": "wire",
        "headline": "Budget vote passes",
        "body_text": "The committee approved the annual budget today.",
        "post_text": "Budget vote passes",
        "created_at": "2018-06-15T13:00:00Z",
        "replies": 1,
        "retweets": 2,
        "likes": 3,
    }
    row.update(overrides)
    return row


def load_script(name: str):
    """`scripts/<name>.py` imported as a fresh module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tiny_vectors(tmp_path):
    """Small deterministic word-vector file shared by embedding tests."""
    lines = ["12 4"]
    words = {
        "budget": (1.0, 0.0, 0.0, 0.0),
        "vote": (0.9, 0.1, 0.0, 0.0),
        "passes": (0.8, 0.2, 0.0, 0.0),
        "committee": (0.7, 0.3, 0.1, 0.0),
        "annual": (0.6, 0.2, 0.2, 0.0),
        "today": (0.5, 0.5, 0.0, 0.1),
        "wow": (0.0, 0.0, 1.0, 0.0),
        "shocking": (0.0, 0.1, 0.9, 0.0),
        "story": (0.0, 0.0, 0.8, 0.2),
        "weather": (0.0, 1.0, 0.0, 0.5),
        "storm": (0.1, 0.9, 0.0, 0.4),
        "alert": (0.0, 0.8, 0.1, 0.3),
    }
    for word, vec in words.items():
        lines.append(word + " " + " ".join(str(v) for v in vec))
    path = tmp_path / "vectors.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
