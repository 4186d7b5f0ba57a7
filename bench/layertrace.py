"""Traced `editlift` launcher and the per-layer aggregation of its spans.

As a script it stands in for `python -m editlift.cli`:

    python bench/layertrace.py <span-file> <command-id> <editlift arguments...>

It wraps the public functions of each editlift module before calling
`editlift.cli.main`, keeps one span per call in memory, and writes them as
JSON lines to <span-file> when the command ends. Span fields: id, parent,
name, start, end (perf_counter seconds, a system-wide monotonic clock, so
spans of different processes and the benchmark's own command timings share
one time base), command id, and per-call counts.

Functions that other modules import by name (`from .embedding import
embed_text`) are rebound in every editlift module that holds them, and model
methods are wrapped on their class, so no call escapes through an alias.
`--jobs` workers are forked from the traced process and inherit the
wrappers; each worker appends its spans to <span-file>.<pid> after every
scenario it runs, because forked workers never run exit handlers.

Imported as a module (by the benchmark driver) it only aggregates spans.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# layer name -> (module, attribute); "Class.method" attributes are wrapped on
# the class. textsim.profiles_csv covers both directions of the CSV round trip.
LAYER_FUNCTIONS = {
    "corpus.load_corpus": ("editlift.corpus", "load_corpus"),
    "embedding.load_table": ("editlift.embedding", "load_table"),
    "embedding.embed_text": ("editlift.embedding", "embed_text"),
    "textsim.normalized_edit_distance": ("editlift.textsim", "normalized_edit_distance"),
    "textsim.profile": ("editlift.textsim", "profile"),
    "textsim.profiles_csv": ("editlift.textsim", "profiles_to_csv"),
    "textsim.profiles_csv#read": ("editlift.textsim", "profiles_from_csv"),
    "textsim.mann_whitney_u": ("editlift.textsim", "mann_whitney_u"),
    "cluster.kmeanspp_fit": ("editlift.cluster", "kmeanspp_fit"),
    "cluster.elbow_select": ("editlift.cluster", "elbow_select"),
    "nn.adam_step": ("editlift.nn.optim", "adam_step"),
    "nn.Mlp.loss_and_grads": ("editlift.nn.models", "Mlp.loss_and_grads"),
    "nn.Mlp.predict": ("editlift.nn.models", "Mlp.predict"),
    "nn.SequenceClassifier.loss_and_grads": ("editlift.nn.models",
                                             "SequenceClassifier.loss_and_grads"),
    "nn.SequenceClassifier.score_batch": ("editlift.nn.models",
                                          "SequenceClassifier.score_batch"),
    "clickbait.train": ("editlift.clickbait", "train"),
    "clickbait.score_many": ("editlift.clickbait", "score_many"),
    "causal.run_scenario": ("editlift.causal", "run_scenario"),
    "causal.select_units": ("editlift.causal", "select_units"),
    "causal.pairwise_similarity_stats": ("editlift.causal", "pairwise_similarity_stats"),
    "causal.train_propensity": ("editlift.causal", "train_propensity"),
    "causal.match": ("editlift.causal", "match"),
    "causal.estimate_eate": ("editlift.causal", "estimate_eate"),
}

# CLI commands as the driver names them; each has a `cli.<name>.other_s`.
COMMANDS = ("ingest", "profile", "cluster", "clickbait_train", "clickbait_score", "estimate")

# (metric, unit) in the order the benchmark reports them.
LAYER_METRICS = (
    [(f"{layer}.{suffix}", unit)
     for layer, suffixes in (
         ("textsim.normalized_edit_distance", ("calls", "self_s")),
         ("textsim.profile", ("self_s",)),
         ("textsim.profiles_csv", ("self_s",)),
         ("textsim.mann_whitney_u", ("self_s",)),
         ("embedding.embed_text", ("calls", "self_s")),
         ("embedding.load_table", ("self_s",)),
         ("corpus.load_corpus", ("calls", "self_s")),
         ("cluster.kmeanspp_fit", ("calls", "self_s")),
         ("cluster.elbow_select", ("self_s",)),
         ("nn.SequenceClassifier.loss_and_grads", ("calls", "self_s")),
         ("nn.SequenceClassifier.score_batch", ("calls", "self_s")),
         ("clickbait.train", ("self_s",)),
         ("clickbait.score_many", ("self_s",)),
         ("nn.Mlp.loss_and_grads", ("calls", "self_s")),
         ("nn.Mlp.predict", ("self_s",)),
         ("nn.adam_step", ("calls", "self_s")),
         ("causal.train_propensity", ("calls", "self_s")),
         ("causal.match", ("calls", "self_s")),
         ("causal.run_scenario", ("calls", "self_s")),
         ("causal.select_units", ("self_s",)),
         ("causal.pairwise_similarity_stats", ("self_s",)),
         ("causal.estimate_eate", ("calls", "self_s")),
     )
     for suffix in suffixes
     for unit in ("count" if suffix == "calls" else "s",)]
    + [
        ("textsim.edit_cells", "count"),
        ("textsim.identical_frac", "ratio"),
        ("embedding.embed_text.repeat_frac", "ratio"),
        ("cluster.selected_k", "count"),
        ("clickbait.train.epochs", "count"),
        ("clickbait.score_many.texts", "count"),
        ("causal.match.gap_evals", "count"),
        ("causal.units", "count"),
        ("causal.scenarios_skipped", "count"),
    ]
    + [(f"cli.{command}.other_s", "s") for command in COMMANDS]
    + [("cli.estimate.worker_busy_frac", "ratio"), ("trace.overhead_s", "s")]
)


# ---------------------------------------------------------------------------
# Recording (runs inside the traced command process)


class Recorder:
    """In-memory span list plus the stack of open spans of this process."""

    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self.counter = 0
        self.pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # a worker keeps the open-span stack (its spans hang under the parent's
        # command span) but not the spans the parent already recorded
        self.spans = []
        self.pid = os.getpid()

    def open(self) -> tuple[str, str | None]:
        self.counter += 1
        span_id = f"{self.pid}:{self.counter}"
        parent = self.stack[-1] if self.stack else None
        self.stack.append(span_id)
        return span_id, parent

    def close(self, span_id, parent, name, start, attrs) -> None:
        self.stack.pop()
        self.spans.append((span_id, parent, name, start, time.perf_counter(), attrs))

    def flush(self, path: Path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, attrs in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name, "start": start,
                    "end": end, "command": self.command_id, **attrs,
                }) + "\n")
        self.spans = []


def _call_attrs(layer: str, args, result) -> dict:
    """Per-call counts measured where the work happens."""
    if layer == "textsim.normalized_edit_distance":
        a, b = args[0], args[1]
        return {"identical": a == b, "cells": 0 if a == b else len(a) * len(b)}
    if layer == "embedding.embed_text":
        return {"text": hashlib.blake2b(args[1].encode("utf-8"), digest_size=8).hexdigest()}
    if layer == "cluster.elbow_select":
        return {"selected_k": int(result)}
    if layer == "clickbait.score_many":
        return {"texts": len(args[1])}
    if layer == "causal.match":
        return {"gap_evals": len(args[0]) * len(args[1])}
    if layer == "causal.select_units":
        return {"units": len(result[0]) + len(result[1])}
    return {}


def _wrap(recorder: Recorder, layer: str, fn):
    name = layer.split("#")[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_id, parent = recorder.open()
        start = time.perf_counter()
        attrs = {}
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            attrs["error"] = type(exc).__name__
            raise
        else:
            attrs = _call_attrs(name, args, result)
            return result
        finally:
            recorder.close(span_id, parent, name, start, attrs)

    return traced


def install(recorder: Recorder, span_path: Path) -> None:
    """Wrap every layer function and rebind each alias of it."""
    import importlib

    modules = [importlib.import_module(m) for m in (
        "editlift.corpus", "editlift.embedding", "editlift.textsim", "editlift.cluster",
        "editlift.nn", "editlift.nn.optim", "editlift.nn.models", "editlift.clickbait",
        "editlift.causal", "editlift.synthbench", "editlift.cli")]
    for layer, (module_name, attr) in LAYER_FUNCTIONS.items():
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, method, _wrap(recorder, layer, getattr(cls, method)))
            continue
        original = getattr(owner, attr)
        traced = _wrap(recorder, layer, original)
        for module in modules:
            for alias, value in list(vars(module).items()):
                if value is original:
                    setattr(module, alias, traced)

    cli = sys.modules["editlift.cli"]
    run_one = cli._run_one_scenario
    main_pid = os.getpid()

    @functools.wraps(run_one)
    def run_one_and_flush(payload):
        try:
            return run_one(payload)
        finally:
            if os.getpid() != main_pid:
                recorder.flush(Path(f"{span_path}.{os.getpid()}"))

    cli._run_one_scenario = run_one_and_flush


def launch(argv: list[str]) -> int:
    span_path, command_id, cli_args = Path(argv[0]), argv[1], argv[2:]
    recorder = Recorder(command_id)
    install(recorder, span_path)
    from editlift import cli

    span_id, parent = recorder.open()
    start = time.perf_counter()
    try:
        return cli.main(cli_args)
    finally:
        recorder.close(span_id, parent, "cli.main", start, {})
        recorder.flush(span_path)


# ---------------------------------------------------------------------------
# Aggregation (runs in the benchmark driver)


def read_spans(span_path: Path) -> list[dict]:
    """Spans of one command: its own file plus one file per worker."""
    spans = []
    for path in [span_path, *sorted(span_path.parent.glob(span_path.name + ".*"))]:
        if path.is_file():
            with open(path, encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh)
    return spans


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def command_layers(spans: list[dict], command: str, wall: tuple[float, float],
                   jobs: int) -> dict[str, float]:
    """Per-layer totals of one command's spans.

    Self time is a span's duration minus the part of it its child spans
    cover. `cli.<command>.other_s` is the command's wall time (process start
    to exit, as the driver timed it) not covered by any layer span, so
    interpreter start-up, imports, argument parsing, output writing and pool
    management land there, as does any layer without spans.
    """
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    name_of = {s["id"]: s["name"] for s in spans}
    out: dict[str, float] = defaultdict(float)
    layer_intervals = []
    texts_seen: set[str] = set()
    for s in spans:
        name = s["name"]
        if name == "cli.main":
            continue
        layer_intervals.append((s["start"], s["end"]))
        duration = s["end"] - s["start"]
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += duration - _covered(children[s["id"]], s["start"], s["end"])
        if name == "textsim.normalized_edit_distance":
            out["textsim.edit_cells"] += s["cells"]
            out["textsim.identical"] += s["identical"]
        elif name == "embedding.embed_text":
            out["embedding.embed_text.repeats"] += s["text"] in texts_seen
            texts_seen.add(s["text"])
        elif name == "cluster.elbow_select" and "selected_k" in s:
            out["cluster.selected_k"] = s["selected_k"]
        elif name == "clickbait.score_many":
            out["clickbait.score_many.texts"] += s.get("texts", 0)
        elif name == "causal.match":
            out["causal.match.gap_evals"] += s.get("gap_evals", 0)
        elif name == "causal.select_units":
            out["causal.units"] += s.get("units", 0)
        elif name == "causal.run_scenario":
            out["causal.run_scenario.busy_s"] += duration
            out["causal.scenarios_skipped"] += s.get("error") == "ScenarioError"
        elif name == "nn.SequenceClassifier.score_batch":
            # train() scores its validation slice once per epoch it runs
            out["clickbait.train.epochs"] += name_of.get(s["parent"]) == "clickbait.train"
    start, end = wall
    out[f"cli.{command}.other_s"] = (end - start) - _covered(layer_intervals, start, end)
    if command == "estimate":
        out["cli.estimate.worker_busy_frac"] = (
            out.pop("causal.run_scenario.busy_s", 0.0) / (jobs * (end - start)))
    return dict(out)


def chain_layers(per_command: list[dict[str, float]]) -> dict[str, float]:
    """Sum one chain's command totals and derive its ratios."""
    total: dict[str, float] = defaultdict(float)
    for layers in per_command:
        for key, value in layers.items():
            if key == "cluster.selected_k":
                total[key] = value
            else:
                total[key] += value
    calls = total.get("textsim.normalized_edit_distance.calls", 0.0)
    total["textsim.identical_frac"] = total.pop("textsim.identical", 0.0) / calls if calls else 0.0
    calls = total.get("embedding.embed_text.calls", 0.0)
    repeats = total.pop("embedding.embed_text.repeats", 0.0)
    total["embedding.embed_text.repeat_frac"] = repeats / calls if calls else 0.0
    return dict(total)


if __name__ == "__main__":
    sys.exit(launch(sys.argv[1:]))
