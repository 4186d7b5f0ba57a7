#!/usr/bin/env python3
"""Benchmark for the `editlift` command line, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload describe --seed 0 --seconds 20 --trace 0

One client drives the CLI in a closed loop: each command is its own
`python -m editlift.cli` process, started only after the previous one
exited, with `PYTHONPATH=src` so the checkout's code is measured. `--seed`
makes the inputs (a synthetic corpus and labelled headlines); the commands
themselves always get `--seed 0`. Set-up runs in this process and is not
part of the timed chain.

`--trace 0` times untraced command chains for `--seconds` and reports the
end-to-end metrics. `--trace 1` alternates untraced chains with chains run
through `bench/layertrace.py`, which records a span per call into each
module's public functions, and reports per-layer self times and counts plus
the tracing overhead (median over iterations of traced minus untraced chain
wall time).

Every command's outputs are checked and digested. A command fails when it
exits non-zero, prints a traceback, or fails its output check; failed
commands are still timed, counted in `failed`, and listed with their exit
code and last stderr line. `correct` is false when a command reports
success but its outputs are wrong, when outputs differ between reruns of the
same inputs (the CLI promises byte-identical reruns), or when `--help` fails.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The full run record (environment, per-command results, digests) goes to
`BENCH_<workload>[_trace].json`, and the last chain's artifacts stay in
`.bench_runs/<workload>/chain/`; `bench/compare.py` tells whether two such
directories are byte-identical or gives their largest numeric difference.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark directory free of caches

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".bench_runs"

# One BLAS thread per process: estimate-many runs `--jobs 2`, and 2 workers
# x 1 thread fits the 2-core machine the sizes were chosen on.
BLAS_THREADS = 1
BLAS_ENV = {v: str(BLAS_THREADS) for v in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
COMMAND_TIMEOUT_S = 120
OUTLET = "synthwire"  # the confounded preset's single outlet
METRIC_NAMES = ("replies", "retweets", "likes")


@dataclass(frozen=True)
class Workload:
    name: str
    records: int
    effect_likes: float
    jobs: int  # estimate --jobs; 0 for the descriptive chain
    headlines: int = 0
    setup_repeats: int = 3  # set-ups per run; setup_s is their median
    why: str = ""


# Reference sizes are 10,000 / 5,000 / 10,000 records and 1,000 headlines.
# describe and estimate-many run at 1/4 of them, so that several chains fit
# in one measured window. estimate-full runs at 1/2: at 1/4 its chain is
# under 4 s, of which process start-up is 1.6 s, while at 2,500 records
# matching is its largest layer. Each `why` states the layer mix traced at
# these sizes. describe's set-up is 0.4 s, so it is
# repeated more often to steady its median.
WORKLOADS = {w.name: w for w in (
    Workload("describe", records=2500, effect_likes=0.0, jobs=0, headlines=250,
             setup_repeats=7,
             why="process start-up of 5 commands and edit distance dominate; GRU train and "
                 "score, k-means elbow and corpus parsing also block; never enters causal"),
    Workload("estimate-full", records=2500, effect_likes=50.0, jobs=1,
             why="two whole-outlet scenarios: matching, then propensity training (Adam, MLP) "
                 "dominate; bodies are embedded once per scenario; no edit distance or GRU"),
    Workload("estimate-many", records=2500, effect_likes=50.0, jobs=2,
             why="12 section x time-block scenarios on --jobs 2: small groups, so propensity "
                 "training outweighs matching, and start-up, pickling and the pool idle workers"),
)}

# (name, unit) of the end-to-end metrics every workload reports; BENCHMARK.json
# lists the same set. The per-command times, describe's records/s (the record
# count over wall_s) and the failure share, which not every workload has or
# which restate wall_s, are printed in the report and kept in the run record.
E2E_METRICS = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("startup_s", "s"),
    ("peak_rss_mb", "MB"),
)

COMMAND_ARTIFACTS = {
    "ingest": ("ingest.json",),
    "profile": ("profiles.csv", "profile_summary.json"),
    "cluster": ("profiles.csv", "cluster_model.json", "cluster_fractions.json"),
    "clickbait_train": ("clickbait_model.bin",),
    "clickbait_score": ("profiles.csv", "clickbait_shift.json"),
    "estimate": ("eate_reports.json", "eate_reports.csv"),
}


class SetupError(Exception):
    """Inputs could not be prepared; the run cannot measure anything."""


def command_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


# ---------------------------------------------------------------------------
# Set-up: generate and prepare inputs in this process


@dataclass
class Inputs:
    dir: Path
    corpus: Path
    vectors: Path
    record_ids: list[str]
    headlines: Path | None = None
    profiles: Path | None = None
    config: Path | None = None
    scenarios: list[dict] = field(default_factory=list)


def _scenario(name: str, kind: str, **filters) -> dict:
    if kind == "edited":
        treatment, control = {"kind": "edited"}, {"kind": "mirrored"}
    else:
        treatment, control = {"kind": "cluster", "cluster": 2}, {"kind": "cluster", "cluster": 0}
    return {"name": name, "outlet": OUTLET, "treatment": treatment, "control": control,
            **filters}


def scenarios_for(workload: Workload) -> list[dict]:
    kinds = (("edited-vs-mirrored", "edited"), ("cluster-2-vs-0", "cluster"))
    if workload.jobs == 1:
        return [_scenario(name, kind) for name, kind in kinds]
    # the larger edited-vs-mirrored groups go first, so the pool ends on small
    # scenarios and its makespan does not hinge on which worker takes a big one
    return [
        _scenario(f"{name}-{section}-{block}", kind, section=section, time_block=block)
        for name, kind in kinds
        for section in ("politics", "entertainment")
        for block in ("B1", "B2", "B3")
    ]


def _cli(cli, argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise SetupError(f"editlift {' '.join(argv)} exited {code}: {err.getvalue().strip()}")


def prepare(workload: Workload, seed: int, scale: float, dest: Path) -> Inputs:
    """Synthesize the workload's corpus and the inputs its chain reads."""
    from editlift import cli, clickbait

    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    records = max(60, round(workload.records * scale))
    _cli(cli, ["synth", "--n-records", str(records), "--effect-likes",
               str(workload.effect_likes), "--seed", str(seed), "--out", str(dest)])
    corpus = dest / "corpus.jsonl"
    with open(corpus, encoding="utf-8") as fh:
        record_ids = [json.loads(line)["id"] for line in fh]
    inputs = Inputs(dir=dest, corpus=corpus, vectors=dest / "vectors.txt",
                    record_ids=record_ids)
    if workload.jobs == 0:
        inputs.headlines = dest / "headlines.csv"
        with open(inputs.headlines, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["text", "label"])
            n = max(40, round(workload.headlines * scale))
            for ex in clickbait.synthetic_headlines(n, seed=seed):
                writer.writerow([ex.text, ex.label])
    else:
        # elbow selection picks k=1 on this corpus, which leaves no cluster
        # contrast to estimate, so the set-up fixes k=3
        _cli(cli, ["profile", "--corpus", str(corpus), "--embeddings", str(inputs.vectors),
                   "--out", str(dest)])
        _cli(cli, ["cluster", "--corpus", str(corpus), "--out", str(dest), "--seed", "0",
                   "--k", "3"])
        inputs.profiles = dest / "profiles.csv"
        inputs.scenarios = scenarios_for(workload)
        inputs.config = dest / "config.json"
        inputs.config.write_text(json.dumps({"scenarios": inputs.scenarios}, indent=2) + "\n",
                                 encoding="utf-8")
    return inputs


def digest_dir(path: Path) -> dict[str, str]:
    return {p.name: sha256(p) for p in sorted(path.iterdir()) if p.is_file()}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# The command chain


@dataclass(frozen=True)
class Step:
    name: str
    args: list[str]


def chain(workload: Workload, inputs: Inputs, out: Path) -> list[Step]:
    c, v, o = str(inputs.corpus), str(inputs.vectors), str(out)
    if workload.jobs == 0:
        return [
            Step("ingest", ["ingest", "--corpus", c, "--out", str(out / "ingest.json")]),
            Step("profile", ["profile", "--corpus", c, "--embeddings", v, "--out", o]),
            Step("cluster", ["cluster", "--corpus", c, "--out", o, "--seed", "0"]),
            Step("clickbait_train", ["clickbait", "train", "--train-data", str(inputs.headlines),
                                     "--out", o, "--seed", "0"]),
            Step("clickbait_score", ["clickbait", "score", "--corpus", c, "--out", o]),
        ]
    return [Step("estimate", [
        "estimate", "--corpus", c, "--embeddings", v, "--profiles", str(inputs.profiles),
        "--out", o, "--seed", "0", "--config", str(inputs.config),
        "--jobs", str(workload.jobs)])]


@dataclass
class Proc:
    exit_code: int
    start: float
    end: float
    maxrss_mb: float
    stdout: str
    stderr: str

    @property
    def wall(self) -> float:
        return self.end - self.start


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def run_process(argv: list[str], log_stem: Path) -> Proc:
    """Run one process to completion; wall time and peak RSS come from wait4,
    whose maximum covers the process and every child it reaped.

    The process leads its own process group, so a timeout or an interrupt
    kills its `--jobs` workers with it, and none outlives the call."""
    out_path, err_path = log_stem.with_suffix(".stdout"), log_stem.with_suffix(".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=command_env(), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
        killer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            _kill_group(proc.pid)
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        end = time.perf_counter()
        _kill_group(proc.pid)  # workers a crashed command left behind
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        exit_code=proc.returncode, start=start, end=end, maxrss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


# ---------------------------------------------------------------------------
# Output checks: each returns a list of problems, empty when the outputs hold


def _read_profiles(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _check_rows(rows: list[dict], inputs: Inputs) -> list[str]:
    if [r["record_id"] for r in rows] != inputs.record_ids:
        return [f"profiles.csv has {len(rows)} rows, not one per record in corpus order"]
    return []


def check_ingest(out: Path, proc: Proc, inputs: Inputs) -> list[str]:
    m = re.search(r"loaded (\d+) records from .* \((\d+) rejected\)", proc.stdout)
    if not m or int(m.group(1)) != len(inputs.record_ids) or m.group(2) != "0":
        return [f"ingest reported {proc.stdout.strip()[:120]!r}"]
    summary = json.loads((out / "ingest.json").read_text(encoding="utf-8"))
    if summary["records"] != len(inputs.record_ids):
        return ["ingest.json record count differs from the corpus"]
    return []


def check_profile(out: Path, proc: Proc, inputs: Inputs) -> list[str]:
    rows = _read_profiles(out / "profiles.csv")
    problems = _check_rows(rows, inputs)
    for r in rows:
        d = float(r["edit_distance"])
        if not 0.0 <= d <= 1.0:
            problems.append(f"{r['record_id']}: edit distance {d} outside [0, 1]")
        if r["mirrored"] == "true" and d != 0.0:
            problems.append(f"{r['record_id']}: mirrored row at distance {d}")
        if not math.isfinite(float(r["embedding_similarity"])):
            problems.append(f"{r['record_id']}: non-finite embedding similarity")
    summary = json.loads((out / "profile_summary.json").read_text(encoding="utf-8"))
    if OUTLET not in summary["outlets"]:
        problems.append("profile_summary.json lacks the corpus outlet")
    return problems[:5]


def check_cluster(out: Path, proc: Proc, inputs: Inputs) -> list[str]:
    k = json.loads((out / "cluster_model.json").read_text(encoding="utf-8"))["k"]
    fractions = json.loads((out / "cluster_fractions.json").read_text(encoding="utf-8"))
    problems = [f"{outlet}: cluster fractions sum to {sum(row)!r}"
                for outlet, row in fractions.items()
                if len(row) != k or abs(sum(row) - 1.0) > 1e-9 or min(row) < 0.0]
    rows = _read_profiles(out / "profiles.csv")
    problems += _check_rows(rows, inputs)
    if any(not r["cluster"] or not 0 <= int(r["cluster"]) < k for r in rows):
        problems.append(f"profiles.csv has cluster labels outside 0..{k - 1}")
    return problems


def check_clickbait_train(out: Path, proc: Proc, inputs: Inputs) -> list[str]:
    m = re.search(r"held-out F1: ([0-9.]+)", proc.stdout)
    if not m or float(m.group(1)) < 0.99:
        return [f"held-out F1 below 0.99 on separable headlines: {proc.stdout.strip()[:80]!r}"]
    if not (out / "clickbait_model.bin").is_file():
        return ["no clickbait_model.bin"]
    return []


def check_clickbait_score(out: Path, proc: Proc, inputs: Inputs) -> list[str]:
    rows = _read_profiles(out / "profiles.csv")
    problems = _check_rows(rows, inputs)
    for r in rows:
        for col in ("headline_clickbait", "post_clickbait"):
            if r[col] == "" or not 0.0 <= float(r[col]) <= 1.0:
                problems.append(f"{r['record_id']}: {col} {r[col]!r} outside [0, 1]")
    json.loads((out / "clickbait_shift.json").read_text(encoding="utf-8"))
    return problems[:5]


def check_estimate(out: Path, proc: Proc, inputs: Inputs) -> list[str]:
    payload = json.loads((out / "eate_reports.json").read_text(encoding="utf-8"))
    skipped = {s["scenario"] for s in payload["skipped"]}
    by_scenario: dict[str, list[dict]] = {}
    for r in payload["reports"]:
        by_scenario.setdefault(r["scenario"], []).append(r)
    problems = []
    for s in inputs.scenarios:
        name = s["name"]
        if name in skipped:
            continue
        reports = by_scenario.get(name, [])
        if sorted(r["metric"] for r in reports) != sorted(METRIC_NAMES):
            problems.append(f"{name}: {len(reports)} reports, expected one per metric")
        for r in reports:
            folds = r["fold_eates"]
            if len(folds) != 10 or not all(math.isfinite(v) for v in folds):
                problems.append(f"{name}/{r['metric']}: fold values are not 10 finite numbers")
            expect = (r["ci_low"] <= 0.0 <= r["ci_high"]) or any(
                not b["passed"] for b in r["balance"])
            if r["discarded"] is not expect:
                problems.append(f"{name}/{r['metric']}: discarded={r['discarded']} "
                                "disagrees with its interval and balance")
    lines = (out / "eate_reports.csv").read_text(encoding="utf-8").splitlines()
    if len(lines) != 1 + len(payload["reports"]):
        problems.append("eate_reports.csv row count differs from eate_reports.json")
    return problems


CHECKS = {
    "ingest": check_ingest,
    "profile": check_profile,
    "cluster": check_cluster,
    "clickbait_train": check_clickbait_train,
    "clickbait_score": check_clickbait_score,
    "estimate": check_estimate,
}


# ---------------------------------------------------------------------------
# Measurement


@dataclass
class CommandResult:
    name: str
    traced: bool
    exit_code: int
    wall_s: float
    maxrss_mb: float
    failed: bool
    problems: list[str]
    last_stderr: str
    digests: dict[str, str]


class Run:
    """Accumulates command results, digests and failures for one run."""

    def __init__(self, workload: Workload, inputs: Inputs, trace: bool):
        self.workload = workload
        self.inputs = inputs
        self.trace = trace
        self.dir = WORK / workload.name
        self.out = self.dir / "chain"
        self.logs = self.dir / "logs"
        self.spans = self.dir / "spans"
        for d in (self.logs, self.spans):
            if d.exists():
                shutil.rmtree(d)
            d.mkdir(parents=True)
        self.results: list[CommandResult] = []
        self.reference_digests: dict[str, str] = {}
        self.incorrect: list[str] = []
        self.chains: list[dict] = []
        self.startup: list[Proc] = []
        self.layers: list[dict[str, float]] = []

    def probe_startup(self) -> None:
        proc = run_process([sys.executable, "-m", "editlift.cli", "--help"],
                           self.logs / "startup")
        if proc.exit_code != 0 or "usage: editlift" not in proc.stdout:
            self.incorrect.append(f"--help exited {proc.exit_code}: {last_line(proc.stderr)}")
        self.startup.append(proc)

    def run_chain(self, traced: bool = False) -> dict:
        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir(parents=True)
        index = len(self.chains)
        walls: dict[str, float] = {}
        rss = []
        layer_parts = []
        for step in chain(self.workload, self.inputs, self.out):
            if traced:
                span_file = self.spans / f"{index}-{step.name}.jsonl"
                argv = [sys.executable, str(BENCH_DIR / "layertrace.py"), str(span_file),
                        f"{index}-{step.name}", *step.args]
            else:
                argv = [sys.executable, "-m", "editlift.cli", *step.args]
            proc = run_process(argv, self.logs / step.name)
            result = self._record(step, proc, traced)
            walls[step.name] = result.wall_s
            rss.append(result.maxrss_mb)
            if traced:
                from layertrace import command_layers, read_spans
                layer_parts.append(command_layers(read_spans(span_file), step.name,
                                                  (proc.start, proc.end),
                                                  max(1, self.workload.jobs)))
        summary = {"traced": traced, "wall_s": sum(walls.values()), "commands": walls,
                   "peak_rss_mb": max(rss)}
        self.chains.append(summary)
        if traced:
            from layertrace import chain_layers
            self.layers.append(chain_layers(layer_parts))
        return summary

    def _record(self, step: Step, proc: Proc, traced: bool) -> CommandResult:
        problems = []
        if proc.exit_code != 0:
            problems.append(f"exit code {proc.exit_code}")
        if "Traceback (most recent call last)" in proc.stderr:
            problems.append("printed a traceback")
        if not problems:
            try:
                problems = CHECKS[step.name](self.out, proc, self.inputs)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"output check could not read the outputs: {exc!r}"]
            if problems:
                self.incorrect.append(f"{step.name}: {problems[0]}")
        digests = {}
        for artifact in COMMAND_ARTIFACTS[step.name] if proc.exit_code == 0 else ():
            path = self.out / artifact
            if path.is_file():
                key = f"{step.name}:{artifact}"
                digests[artifact] = sha256(path)
                expected = self.reference_digests.setdefault(key, digests[artifact])
                if digests[artifact] != expected:
                    problems.append(f"{artifact} differs from an earlier run of the same inputs")
                    self.incorrect.append(f"{step.name}: {artifact} is not byte-identical "
                                          "across reruns")
        result = CommandResult(
            name=step.name, traced=traced, exit_code=proc.exit_code, wall_s=proc.wall,
            maxrss_mb=proc.maxrss_mb, failed=bool(problems), problems=problems,
            last_stderr=last_line(proc.stderr) if problems else "", digests=digests,
        )
        self.results.append(result)
        return result

    @property
    def attempted(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.results)


def last_line(text: str) -> str:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1].strip() if lines else ""


def median(values) -> float:
    return float(statistics.median(values))


def measure(run: Run, seconds: float) -> None:
    """Closed loop for `seconds`: iterations back to back (at least one), and
    no iteration started that the previous one says would end past the window.

    An untraced iteration is one start-up probe and one chain; time left
    that no chain fits goes to more probes. With tracing, an
    iteration is an untraced and a traced chain, so both see the same machine
    state; the untraced ones give the overhead's base.
    """
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        if run.trace:
            run.run_chain(traced=False)
            run.run_chain(traced=True)
        else:
            run.probe_startup()
            run.run_chain()
        now = time.perf_counter()
        if now + (now - start) > deadline:
            break
    while not run.trace and time.perf_counter() + run.startup[-1].wall < deadline:
        run.probe_startup()


def e2e_metrics(run: Run, setup_times: list[float]) -> dict[str, dict]:
    walls = [c["wall_s"] for c in run.chains]
    values = {
        "wall_s": median(walls),
        "setup_s": median(setup_times),
        "startup_s": median(p.wall for p in run.startup),
        "peak_rss_mb": median(c["peak_rss_mb"] for c in run.chains),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in E2E_METRICS}


def layer_metrics(run: Run) -> dict[str, dict]:
    from layertrace import LAYER_METRICS

    # chains alternate untraced, traced (see measure); differencing each pair
    # cancels machine-speed drift between iterations
    overhead = median(t["wall_s"] - u["wall_s"]
                      for u, t in zip(run.chains[::2], run.chains[1::2]))
    out = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.overhead_s":
            value = overhead
        else:
            value = median(layers.get(name, 0.0) for layers in run.layers)
        out[name] = {"value": value, "unit": unit}
    return out


def report_lines(run: Run, setup_times: list[float]) -> list[str]:
    """Every end-to-end figure, including the per-command times of the chain
    and the failure share, with unit and sample count."""
    plain = [c for c in run.chains if not c["traced"]]
    rows = [("setup_s", "s", setup_times),
            ("wall_s", "s", [c["wall_s"] for c in plain]),
            ("startup_s", "s", [p.wall for p in run.startup])]
    for step in chain(run.workload, run.inputs, run.out):
        rows.append((f"{step.name}_s", "s", [c["commands"][step.name] for c in plain]))
    if run.workload.jobs == 0:
        rows.append(("records_per_s", "records/s",
                     [len(run.inputs.record_ids) / c["wall_s"] for c in plain]))
    rows.append(("peak_rss_mb", "MB", [c["peak_rss_mb"] for c in plain]))
    lines = [f"workload {run.workload.name}: {len(run.inputs.record_ids)} records, "
             f"{len(plain)} untraced chain(s)"]
    for name, unit, values in rows:
        if values:
            lines.append(f"  {name:<22} {median(values):>12.4f} {unit:<10} "
                         f"min {min(values):.4f} max {max(values):.4f} n={len(values)}")
    frac = run.failed / run.attempted
    lines.append(f"  {'ops_failed_frac':<22} {frac:>12.4f} {'ratio':<10} "
                 f"{run.failed}/{run.attempted} commands")
    for failure in failure_summary(run):
        lines.append(f"  failed: {failure['command']} x{failure['count']} "
                     f"exit {failure['exit_code']}: {failure['last_stderr']}")
    for problem in sorted(set(run.incorrect)):
        lines.append(f"  INCORRECT: {problem}")
    return lines


def failure_summary(run: Run) -> list[dict]:
    seen: dict[tuple, dict] = {}
    for r in run.results:
        if r.failed:
            key = (r.name, r.exit_code, r.last_stderr, tuple(r.problems))
            entry = seen.setdefault(key, {
                "command": r.name, "exit_code": r.exit_code, "last_stderr": r.last_stderr,
                "problems": r.problems, "count": 0})
            entry["count"] += 1
    return list(seen.values())


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "platform": platform.platform(),
    }


def git_commit() -> str:
    """HEAD read from .git directly (no git process, nothing outside the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup_inputs(workload: Workload, seed: int, scale: float, repeats: int):
    """Prepare the inputs `repeats` times; each preparation must produce the
    same bytes. Returns the last preparation and every set-up time."""
    times = []
    digests = None
    for i in range(repeats):
        start = time.perf_counter()
        inputs = prepare(workload, seed, scale, WORK / workload.name / f"inputs-{i}")
        times.append(time.perf_counter() - start)
        current = digest_dir(inputs.dir)
        if digests is not None and current != digests:
            raise SetupError("set-up outputs differ between two preparations of one seed")
        digests = current
        if i > 0:
            shutil.rmtree(WORK / workload.name / f"inputs-{i - 1}")
    return inputs, times, digests


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  scale: float = 1.0) -> dict:
    # bytecode for the sources is written once per checkout, not in a timed command
    compileall.compile_dir(SRC, quiet=1)
    inputs, setup_times, input_digests = setup_inputs(
        workload, seed, scale, 1 if trace else workload.setup_repeats)
    run = Run(workload, inputs, trace)
    measure(run, seconds)
    metrics = layer_metrics(run) if trace else e2e_metrics(run, setup_times)
    result = {"correct": not run.incorrect, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = {
        "workload": workload.name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": trace, "scale": scale, "records": len(inputs.record_ids),
        "environment": environment(), "setup_s": setup_times, "input_digests": input_digests,
        "startup_s": [p.wall for p in run.startup],
        "chains": run.chains, "layers": run.layers,
        "failures": failure_summary(run), "incorrect": sorted(set(run.incorrect)),
        "commands": [vars(r) for r in run.results], "result": result,
        "report": report_lines(run, setup_times),
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply the workload's input sizes (the self-test uses a "
                             "tiny scale)")
    args = parser.parse_args(argv)

    if not (SRC / "editlift" / "cli.py").is_file():
        print(f"error: no editlift sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy loads in this process
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import editlift
    import editlift.cli  # noqa: F401  (imported here so set-up times exclude imports)

    if Path(editlift.__file__).resolve().parent != (SRC / "editlift").resolve():
        print(f"error: editlift resolved to {editlift.__file__}, not the checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    try:
        record = run_benchmark(workload, args.seed, args.seconds, bool(args.trace),
                               args.scale)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    suffix = "_trace" if args.trace else ""
    (ROOT / f"BENCH_{workload.name}{suffix}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("\n".join(record["report"]))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
