#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny input size.

Run from the repository root:

    python3 bench/selftest.py

It runs every workload once untraced and once traced and asserts that the
last output line names exactly the metrics BENCHMARK.json lists, each with
its unit; that every failed command is listed with its cause in the run
record; that `--jobs` worker spans reach the traced estimate-many run;
that a forced failure (a chain pointed at a missing corpus) is counted with
its exit code and last stderr line; and that the benchmark refuses to run,
without printing a result, where the editlift sources are absent.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SCALE = "0.05"


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / BENCH.name / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        cwd=cwd, capture_output=True, text=True, timeout=300, check=False)


def check_metrics(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            proc = run_bench(workload, trace)
            assert proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr[-2000:]}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] is True, proc.stdout
            # estimate can fail here (the JSON encoder rejects a numpy bool); a
            # failure only has to be accounted for with its cause
            assert 0 <= result["failed"] <= result["attempted"] >= 1, result
            suffix = "_trace" if trace else ""
            record = json.loads((ROOT / f"BENCH_{workload}{suffix}.json").read_text())
            assert sum(f["count"] for f in record["failures"]) == result["failed"], record
            assert all(f["last_stderr"] for f in record["failures"]), record["failures"]
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, f"{workload} trace={trace}: {sorted(set(got) ^ set(expected))}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            if trace == 0:
                for name in ("wall_s", "setup_s", "startup_s", "peak_rss_mb"):
                    assert result["metrics"][name]["value"] > 0, (workload, name)
            if trace == 1 and workload == "estimate-many":
                # the 12 scenarios run in --jobs workers; at this size all are skipped
                assert result["metrics"]["causal.run_scenario.calls"]["value"] == 12, result
                assert result["metrics"]["causal.scenarios_skipped"]["value"] == 12, result
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def check_forced_failure() -> None:
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import run

    workload = run.WORKLOADS["describe"]
    inputs = run.prepare(workload, 3, float(SCALE), run.WORK / "selftest" / "inputs")
    inputs.corpus = inputs.dir / "missing-corpus.jsonl"
    bench_run = run.Run(workload, inputs, trace=False)
    bench_run.run_chain()
    failed = [r for r in bench_run.results if r.failed]
    # every command but `clickbait train` reads the corpus
    assert bench_run.attempted == 5 and len(failed) == 4, [vars(r) for r in bench_run.results]
    for r in failed:
        assert r.exit_code == 1 and r.last_stderr.startswith("error:"), vars(r)
    report = "\n".join(run.report_lines(bench_run, [0.0]))
    assert re.search(r"ops_failed_frac\s+0\.8000 ratio\s+4/5 commands", report), report
    shutil.rmtree(run.WORK / "selftest")
    print("ok  forced failure: 4/5 commands counted as failed")


def check_bare_directory() -> None:
    bare = ROOT / ".bench_runs" / "selftest-bare"
    if bare.exists():
        shutil.rmtree(bare)
    shutil.copytree(BENCH, bare / BENCH.name)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run_bench("describe", 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    shutil.rmtree(bare)
    print("ok  refuses to run without the editlift sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_bare_directory()
    check_forced_failure()
    check_metrics(spec)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
