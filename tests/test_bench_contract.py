"""The names `bench/layertrace.py` wraps must exist in the package.

The trace launcher rebinds each `LAYER_FUNCTIONS` target and
`cli._run_one_scenario` at start-up; a renamed or deleted target would only
show as a failed `bench/run.py --trace 1` run, so this test resolves them.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"


def load_layertrace(monkeypatch):
    # read the launcher without writing its bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_trace_targets_resolve(monkeypatch):
    layertrace = load_layertrace(monkeypatch)
    missing = []
    for layer, (module_name, attr) in layertrace.LAYER_FUNCTIONS.items():
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(f"{layer}: {module_name}.{attr}")
    cli = importlib.import_module("editlift.cli")
    if not callable(getattr(cli, "_run_one_scenario", None)):
        missing.append("editlift.cli._run_one_scenario")
    assert not missing
