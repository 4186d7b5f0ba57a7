"""The names `bench/layertrace.py` wraps must exist in the package, with
the arguments its per-call counts read.

The trace launcher rebinds each `LAYER_FUNCTIONS` target and
`cli._run_one_scenario` at start-up; a renamed or deleted target would only
show as a failed `bench/run.py --trace 1` run, so this test resolves them.
"""

import importlib
import importlib.util
import inspect
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


# layer -> the leading positional parameters `layertrace._call_attrs` reads
# from `args`: a reordered signature would silently skew the per-layer counts
CALL_ATTR_PARAMETERS = {
    "causal.match": ("treatment_rows", "control_rows"),
    "embedding.embed_text": ("table", "text"),
    "clickbait.score_many": ("model", "texts"),
    "textsim.normalized_edit_distance": ("a", "b"),
}


def test_call_attr_positions_match_signatures(monkeypatch):
    layertrace = load_layertrace(monkeypatch)

    def parameters(layer):
        module_name, attr = layertrace.LAYER_FUNCTIONS[layer]
        target = getattr(importlib.import_module(module_name), attr)
        return list(inspect.signature(target).parameters.values())

    for layer, expected in CALL_ATTR_PARAMETERS.items():
        leading = parameters(layer)[:len(expected)]
        assert [p.name for p in leading] == list(expected), layer
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in leading), layer
    # the edit-distance counts take both arguments as the two strings compared
    assert [p.name for p in parameters("textsim.normalized_edit_distance")] == ["a", "b"]


def test_fold_step_calls_rebound_helpers(monkeypatch):
    # the tracer counts `causal.train_propensity` and `causal.match` by
    # rebinding them on the module; a fold step that bound either locally
    # would silently drop its calls from the per-layer counts
    from editlift import causal, synthbench, textsim

    calls = dict.fromkeys(("train_propensity", "match"), 0)

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(causal, name, counting(name, getattr(causal, name)))
    monkeypatch.setattr(causal, "PROPENSITY_EPOCHS", 1)
    spec = synthbench.confounded_spec(n_records=300, effect_likes=0.0, seed=1)
    corpus, _ = synthbench.generate(spec)
    table = synthbench.synthetic_table(spec, seed=999)
    units = causal.build_unit_table(corpus, textsim.profile(corpus, table), table,
                                    corpus.outlet_rows())
    scenario = causal.Scenario("s", "synthwire", causal.Selector("edited"),
                               causal.Selector("mirrored"))
    causal.run_scenario(units, scenario, seed=0)
    assert calls == {"train_propensity": causal.N_FOLDS, "match": causal.N_FOLDS}
