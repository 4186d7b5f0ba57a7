"""Command-line pipeline: ingest -> profile -> cluster -> clickbait -> estimate.

Every command is deterministic given its inputs and --seed, writes outputs
atomically, and follows one exit-code contract: 0 success, 1 runtime or data
error, 2 usage error. `_SETTINGS` declares every setting once; a command has
a flag for exactly the settings it reads, and each flag is also a key of the
JSON config file (--config or $EDITLIFT_CONFIG), which supplies defaults;
explicit flags win.

Each command imports the modules it uses when it runs, so `--help` and
`ingest` start without numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from . import corpus as corpus_mod

if TYPE_CHECKING:
    from . import causal

CONFIG_ENV_VAR = "EDITLIFT_CONFIG"


class UsageError(Exception):
    """Bad setting or missing configuration that should exit with status 2."""


class Setting(NamedTuple):
    kind: type | tuple[str, ...]  # int, float (finite), str (a path) or the allowed strings
    minimum: int | None
    default: object
    commands: tuple[str, ...]  # the commands that read it
    help: str  # of its flag


_READ_CORPUS = ("ingest", "profile", "cluster", "clickbait score", "estimate")
_WRITE_OUT = ("profile", "cluster", "clickbait train", "clickbait score", "estimate", "synth")

# every setting: a flag of each command that reads it, and a config key of
# the same name. `scenarios` (not a table setting) is a config key only;
# `ingest --out` is a flag only, since it names a report file where a shared
# config's `out` names the output directory. The four fields of
# `causal.CausalConfig` default to None, which keeps its defaults, read only
# when `estimate` runs
_SETTINGS = {
    "corpus": Setting(str, None, None, _READ_CORPUS, "paired corpus file"),
    "format": Setting(("jsonl", "csv"), None, "jsonl", _READ_CORPUS, "corpus file format"),
    "embeddings": Setting(str, None, None, ("profile", "estimate"), "word-vector text file"),
    "profiles": Setting(str, None, None, ("cluster", "clickbait score", "estimate"),
                        "profile CSV (default <out>/profiles.csv)"),
    "out": Setting(str, None, "editlift-out", _WRITE_OUT, "output directory"),
    "seed": Setting(int, 0, 0, ("cluster", "clickbait train", "estimate", "synth"),
                    "seed for every random choice"),
    "k": Setting(int, 1, None, ("cluster",), "cluster count (omit for elbow selection)"),
    "k_max": Setting(int, 2, 8, ("cluster",), "elbow search bound"),
    "train_data": Setting(str, None, None, ("clickbait train",), "labeled CSV text,label"),
    "model": Setting(str, None, None, ("clickbait train", "clickbait score"),
                     "model file (default <out>/clickbait_model.bin)"),
    "epochs": Setting(int, 1, 10, ("clickbait train",), "training epochs"),
    "knn": Setting(int, 1, None, ("estimate",), "matched controls per treatment unit"),
    "alpha": Setting(float, None, None, ("estimate",), "balance-gate sensitivity"),
    "tau": Setting(float, None, None, ("estimate",), "balance-gate floor"),
    "min_group": Setting(int, 0, None, ("estimate",), "minimum units per arm"),
    "jobs": Setting(int, 1, 1, ("estimate",), "scenarios to run concurrently"),
    "spec": Setting(str, None, None, ("synth",), "generator spec JSON (omit for the preset)"),
    "n_records": Setting(int, None, 5000, ("synth",), "records to generate"),
    "effect_likes": Setting(float, None, 0.0, ("synth",), "treated-likes effect in the preset"),
}


def _write_json(path: Path, payload) -> None:
    corpus_mod.write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_config(args) -> dict:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding=corpus_mod.TEXT_ENCODING))
    except ValueError as exc:  # a JSONDecodeError, or an integer too long for `int`
        raise ValueError(f"config file {p} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {p} must hold a JSON object")
    # a key that no command reads is a misspelling, not a default; a bad value
    # is reported even where a flag overrides it. `scenarios` is the one key
    # that is no table setting
    try:
        corpus_mod.reject_unknown_keys(cfg, [*_SETTINGS, "scenarios"], "config")
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    for name, value in cfg.items():
        if name in _SETTINGS and value is not None:
            _checked(name, value)
    return cfg


def _checked(name: str, value):
    """`value` of the setting `name`, checked against its _SETTINGS row;
    UsageError names the key. A bool, or a float with a fractional part where
    an integer is due, is rejected rather than coerced."""
    kind, minimum = _SETTINGS[name].kind, _SETTINGS[name].minimum
    if kind is str:
        if not isinstance(value, str):
            raise UsageError(f"{name} must be a path string, got {value!r}")
    elif isinstance(kind, tuple):
        if value not in kind:
            raise UsageError(f"{name} must be one of {', '.join(kind)}, got {value!r}")
    else:
        try:
            value = corpus_mod.json_value(value, kind, name)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        if minimum is not None and value < minimum:
            raise UsageError(f"{name} must be at least {minimum}, got {value}")
    return value


def _settings(args, cfg: dict, command: str) -> dict:
    """{name: value} of every setting `command` reads: its flag, else its
    config key, else its default; each value given is checked, so a bad one
    stops the command before it reads any input."""
    resolved = {}
    for name, row in _SETTINGS.items():
        if command in row.commands:
            value = getattr(args, name)
            if value is None:
                value = cfg.get(name)
            resolved[name] = row.default if value is None else _checked(name, value)
    return resolved


def _load_corpus(s: dict):
    if s["corpus"] is None:
        raise ValueError("no corpus given (use --corpus or the config file)")
    return corpus_mod.load_corpus(s["corpus"], s["format"])


def _load_table(s: dict):
    from . import embedding

    if s["embeddings"] is None:
        raise ValueError("no embedding table given (use --embeddings or the config file)")
    return embedding.load_table(s["embeddings"])


def _load_profiles(s: dict):
    """(path, table) of the profile CSV: `profiles`, else <out>/profiles.csv."""
    from . import textsim

    path = Path(s["profiles"] or Path(s["out"]) / "profiles.csv")
    if not path.is_file():
        raise ValueError(f"profile CSV not found: {path} (run `profile` first)")
    return path, textsim.profiles_from_csv(path)


def _model_path(s: dict) -> Path:
    return Path(s["model"] or Path(s["out"]) / "clickbait_model.bin")


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest(args) -> int:
    loaded = _load_corpus(_settings(args, _load_config(args), "ingest"))
    print(f"loaded {len(loaded)} records from {loaded.source_path} "
          f"({len(loaded.rejects)} rejected)")
    for reject in loaded.rejects:
        print(f"  line {reject.line_no}: {reject.reason}")
    if args.out:
        _write_json(Path(args.out), {
            "source": loaded.source_path,
            "records": len(loaded),
            "outlets": {o: len(rows) for o, rows in loaded.outlet_rows().items()},
            "rejects": [{"line": r.line_no, "reason": r.reason} for r in loaded.rejects],
        })
    return 0


def _distribution_stats(values) -> dict:
    import numpy as np

    arr = np.asarray(values, dtype=np.float64)
    q1, med, q3 = np.percentile(arr, [25, 50, 75])
    return {
        "mean": float(arr.mean()),
        "median": float(med),
        "q1": float(q1),
        "q3": float(q3),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }


def cmd_profile(args) -> int:
    from . import textsim

    s = _settings(args, _load_config(args), "profile")
    loaded = _load_corpus(s)
    profiles = textsim.profile(loaded, _load_table(s))
    out_dir = Path(s["out"])

    out_dir.mkdir(parents=True, exist_ok=True)
    textsim.profiles_to_csv(profiles, out_dir / "profiles.csv")

    # profile row i is corpus record i, so an outlet's positions select its rows
    outlet_rows = loaded.outlet_rows()
    summary = {"outlets": {}, "pairwise_tests": []}
    for outlet, rows in outlet_rows.items():
        summary["outlets"][outlet] = {
            "records": len(rows),
            "mirroring_fraction": int(profiles.mirrored[rows].sum()) / len(rows),
            "edit_distance": _distribution_stats(profiles.edit_distance[rows]),
            "embedding_similarity": _distribution_stats(profiles.embedding_similarity[rows]),
        }
    outlets = sorted(outlet_rows)
    for i, a in enumerate(outlets):
        for b in outlets[i + 1:]:
            for measure in ("edit_distance", "embedding_similarity"):
                column = getattr(profiles, measure)
                result = textsim.mann_whitney_u(column[outlet_rows[a]], column[outlet_rows[b]])
                summary["pairwise_tests"].append({
                    "outlet_a": a,
                    "outlet_b": b,
                    "measure": measure,
                    "u_statistic": result.statistic,
                    "p_value": result.p_value,
                })
    _write_json(out_dir / "profile_summary.json", summary)
    print(f"profiled {len(profiles)} records -> {out_dir / 'profiles.csv'}")
    return 0


def cmd_cluster(args) -> int:
    from . import cluster, textsim

    s = _settings(args, _load_config(args), "cluster")
    k, seed, out_dir = s["k"], s["seed"], Path(s["out"])
    profile_path, profiles = _load_profiles(s)
    loaded = _load_corpus(s)
    # a profile table that is not the corpus row for row stops the command
    # before any fit, with its outputs untouched
    profiles.check_rows(loaded)

    pts = cluster.profile_points(profiles)
    if k is None:
        fits: list[cluster.ClusterModel] = []
        k = cluster.elbow_select(pts, k_max=s["k_max"], seed=seed, fits=fits)
        fit = fits[k - 1]
        print(f"elbow selected k={k}")
    else:
        fit = cluster.best_fit(pts, k, seed)
    model, labels = cluster.fit_profiles(profiles, fit)

    profiles = replace(profiles, cluster=labels.astype(float))
    fractions = cluster.cluster_fractions(profiles, loaded, k=model.k)
    textsim.profiles_to_csv(profiles, profile_path)
    cluster.save_model(model, out_dir / "cluster_model.json")
    _write_json(out_dir / "cluster_fractions.json", fractions)
    print(f"k={model.k} inertia={model.inertia:.6f} -> {out_dir / 'cluster_model.json'}")
    return 0


def cmd_clickbait_train(args) -> int:
    from . import clickbait

    s = _settings(args, _load_config(args), "clickbait train")
    if s["train_data"] is None:
        raise ValueError("no training data given (use --train-data or the config file)")
    dataset = clickbait.load_labeled_csv(s["train_data"])
    model, f1 = clickbait.train(dataset, split_seed=s["seed"], epochs=s["epochs"])
    clickbait.save_model(model, _model_path(s))
    print(f"held-out F1: {f1:.4f}")
    print(f"model -> {_model_path(s)}")
    return 0


def cmd_clickbait_score(args) -> int:
    from . import clickbait, textsim

    s = _settings(args, _load_config(args), "clickbait score")
    model_path = _model_path(s)
    if not model_path.is_file():
        raise ValueError(f"clickbait model not found: {model_path} (train first)")
    profile_path, profiles = _load_profiles(s)
    loaded = _load_corpus(s)
    model = clickbait.load_model(model_path)
    profiles = clickbait.score_profiles(model, loaded, profiles)
    textsim.profiles_to_csv(profiles, profile_path)

    _write_json(Path(s["out"]) / "clickbait_shift.json",
                {outlet: clickbait.conditional_shift_table(profiles, rows)
                 for outlet, rows in loaded.outlet_rows().items()})
    print(f"scored {len(profiles)} records -> {profile_path}")
    return 0


# the unit table every scenario task of this process reads; set once per
# `estimate` command (in each `--jobs` worker by the pool initializer)
_UNITS: causal.UnitTable | None = None


def _init_worker(units: causal.UnitTable | None) -> None:
    global _UNITS
    _UNITS = units


def _run_one_scenario(payload):
    """The scenario's reports, or the ScenarioError that skips it."""
    from . import causal

    scenario, seed, run_cfg = payload
    try:
        return causal.run_scenario(_UNITS, scenario, seed=seed, config=run_cfg)
    except causal.ScenarioError as exc:
        return exc


def _pin_blas_threads(jobs: int) -> None:
    """With more than one worker, give each process one BLAS thread unless
    the user set the count: BLAS sizes its thread pool from these variables
    when numpy loads, and workers that each start a thread per core fight
    over the cores. Call before numpy is imported."""
    if jobs > 1:
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ.setdefault(name, "1")


def cmd_estimate(args) -> int:
    import csv
    import io

    cfg = _load_config(args)
    scenario_defs = cfg.get("scenarios", [])
    if not scenario_defs:
        raise UsageError("no scenarios configured (config key 'scenarios')")
    # every setting and scenario is checked before any input is read
    s = _settings(args, cfg, "estimate")
    _pin_blas_threads(s["jobs"])
    from . import causal

    run_cfg = causal.CausalConfig(**{f.name: s[f.name] for f in fields(causal.CausalConfig)
                                     if s[f.name] is not None})
    try:
        scenarios = corpus_mod.json_value(scenario_defs, tuple[causal.Scenario, ...],
                                          "scenarios")
        # the reports of two scenarios of one name could not be told apart
        names = set()
        for scenario in scenarios:
            if scenario.name in names:
                raise ValueError(f"duplicate scenario name {scenario.name!r}")
            names.add(scenario.name)
    except ValueError as exc:
        raise ValueError(f"bad scenario definition: {exc}") from None
    loaded = _load_corpus(s)
    table = _load_table(s)
    out_dir = Path(s["out"])
    _, profiles = _load_profiles(s)

    # one table for all scenarios: workers get it once, at pool start (forked
    # workers inherit it), so each task carries only its scenario and settings
    units = causal.build_unit_table(loaded, profiles, table,
                                    outlets={scenario.outlet for scenario in scenarios})
    tasks = [(scenario, s["seed"], run_cfg) for scenario in scenarios]
    # the pool forks all its workers at start, so a worker with no scenario
    # would only cost a fork
    workers = min(s["jobs"], len(tasks))
    if workers > 1:
        # loading multiprocessing costs start-up that --jobs 1 does not need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(units,)) as pool:
            results = list(pool.map(_run_one_scenario, tasks))
    else:
        _init_worker(units)
        try:
            results = list(map(_run_one_scenario, tasks))
        finally:
            _init_worker(None)

    reports = []
    skipped = []
    for scenario, result in zip(scenarios, results):
        if isinstance(result, causal.ScenarioError):
            print(f"warning: skipped scenario {scenario.name!r}: {result}", file=sys.stderr)
            skipped.append({"scenario": scenario.name, "reason": str(result)})
        else:
            reports.extend(result)

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "eate_reports.json", {
        "reports": [asdict(r) for r in reports],
        "skipped": skipped,
    })
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scenario", "metric", "mean_eate", "ci_low", "ci_high", "discarded",
                     "n_treatment", "n_control"]
                    + [f"fold_{i + 1}" for i in range(causal.N_FOLDS)])
    writer.writerows(
        [r.scenario, r.metric, repr(r.mean_eate), repr(r.ci_low), repr(r.ci_high),
         "true" if r.discarded else "false", r.n_treatment, r.n_control]
        + [repr(v) for v in r.fold_eates]
        for r in reports)
    corpus_mod.write_text_atomic(out_dir / "eate_reports.csv", buf.getvalue())
    print(f"{len(reports)} reports ({len(skipped)} scenarios skipped) -> {out_dir}")
    return 0


def cmd_synth(args) -> int:
    from . import embedding, synthbench

    s = _settings(args, _load_config(args), "synth")
    preset = ("n_records", "effect_likes", "seed")
    if s["spec"] is not None:
        # a spec sets what these flags set for the preset; a config's values
        # are defaults, so only a flag conflicts
        for name in preset:
            if getattr(args, name) is not None:
                raise UsageError(f"--{name.replace('_', '-')} applies to the preset only, "
                                 "not with a spec")
    try:
        if s["spec"] is None:
            spec = synthbench.confounded_spec(**{name: s[name] for name in preset})
        else:
            spec = synthbench.load_spec(s["spec"])
        generated, truth = synthbench.generate(spec)
    except (OSError, ValueError) as exc:
        raise ValueError(f"invalid synthetic spec: {exc}") from None

    out_dir = Path(s["out"])
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_mod.save_corpus(generated, out_dir / "corpus.jsonl")
    synthbench.save_truth(truth, out_dir / "truth.jsonl")
    table = synthbench.synthetic_table(spec, seed=spec.seed + 7919)
    embedding.save_table(table, out_dir / "vectors.txt")
    print(f"generated {len(generated)} records -> {out_dir / 'corpus.jsonl'}")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring


def _add_command(sub, name: str, func, help: str) -> argparse.ArgumentParser:
    """The subparser of `name` (its last word, under `sub`): a flag for each
    table setting `name` reads, typed by its row, and --config."""
    p = sub.add_parser(name.split()[-1], help=help)
    for setting, row in _SETTINGS.items():
        if name in row.commands:
            kind = {"choices": row.kind} if isinstance(row.kind, tuple) else {"type": row.kind}
            p.add_argument("--" + setting.replace("_", "-"), dest=setting, help=row.help, **kind)
    p.add_argument("--config", help=f"JSON config file (default ${CONFIG_ENV_VAR})")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="editlift",
        description="Headline-editing analytics and matched engagement-effect estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = _add_command(sub, "ingest", cmd_ingest, "validate a paired corpus file")
    # a report file, not the output directory, so a flag only
    p.add_argument("--out", help="JSON report file")
    _add_command(sub, "profile", cmd_profile, "edit-distance/similarity profiles and summaries")
    _add_command(sub, "cluster", cmd_cluster, "k-means++ editing-style clusters")
    actions = sub.add_parser("clickbait", help="train or apply the clickbait scorer")
    actions = actions.add_subparsers(dest="action", required=True)
    _add_command(actions, "clickbait train", cmd_clickbait_train,
                 "train the scorer on a labeled CSV")
    _add_command(actions, "clickbait score", cmd_clickbait_score,
                 "score each record's headline and post")
    _add_command(sub, "estimate", cmd_estimate, "run configured scenarios end to end")
    _add_command(sub, "synth", cmd_synth, "generate a synthetic benchmark corpus")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
