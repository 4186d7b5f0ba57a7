"""Command-line pipeline: ingest -> profile -> cluster -> clickbait -> estimate.

Every command is deterministic given its inputs and --seed, writes outputs
atomically, and follows one exit-code contract: 0 success, 1 runtime or data
error, 2 usage error. A JSON config file (--config or $EDITLIFT_CONFIG)
supplies defaults; explicit flags win.

Each command imports the modules it uses when it runs, so `--help` and
`ingest` start without numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import TYPE_CHECKING

from . import corpus as corpus_mod

if TYPE_CHECKING:
    from . import causal

CONFIG_ENV_VAR = "EDITLIFT_CONFIG"
# config keys naming a file or directory; `_load_config` checks that each is
# a string, so a command stops on a bad one before it reads any input
_PATH_KEYS = ("corpus", "embeddings", "out")


class CommandError(Exception):
    """Runtime failure that should exit with status 1."""


class UsageError(Exception):
    """Bad setting or missing configuration that should exit with status 2."""


def _write_json(path: Path, payload) -> None:
    corpus_mod.write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _load_config(args) -> dict:
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    p = Path(path)
    if not p.is_file():
        raise CommandError(f"config file not found: {p}")
    try:
        cfg = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise CommandError(f"config file {p} is not valid JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise CommandError(f"config file {p} must hold a JSON object")
    for key in _PATH_KEYS:
        if cfg.get(key) is not None and not isinstance(cfg[key], str):
            raise UsageError(f"{key} must be a path string, got {cfg[key]!r}")
    return cfg


def _setting(args, cfg: dict, name: str, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in cfg and cfg[name] is not None:
        return cfg[name]
    return default


# every numeric setting, each a flag (where one exists) and a config key of
# the same name (`k` is a flag only): (type, minimum, CausalConfig field);
# floats must be finite
_SETTINGS = {
    "seed": (int, 0, None),
    "k": (int, 1, None),
    "k_max": (int, 2, None),
    "epochs": (int, 1, None),
    "n_records": (int, None, None),
    "effect_likes": (float, None, None),
    "jobs": (int, 1, None),
    "knn": (int, 1, "knn"),
    "propensity_epochs": (int, 1, "epochs"),
    "min_group": (int, 0, "min_group"),
    "alpha": (float, None, "alpha"),
    "tau": (float, None, "tau"),
}


def _checked(name: str, value):
    """`value` of the setting `name`, checked against its _SETTINGS row;
    UsageError names the key. A bool, or a float with a fractional part where
    an integer is due, is rejected rather than coerced."""
    kind, minimum, _ = _SETTINGS[name]
    try:
        value = corpus_mod.json_value(value, kind, name)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if minimum is not None and value < minimum:
        raise UsageError(f"{name} must be at least {minimum}, got {value}")
    return value


def _checked_setting(args, cfg: dict, name: str, default):
    """`_setting` of one of _SETTINGS, checked."""
    return _checked(name, _setting(args, cfg, name, default))


def _load_inputs(args, cfg, need_embeddings=True):
    corpus_path = _setting(args, cfg, "corpus", None)
    if corpus_path is None:
        raise CommandError("no corpus given (use --corpus or the config file)")
    try:
        loaded = corpus_mod.load_corpus(corpus_path, getattr(args, "format", None) or "jsonl")
    except corpus_mod.CorpusError as exc:
        raise CommandError(str(exc)) from None
    table = None
    if need_embeddings:
        from . import embedding

        emb_path = _setting(args, cfg, "embeddings", None)
        if emb_path is None:
            raise CommandError("no embedding table given (use --embeddings or the config file)")
        try:
            table = embedding.load_table(emb_path)
        except (OSError, embedding.EmbeddingError) as exc:
            raise CommandError(str(exc)) from None
    return loaded, table


def _load_profiles(args, out_dir: Path):
    """(path, table) of the profile CSV: --profiles, else <out>/profiles.csv."""
    from . import textsim

    path = Path(getattr(args, "profiles", None) or out_dir / "profiles.csv")
    if not path.is_file():
        raise CommandError(f"profile CSV not found: {path} (run `profile` first)")
    return path, textsim.profiles_from_csv(path)


# ---------------------------------------------------------------------------
# Commands


def cmd_ingest(args) -> int:
    cfg = _load_config(args)
    loaded, _ = _load_inputs(args, cfg, need_embeddings=False)
    print(f"loaded {len(loaded)} records from {loaded.source_path} "
          f"({len(loaded.rejects)} rejected)")
    for reject in loaded.rejects:
        print(f"  line {reject.line_no}: {reject.reason}")
    out = getattr(args, "out", None)
    if out:
        _write_json(Path(out), {
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

    cfg = _load_config(args)
    loaded, table = _load_inputs(args, cfg)
    out_dir = Path(_setting(args, cfg, "out", "editlift-out"))
    profiles = textsim.profile(loaded, table)

    out_dir.mkdir(parents=True, exist_ok=True)
    tmp_csv = out_dir / "profiles.csv"
    textsim.profiles_to_csv(profiles, tmp_csv)

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

    cfg = _load_config(args)
    seed = _checked_setting(args, cfg, "seed", 0)
    k = getattr(args, "k", None)
    if k is None:
        k_max = _checked_setting(args, cfg, "k_max", 8)
    else:
        k = _checked("k", k)
    out_dir = Path(_setting(args, cfg, "out", "editlift-out"))
    profile_path, profiles = _load_profiles(args, out_dir)
    loaded, _ = _load_inputs(args, cfg, need_embeddings=False)
    # a profile table that is not the corpus row for row stops the command
    # before any fit, with its outputs untouched
    profiles.check_rows(loaded)

    pts = cluster.profile_points(profiles)
    fit = None
    if k is None:
        fits: list[cluster.ClusterModel] = []
        try:
            k = cluster.elbow_select(pts, k_max=k_max, seed=seed, fits=fits)
        except ValueError as exc:
            raise CommandError(str(exc)) from None
        fit = fits[k - 1]
        print(f"elbow selected k={k}")
    try:
        model, labels = cluster.fit_profiles(profiles, k=k, seed=seed, fit=fit)
    except ValueError as exc:
        raise CommandError(str(exc)) from None

    profiles = replace(profiles, cluster=labels.astype(float))
    fractions = cluster.cluster_fractions(profiles, loaded, k=model.k)
    textsim.profiles_to_csv(profiles, profile_path)
    cluster.save_model(model, out_dir / "cluster_model.json")
    _write_json(out_dir / "cluster_fractions.json", fractions)
    print(f"k={model.k} inertia={model.inertia:.6f} -> {out_dir / 'cluster_model.json'}")
    return 0


def cmd_clickbait(args) -> int:
    from . import clickbait

    cfg = _load_config(args)
    out_dir = Path(_setting(args, cfg, "out", "editlift-out"))
    seed = _checked_setting(args, cfg, "seed", 0)

    if args.action == "train":
        epochs = _checked_setting(args, cfg, "epochs", 10)
        data_path = getattr(args, "train_data", None)
        if data_path is None:
            raise CommandError("clickbait train needs --train-data CSV (text,label)")
        try:
            dataset = clickbait.load_labeled_csv(data_path)
            model, f1 = clickbait.train(dataset, split_seed=seed, epochs=epochs)
        except (OSError, ValueError) as exc:
            raise CommandError(str(exc)) from None
        out_dir.mkdir(parents=True, exist_ok=True)
        model_path = Path(getattr(args, "model", None) or out_dir / "clickbait_model.bin")
        clickbait.save_model(model, model_path)
        print(f"held-out F1: {f1:.4f}")
        print(f"model -> {model_path}")
        return 0

    # score
    from . import textsim

    model_path = getattr(args, "model", None) or out_dir / "clickbait_model.bin"
    if not Path(model_path).is_file():
        raise CommandError(f"clickbait model not found: {model_path} (train first)")
    profile_path, profiles = _load_profiles(args, out_dir)
    loaded, _ = _load_inputs(args, cfg, need_embeddings=False)
    model = clickbait.load_model(model_path)
    profiles = clickbait.score_profiles(model, loaded, profiles)
    textsim.profiles_to_csv(profiles, profile_path)

    tables = {}
    for outlet, rows in loaded.outlet_rows().items():
        shift = clickbait.conditional_shift_table(profiles, rows, outlet)
        tables[outlet] = {
            "p_nc_given_c": shift.p_nc_given_c,
            "p_c_given_nc": shift.p_c_given_nc,
            "n_headline_c": shift.n_headline_c,
            "n_headline_nc": shift.n_headline_nc,
        }
    _write_json(out_dir / "clickbait_shift.json", tables)
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


def cmd_estimate(args) -> int:
    import csv
    import io
    from concurrent.futures import ProcessPoolExecutor

    from . import causal

    cfg = _load_config(args)
    scenario_defs = cfg.get("scenarios", [])
    if not scenario_defs:
        raise UsageError("no scenarios configured (config key 'scenarios')")
    # every setting and scenario is checked before any input is read
    jobs = _checked_setting(args, cfg, "jobs", 1)
    seed = _checked_setting(args, cfg, "seed", 0)
    run_cfg = causal.CausalConfig(**{
        field: _checked_setting(args, cfg, name, getattr(causal.CausalConfig, field))
        for name, (_, _, field) in _SETTINGS.items() if field is not None
    })
    try:
        scenarios = [causal.Scenario.from_dict(d)
                     for d in corpus_mod.json_value(scenario_defs, list, "scenarios")]
    except (KeyError, ValueError) as exc:
        raise CommandError(f"bad scenario definition: {exc}") from None
    loaded, table = _load_inputs(args, cfg)
    out_dir = Path(_setting(args, cfg, "out", "editlift-out"))
    _, profiles = _load_profiles(args, out_dir)

    # one table for all scenarios: workers get it once, at pool start (forked
    # workers inherit it), so each task carries only its scenario and settings
    units = causal.build_unit_table(loaded, profiles, table,
                                    outlets={s.outlet for s in scenarios})
    tasks = [(s, seed, run_cfg) for s in scenarios]
    # the pool forks all its workers at start, so a worker with no scenario
    # would only cost a fork
    workers = min(jobs, len(tasks))
    if workers > 1:
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

    cfg = _load_config(args)
    out_dir = Path(_setting(args, cfg, "out", "editlift-out"))
    preset = None
    if not getattr(args, "spec", None):
        preset = {
            "n_records": _checked_setting(args, cfg, "n_records", 5000),
            "effect_likes": _checked_setting(args, cfg, "effect_likes", 0.0),
            "seed": _checked_setting(args, cfg, "seed", 0),
        }
    try:
        if preset is None:
            spec = synthbench.load_spec(args.spec)
        else:
            spec = synthbench.confounded_spec(**preset)
        generated, truth = synthbench.generate(spec)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise CommandError(f"invalid synthetic spec: {exc}") from None

    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_mod.save_corpus(generated, out_dir / "corpus.jsonl")
    synthbench.save_truth(truth, out_dir / "truth.jsonl")
    table = synthbench.synthetic_table(spec, seed=spec.seed + 7919)
    embedding.save_table(table, out_dir / "vectors.txt")
    print(f"generated {len(generated)} records -> {out_dir / 'corpus.jsonl'}")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring


def _add_common(parser, *, embeddings=False):
    parser.add_argument("--corpus", help="paired corpus file (JSONL unless --format csv)")
    parser.add_argument("--format", choices=["jsonl", "csv"], help="corpus file format")
    if embeddings:
        parser.add_argument("--embeddings", help="word-vector text file")
    parser.add_argument("--out", help="output directory (or file for `ingest`)")
    parser.add_argument("--seed", type=int, help="seed for every random choice")
    parser.add_argument("--config", help=f"JSON config file (default ${CONFIG_ENV_VAR})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="editlift",
        description="Headline-editing analytics and matched engagement-effect estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate a paired corpus file")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("profile", help="edit-distance/similarity profiles and summaries")
    _add_common(p, embeddings=True)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("cluster", help="k-means++ editing-style clusters")
    _add_common(p)
    p.add_argument("--profiles", help="profile CSV (default <out>/profiles.csv)")
    p.add_argument("--k", type=int, help="cluster count (omit for elbow selection)")
    p.add_argument("--k-max", dest="k_max", type=int, help="elbow search bound")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("clickbait", help="train or apply the clickbait scorer")
    p.add_argument("action", choices=["train", "score"])
    _add_common(p)
    p.add_argument("--train-data", dest="train_data", help="labeled CSV text,label")
    p.add_argument("--model", help="model file (output of train, input of score)")
    p.add_argument("--profiles", help="profile CSV (default <out>/profiles.csv)")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.set_defaults(func=cmd_clickbait)

    p = sub.add_parser("estimate", help="run configured scenarios end to end")
    _add_common(p, embeddings=True)
    p.add_argument("--profiles", help="profile CSV (default <out>/profiles.csv)")
    p.add_argument("--knn", type=int, help="matched controls per treatment unit")
    p.add_argument("--alpha", type=float, help="balance-gate sensitivity")
    p.add_argument("--tau", type=float, help="balance-gate floor")
    p.add_argument("--min-group", dest="min_group", type=int, help="minimum units per arm")
    p.add_argument("--jobs", type=int, help="scenarios to run concurrently")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("synth", help="generate a synthetic benchmark corpus")
    _add_common(p)
    p.add_argument("--spec", help="generator spec JSON (omit for the confounded preset)")
    p.add_argument("--n-records", dest="n_records", type=int, help="records to generate")
    p.add_argument("--effect-likes", dest="effect_likes", type=float,
                   help="additive treated-likes effect in the preset")
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CommandError, corpus_mod.CorpusError, ValueError, OSError,
            FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
