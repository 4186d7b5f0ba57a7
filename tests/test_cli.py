import argparse
import concurrent.futures
import csv
import dataclasses
import inspect
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from editlift import causal, cli
from editlift.cli import main

from conftest import record_row, write_jsonl

# a `python -m editlift.cli` subprocess finds the package through PYTHONPATH,
# whichever way pytest itself was started
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def make_corpus_file(tmp_path, n=6):
    rows = []
    for i in range(n):
        mirrored = i % 2 == 0
        rows.append(record_row(
            rid=f"r{i}",
            outlet=["alpha", "beta"][i % 2],
            headline="budget vote passes",
            post_text="budget vote passes" if mirrored else f"wow shocking story {i}",
        ))
    return write_jsonl(tmp_path / "corpus.jsonl", rows)


@pytest.fixture
def pipeline_dir(tmp_path, tiny_vectors):
    corpus = make_corpus_file(tmp_path)
    out = tmp_path / "out"
    return {"corpus": str(corpus), "vectors": str(tiny_vectors), "out": str(out)}


class TestIngest:
    def test_valid_file_exit_zero(self, pipeline_dir, capsys):
        code = main(["ingest", "--corpus", pipeline_dir["corpus"]])
        assert code == 0
        assert "6 records" in capsys.readouterr().out

    def test_missing_file_exit_one(self, tmp_path, capsys):
        code = main(["ingest", "--corpus", str(tmp_path / "nope.jsonl")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_flag_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["ingest", "--nonsense"])
        assert exc.value.code == 2

    def test_report_file(self, pipeline_dir, tmp_path):
        report = tmp_path / "report.json"
        main(["ingest", "--corpus", pipeline_dir["corpus"], "--out", str(report)])
        payload = json.loads(report.read_text())
        assert payload["records"] == 6
        assert payload["outlets"] == {"alpha": 3, "beta": 3}


class TestProfile:
    def test_writes_csv_and_summary(self, pipeline_dir):
        code = main(["profile", "--corpus", pipeline_dir["corpus"],
                     "--embeddings", pipeline_dir["vectors"],
                     "--out", pipeline_dir["out"]])
        assert code == 0
        out = pipeline_dir["out"]
        lines = open(os.path.join(out, "profiles.csv")).read().splitlines()
        assert len(lines) == 7  # header + 6 records
        summary = json.loads(open(os.path.join(out, "profile_summary.json")).read())
        assert set(summary["outlets"]) == {"alpha", "beta"}
        assert summary["outlets"]["alpha"]["mirroring_fraction"] == pytest.approx(1.0)
        # one outlet pair, two measures
        assert len(summary["pairwise_tests"]) == 2

    def test_byte_identical_rerun(self, pipeline_dir):
        args = ["profile", "--corpus", pipeline_dir["corpus"],
                "--embeddings", pipeline_dir["vectors"], "--out", pipeline_dir["out"]]
        main(args)
        first = open(os.path.join(pipeline_dir["out"], "profiles.csv"), "rb").read()
        first_sum = open(os.path.join(pipeline_dir["out"], "profile_summary.json"), "rb").read()
        main(args)
        assert open(os.path.join(pipeline_dir["out"], "profiles.csv"), "rb").read() == first
        assert open(os.path.join(pipeline_dir["out"], "profile_summary.json"), "rb").read() == first_sum

    def test_missing_embeddings_exit_one(self, pipeline_dir, capsys):
        code = main(["profile", "--corpus", pipeline_dir["corpus"],
                     "--embeddings", "/nonexistent/vectors.txt",
                     "--out", pipeline_dir["out"]])
        assert code == 1


class TestCluster:
    def test_fixed_k_pipeline(self, pipeline_dir):
        main(["profile", "--corpus", pipeline_dir["corpus"],
              "--embeddings", pipeline_dir["vectors"], "--out", pipeline_dir["out"]])
        code = main(["cluster", "--corpus", pipeline_dir["corpus"],
                     "--out", pipeline_dir["out"], "--k", "2", "--seed", "0"])
        assert code == 0
        model = json.loads(open(os.path.join(pipeline_dir["out"], "cluster_model.json")).read())
        assert model["k"] == 2
        fractions = json.loads(
            open(os.path.join(pipeline_dir["out"], "cluster_fractions.json")).read())
        for row in fractions.values():
            assert sum(row) == pytest.approx(1.0)
        csv_text = open(os.path.join(pipeline_dir["out"], "profiles.csv")).read()
        assert csv_text.splitlines()[1].split(",")[4] != ""  # cluster column filled

    def test_elbow_fit_reused(self, pipeline_dir, monkeypatch, tmp_path, capsys):
        from editlift import cluster

        main(["profile", "--corpus", pipeline_dir["corpus"],
              "--embeddings", pipeline_dir["vectors"], "--out", pipeline_dir["out"]])
        profiles = Path(pipeline_dir["out"], "profiles.csv").read_bytes()
        calls = []
        fit = cluster.kmeanspp_fit
        monkeypatch.setattr(cluster, "kmeanspp_fit", lambda *a: calls.append(a) or fit(*a))
        assert main(["cluster", "--corpus", pipeline_dir["corpus"],
                     "--out", pipeline_dir["out"], "--k-max", "3"]) == 0
        assert len(calls) == 3 * 10  # the elbow's fits only: the chosen k is not refit
        k = json.loads(Path(pipeline_dir["out"], "cluster_model.json").read_text())["k"]
        # the reused fit writes what a fresh fit at that k writes
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        (fresh / "profiles.csv").write_bytes(profiles)
        assert main(["cluster", "--corpus", pipeline_dir["corpus"],
                     "--out", str(fresh), "--k", str(k)]) == 0
        for name in ("cluster_model.json", "cluster_fractions.json", "profiles.csv"):
            assert (fresh / name).read_bytes() == Path(pipeline_dir["out"], name).read_bytes()

    def test_missing_profiles_exit_one(self, pipeline_dir, capsys):
        code = main(["cluster", "--corpus", pipeline_dir["corpus"],
                     "--out", pipeline_dir["out"], "--k", "2"])
        assert code == 1
        assert "profile" in capsys.readouterr().err


class TestProfileCorpusMismatch:
    """Profile row i must be corpus record i. A profile CSV that lacks a
    record, holds a foreign row or is out of order stops each command that
    reads both with exit 1 and one error line naming the record, and leaves
    every file as it was."""

    MISMATCHES = {
        "missing": "corpus record 'r5' has no profile row",
        "foreign": "profile row for record 'ghost' names no corpus record",
        "permuted": ("profile row 2 (record 'r2') is out of corpus order: "
                     "row i must be corpus record i"),
    }

    @pytest.fixture(params=sorted(MISMATCHES))
    def mismatch(self, request, pipeline_dir) -> tuple[Path, str]:
        """(profile CSV, expected error) after `profile` and one mismatch."""
        assert main(["profile", "--corpus", pipeline_dir["corpus"],
                     "--embeddings", pipeline_dir["vectors"], "--out", pipeline_dir["out"]]) == 0
        path = Path(pipeline_dir["out"], "profiles.csv")
        lines = path.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == [f"r{i}" for i in range(6)]
        if request.param == "missing":
            lines = lines[:-1]
        elif request.param == "foreign":
            lines.append("ghost,0.5,0.5,false,,,")
        else:
            lines[2], lines[3] = lines[3], lines[2]
        path.write_text("\n".join(lines) + "\n")
        return path, self.MISMATCHES[request.param]

    def assert_refused(self, capsys, mismatch, out: Path, argv) -> str:
        """Run `argv`, check the refusal, and return what it printed to stdout."""
        path, error = mismatch
        before = path.read_bytes()
        files = sorted(p.name for p in out.iterdir())
        capsys.readouterr()
        code = main(argv)
        printed, err = capsys.readouterr()
        assert code == 1
        assert err.splitlines() == [f"error: {error}"]
        assert "Traceback" not in err
        assert path.read_bytes() == before
        # no output written, cluster_model.json, clickbait_shift.json and
        # eate_reports.* among them
        assert sorted(p.name for p in out.iterdir()) == files
        return printed

    def test_cluster(self, pipeline_dir, mismatch, capsys):
        out = Path(pipeline_dir["out"])
        self.assert_refused(capsys, mismatch, out, ["cluster", "--corpus", pipeline_dir["corpus"],
                                                    "--out", str(out), "--k", "2"])

    def test_cluster_refuses_before_elbow_fit(self, pipeline_dir, mismatch, capsys):
        out = Path(pipeline_dir["out"])
        printed = self.assert_refused(capsys, mismatch, out, [
            "cluster", "--corpus", pipeline_dir["corpus"], "--out", str(out), "--k-max", "3"])
        assert "elbow selected" not in printed

    def test_clickbait_score(self, pipeline_dir, mismatch, capsys):
        from editlift import clickbait as cb
        from editlift.nn import SequenceClassifier

        network = SequenceClassifier(vocab_size=3, embed_size=2, hidden_size=3, seed=0)
        out = Path(pipeline_dir["out"])
        cb.save_model(cb.ClickbaitModel(network=network, token_ids={"budget": 1, "vote": 2}),
                      out / "clickbait_model.bin")
        self.assert_refused(capsys, mismatch, out, ["clickbait", "score", "--corpus",
                                                    pipeline_dir["corpus"], "--out", str(out)])

    def test_estimate(self, pipeline_dir, mismatch, capsys, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenarios": [
            {"name": "s", "outlet": "alpha",
             "treatment": {"kind": "edited"}, "control": {"kind": "mirrored"}}]}))
        out = Path(pipeline_dir["out"])
        self.assert_refused(capsys, mismatch, out, [
            "estimate", "--corpus", pipeline_dir["corpus"], "--embeddings",
            pipeline_dir["vectors"], "--out", str(out), "--config", str(cfg)])


class TestSynthCommand:
    def test_generates_corpus_truth_vectors(self, tmp_path):
        out = tmp_path / "synthout"
        code = main(["synth", "--n-records", "100", "--seed", "3", "--out", str(out)])
        assert code == 0
        assert (out / "corpus.jsonl").is_file()
        assert (out / "truth.jsonl").is_file()
        assert (out / "vectors.txt").is_file()
        assert len((out / "corpus.jsonl").read_text().splitlines()) == 100

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            main(["synth", "--n-records", "80", "--seed", "9", "--out", str(out)])
        for name in ("corpus.jsonl", "truth.jsonl", "vectors.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_invalid_spec_exit_one(self, tmp_path, capsys):
        topic = {"topic_id": "a", "vocabulary": ["a1"],
                 "base_means": {"replies": 1, "retweets": 2, "likes": 5}}
        valid = {"n_records": 60, "topics": [topic], "treatment_rule": {"a": 0.5}}
        # (spec, what the error names); the first fails validation, the
        # next are values of the wrong JSON type, and the last keys that
        # name no field, metric or topic, whose values would be dropped
        cases = [
            ({"n_records": 10, "topics": [], "treatment_rule": {}}, "n_records"),
            ({**valid, "topics": 5}, "topics must be a JSON list, got 5"),
            ([valid], "the spec must be a JSON object"),
            ({**valid, "true_effect": [1]}, "true_effect must be a JSON object, got [1]"),
            ({**valid, "topics": [{**topic, "vocabulary": "a1"}]}, "vocabulary must be"),
            ({**valid, "n_records": [60]}, "n_records must be an integer, got [60]"),
            ({**valid, "n_records": "60"}, "n_records must be an integer, got '60'"),
            ({**valid, "n_records": 60.9}, "n_records must be an integer, got 60.9"),
            ({**valid, "seed": True}, "seed must be an integer, got True"),
            ({**valid, "dispersion": "0.5"}, "dispersion must be a finite number, got '0.5'"),
            ({**valid, "topics": [{**topic, "base_means": {"likes": "nan"}}]},
             "base_means['likes'] must be a finite number, got 'nan'"),
            ({**valid, "outlet": 5}, "outlet must be a string, got 5"),
            ({**valid, "dispersal": 0.5}, "unknown spec key(s): 'dispersal'"),
            ({**valid, "topics": [{**topic, "famly": "f"}]}, "unknown topic key(s): 'famly'"),
            ({**valid, "true_effect": {"like": 50}}, "unknown true_effect key(s): 'like'"),
            ({**valid, "treatment_rule": {"a": 0.5, "c": 0.5}},
             "unknown treatment_rule key(s): 'c'"),
            ({**valid, "topics": [{**topic, "base_means": {**topic["base_means"], "like": 5}}]},
             "unknown topic 'a' base_means key(s): 'like'"),
            # a required key left out is named, not shown as a bare repr
            ({"n_records": 60}, "missing spec key(s): 'topics', 'treatment_rule'"),
            ({**valid, "topics": [{"topic_id": "a", "base_means": topic["base_means"]}]},
             "missing topic key(s): 'vocabulary'"),
        ]
        spec = tmp_path / "spec.json"
        for payload, named in cases:
            spec.write_text(json.dumps(payload))
            code = main(["synth", "--spec", str(spec), "--out", str(tmp_path / "o")])
            err = capsys.readouterr().err
            assert code == 1, payload
            assert err.startswith("error: invalid synthetic spec: ") and named in err, err
            assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_custom_spec_file(self, tmp_path):
        spec = {
            "n_records": 60,
            "topics": [
                {"topic_id": "a", "vocabulary": ["a1", "a2", "a3"],
                 "base_means": {"replies": 1, "retweets": 2, "likes": 5}},
                {"topic_id": "b", "vocabulary": ["b1", "b2", "b3"],
                 "base_means": {"replies": 1, "retweets": 2, "likes": 9}},
            ],
            "treatment_rule": {"a": 0.5, "b": 0.5},
            "seed": 1,
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main(["synth", "--spec", str(path), "--out", str(tmp_path / "o")])
        assert code == 0


class TestClickbaitCommand:
    def test_train_then_score(self, pipeline_dir, tmp_path, capsys):
        from editlift import clickbait as cb
        data = cb.synthetic_headlines(200, seed=0)
        train_csv = tmp_path / "train.csv"
        with open(train_csv, "w", encoding="utf-8") as fh:
            fh.write("text,label\n")
            for ex in data:
                fh.write(f"{ex.text},{ex.label}\n")

        code = main(["clickbait", "train", "--train-data", str(train_csv),
                     "--out", pipeline_dir["out"], "--seed", "0", "--epochs", "6"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "F1" in printed

        main(["profile", "--corpus", pipeline_dir["corpus"],
              "--embeddings", pipeline_dir["vectors"], "--out", pipeline_dir["out"]])
        code = main(["clickbait", "score", "--corpus", pipeline_dir["corpus"],
                     "--out", pipeline_dir["out"]])
        assert code == 0
        shift = json.loads(open(os.path.join(pipeline_dir["out"], "clickbait_shift.json")).read())
        assert set(shift) == {"alpha", "beta"}
        header, first_row = open(
            os.path.join(pipeline_dir["out"], "profiles.csv")).read().splitlines()[:2]
        assert first_row.split(",")[5] != ""  # headline_clickbait filled

    def test_score_without_model_exit_one(self, pipeline_dir, capsys):
        code = main(["clickbait", "score", "--corpus", pipeline_dir["corpus"],
                     "--out", pipeline_dir["out"]])
        assert code == 1
        assert "model" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["short_header", "no_arrays", "truncated_data",
                                      "foreign_threshold", "foreign_attention_size",
                                      "per_gate_layout"])
    def test_malformed_model_exit_one(self, pipeline_dir, tmp_path, capsys, case):
        import struct

        import numpy as np

        from editlift import clickbait as cb
        from editlift.nn import SequenceClassifier, load_params, params_to_bytes

        assert main(["profile", "--corpus", pipeline_dir["corpus"],
                     "--embeddings", pipeline_dir["vectors"], "--out", pipeline_dir["out"]]) == 0
        model_path = Path(pipeline_dir["out"]) / "clickbait_model.bin"
        if case == "short_header":
            blob = b"ELNN\x07\x00"
        elif case == "no_arrays":
            header = json.dumps({"meta": {"kind": "clickbait"}}).encode()
            blob = b"ELNN" + struct.pack("<I", len(header)) + header
        else:
            network = SequenceClassifier(vocab_size=3, embed_size=2, hidden_size=3, seed=0)
            cb.save_model(cb.ClickbaitModel(network=network, token_ids={"a": 1, "b": 2}),
                          tmp_path / "whole.bin")
            blob = (tmp_path / "whole.bin").read_bytes()[:-12]
            # a whole model file, made for another C/NC threshold or with an
            # attention width other than the GRU's
            foreign = {"foreign_threshold": {"threshold": 0.25},
                       "foreign_attention_size": {"attention_size": 2}}.get(case)
            if foreign:
                meta, params = load_params(tmp_path / "whole.bin")
                blob = params_to_bytes(params, {**meta, **foreign})
            if case == "per_gate_layout":
                # the 24-array layout of files written before the GRU stored
                # its gates fused: f_wz, f_wr, ..., b_bc
                meta, params = load_params(tmp_path / "whole.bin")
                old = {k: v for k, v in params.items() if k[:2] not in ("f_", "b_")}
                for prefix in ("f_", "b_"):
                    for kind in "wub":
                        parts = np.split(params[prefix + kind], 3, axis=-1)
                        old.update({prefix + kind + g: a for g, a in zip("zrc", parts)})
                assert len(old) == 24
                blob = params_to_bytes(old, meta)
        model_path.write_bytes(blob)
        capsys.readouterr()
        code = main(["clickbait", "score", "--corpus", pipeline_dir["corpus"],
                     "--out", pipeline_dir["out"]])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"error: {model_path}: ")
        assert "Traceback" not in err
        if case == "foreign_threshold":
            assert "threshold 0.25" in err
        if case == "foreign_attention_size":
            assert "attention_size 2, expected 3" in err
        if case == "per_gate_layout":
            assert "model file lacks 'f_w'" in err

    def test_diverging_training_exit_one(self, tmp_path, monkeypatch, capsys):
        def diverge(args):
            raise FloatingPointError("non-finite gradient for parameter 'w'")

        monkeypatch.setattr(cli, "cmd_clickbait_train", diverge)
        code = main(["clickbait", "train", "--train-data", str(tmp_path / "x.csv"),
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite gradient")
        assert "Traceback" not in err


class TestAtomicWrites:
    def test_failed_rewrite_leaves_profiles_intact(self, pipeline_dir, monkeypatch, capsys):
        assert main(["profile", "--corpus", pipeline_dir["corpus"],
                     "--embeddings", pipeline_dir["vectors"],
                     "--out", pipeline_dir["out"]]) == 0
        out = Path(pipeline_dir["out"])
        before = (out / "profiles.csv").read_bytes()

        def fail_replace(src, dst):
            raise OSError("disk full")

        # `cluster` rewrites profiles.csv in place with cluster labels; the
        # rename of the finished temporary file is what fails
        monkeypatch.setattr(os, "replace", fail_replace)
        code = main(["cluster", "--corpus", pipeline_dir["corpus"], "--k", "2",
                     "--out", pipeline_dir["out"]])
        assert code == 1
        assert "disk full" in capsys.readouterr().err
        assert (out / "profiles.csv").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["profile_summary.json",
                                                         "profiles.csv"]


class TestEstimateCommand:
    def test_config_fields_are_the_settings_table_fields(self):
        # `estimate` builds CausalConfig from its settings by name
        for field in dataclasses.fields(causal.CausalConfig):
            assert "estimate" in cli._SETTINGS[field.name].commands, field.name

    def test_no_scenarios_exit_two(self, pipeline_dir, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenarios": []}))
        code = main(["estimate", "--corpus", pipeline_dir["corpus"],
                     "--embeddings", pipeline_dir["vectors"],
                     "--out", pipeline_dir["out"], "--config", str(cfg)])
        assert code == 2

    def test_undersized_scenario_skipped_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "o"
        main(["synth", "--n-records", "100", "--seed", "1", "--out", str(out)])
        main(["profile", "--corpus", str(out / "corpus.jsonl"),
              "--embeddings", str(out / "vectors.txt"), "--out", str(out)])
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenarios": [{
            "name": "too-small", "outlet": "synthwire",
            "treatment": {"kind": "edited"}, "control": {"kind": "mirrored"},
        }], "min_group": 10_000}))
        code = main(["estimate", "--corpus", str(out / "corpus.jsonl"),
                     "--embeddings", str(out / "vectors.txt"),
                     "--out", str(out), "--config", str(cfg)])
        assert code == 0
        assert "skipped" in capsys.readouterr().err
        payload = json.loads(open(out / "eate_reports.json").read())
        assert payload["reports"] == []
        assert payload["skipped"][0]["scenario"] == "too-small"

    def test_null_corpus_writes_discarded_report(self, tmp_path, capsys):
        scenario = 'edited, vs "mirrored"'  # its CSV cell must be quoted
        out = tmp_path / "o"
        assert main(["synth", "--n-records", "600", "--seed", "0", "--out", str(out)]) == 0
        assert main(["profile", "--corpus", str(out / "corpus.jsonl"),
                     "--embeddings", str(out / "vectors.txt"), "--out", str(out)]) == 0
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenarios": [{
            "name": scenario, "outlet": "synthwire",
            "treatment": {"kind": "edited"}, "control": {"kind": "mirrored"},
        }]}))
        proc = subprocess.run(
            [sys.executable, "-m", "editlift.cli", "estimate",
             "--corpus", str(out / "corpus.jsonl"), "--embeddings", str(out / "vectors.txt"),
             "--out", str(out), "--config", str(cfg)],
            capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        payload = json.loads(open(out / "eate_reports.json").read())
        assert len(payload["reports"]) == 3
        assert any(r["discarded"] is True for r in payload["reports"])
        with open(out / "eate_reports.csv", encoding="utf-8", newline="") as fh:
            columns, *rows = csv.reader(fh)
        assert len(columns) == 8 + causal.N_FOLDS
        assert len(rows) == 3
        for row in rows:
            assert len(row) == len(columns)
            cells = dict(zip(columns, row))
            assert cells["scenario"] == scenario
            for name in ("mean_eate", "ci_low", "ci_high"):
                float(cells[name])

    @pytest.mark.parametrize("name", ["knn", "jobs"])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_knn_and_jobs_below_one_exit_two(self, tmp_path, capsys, name, route):
        config = {"scenarios": [{
            "name": "s", "outlet": "synthwire",
            "treatment": {"kind": "edited"}, "control": {"kind": "mirrored"},
        }]}
        flags = []
        if route == "flag":
            flags = [f"--{name}", "0"]
        else:
            config[name] = 0
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        # the inputs do not exist: loading them would exit 1, so exit 2 shows
        # the setting was checked first
        code = main(["estimate", "--corpus", str(tmp_path / "missing.jsonl"),
                     "--embeddings", str(tmp_path / "missing.txt"),
                     "--out", str(tmp_path / "o"), "--config", str(cfg), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be at least 1, got 0")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("route, name, value, error", [
        ("config", "jobs", "two", "jobs must be an integer, got 'two'"),
        ("config", "jobs", 2.5, "jobs must be an integer, got 2.5"),
        ("config", "knn", 2.7, "knn must be an integer, got 2.7"),
        ("config", "knn", True, "knn must be an integer, got True"),
        # the propensity schedule is fixed, since its batch size and learning
        # rate were chosen at its epoch count: any value is an unknown key
        ("config", "propensity_epochs", 0, "unknown config key(s): 'propensity_epochs'"),
        ("config", "propensity_epochs", "3", "unknown config key(s): 'propensity_epochs'"),
        ("config", "min_group", -1, "min_group must be at least 0, got -1"),
        ("config", "min_group", 1.5, "min_group must be an integer, got 1.5"),
        ("config", "alpha", float("nan"), "alpha must be a finite number, got nan"),
        ("config", "alpha", False, "alpha must be a finite number, got False"),
        ("config", "tau", "0.8", "tau must be a finite number, got '0.8'"),
        ("flag", "tau", "inf", "tau must be a finite number, got inf"),
        ("flag", "alpha", "-nan", "alpha must be a finite number, got nan"),
        ("flag", "min-group", "-1", "min_group must be at least 0, got -1"),
        ("flag", "knn", "-3", "knn must be at least 1, got -3"),
        ("config", "seed", "two", "seed must be an integer, got 'two'"),
        ("flag", "seed", "-1", "seed must be at least 0, got -1"),
        # other commands: the route names the command first
        ("cluster config", "k_max", 2.9, "k_max must be an integer, got 2.9"),
        ("cluster config", "seed", 1.5, "seed must be an integer, got 1.5"),
        ("cluster flag", "k", "0", "k must be at least 1, got 0"),
        ("cluster flag", "k-max", "1", "k_max must be at least 2, got 1"),
        ("clickbait train flag", "epochs", "0", "epochs must be at least 1, got 0"),
        ("clickbait train config", "epochs", 2.5, "epochs must be an integer, got 2.5"),
        ("synth config", "seed", True, "seed must be an integer, got True"),
        ("synth config", "n_records", "many", "n_records must be an integer, got 'many'"),
        ("synth flag", "effect-likes", "nan", "effect_likes must be a finite number, got nan"),
        # path keys must be strings
        ("profile config", "out", 5, "out must be a path string, got 5"),
        ("ingest config", "corpus", ["a"], "corpus must be a path string, got ['a']"),
        ("config", "embeddings", {"a": 1}, "embeddings must be a path string, got {'a': 1}"),
        ("config", "out", True, "out must be a path string, got True"),
        # the scenarios are parsed before any input is read (exit 1)
        ("config", "scenarios", "x",
         "bad scenario definition: scenarios must be a JSON list, got 'x'"),
        ("config", "scenarios", [1],
         "bad scenario definition: scenario must be a JSON object, got 1"),
        ("config", "scenarios", [{"name": "s", "outlet": "synthwire", "treatment": "edited",
                                  "control": {"kind": "mirrored"}}],
         "bad scenario definition: selector must be a JSON object, got 'edited'"),
        ("config", "scenarios", [{"name": "s", "outlet": "synthwire",
                                  "treatment": {"kind": "shift", "headline": "c", "post": "C"},
                                  "control": {"kind": "mirrored"}}],
         'bad scenario definition: shift headline class must be "C" or "NC", got \'c\''),
        ("config", "scenarios", [{"name": "s", "outlet": "synthwire",
                                  "treatment": {"kind": "shift", "headline": "NC", "post": 1},
                                  "control": {"kind": "mirrored"}}],
         'bad scenario definition: shift post class must be "C" or "NC", got 1'),
        ("config", "scenarios", [{"name": "s", "outlet": "synthwire", "exclude_mirrored": "false",
                                  "treatment": {"kind": "edited"},
                                  "control": {"kind": "mirrored"}}],
         "bad scenario definition: exclude_mirrored must be true or false, got 'false'"),
        ("config", "scenarios", [{"name": "s", "outlet": "synthwire",
                                  "treatment": {"kind": "cluster", "cluster": True},
                                  "control": {"kind": "mirrored"}}],
         "bad scenario definition: bad cluster index True"),
        ("config", "scenarios", [{"name": "s", "outlet": "synthwire",
                                  "treatment": {"kind": "cluster", "cluster": "2"},
                                  "control": {"kind": "mirrored"}}],
         "bad scenario definition: bad cluster index '2'"),
        ("config", "scenarios", [{"name": "s", "outlet": "synthwire",
                                  "treatment": {"kind": "cluster", "cluster": 2.7},
                                  "control": {"kind": "mirrored"}}],
         "bad scenario definition: bad cluster index 2.7"),
        ("config", "scenarios", [{"name": "s", "outlet": "synthwire",
                                  "treatment": {"kind": "cluster", "cluster": -1},
                                  "control": {"kind": "mirrored"}}],
         "bad scenario definition: bad cluster index -1"),
        # accepted: an integral float, zero minimum group, a negative alpha
        ("config", "knn", 5.0, None),
        ("config", "min_group", 0, None),
        ("flag", "alpha", "-0.5", None),
        ("config", "seed", 7, None),
        ("cluster config", "k_max", 3.0, None),
        ("cluster flag", "k", "2", None),
        ("clickbait train config", "epochs", 2.0, None),
        ("config", "scenarios", [{"name": "s", "outlet": "synthwire", "exclude_mirrored": False,
                                  "treatment": {"kind": "cluster", "cluster": 0},
                                  "control": {"kind": "shift", "headline": "NC",
                                              "post": "C"}}], None),
        # a null name would reach the report files, and a null outlet select nothing
        ("config", "scenarios", [{"name": None, "outlet": "synthwire",
                                  "treatment": {"kind": "edited"},
                                  "control": {"kind": "mirrored"}}],
         "bad scenario definition: name must be a string, got None"),
        ("config", "scenarios", [{"name": "s", "outlet": None,
                                  "treatment": {"kind": "edited"},
                                  "control": {"kind": "mirrored"}}],
         "bad scenario definition: outlet must be a string, got None"),
        # a key that no command reads
        ("config", "knnn", 7, "unknown config key(s): 'knnn'"),
        ("cluster config", "kmax", 3, "unknown config key(s): 'kmax'"),
        ("cluster config", "k", 0, "k must be at least 1, got 0"),
        ("cluster config", "format", "xml", "format must be one of jsonl, csv, got 'xml'"),
        # a misspelt or foreign scenario or selector key would drop a filter unseen
        ("config", "scenarios", [{"name": "s", "outlet": "synthwire", "sectoin": "politics",
                                  "treatment": {"kind": "edited"},
                                  "control": {"kind": "mirrored"}}],
         "bad scenario definition: unknown scenario key(s): 'sectoin'"),
        ("config", "scenarios", [{"name": "s", "outlet": "synthwire",
                                  "treatment": {"kind": "edited", "cluster": 2},
                                  "control": {"kind": "mirrored"}}],
         "bad scenario definition: unknown edited selector key(s): 'cluster'"),
        ("config", "scenarios", [{"name": "s", "outlet": "synthwire",
                                  "treatment": {"kind": "cluster", "cluster": 1},
                                  "control": {"kind": "shift", "headline": "C", "post": "NC",
                                              "cluster": 0, "Post": "C"}}],
         "bad scenario definition: unknown shift selector key(s): 'Post', 'cluster'"),
        # the reports of two scenarios of one name cannot be told apart
        ("config", "scenarios", [{"name": name, "outlet": "synthwire",
                                  "treatment": {"kind": "edited"},
                                  "control": {"kind": "mirrored"}} for name in "aba"],
         "bad scenario definition: duplicate scenario name 'a'"),
        # a required scenario or selector key left out is named
        ("config", "scenarios", [{"name": "s", "outlet": "synthwire",
                                  "control": {"kind": "mirrored"}}],
         "bad scenario definition: missing scenario key(s): 'treatment'"),
        ("config", "scenarios", [{"name": "s", "outlet": "synthwire",
                                  "treatment": {"kind": "cluster"},
                                  "control": {"kind": "mirrored"}}],
         "bad scenario definition: missing cluster selector key(s): 'cluster'"),
        ("config", "scenarios", [{"name": "s", "outlet": "synthwire",
                                  "treatment": {"kind": "edited"},
                                  "control": {"kind": "shift", "post": "C"}}],
         "bad scenario definition: missing shift selector key(s): 'headline'"),
    ])
    def test_settings_checked_before_inputs(self, tmp_path, capsys, route, name, value, error):
        *command, route = route.split()
        command = " ".join(command) or "estimate"
        missing_inputs = {
            "estimate": ["--corpus", str(tmp_path / "missing.jsonl"),
                         "--embeddings", str(tmp_path / "missing.txt")],
            "profile": ["--corpus", str(tmp_path / "missing.jsonl"),
                        "--embeddings", str(tmp_path / "missing.txt")],
            "ingest": ["--corpus", str(tmp_path / "missing.jsonl")],
            "cluster": ["--corpus", str(tmp_path / "missing.jsonl"),
                        "--profiles", str(tmp_path / "missing.csv")],
            "clickbait train": ["--train-data", str(tmp_path / "missing.csv")],
            "synth": [],  # the preset reads no input
        }[command]
        config = {"scenarios": [{
            "name": "s", "outlet": "synthwire",
            "treatment": {"kind": "edited"}, "control": {"kind": "mirrored"},
        }]}
        flags = [f"--{name}={value}"] if route == "flag" else []
        if route == "config":
            config[name] = value
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))  # NaN is written as the JSON extension NaN
        code = main([*command.split(), *missing_inputs,
                     "--out", str(tmp_path / "o"), "--config", str(cfg), *flags])
        err = capsys.readouterr().err
        if error is None:
            # the settings passed, so a missing input is what stops the run
            assert code == 1 and "missing." in err
        else:
            assert code == (1 if error.startswith("bad scenario") else 2)
            assert err == f"error: {error}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [
        "ingest", "profile", "cluster", "clickbait train", "clickbait score", "estimate",
        "synth"])
    def test_badly_typed_config_values_never_raise(self, tmp_path, tiny_vectors, capsys,
                                                   command):
        from editlift import clickbait as cb

        # real inputs, so every command runs to its end, and an `out` under a
        # regular file, so its first write fails (exit 1) where nothing else does
        corpus = make_corpus_file(tmp_path, n=12)
        work = tmp_path / "work"
        train_csv = tmp_path / "train.csv"
        train_csv.write_text("text,label\n" + "".join(
            f"{ex.text},{ex.label}\n" for ex in cb.synthetic_headlines(40, seed=0)))
        assert main(["profile", "--corpus", str(corpus), "--embeddings", str(tiny_vectors),
                     "--out", str(work)]) == 0
        assert main(["clickbait", "train", "--train-data", str(train_csv), "--epochs", "1",
                     "--out", str(work)]) == 0
        (tmp_path / "file").write_text("")
        blocked = str(tmp_path / "file" / "o")
        profiles = ["--profiles", str(work / "profiles.csv")]
        argv = {
            "ingest": ["--out", blocked],  # `ingest` reads `out` from its flag only
            "clickbait train": ["--train-data", str(train_csv)],
            "clickbait score": [*profiles, "--model", str(work / "clickbait_model.bin")],
            "cluster": profiles,
            "estimate": profiles,
        }.get(command, [])
        base = {"corpus": str(corpus), "embeddings": str(tiny_vectors), "out": blocked,
                "n_records": 20, "k_max": 3, "epochs": 1,
                "scenarios": [{"name": "s", "outlet": "alpha", "treatment": {"kind": "edited"},
                               "control": {"kind": "mirrored"}}]}
        capsys.readouterr()
        # every config key a command can read, given each JSON type it must not have
        wrong = {"list": [1], "object": {"a": 1}, "bool": True, "number": 3, "string": "x"}
        right = {**{name: "number" if row.kind in (int, float) else "string"
                    for name, row in cli._SETTINGS.items()},
                 "scenarios": "list"}
        cfg = tmp_path / "config.json"
        for name, right_type in right.items():
            for value in (v for t, v in wrong.items() if t != right_type):
                cfg.write_text(json.dumps({**base, name: value}))
                code = main([*command.split(), *argv, "--config", str(cfg)])
                err = capsys.readouterr().err
                assert code in (1, 2), (name, value, err)
                assert err.splitlines()[-1].startswith("error: "), (name, value, err)

    def test_jobs_two_matches_jobs_one(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "o"
        assert main(["synth", "--n-records", "300", "--seed", "2", "--out", str(out)]) == 0
        assert main(["profile", "--corpus", str(out / "corpus.jsonl"),
                     "--embeddings", str(out / "vectors.txt"), "--out", str(out)]) == 0
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenarios": [
            {"name": "edited-vs-mirrored", "outlet": "synthwire",
             "treatment": {"kind": "edited"}, "control": {"kind": "mirrored"}},
            {"name": "entertainment-B3", "outlet": "synthwire",
             "section": "entertainment", "time_block": "B3",
             "treatment": {"kind": "edited"}, "control": {"kind": "mirrored"}},
            {"name": "politics", "outlet": "synthwire", "section": "politics",
             "treatment": {"kind": "mirrored"}, "control": {"kind": "edited"}},
        ], "min_group": 20}))
        # forked workers inherit the shortened schedule
        monkeypatch.setattr(causal, "PROPENSITY_EPOCHS", 1)

        submitted = []
        pool_sizes = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.initargs = kwargs["initargs"]
                pool_sizes.append(kwargs["max_workers"])

            def submit(self, fn, *args):
                submitted.append((self.initargs, args))
                return super().submit(fn, *args)

        # `estimate` imports the pool class when it runs
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        outputs = {}
        for jobs in ("1", "2", "8"):
            run_out = tmp_path / f"jobs{jobs}"
            code = main(["estimate", "--corpus", str(out / "corpus.jsonl"),
                         "--embeddings", str(out / "vectors.txt"),
                         "--profiles", str(out / "profiles.csv"),
                         "--out", str(run_out), "--config", str(cfg), "--jobs", jobs])
            assert code == 0
            outputs[jobs] = {name: (run_out / name).read_bytes()
                             for name in ("eate_reports.json", "eate_reports.csv")}
        assert outputs["2"] == outputs["1"]
        assert outputs["8"] == outputs["1"]
        payload = json.loads(outputs["2"]["eate_reports.json"])
        assert [s["scenario"] for s in payload["skipped"]] == ["entertainment-B3"]
        assert len(payload["reports"]) == 6

        # --jobs 1 runs no pool, and --jobs 8 starts one worker per scenario
        assert pool_sizes == [2, 3]
        # each pool got the unit table once, at start; each task is small
        assert len(submitted) == 6
        for initargs, args in submitted:
            assert isinstance(initargs[0], causal.UnitTable)
            assert len(pickle.dumps(args)) < 4096

    def test_config_env_var(self, pipeline_dir, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"scenarios": []}))
        monkeypatch.setenv("EDITLIFT_CONFIG", str(cfg))
        code = main(["estimate", "--corpus", pipeline_dir["corpus"],
                     "--embeddings", pipeline_dir["vectors"],
                     "--out", pipeline_dir["out"]])
        assert code == 2  # empty scenario list is a usage error


def parser_flags() -> dict[tuple[str, str], argparse.Action]:
    """{(command, setting): flag} of every command's parser, clickbait's
    two actions apart."""
    flags = {}

    def walk(parser, command):
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                for name, sub in action.choices.items():
                    walk(sub, f"{command} {name}".strip())
            elif action.dest != "help":
                flags[command, action.dest] = action

    walk(cli.build_parser(), "")
    return flags


class TestSettingsTable:
    # not table settings: --config names the config file, and ingest's --out
    # its report file
    NO_SETTING = {("ingest", "out")} | {(c, "config") for c in (
        "ingest", "profile", "cluster", "clickbait train", "clickbait score", "estimate", "synth")}
    REMOVED = [("ingest", "seed", "7"), ("profile", "seed", "99"),
               ("synth", "corpus", "c.jsonl"), ("synth", "format", "csv"),
               ("clickbait train", "corpus", "c.jsonl"), ("clickbait train", "format", "csv"),
               ("clickbait train", "profiles", "p.csv"), ("clickbait score", "seed", "5"),
               ("clickbait score", "epochs", "3"), ("clickbait score", "train-data", "t.csv")]

    def test_flags_are_the_table_rows(self):
        flags = parser_flags()
        assert len(flags) == 47
        assert self.NO_SETTING <= set(flags)
        rows = {(command, name) for name, row in cli._SETTINGS.items() for command in row.commands}
        assert set(flags) - self.NO_SETTING == rows
        # each flag's type or choices come from its row
        for (command, name), flag in flags.items():
            if (command, name) not in self.NO_SETTING:
                kind = cli._SETTINGS[name].kind
                assert (flag.choices, flag.type) == ((kind, None) if isinstance(kind, tuple)
                                                     else (None, kind)), (command, name)

    def test_defaults_declared_once(self, tmp_path):
        # a setting's default is its row's, or CausalConfig's field's; the
        # library functions the CLI passes settings to declare none, and
        # every setting has a flag
        from editlift import clickbait, corpus, synthbench

        for fn in (clickbait.train, synthbench.confounded_spec, causal.match,
                   causal.balance_check, corpus.load_corpus):
            params = inspect.signature(fn).parameters.values()
            assert [p.name for p in params if p.default is not p.empty] == [], fn.__name__
        for fn in (causal.run_scenario, causal.pairwise_similarity_stats):
            seed = inspect.signature(fn).parameters["seed"]
            assert seed.default is seed.empty, fn.__name__
        assert [name for name in vars(causal) if name.startswith("DEFAULT_")] == []
        assert all(row.help for row in cli._SETTINGS.values())
        # a spec of only the required keys loads with every other field at
        # its `SynthSpec` or `TopicSpec` default
        topic = {"topic_id": "a", "vocabulary": ["a1"], "base_means": {"likes": 5.0}}
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"n_records": 60, "topics": [topic],
                                    "treatment_rule": {"a": 0.5}}))
        assert synthbench.load_spec(spec) == synthbench.SynthSpec(
            n_records=60, topics=(synthbench.TopicSpec("a", ("a1",), {"likes": 5.0}),),
            treatment_rule={"a": 0.5})

    @pytest.mark.parametrize("command, flag, value", REMOVED)
    def test_flag_a_command_never_reads_exit_two(self, tmp_path, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), f"--{flag}", value, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        printed, err = capsys.readouterr()
        assert printed == "" and f"unrecognized arguments: --{flag} {value}" in err
        assert not (tmp_path / "o").exists()

    def test_config_k_fits_that_k(self, pipeline_dir, tmp_path, capsys):
        assert main(["profile", "--corpus", pipeline_dir["corpus"],
                     "--embeddings", pipeline_dir["vectors"], "--out", pipeline_dir["out"]]) == 0
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"k": 2}))
        capsys.readouterr()
        assert main(["cluster", "--corpus", pipeline_dir["corpus"], "--out", pipeline_dir["out"],
                     "--config", str(cfg)]) == 0
        assert "elbow" not in capsys.readouterr().out
        assert json.loads(Path(pipeline_dir["out"], "cluster_model.json").read_text())["k"] == 2

    def test_config_reads_csv_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "c.csv"
        with open(corpus, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(record_row()))
            writer.writeheader()
            writer.writerows(record_row(rid=f"r{i}") for i in range(3))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"corpus": str(corpus), "format": "csv"}))
        assert main(["ingest", "--config", str(cfg)]) == 0
        assert "loaded 3 records" in capsys.readouterr().out

    def test_k_max_checked_with_k(self, tmp_path, capsys):
        # cluster reads k_max only to search, but checks it whenever given
        code = main(["cluster", "--corpus", str(tmp_path / "missing.jsonl"), "--k", "2",
                     "--k-max", "1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: k_max must be at least 2, got 1\n"

    @pytest.mark.parametrize("flag", ["seed", "n-records", "effect-likes"])
    def test_preset_flag_with_spec_exit_two(self, tmp_path, capsys, flag):
        spec = tmp_path / "spec.json"
        spec.write_text("{}")
        out = tmp_path / "o"
        code = main(["synth", "--spec", str(spec), f"--{flag}", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: --{flag} applies to the preset only, not with a spec\n")
        assert not out.exists()


@pytest.mark.parametrize("command", ["ingest", "profile", "cluster", "clickbait train"])
def test_library_error_printed_once(pipeline_dir, tmp_path, capsys, command):
    """A library error exits 1 and prints one line: `error: ` and the
    library's own message, with no traceback."""
    from editlift import clickbait, cluster, corpus, embedding, textsim

    c, out = pipeline_dir["corpus"], pipeline_dir["out"]
    if command == "ingest":
        missing = tmp_path / "missing.jsonl"
        argv = ["--corpus", str(missing)]

        def library():
            corpus.load_corpus(missing, "jsonl")
    elif command == "profile":
        vectors = tmp_path / "nan.txt"
        vectors.write_text("2 2\nbudget 1.0 nan\nvote 0.5 0.5\n")
        argv = ["--corpus", c, "--embeddings", str(vectors), "--out", out]

        def library():
            embedding.load_table(vectors)
    elif command == "cluster":
        assert main(["profile", "--corpus", c, "--embeddings", pipeline_dir["vectors"],
                     "--out", out]) == 0
        argv = ["--corpus", c, "--out", out, "--k", "7"]  # the corpus holds 6 records

        def library():
            profiles = textsim.profiles_from_csv(Path(out) / "profiles.csv")
            cluster.best_fit(cluster.profile_points(profiles), 7, 0)
    else:
        train_csv = tmp_path / "train.csv"
        train_csv.write_text("text,label\n" + "".join(
            f"{ex.text},{ex.label}\n" for ex in clickbait.synthetic_headlines(10, seed=0)))
        argv = ["--train-data", str(train_csv), "--out", out]

        def library():
            clickbait.train(clickbait.load_labeled_csv(train_csv), split_seed=0, epochs=10)
    with pytest.raises(ValueError) as raised:
        library()
    capsys.readouterr()
    assert main([*command.split(), *argv]) == 1
    assert capsys.readouterr().err == f"error: {raised.value}\n"


def write_csv(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def labeled_rows(n):
    from editlift import clickbait

    return [("text", "label"), *((ex.text, ex.label)
                                 for ex in clickbait.synthetic_headlines(n, seed=0))]


def corpus_csv_rows(corpus):
    records = [json.loads(line) for line in Path(corpus).read_text().splitlines()]
    return [list(records[0]), *(list(r.values()) for r in records)]


@pytest.mark.parametrize("name", ["corpus jsonl", "corpus csv", "profiles", "labeled csv",
                                  "vectors", "config", "spec"])
def test_byte_order_mark_read_like_plain(tmp_path, tiny_vectors, capsys, name):
    """Each text input may start with a UTF-8 byte-order mark, as spreadsheet
    exports write one; its command's outputs are those of its plain copy."""
    from editlift import embedding

    corpus = make_corpus_file(tmp_path)
    out = tmp_path / "out"
    report = ["--out", str(out / "report.json")]
    if name == "corpus jsonl":
        path, argv = corpus, ["ingest", "--corpus", str(corpus), *report]
    elif name == "corpus csv":
        path = write_csv(tmp_path / "c.csv", corpus_csv_rows(corpus))
        argv = ["ingest", "--corpus", str(path), "--format", "csv", *report]
    elif name == "profiles":
        work = tmp_path / "work"
        assert main(["profile", "--corpus", str(corpus), "--embeddings", str(tiny_vectors),
                     "--out", str(work)]) == 0
        path = out / "profiles.csv"  # the input `cluster` rewrites
        out.mkdir()
        path.write_bytes((work / "profiles.csv").read_bytes())
        argv = ["cluster", "--corpus", str(corpus), "--k", "2", "--out", str(out)]
    elif name == "labeled csv":
        path = write_csv(tmp_path / "train.csv", labeled_rows(40))
        argv = ["clickbait", "train", "--train-data", str(path), "--epochs", "1",
                "--out", str(out)]
    elif name == "vectors":
        # no header line, so the first line names a word: "budget"
        path = tmp_path / "v.txt"
        path.write_text(tiny_vectors.read_text().split("\n", 1)[1])
        argv = ["profile", "--corpus", str(corpus), "--embeddings", str(path),
                "--out", str(out)]
    elif name == "config":
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"corpus": str(corpus)}))
        argv = ["ingest", "--config", str(path), *report]
    else:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "n_records": 60, "treatment_rule": {"a": 0.5},
            "topics": [{"topic_id": "a", "vocabulary": ["a1", "a2"],
                        "base_means": {"replies": 1, "retweets": 2, "likes": 5}}]}))
        argv = ["synth", "--spec", str(path), "--out", str(out)]
    plain = path.read_bytes()
    outputs = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(prefix + plain)
        assert main(argv) == 0, capsys.readouterr().err
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[1] == outputs[0]
    if name == "vectors":
        assert "budget" in embedding.load_table(path).vocab


@pytest.mark.parametrize("command, column", [
    ("ingest", "likes"), ("cluster", "cluster"), ("clickbait train", "label")])
def test_csv_header_lacking_a_column_exit_one(tmp_path, tiny_vectors, capsys, command, column):
    """A CSV input whose header lacks a column its reader needs is one error
    naming the file and the column, not a rejected or misread row."""
    corpus = make_corpus_file(tmp_path)
    out = tmp_path / "out"
    if command == "ingest":
        path, rows = tmp_path / "c.csv", corpus_csv_rows(corpus)
        argv = ["--corpus", str(path), "--format", "csv"]
    elif command == "cluster":
        assert main(["profile", "--corpus", str(corpus), "--embeddings", str(tiny_vectors),
                     "--out", str(out)]) == 0
        path = out / "profiles.csv"
        rows = list(csv.reader(path.read_text().splitlines()))
        argv = ["--corpus", str(corpus), "--k", "2", "--out", str(out)]
    else:
        path, rows = tmp_path / "train.csv", labeled_rows(40)
        argv = ["--train-data", str(path), "--out", str(out)]
    drop = list(rows[0]).index(column)
    write_csv(path, [[*row[:drop], *row[drop + 1:]] for row in rows])
    capsys.readouterr()
    assert main([*command.split(), *argv]) == 1
    assert capsys.readouterr().err == f"error: {path}: header lacks column(s) {column}\n"


class TestEntryPoint:
    def test_module_help_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "editlift.cli", "--help"],
            capture_output=True, text=True, env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 0
        assert "editlift" in proc.stdout

    def test_import_leaves_scipy_unloaded(self, tmp_path):
        # scipy.stats takes about a second to import and no command needs it;
        # numpy is imported by the commands that use it, so importing the CLI,
        # `--help` and `ingest` start without it
        corpus = make_corpus_file(tmp_path)
        for argv in (None, ["--help"], ["ingest", "--corpus", str(corpus)]):
            script = "import contextlib, sys\nfrom editlift import cli\n"
            if argv is not None:
                script += ("with contextlib.suppress(SystemExit):\n"
                           f"    assert cli.main({argv!r}) == 0\n")
            script += "loaded = {'numpy', 'scipy'} & set(sys.modules)\nassert not loaded, loaded\n"
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, env=SUBPROCESS_ENV)
            assert proc.returncode == 0, (argv, proc.stderr)
