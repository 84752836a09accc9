"""Command-line behavior: commands, exit codes, and byte-stable outputs."""

import csv
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prioradapt import solver
from prioradapt.cli import main, render_csv
from prioradapt.harness import EvaluationRow

DATA = os.path.join(os.path.dirname(__file__), "data")


def data(name: str) -> str:
    return os.path.join(DATA, name)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fp:
        return fp.read()


def run(args, tmp_path, out_name="out"):
    out = str(tmp_path / out_name)
    code = main(["--output", out, *args])
    return code, out


class TestNormalize:
    def test_counts_to_rates(self, tmp_path, capsys):
        code = main(["normalize", data("fixture_confusion_raw.csv")])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "a,b"
        assert [float(x) for x in lines[1].split(",")] == [0.8, 0.2]
        assert [float(x) for x in lines[2].split(",")] == [0.4, 0.6]

    def test_idempotent(self, tmp_path):
        code, once = run(["normalize", data("fixture_confusion_raw.csv")], tmp_path, "once")
        assert code == 0
        code, twice = run(["normalize", once], tmp_path, "twice")
        assert code == 0
        assert read_bytes(once) == read_bytes(twice)

    def test_zero_row_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,0\n0,0\n", encoding="utf-8")
        code = main(["normalize", str(bad)])
        assert code == 2
        assert "'b'" in capsys.readouterr().err

    def test_missing_file_exit_4(self, tmp_path):
        assert main(["normalize", str(tmp_path / "nope.csv")]) == 4


class TestEstimate:
    def test_identity_naive(self, tmp_path, capsys):
        conf = tmp_path / "id.csv"
        conf.write_text("a,b,c\n1,0,0\n0,1,0\n0,0,1\n", encoding="utf-8")
        stream = tmp_path / "d.txt"
        stream.write_text("0\n0\n1\n2\n", encoding="utf-8")
        code = main(["estimate", str(conf), str(stream), "--method", "naive"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["methods"]["naive"]["priors"] == {"a": 0.5, "b": 0.25, "c": 0.25}
        assert doc["total_decisions"] == 4

    def test_consistent_fixture_qp_recovers(self, tmp_path, capsys):
        code = main([
            "estimate", data("fixture_confusion3.csv"), data("fixture_decisions.txt"),
            "--method", "qp",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        priors = doc["methods"]["quadratic_program"]["priors"]
        # The decision histogram is exactly the forward image of (0.7, 0.2, 0.1).
        assert abs(priors["a"] - 0.7) <= 1e-12
        assert abs(priors["b"] - 0.2) <= 1e-12
        assert abs(priors["c"] - 0.1) <= 1e-12

    def test_scores_stream(self, tmp_path, capsys):
        conf = tmp_path / "id.csv"
        conf.write_text("a,b\n1,0\n0,1\n", encoding="utf-8")
        scores = tmp_path / "s.csv"
        scores.write_text("s_a,s_b\n0.9,0.1\n0.2,0.8\n0.7,0.3\n", encoding="utf-8")
        code = main(["estimate", str(conf), str(scores), "--method", "naive"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["methods"]["naive"]["priors"] == {"a": 2 / 3, "b": 1 / 3}

    def test_bad_scores_row_exit_2(self, tmp_path, capsys):
        conf = tmp_path / "id.csv"
        conf.write_text("a,b\n1,0\n0,1\n", encoding="utf-8")
        scores = tmp_path / "s.csv"
        scores.write_text("s_a,s_b\n0.9,0.3\n", encoding="utf-8")
        code = main(["estimate", str(conf), str(scores)])
        assert code == 2
        assert ":2:" in capsys.readouterr().err  # line number named

    def test_non_utf8_stream_exit_2(self, tmp_path, capsys):
        stream = tmp_path / "d.txt"
        stream.write_bytes(b"\xff\xfe0\n1\n")
        code = main(["estimate", data("fixture_confusion3.csv"), str(stream)])
        assert code == 2
        assert "d.txt:1:" in capsys.readouterr().err

    def test_dimension_mismatch_exit_2(self, tmp_path):
        conf = tmp_path / "id.csv"
        conf.write_text("a,b\n1,0\n0,1\n", encoding="utf-8")
        stream = tmp_path / "d.txt"
        stream.write_text("0\n2\n", encoding="utf-8")
        assert main(["estimate", str(conf), str(stream)]) == 2

    def test_window_restricts_histogram(self, tmp_path, capsys):
        conf = tmp_path / "id.csv"
        conf.write_text("a,b\n1,0\n0,1\n", encoding="utf-8")
        stream = tmp_path / "d.txt"
        stream.write_text("0\n0\n0\n1\n1\n", encoding="utf-8")
        code = main(["estimate", str(conf), str(stream), "--method", "naive", "--window", "2"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # Only the trailing two decisions (both class b) remain.
        assert doc["methods"]["naive"]["priors"] == {"a": 0.0, "b": 1.0}
        assert doc["total_decisions"] == 2

    def test_singular_inverse_exit_3(self, tmp_path, capsys):
        conf = tmp_path / "sing.csv"
        conf.write_text("a,b\n0.5,0.5\n0.5,0.5\n", encoding="utf-8")
        stream = tmp_path / "d.txt"
        stream.write_text("0\n1\n", encoding="utf-8")
        code = main(["estimate", str(conf), str(stream), "--method", "inverse"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        assert "error" in doc["methods"]["matrix_inverse"]

    def test_solver_cap_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
        argv = ["estimate", data("fixture_confusion3.csv"), data("fixture_decisions.txt")]
        code = main([*argv, "--method", "qp"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        error = doc["methods"]["quadratic_program"]["error"]
        assert error.startswith("ConvergenceError: ")
        assert "best iterate: " in error

    def test_all_with_partial_failure_still_succeeds(self, tmp_path, capsys):
        conf = tmp_path / "sing.csv"
        conf.write_text("a,b\n0.5,0.5\n0.5,0.5\n", encoding="utf-8")
        stream = tmp_path / "d.txt"
        stream.write_text("0\n1\n0\n", encoding="utf-8")
        code = main(["estimate", str(conf), str(stream), "--method", "all"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "error" in doc["methods"]["matrix_inverse"]
        assert "priors" in doc["methods"]["naive"]
        assert "priors" in doc["methods"]["quadratic_program"]


class TestReweight:
    def test_flip_example(self, tmp_path, capsys):
        code = main([
            "reweight", data("fixture_scores.csv"), "--priors", data("fixture_priors.json"),
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "1"  # baseline a, adapted b

    def test_uniform_priors_match_baseline(self, tmp_path, capsys):
        priors = tmp_path / "u.json"
        priors.write_text(json.dumps({"a": 1 / 3, "b": 1 / 3, "c": 1 / 3}), encoding="utf-8")
        code = main(["reweight", data("fixture_scores.csv"), "--priors", str(priors)])
        assert code == 0
        for line in capsys.readouterr().out.strip().splitlines()[1:]:
            cells = line.split(",")
            assert cells[0] == cells[1]

    def test_empty_file(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        code, out = run(["reweight", str(empty), "--priors", data("fixture_priors.json")], tmp_path)
        assert code == 0
        assert read_bytes(out) == b""

    def test_lenient_skips_bad_rows(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("s_a,s_b,s_c\n0.5,0.25,0.25\n0.9,0.3,0.1\n", encoding="utf-8")
        code = main(["reweight", str(scores), "--priors", data("fixture_priors.json"), "--lenient"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2  # header + one good row

    def test_strict_fails_on_bad_rows(self, tmp_path):
        scores = tmp_path / "s.csv"
        scores.write_text("s_a,s_b,s_c\n0.9,0.3,0.1\n", encoding="utf-8")
        code = main(["reweight", str(scores), "--priors", data("fixture_priors.json")])
        assert code == 2

    def test_needs_exactly_one_source(self, tmp_path):
        assert main(["reweight", data("fixture_scores.csv")]) == 2
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        assert main(["reweight", str(empty)]) == 2
        assert main([
            "reweight", data("fixture_scores.csv"),
            "--priors", data("fixture_priors.json"),
            "--confusion", data("fixture_confusion3.csv"),
        ]) == 2

    def test_unknown_truth_label_names_line(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("label,s_a,s_b,s_c\nzzz,0.6,0.3,0.1\n", encoding="utf-8")
        code = main(["reweight", str(scores), "--priors", data("fixture_priors.json")])
        assert code == 2
        assert "s.csv:2: unknown class label 'zzz'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"methods": [{"priors": {"a": 0.2, "b": 0.3, "c": 0.5}}]},
        {"methods": {"naive": {"priors": [0.2, 0.3, 0.5]}}},
        {"a": True, "b": False, "c": 0},
        {"methods": {"foo": {"priors": {"a": 0.2, "b": 0.3, "c": 0.5}}}},
        {"a": -1, "b": 2, "c": 0},
        {"a": 0, "b": 0, "c": 0},
    ])
    def test_malformed_priors_json_exit_2(self, tmp_path, capsys, doc):
        priors = tmp_path / "p.json"
        priors.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["reweight", data("fixture_scores.csv"), "--priors", str(priors)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {priors}: ")

    def test_live_reestimation(self, tmp_path, capsys):
        # Identity confusion, stream dominated by class b: once priors are
        # re-estimated, a borderline b-vs-a record flips to b.
        conf = tmp_path / "id.csv"
        conf.write_text("a,b\n1,0\n0,1\n", encoding="utf-8")
        rows = ["s_a,s_b"] + ["0.1,0.9"] * 10 + ["0.52,0.48"]
        scores = tmp_path / "s.csv"
        scores.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main([
            "reweight", str(scores), "--confusion", str(conf),
            "--method", "naive", "--reestimate-every", "5",
        ])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        last = lines[-1].split(",")
        assert last[0] == "0"  # baseline still says a
        assert last[1] == "1"  # estimated priors say b

    def test_live_mode_needs_cadence(self, tmp_path):
        code = main([
            "reweight", data("fixture_scores.csv"),
            "--confusion", data("fixture_confusion3.csv"),
        ])
        assert code == 2


class TestSimulate:
    def test_deterministic_files(self, tmp_path):
        code = main(["--quiet", "--output", str(tmp_path / "one"), "simulate", data("fixture_scenario.json")])
        assert code == 0
        code = main(["--quiet", "--output", str(tmp_path / "two"), "simulate", data("fixture_scenario.json")])
        assert code == 0
        assert read_bytes(str(tmp_path / "one.scores.csv")) == read_bytes(str(tmp_path / "two.scores.csv"))
        assert read_bytes(str(tmp_path / "one.truth.csv")) == read_bytes(str(tmp_path / "two.truth.csv"))

    def test_degenerate_priors_all_one_class(self, tmp_path):
        doc = {
            "labels": ["a", "b"],
            "active_classes": ["a"],
            "true_priors": {"a": 1.0},
            "transfer_size": 5,
            "test_size": 5,
            "seed": 1,
            "classifier": {"diagonal": 0.9, "confusion_seed": 0},
        }
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["--quiet", "--output", str(tmp_path / "sim"), "simulate", str(scen)])
        assert code == 0
        truth = (tmp_path / "sim.truth.csv").read_text(encoding="utf-8")
        rows = [l for l in truth.splitlines() if l and not l.startswith("#")][1:]
        assert all(row.split(",")[1] == "a" for row in rows)

    def test_drift_boundary_marked(self, tmp_path):
        code = main(["--quiet", "--output", str(tmp_path / "sim"), "simulate", data("fixture_scenario.json")])
        assert code == 0
        truth = (tmp_path / "sim.truth.csv").read_text(encoding="utf-8")
        assert "# segment 1 from row 12" in truth
        segments = [
            int(line.split(",")[2])
            for line in truth.splitlines()
            if line and not line.startswith("#") and not line.startswith("index")
        ]
        assert segments[:12] == [0] * 12
        assert segments[12:] == [1] * 8

    def test_requires_output(self, tmp_path):
        assert main(["simulate", data("fixture_scenario.json")]) == 2

    def test_bad_spec_exit_2(self, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({"labels": ["a", "b"]}), encoding="utf-8")
        code = main(["--output", str(tmp_path / "sim"), "simulate", str(scen)])
        assert code == 2
        assert "scenario.active_classes" in capsys.readouterr().err


class TestEvaluate:
    def test_perfect_classifier_all_ones(self, tmp_path, capsys):
        conf_rows = "\n".join(",".join("1" if i == j else "0" for j in range(3)) for i in range(3))
        (tmp_path / "id.csv").write_text("a,b,c\n" + conf_rows + "\n", encoding="utf-8")
        doc = {
            "labels": ["a", "b", "c"],
            "active_classes": ["a"],
            "true_priors": {"a": 1.0},
            "transfer_size": 20,
            "test_size": 20,
            "seed": 5,
            "classifier": {"confusion_csv": "id.csv"},
        }
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["--format", "json", "evaluate", str(scen), "--folds", "2"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        for row in out["rows"]:
            assert row["accuracy_mean"] == 1.0

    def test_rejects_single_fold(self, tmp_path):
        assert main(["evaluate", data("fixture_scenario.json"), "--folds", "1"]) == 2

    def test_csv_format(self, tmp_path, capsys):
        doc = {
            "labels": ["a", "b", "c"],
            "active_classes": ["a", "b"],
            "true_priors": {"a": 0.5, "b": 0.5},
            "transfer_size": 30,
            "test_size": 30,
            "seed": 5,
            "classifier": {"diagonal": 0.7, "confusion_seed": 2},
        }
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["--format", "csv", "evaluate", str(scen), "--folds", "2"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "scenario,method,accuracy_mean,accuracy_std,folds,prior_l1_error,best,error"
        assert len(lines) == 7  # header + six methods
        assert sum(line.split(",")[6] == "1" for line in lines[1:]) == 1

    def test_csv_error_column_round_trips(self):
        for scenario, error in (
            ("s", 'ParseError: bad "value",\nsecond line'),
            ("s\rt", "ParseError: bare\rreturn"),
        ):
            rows = [EvaluationRow(scenario, "naive", None, None, 2, error=error)]
            header, row = csv.reader(io.StringIO(render_csv(rows), newline=""))
            assert header[-1] == "error"
            assert row[0] == scenario and row[-1] == error

    def test_json_independent_of_hash_seed(self):
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "prioradapt", "--format", "json", "evaluate", "--folds", "2"],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_json_full_precision_golden(self, tmp_path):
        # golden_evaluate.md rounds to 3 decimals; this pins every digit.
        code, out = run(["--format", "json", "--seed", "7", "evaluate", "--folds", "20"], tmp_path)
        assert code == 0
        assert read_bytes(out) == read_bytes(data("golden_evaluate_seed7.json"))

    def test_drift_scenario_reports_segments(self, tmp_path, capsys):
        code = main(["evaluate", data("fixture_scenario.json"), "--window", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "demo-drift/segment-0" in out
        assert "demo-drift/segment-1" in out
        assert "extension" in out


_SCENARIO = {
    "labels": ["a", "b", "c"],
    "active_classes": ["a", "b"],
    "true_priors": {"a": 0.5, "b": 0.5},
    "transfer_size": 30,
    "test_size": 30,
    "seed": 5,
    "classifier": {"diagonal": 0.7, "confusion_seed": 2},
}


class TestNegativeSeed:
    """A negative seed is refused with exit 2 and the field's name, not a traceback."""

    @pytest.mark.parametrize("command", [
        ["evaluate", "--folds", "2"],
        ["estimate", data("fixture_confusion3.csv"), data("fixture_decisions.txt")],
        ["simulate", data("fixture_scenario.json")],
    ])
    def test_seed_option(self, tmp_path, capsys, command):
        code = main(["--output", str(tmp_path / "out"), "--seed", "-1", *command])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("field, where", [
        ({"seed": -3}, "scenario.seed"),
        ({"classifier": {"diagonal": 0.7, "confusion_seed": -1}},
         "scenario.classifier.confusion_seed"),
    ])
    def test_scenario_seeds(self, tmp_path, capsys, field, where):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps({**_SCENARIO, **field}), encoding="utf-8")
        for command in (["evaluate", str(scen), "--folds", "2"],
                        ["--output", str(tmp_path / "sim"), "simulate", str(scen)]):
            assert main(command) == 2
            assert where in capsys.readouterr().err


class TestGlobalFlagPlacement:
    def test_flags_accepted_before_or_after_subcommand(self, tmp_path):
        before = str(tmp_path / "before.csv")
        after = str(tmp_path / "after.csv")
        assert main(["--output", before, "normalize", data("fixture_confusion_raw.csv")]) == 0
        assert main(["normalize", data("fixture_confusion_raw.csv"), "--output", after]) == 0
        assert read_bytes(before) == read_bytes(after)

    def test_trailing_seed_and_format(self, tmp_path, capsys):
        doc = {
            "labels": ["a", "b", "c"],
            "active_classes": ["a", "b"],
            "true_priors": {"a": 0.5, "b": 0.5},
            "transfer_size": 30,
            "test_size": 30,
            "seed": 5,
            "classifier": {"diagonal": 0.7, "confusion_seed": 2},
        }
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["evaluate", str(scen), "--folds", "2", "--format", "json", "--seed", "9"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["scenarios"] == ["scen"]


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "prioradapt", "normalize", data("fixture_confusion_raw.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "a,b"

    def test_bench_tracer_runs_unchanged(self, tmp_path):
        # bench/traced.py wraps names bound in the package modules; a
        # refactor that unbinds one breaks the traced benchmark run.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        argv = ["--format", "json", "--seed", "3", "evaluate", "--folds", "2"]
        trace = str(tmp_path / "trace.json")
        traced = subprocess.run(
            [sys.executable, os.path.join(root, "bench", "traced.py"), trace, "--", *argv],
            capture_output=True, env=env, cwd=root,
        )
        plain = subprocess.run(
            [sys.executable, "-m", "prioradapt", *argv], capture_output=True, env=env, cwd=root,
        )
        assert traced.returncode == 0, traced.stderr
        assert plain.returncode == 0, plain.stderr
        assert traced.stdout == plain.stdout
        with open(trace, encoding="utf-8") as fp:
            doc = json.load(fp)
        spans = doc["spans"]
        assert spans["harness.cv"]["calls"] > 0
        assert spans["estimators.qp"]["calls"] > 0
        assert len(doc["solves"]) == spans["estimators.qp"]["calls"]
        assert all(s["converged"] for s in doc["solves"])
        assert max(s["kkt"] for s in doc["solves"]) <= 1e-12

    def test_unknown_command_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "prioradapt", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2


_LABELS = ("a", "b", "c")

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.sampled_from(_LABELS),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
        st.sampled_from(
            _LABELS + ("methods", "priors", "naive", "labels", "active_classes",
                       "true_priors", "transfer_size", "test_size", "classifier", "diagonal")
        ),
        inner, max_size=4,
    ),
    max_leaves=12,
)

_csv_cells = st.sampled_from(
    ("", "0", "1", "2", "0.5", "0.25", "-1", "nan", "1e999", "a", "b", "c", "s_a", "s_b",
     "s_c", "label", '"', "\r")
)

_file_contents = st.one_of(
    st.binary(max_size=200),
    _json_values.map(lambda v: json.dumps(v).encode("utf-8")),
    st.lists(st.lists(_csv_cells, max_size=5).map(",".join), max_size=6).map(
        lambda lines: "\n".join(lines).encode("utf-8")
    ),
)


class TestArbitraryInput:
    """Whatever a file holds, the CLI ends in a documented exit code."""

    @given(content=_file_contents)
    @settings(max_examples=60, deadline=None)
    def test_every_reader(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input")
            with open(path, "wb") as fp:
                fp.write(content)
            out = os.path.join(tmp, "out")
            conf, scores = data("fixture_confusion3.csv"), data("fixture_scores.csv")
            commands = [
                ["normalize", path],
                ["estimate", conf, path],
                ["estimate", path, data("fixture_decisions.txt")],
                ["reweight", path, "--priors", data("fixture_priors.json")],
                ["reweight", scores, "--priors", path],
                ["reweight", scores, "--confusion", path, "--reestimate-every", "1"],
                ["evaluate", path, "--folds", "2"],
            ]
            for argv in commands:
                assert main(["--quiet", "--output", out, *argv]) in (0, 2, 3, 4), argv
