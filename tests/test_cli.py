"""Command-line behavior: commands, exit codes, and byte-stable outputs."""

import contextlib
import csv
import errno
import gc
import io
import itertools
import json
import os
import re
import select
import shutil
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prioradapt import ValidationError, cli, fileio, harness, solver, uniform_estimate
from prioradapt.errors import ConvergenceError, InsufficientDataError, ParseError, SingularMatrixError
from prioradapt.cli import main, render_csv
from prioradapt.harness import (
    DEFAULT_H_SAMPLES_PER_CLASS,
    EvaluationRow,
    estimate_confusion,
    run_drift_scenario,
    simulate_stream,
)

from conftest import small_blocks

DATA = os.path.join(os.path.dirname(__file__), "data")


def data(name: str) -> str:
    return os.path.join(DATA, name)


def src_env(**extra) -> dict:
    """The environment for a child ``python -m prioradapt``, with ``src`` on the path."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **extra)


def _script_entry() -> list[str]:
    """``python`` arguments that run what the installed ``prioradapt`` runs: the pyproject.toml script entry."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fp:
        module, name = re.search(r'^prioradapt = "([\w.]+):(\w+)"$', fp.read(), re.M).groups()
    return ["-c", f"import sys; from {module} import {name}; sys.exit({name}())"]


# The two ways to start the program, as ``python`` arguments.
ENTRIES = {"module": ["-m", "prioradapt"], "script": _script_entry()}


def entry_env(buffered: bool) -> dict:
    """:func:`src_env` with stdout buffered, or not: ``PYTHONUNBUFFERED`` unset, or set."""
    env = src_env(PYTHONUNBUFFERED="1")
    if buffered:
        del env["PYTHONUNBUFFERED"]
    return env


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

    def test_idempotent_on_quoted_labels(self, tmp_path):
        raw = tmp_path / "raw.csv"
        raw.write_text('"a,b","c""d"\n1,2\n3,4\n', encoding="utf-8")
        code, once = run(["normalize", str(raw)], tmp_path, "once")
        assert code == 0
        code, twice = run(["normalize", once], tmp_path, "twice")
        assert code == 0
        assert read_bytes(once) == read_bytes(twice)
        with open(once, encoding="utf-8", newline="") as fp:
            assert next(csv.reader(fp)) == ["a,b", 'c"d']

    def test_zero_row_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,0\n0,0\n", encoding="utf-8")
        code = main(["normalize", str(bad)])
        assert code == 2
        assert "'b'" in capsys.readouterr().err

    def test_missing_file_exit_4(self, tmp_path):
        assert main(["normalize", str(tmp_path / "nope.csv")]) == 4

    def test_row_sum_past_float_max_exit_2(self, tmp_path, capsys):
        # Dividing by the overflowed sum would write the row as zeros.
        bad = tmp_path / "c.csv"
        bad.write_text("a,b\n1e308,1e308\n1,3\n", encoding="utf-8")
        assert main(["normalize", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {bad}: confusion row 'a' sums past the largest float and cannot be normalized\n"
        )


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

    def test_inverse_too_large_to_add_up_prints_no_warning(self, tmp_path):
        # The inverse's column sums overflow; the exit is the solver's, with no numpy warning.
        (tmp_path / "c.csv").write_text("a,b\n1,0\n1,1e-308\n", encoding="utf-8")
        (tmp_path / "d.txt").write_text("0\n1\n0\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "prioradapt", "estimate", "c.csv", "d.txt", "--method", "inverse"],
            cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 3
        assert proc.stderr == ""
        error = json.loads(proc.stdout)["methods"]["matrix_inverse"]["error"]
        assert error.startswith("IllConditionedError: mixing matrix condition number inf")

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

    def test_scores_classes_differ_from_confusion_exit_2(self, tmp_path, capsys):
        conf = tmp_path / "c.csv"
        conf.write_text("a,b\n1,0\n0,1\n", encoding="utf-8")
        scores = tmp_path / "s.csv"
        scores.write_text("s_a,s_c\n0.9,0.1\n", encoding="utf-8")
        assert main(["estimate", str(conf), str(scores)]) == 2
        assert capsys.readouterr() == (
            "", "error: scores CSV classes do not match the confusion matrix classes\n"
        )

    def test_header_only_scores_name_the_file(self, tmp_path, capsys):
        (tmp_path / "c.csv").write_text("a,b\n0.8,0.2\n0.3,0.7\n", encoding="utf-8")
        scores = tmp_path / "h.csv"
        scores.write_text("s_a,s_b\n", encoding="utf-8")
        assert main(["estimate", str(tmp_path / "c.csv"), str(scores)]) == 2
        assert capsys.readouterr() == ("", f"error: {scores}: no decisions ingested yet\n")

    def test_solver_cap_exit_3(self, monkeypatch, capsys):
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
        argv = ["estimate", data("fixture_confusion3.csv"), data("fixture_decisions.txt")]
        code = main([*argv, "--method", "qp"])
        assert code == 3
        doc = json.loads(capsys.readouterr().out)
        error = doc["methods"]["quadratic_program"]["error"]
        assert error.startswith("ConvergenceError: ")
        assert "best iterate: " in error

    @pytest.mark.parametrize("method, code", [("pr", 2), ("all", 0)])
    def test_precision_recall_ratio_overflow_names_the_class(self, tmp_path, capsys, method, code):
        # Class b's recall is 1e-320, so its precision/recall ratio overflows.
        conf = tmp_path / "c.csv"
        conf.write_text("a,b\n1,1e-320\n1,1e-320\n", encoding="utf-8")
        stream = tmp_path / "d.txt"
        stream.write_text("0\n1\n1\n0\n1\n", encoding="utf-8")
        assert main(["estimate", str(conf), str(stream), "--method", method]) == code
        captured = capsys.readouterr()
        assert captured.err == ""
        methods = json.loads(captured.out)["methods"]
        assert methods["precision_recall"]["error"].startswith("DegenerateRecallError: class 1 ")
        if method == "all":
            assert "priors" in methods["naive"]

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

    def test_underflowed_products_decide_by_the_exact_products(self, tmp_path):
        # The exact products are (1e-330, 0, 0); every double product is 0,
        # and the raw and normalized columns print the double products.
        scores, priors = tmp_path / "s.csv", tmp_path / "p.json"
        scores.write_text("label,s_a,s_b,s_c\nb,1e-30,1,0\n", encoding="utf-8")
        priors.write_text('{"a": 1e-300, "b": 0, "c": 1}', encoding="utf-8")
        code, out = run(["reweight", str(scores), "--priors", str(priors)], tmp_path)
        assert code == 0
        assert read_bytes(out) == b"baseline,adapted,raw_a,raw_b,raw_c,norm_a,norm_b,norm_c\n1,0,0,0,0,0,0,0\n"

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

    @pytest.mark.parametrize("extra", [
        ["--window", "0", "--reestimate-every", "-3"], ["--window", "5"], ["--reestimate-every", "2"],
    ])
    def test_static_refuses_live_options(self, extra, capsys):
        code = main(["reweight", data("fixture_scores.csv"), "--priors", data("fixture_priors.json"), *extra])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--window and --reestimate-every apply only with --confusion" in captured.err

    def test_static_bare_priors_refuse_a_method(self, capsys):
        priors = data("fixture_priors.json")
        code = main(["reweight", data("fixture_scores.csv"), "--priors", priors, "--method", "inverse"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {priors}: priors JSON has no methods to pick 'matrix_inverse' from\n"

    def test_unknown_truth_label_names_line(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("label,s_a,s_b,s_c\nzzz,0.6,0.3,0.1\n", encoding="utf-8")
        code = main(["reweight", str(scores), "--priors", data("fixture_priors.json")])
        assert code == 2
        assert "s.csv:2: unknown class label 'zzz'" in capsys.readouterr().err

    def test_digit_class_names_as_truth(self, tmp_path):
        # Truth cells that name a class are read as that class, digits or not.
        scores = tmp_path / "s.csv"
        scores.write_text("label,s_1,s_2,s_3\n1,0.6,0.3,0.1\n3,0.1,0.2,0.7\n", encoding="utf-8")
        priors = tmp_path / "p.json"
        priors.write_text(json.dumps({"1": 0.2, "2": 0.3, "3": 0.5}), encoding="utf-8")
        code, out = run(["reweight", str(scores), "--priors", str(priors)], tmp_path)
        assert code == 0
        lines = read_bytes(out).decode("utf-8").splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["0", "0"], ["2", "2"]]

    @pytest.mark.parametrize("doc", [
        {"methods": [{"priors": {"a": 0.2, "b": 0.3, "c": 0.5}}]},
        {"methods": {"naive": {"priors": [0.2, 0.3, 0.5]}}},
        {"a": True, "b": False, "c": 0},
        {"methods": {"foo": {"priors": {"a": 0.2, "b": 0.3, "c": 0.5}}}},
        {"a": -1, "b": 2, "c": 0},
        {"a": 0, "b": 0, "c": 0},
        {"a": 1e308, "b": 1e308, "c": 1e308},
    ])
    def test_malformed_priors_json_exit_2(self, tmp_path, capsys, doc):
        priors = tmp_path / "p.json"
        priors.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["reweight", data("fixture_scores.csv"), "--priors", str(priors)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {priors}: ")
        assert err.count("\n") == 1

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

    # An empty stream is checked like any other before it re-weights to
    # nothing: these exits match those of a non-empty stream.

    def _empty(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        return str(empty)

    def test_empty_stream_missing_priors_exit_4(self, tmp_path):
        argv = ["reweight", self._empty(tmp_path), "--priors", str(tmp_path / "nope.json")]
        assert main(argv) == 4

    def test_empty_stream_malformed_priors_exit_2(self, tmp_path, capsys):
        priors = tmp_path / "p.json"
        priors.write_text("{not json", encoding="utf-8")
        assert main(["reweight", self._empty(tmp_path), "--priors", str(priors)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {priors}: invalid JSON")

    @pytest.mark.parametrize("doc, method, message", [
        ({"a": 0.1, "b": 0.9}, "inverse", "no methods to pick 'matrix_inverse' from"),
        ({"methods": {"naive": {"priors": {"a": 1.0}}, "matrix_inverse": {"priors": {"a": 1.0}}}},
         None, "holds several methods"),
        ({"methods": {}}, None, "no successful method entries"),
        ({"methods": {"foo": {"priors": {"a": 1.0}}}}, None, "unknown estimation method 'foo'"),
    ])
    def test_empty_stream_checks_priors_choice(self, tmp_path, capsys, doc, method, message):
        # The same file is refused with the same message for a stream with rows.
        priors = tmp_path / "p.json"
        priors.write_text(json.dumps(doc), encoding="utf-8")
        flags = ["--method", method] if method else []
        for scores in (self._empty(tmp_path), data("fixture_scores.csv")):
            code, out = run(["reweight", scores, "--priors", str(priors), *flags], tmp_path)
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {priors}: ") and message in err
            assert not os.path.exists(out)

    def test_empty_stream_checks_the_window(self, tmp_path, capsys):
        for scores in (self._empty(tmp_path), data("fixture_scores.csv")):
            code, out = run([
                "reweight", scores, "--confusion", data("fixture_confusion3.csv"),
                "--reestimate-every", "2", "--window", "0",
            ], tmp_path)
            assert code == 2
            assert capsys.readouterr() == ("", "error: window length must be >= 1\n")
            assert not os.path.exists(out)

    def test_empty_stream_live_needs_cadence(self, tmp_path):
        argv = ["reweight", self._empty(tmp_path), "--confusion", data("fixture_confusion3.csv")]
        assert main(argv) == 2

    def test_empty_stream_missing_confusion_exit_4(self, tmp_path):
        argv = [
            "reweight", self._empty(tmp_path), "--confusion", str(tmp_path / "nope.csv"),
            "--reestimate-every", "2",
        ]
        assert main(argv) == 4


class TestReweightLongFile:
    """A bad row far into a file that spans many blocks."""

    def _write(self, tmp_path):
        rows = ["label,s_a,s_b,s_c\n"] + ["b,0.25,0.5,0.25\n", "a,0.5,0.3,0.2\n"] * 15_000
        rows[22_222] = "c,0.25,0.5,0.35\n"
        path = tmp_path / "s.csv"
        path.write_text("".join(rows), encoding="utf-8")
        good = tmp_path / "good.csv"
        good.write_text("".join(rows[:22_222] + rows[22_223:]), encoding="utf-8")
        return str(path), str(good)

    def test_strict_names_the_line(self, tmp_path, capsys):
        path, good = self._write(tmp_path)
        assert main(["reweight", path, "--priors", data("fixture_priors.json")]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {path}:22223: scores must sum to 1 within 1e-06, got 1.1\n"
        )
        # The rows before the bad one were written, as a row-by-row reader writes them.
        assert main(["reweight", good, "--priors", data("fixture_priors.json")]) == 0
        assert captured.out.splitlines() == capsys.readouterr().out.splitlines()[:22_222]

    @pytest.mark.parametrize("live", [False, True])
    def test_lenient_skips_the_line(self, tmp_path, capsys, live):
        path, good = self._write(tmp_path)
        source = (["--confusion", data("fixture_confusion3.csv"), "--reestimate-every", "7"]
                  if live else ["--priors", data("fixture_priors.json")])
        assert main(["reweight", path, *source, "--lenient"]) == 0
        captured = capsys.readouterr()
        assert captured.err == (
            f"warning: {path}:22223: scores must sum to 1 within 1e-06, got 1.1\n"
        )
        assert main(["reweight", good, *source]) == 0
        assert captured.out == capsys.readouterr().out


def _through_fifo(tmp_path, content: bytes, argv_of):
    """Run ``python -m prioradapt`` on a named pipe carrying ``content``."""
    fifo = str(tmp_path / "in")
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as fp:
                fp.write(content)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return subprocess.run(
            [sys.executable, "-m", "prioradapt", *argv_of(fifo)],
            capture_output=True, env=src_env(), timeout=60,
        )
    finally:
        if writer.is_alive():  # the child never opened the pipe: let the writer go
            os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
        writer.join(timeout=10)


class TestPipes:
    """Each input stream is read once, through one handle, so a pipe reads like a file."""

    def _same_as_file(self, tmp_path, name, argv_of):
        via_pipe = _through_fifo(tmp_path, read_bytes(data(name)), argv_of)
        via_file = subprocess.run(
            [sys.executable, "-m", "prioradapt", *argv_of(data(name))],
            capture_output=True, env=src_env(),
        )
        assert via_pipe.returncode == via_file.returncode == 0, via_pipe.stderr
        assert via_pipe.stdout == via_file.stdout
        return via_pipe.stdout

    def test_reweight_scores(self, tmp_path):
        out = self._same_as_file(
            tmp_path, "fixture_scores.csv",
            lambda path: ["reweight", path, "--priors", data("fixture_priors.json")],
        )
        assert out == read_bytes(data("golden_reweight.csv"))

    def test_estimate_decisions(self, tmp_path):
        out = self._same_as_file(
            tmp_path, "fixture_decisions.txt",
            lambda path: ["estimate", data("fixture_confusion3.csv"), path, "--method", "naive"],
        )
        assert json.loads(out)["total_decisions"] == 100

    def test_estimate_scores(self, tmp_path):
        out = self._same_as_file(
            tmp_path, "fixture_scores.csv",
            lambda path: ["estimate", data("fixture_confusion3.csv"), path, "--method", "naive"],
        )
        assert json.loads(out)["total_decisions"] == 4

    def test_undecodable_decisions_name_the_line(self, tmp_path):
        proc = _through_fifo(
            tmp_path, b"0\n1\n\xff\n",
            lambda path: ["estimate", data("fixture_confusion3.csv"), path, "--method", "naive"],
        )
        assert proc.returncode == 2
        assert proc.stderr.decode() == f"error: {tmp_path / 'in'}:3: not valid UTF-8\n"

    def test_undecodable_confusion_pipe_ends(self, tmp_path):
        proc = _through_fifo(tmp_path, b"a,b\n1,0\n\xff,1\n", lambda path: ["normalize", path])
        assert proc.returncode == 2
        assert proc.stderr.decode() == f"error: {tmp_path / 'in'}:3: not valid UTF-8\n"

    def test_normalize(self, tmp_path):
        out = self._same_as_file(tmp_path, "fixture_confusion_raw.csv", lambda path: ["normalize", path])
        assert out == read_bytes(data("golden_normalize.csv"))

    def test_undecodable_priors_name_the_line(self, tmp_path):
        proc = _through_fifo(
            tmp_path, b'{"a": 0.5,\n"b": 0.5,\n"\xff": 0}\n',
            lambda path: ["reweight", data("fixture_scores.csv"), "--priors", path],
        )
        assert proc.returncode == 2
        assert proc.stderr.decode() == f"error: {tmp_path / 'in'}:3: not valid UTF-8\n"


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestScoreReader:
    """``reweight`` parses its scores body in a forked reader when it may use two CPUs."""

    def _scores(self, tmp_path, lines=400, k=4):
        """A scores CSV whose class mix changes halfway, with one class no decision reaches."""
        rng = np.random.default_rng(14)
        scores = rng.dirichlet(np.ones(k), size=lines)
        scores[lines // 2:, 1] += 2.0
        scores /= scores.sum(axis=1, keepdims=True)
        path = str(tmp_path / "s.csv")
        _write_scores_csv(path, [f"c{i}" for i in range(k)], scores)
        conf = tmp_path / "c.csv"
        conf.write_text(
            "c0,c1,c2,c3\n0.7,0.1,0.1,0.1\n0.1,0.7,0.1,0.1\n0.1,0.1,0.7,0.1\n0.1,0.1,0.1,0.7\n",
            encoding="utf-8",
        )
        return path, str(conf)

    def _run(self, monkeypatch, capsys, cpus, argv, block_bytes=200):
        """stdout, stderr, exit code and forks of ``main(argv)`` on ``cpus`` CPUs."""
        real_fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        monkeypatch.setattr(harness, "_cpu_count", lambda: cpus)
        with small_blocks(block_bytes):
            code = main(argv)
        monkeypatch.setattr(os, "fork", real_fork)
        assert_no_children()
        captured = capsys.readouterr()
        return captured.out, captured.err, code, len(forks)

    def test_bytes_do_not_depend_on_the_reader(self, tmp_path, monkeypatch, capsys):
        # On two CPUs static reweight forks a reader, and live a reader and a solver.
        scores, conf = self._scores(tmp_path)
        for argv, lines, forks in (
            (["reweight", data("fixture_scores.csv"), "--priors", data("fixture_priors.json")], 5, 1),
            (["reweight", scores, "--confusion", conf, "--reestimate-every", "7", "--window", "50"], 401, 2),
        ):
            serial = self._run(monkeypatch, capsys, 1, argv)
            forked = self._run(monkeypatch, capsys, 2, argv)
            assert serial == (forked[0], "", 0, 0) and forked[1:] == ("", 0, forks)
            assert serial[0].count("\n") == lines

    def test_bytes_do_not_depend_on_the_writer(self, tmp_path, monkeypatch, capfd):
        # capfd's stdout has a descriptor, which no child holds: this process
        # writes every row, so the forks are as in process-captured runs.
        scores, conf = self._scores(tmp_path)
        for argv, lines, forks in (
            (["reweight", data("fixture_scores.csv"), "--priors", data("fixture_priors.json")], 5, 1),
            (["reweight", scores, "--confusion", conf, "--reestimate-every", "7", "--window", "50"], 401, 2),
        ):
            serial = self._run(monkeypatch, capfd, 1, argv)
            forked = self._run(monkeypatch, capfd, 2, argv)
            assert serial == (forked[0], "", 0, 0) and forked[1:] == ("", 0, forks)
            assert serial[0].count("\n") == lines

    def test_warnings_keep_their_order(self, tmp_path, monkeypatch, capsys):
        # Class c has zero recall, so each precision/recall estimate after a
        # c decision fails; every seventh row is skipped under --lenient.
        conf = tmp_path / "c.csv"
        conf.write_text("a,b,c\n1,0,0\n0,1,0\n1,0,0\n", encoding="utf-8")
        rows = ["label,s_a,s_b,s_c"] + [
            "a,0.5,0.5,0.5" if i % 7 == 3 else "c,0.1,0.2,0.7" if i % 5 == 0 else "a,0.6,0.3,0.1"
            for i in range(60)
        ]
        scores = tmp_path / "s.csv"
        scores.write_text("\n".join(rows) + "\n", encoding="utf-8")
        argv = ["reweight", str(scores), "--confusion", str(conf), "--method", "pr",
                "--reestimate-every", "4", "--lenient"]
        serial = self._run(monkeypatch, capsys, 1, argv, block_bytes=40)
        forked = self._run(monkeypatch, capsys, 2, argv, block_bytes=40)
        assert serial == forked[:3] + (0,)
        kinds = ["keep" if "keeping previous priors" in line else "skip"
                 for line in serial[1].splitlines()]
        assert kinds.count("skip") == 9
        assert "skip" in kinds[kinds.index("keep"):]  # the two kinds interleave
        assert kinds[0] == "skip" and kinds[1] == "keep"

    def test_warning_just_before_an_error(self, tmp_path, monkeypatch, capsys):
        # The skipped line is the last before the bad byte: no block comes between.
        scores = tmp_path / "s.csv"
        scores.write_bytes(b"label,s_a,s_b\na,0.5,0.5\nb,oops,0.5\n\xff\n")
        priors = tmp_path / "p.json"
        priors.write_text('{"a": 0.5, "b": 0.5}', encoding="utf-8")
        argv = ["reweight", str(scores), "--priors", str(priors), "--lenient"]
        serial = self._run(monkeypatch, capsys, 1, argv)
        forked = self._run(monkeypatch, capsys, 2, argv)
        assert serial[:3] == forked[:3]
        assert serial[1] == (
            f"warning: {scores}:3: could not convert string to float: 'oops'\n"
            f"error: {scores}:4: not valid UTF-8\n"
        )

    def test_body_error_leaves_no_output(self, tmp_path, monkeypatch, capsys):
        scores, conf = self._scores(tmp_path)
        with open(scores, "a", encoding="utf-8") as fp:
            fp.write("0.5,0.5,0.5,oops\n")
        out = tmp_path / "out.csv"
        argv = ["--output", str(out), "reweight", scores, "--confusion", conf, "--reestimate-every", "7"]
        for cpus in (1, 2):
            _, err, code, _ = self._run(monkeypatch, capsys, cpus, argv)
            assert code == 2
            assert err == f"error: {scores}:402: could not convert string to float: 'oops'\n"
            assert not out.exists()

    def test_dead_reader_exits_4(self, tmp_path, monkeypatch, capsys):
        scores, conf = self._scores(tmp_path)
        real, parent, calls = fileio._score_block, os.getpid(), []

        def dying(*args, **kwargs):
            calls.append(1)
            if len(calls) == 6 and os.getpid() != parent:
                os._exit(9)
            return real(*args, **kwargs)

        monkeypatch.setattr(fileio, "_score_block", dying)
        out = tmp_path / "out.csv"
        argv = ["--output", str(out), "reweight", scores, "--confusion", conf, "--reestimate-every", "7"]
        _, err, code, forks = self._run(monkeypatch, capsys, 2, argv)
        assert (code, forks) == (4, 2)
        assert err.startswith("error: ") and "exit code 9" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert not out.exists()

    def test_live_golden_on_one_and_two_cpus(self, monkeypatch, capfd):
        # A uniform first part, a QP re-estimate with a zero prior, and a
        # last row whose decision moves from class 2 to class 0.
        argv = [
            "reweight", data("fixture_scores.csv"),
            "--confusion", data("fixture_confusion3.csv"), "--reestimate-every", "2",
        ]
        golden = read_bytes(data("golden_reweight_live.csv")).decode()
        for cpus, forks in ((1, 0), (2, 2)):
            assert self._run(monkeypatch, capfd, cpus, argv) == (golden, "", 0, forks)

    def test_failing_fork_reads_in_process(self, tmp_path, monkeypatch, capsys):
        scores, conf = self._scores(tmp_path)
        argv = ["reweight", scores, "--confusion", conf, "--reestimate-every", "7"]
        serial = self._run(monkeypatch, capsys, 1, argv)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(harness.os, "fork", no_fork)
        monkeypatch.setattr(harness, "_cpu_count", lambda: 2)
        with small_blocks(200):
            assert main(argv) == 0
        assert_no_children()
        assert capsys.readouterr().out == serial[0]

    def test_fifo_input(self, tmp_path):
        scores, conf = self._scores(tmp_path)
        argv_of = lambda path: ["reweight", path, "--confusion", conf, "--reestimate-every", "7"]
        via_pipe = _through_fifo(tmp_path, read_bytes(scores), argv_of)
        via_file = subprocess.run(
            [sys.executable, "-m", "prioradapt", *argv_of(scores)], capture_output=True, env=src_env(),
        )
        assert via_pipe.returncode == via_file.returncode == 0, via_pipe.stderr
        assert via_pipe.stdout == via_file.stdout
        assert via_pipe.stdout.count(b"\n") == 401


class TestBlasThreads:
    """The command line runs BLAS on one thread, so its bytes ignore the caller's thread setting."""

    def _inputs(self, tmp_path, k=200):
        rng = np.random.default_rng(200)
        labels = [f"c{i:03d}" for i in range(k)]
        conf = rng.dirichlet(np.full(k, 0.05), size=k) * 0.5 + np.eye(k) * 0.5
        with open(tmp_path / "conf.csv", "w", encoding="utf-8") as fp:
            fp.write(",".join(labels) + "\n")
            fp.writelines(",".join(repr(float(x)) for x in row) + "\n" for row in conf)
        np.savetxt(tmp_path / "dec.txt", rng.integers(0, k, 100_000), fmt="%d")
        _write_scores_csv(tmp_path / "scores.csv", labels, rng.dirichlet(np.full(k, 0.3), size=300))
        return str(tmp_path / "conf.csv"), str(tmp_path / "dec.txt"), str(tmp_path / "scores.csv")

    def test_bytes_do_not_depend_on_the_thread_count(self, tmp_path):
        conf, decisions, scores = self._inputs(tmp_path)
        for argv in (
            ["estimate", conf, decisions, "--method", "all"],
            ["reweight", scores, "--confusion", conf, "--method", "qp", "--reestimate-every", "10"],
        ):
            outputs = []
            for threads in ("1", "2"):
                proc = subprocess.run(
                    [sys.executable, "-m", "prioradapt", *argv], capture_output=True,
                    env=src_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads),
                    timeout=120,
                )
                assert proc.returncode == 0, proc.stderr
                outputs.append(proc.stdout)
            assert outputs[0] == outputs[1], argv

    def test_import_keeps_the_callers_environment(self):
        env = src_env(OPENBLAS_NUM_THREADS="4")
        env.pop("OMP_NUM_THREADS", None)
        env.pop("MKL_NUM_THREADS", None)
        code = (
            "import os, prioradapt.cli\n"
            "print([os.environ.get(n) for n in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')])"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True, timeout=60)
        assert proc.stdout == "['4', None, None]\n", proc.stderr

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task")
    def test_numpy_loaded_by_the_cli_runs_one_thread(self):
        code = (
            "import os, prioradapt.cli, numpy as np\n"
            "a = np.ones((1500, 1500))\n"
            "a @ a\n"
            "print(len(os.listdir('/proc/self/task')))"
        )
        env = src_env(OPENBLAS_NUM_THREADS="4", OMP_NUM_THREADS="4", MKL_NUM_THREADS="4")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, text=True, timeout=60)
        assert proc.stdout == "1\n", proc.stderr


class TestErrorsInFileOrder:
    """The first error in a file ends the run, after the rows before it are written."""

    HEADER = "baseline,adapted,raw_a,raw_b,norm_a,norm_b\n"

    def _reweight(self, tmp_path, *extra):
        path = tmp_path / "mix.csv"
        # A bad cell on line 3 and an undecodable byte on line 5.
        path.write_bytes(b"label,s_a,s_b\na,0.5,0.5\nb,oops,0.5\na,0.25,0.75\nb,0.5,0.5\xff\n")
        priors = tmp_path / "p.json"
        priors.write_text('{"a": 0.5, "b": 0.5}', encoding="utf-8")
        return path, main(["reweight", str(path), "--priors", str(priors), *extra])

    def test_strict_stops_at_the_bad_cell(self, tmp_path, capsys):
        path, code = self._reweight(tmp_path)
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == self.HEADER + "0,0,0.25,0.25,0.5,0.5\n"
        assert captured.err == f"error: {path}:3: could not convert string to float: 'oops'\n"

    def test_lenient_stops_at_the_bad_byte(self, tmp_path, capsys):
        path, code = self._reweight(tmp_path, "--lenient")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == self.HEADER + "0,0,0.25,0.25,0.5,0.5\n1,1,0.125,0.375,0.25,0.75\n"
        assert captured.err == (
            f"warning: {path}:3: could not convert string to float: 'oops'\n"
            f"error: {path}:5: not valid UTF-8\n"
        )


def _write_scores_csv(path, labels, scores, truth=None):
    header = ",".join(f"s_{l}" for l in labels)
    rows = [",".join(repr(float(x)) for x in row) for row in scores]
    if truth is not None:
        header = "label," + header
        rows = [f"{labels[t]},{row}" for t, row in zip(truth, rows)]
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write("\n".join([header, *rows]) + "\n")


def _reweight_output(path, k):
    with open(path, encoding="utf-8") as fp:
        header, *lines = fp.read().splitlines()
    cells = np.array([[float(x) for x in line.split(",")] for line in lines]).reshape(-1, 2 + 2 * k)
    return header.split(","), cells[:, 0].astype(int), cells[:, 1].astype(int), cells[:, 2:2 + k], cells[:, 2 + k:]


def _close(actual, expected, rtol=1e-12):
    """Elementwise relative agreement; exact zeros must match."""
    return np.all(np.abs(actual - expected) <= rtol * np.abs(expected))


@st.composite
def _grid_scores(draw, k, rows, positive=False):
    """Score rows on a grid of 1/G steps: ties and zeros are common unless ``positive``."""
    grid = draw(st.sampled_from([2, 4, 8]))
    out = np.zeros((rows, k))
    for r in range(rows):
        if positive:
            counts = np.array(draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)), dtype=float)
        else:
            cuts = sorted(draw(st.lists(st.integers(0, grid), min_size=k - 1, max_size=k - 1)))
            counts = np.diff([0, *cuts, grid]).astype(float)
        out[r] = counts / counts.sum()
    return out


#: Score block sizes in bytes: one row per block, a few rows, and the default.
_block_bytes = st.sampled_from([1, 40, 150, 1 << 16])


class TestReweightDifferential:
    """``reweight`` through ``cli.main`` against a numpy reference on small CSVs."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_static_priors(self, data):
        k = data.draw(st.integers(2, 8))
        n = data.draw(st.integers(1, 50))
        labels = [f"c{i}" for i in range(k)]
        scores = data.draw(_grid_scores(k, n))
        weights = np.array(data.draw(st.lists(st.integers(0, 4), min_size=k, max_size=k)), dtype=float)
        if not weights.any():
            weights[data.draw(st.integers(0, k - 1))] = 1.0
        truth = data.draw(st.none() | st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        block_bytes = data.draw(_block_bytes)
        with tempfile.TemporaryDirectory() as tmp:
            scores_path, priors_path = os.path.join(tmp, "s.csv"), os.path.join(tmp, "p.json")
            out = os.path.join(tmp, "out.csv")
            _write_scores_csv(scores_path, labels, scores, truth)
            with open(priors_path, "w", encoding="utf-8") as fp:
                json.dump(dict(zip(labels, weights.tolist())), fp)
            with small_blocks(block_bytes):
                code = main(["--output", out, "reweight", scores_path, "--priors", priors_path])
            assert code == 0
            header, baseline, adapted, raw, norm = _reweight_output(out, k)
        assert header == ["baseline", "adapted", *(f"raw_{l}" for l in labels), *(f"norm_{l}" for l in labels)]
        products = (weights / weights.sum()) * scores
        expected_baseline = np.argmax(scores, axis=1)  # ties go to the lowest index
        fallback = ~np.any(products > 0.0, axis=1)
        expected_adapted = np.where(fallback, expected_baseline, np.argmax(products, axis=1))
        totals = products.sum(axis=1, keepdims=True)
        expected_norm = np.divide(products, totals, out=products.copy(), where=totals > 0.0)
        assert np.array_equal(baseline, expected_baseline)
        assert np.array_equal(adapted, expected_adapted)
        assert _close(raw, products)
        assert _close(norm, expected_norm)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_live_priors_on_simplex_between_cadence_multiples(self, data):
        k = data.draw(st.integers(2, 8))
        n = data.draw(st.integers(1, 50))
        cadence = data.draw(st.integers(1, 12))
        window = data.draw(st.integers(1, 60))
        method = data.draw(st.sampled_from(["qp", "inverse", "naive", "pr"]))
        labels = [f"c{i}" for i in range(k)]
        scores = data.draw(_grid_scores(k, n, positive=True))
        confusion = np.array(
            data.draw(st.lists(st.integers(0, 4), min_size=k * k, max_size=k * k)), dtype=float
        ).reshape(k, k) + np.eye(k)
        with tempfile.TemporaryDirectory() as tmp:
            scores_path, conf_path = os.path.join(tmp, "s.csv"), os.path.join(tmp, "c.csv")
            out = os.path.join(tmp, "out.csv")
            _write_scores_csv(scores_path, labels, scores)
            with open(conf_path, "w", encoding="utf-8") as fp:
                fp.write(",".join(labels) + "\n")
                fp.writelines(",".join(str(int(x)) for x in row) + "\n" for row in confusion)
            argv = [
                "--quiet", "--output", out, "reweight", scores_path, "--confusion", conf_path,
                "--method", method, "--reestimate-every", str(cadence), "--window", str(window),
            ]
            assert main(argv) == 0
            whole = read_bytes(out)
            # Blocks of a few rows, or of one row longer than the block, decide the same.
            with small_blocks(data.draw(_block_bytes)):
                assert main(argv) == 0
            assert read_bytes(out) == whole
            _, baseline, adapted, raw, _ = _reweight_output(out, k)
        assert np.array_equal(baseline, np.argmax(scores, axis=1))
        in_force = raw / scores  # every score is positive
        assert np.all(in_force >= 0.0)
        assert np.all(np.abs(in_force.sum(axis=1) - 1.0) <= 1e-9)
        block_start = in_force[(np.arange(n) // cadence) * cadence]
        assert _close(in_force, block_start)
        assert np.allclose(in_force[0], 1.0 / k, rtol=1e-12, atol=0.0)
        best = raw.max(axis=1)
        assert np.all(raw[np.arange(n), adapted] >= best * (1.0 - 1e-12))
        assert np.array_equal(adapted[best == 0.0], baseline[best == 0.0])


class TestLiveReweightMatchesDriftReplay:
    """``reweight --confusion`` and the drift rows of ``evaluate`` run one adaptation loop."""

    @pytest.mark.parametrize("window,every", [(None, 7), (8, 3), (1, 1)])
    @pytest.mark.parametrize("transfer,test", [(None, None), (150, 100)])
    def test_segment_accuracy(self, tmp_path, window, every, transfer, test):
        scenario = data("fixture_scenario.json")
        if transfer is not None:
            # A longer stream, on which the estimators' decisions part.
            with open(scenario, encoding="utf-8") as fp:
                doc = json.load(fp)
            doc.update(transfer_size=transfer, test_size=test)
            doc["drift"][0]["start"] = transfer
            scenario = tmp_path / "scenario.json"
            scenario.write_text(json.dumps(doc), encoding="utf-8")
        spec, clf = harness.read_scenario_json(str(scenario))
        rows = run_drift_scenario(spec, clf, window=window, reestimate_every=every)
        # The replay's confusion matrix and stream, from the same seeds.
        stream_ss, h_ss = np.random.SeedSequence(spec.seed).spawn(2)
        conf = estimate_confusion(clf, DEFAULT_H_SAMPLES_PER_CLASS, np.random.default_rng(h_ss))
        stream = list(simulate_stream(spec, clf, np.random.default_rng(stream_ss)))
        truth = np.concatenate([t for _, t, _ in stream])
        segments = np.repeat([s for _, _, s in stream], [len(t) for _, t, _ in stream])
        conf_path, scores_path = tmp_path / "conf.csv", tmp_path / "scores.csv"
        with open(conf_path, "w", encoding="utf-8", newline="\n") as fp:
            fileio.write_confusion_csv(conf, fp)
        labels = spec.catalog.labels
        with open(scores_path, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(",".join(["label", *(f"s_{l}" for l in labels)]) + "\n")
            for scores, block_truth, _ in stream:
                for row, label in zip(scores, block_truth):
                    fp.write(",".join([labels[label], *map(fileio.format_float, row)]) + "\n")
        argv = ["reweight", str(scores_path), "--confusion", str(conf_path),
                "--reestimate-every", str(every)]
        if window is not None:
            argv += ["--window", str(window)]
        code, out = run(argv, tmp_path)
        assert code == 0
        with open(out, encoding="utf-8") as fp:
            adapted = [int(line.split(",")[1]) for line in fp.read().splitlines()[1:]]
        expected = {r.scenario: r.accuracy for r in rows if r.method == "quadratic_program"}
        for segment in sorted(set(segments.tolist())):
            hits = [a == t for a, t, s in zip(adapted, truth, segments) if s == segment]
            assert sum(hits) / len(hits) == expected[f"{spec.name}/segment-{segment}"]


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

    def test_quoted_labels_round_trip_through_reweight(self, tmp_path, capsys):
        labels = ["a,b", 'c"d', "e"]
        doc = {
            "labels": labels,
            "active_classes": labels[:2],
            "true_priors": {labels[0]: 0.5, labels[1]: 0.5},
            "transfer_size": 10,
            "test_size": 10,
            "seed": 1,
            "classifier": {"diagonal": 0.8, "confusion_seed": 2},
        }
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["--quiet", "--output", str(tmp_path / "sim"), "simulate", str(scen)]) == 0
        with open(tmp_path / "sim.truth.csv", encoding="utf-8", newline="") as fp:
            rows = list(csv.reader(line for line in fp if not line.startswith("#")))
        assert rows[0] == ["index", "label", "segment"]
        assert len(rows) == 21 and all(len(row) == 3 and row[1] in labels for row in rows[1:])
        priors = tmp_path / "priors.json"
        priors.write_text(json.dumps(dict(zip(labels, (0.4, 0.4, 0.2)))), encoding="utf-8")
        conf = tmp_path / "conf.csv"
        conf.write_text('"a,b","c""d",e\n8,1,1\n1,8,1\n1,1,8\n', encoding="utf-8")
        header = ["baseline", "adapted", *(f"{kind}_{l}" for kind in ("raw", "norm") for l in labels)]
        for source in (["--priors", str(priors)], ["--confusion", str(conf), "--reestimate-every", "4"]):
            assert main(["reweight", str(tmp_path / "sim.scores.csv"), *source]) == 0
            out = list(csv.reader(io.StringIO(capsys.readouterr().out)))
            assert out[0] == header
            assert len(out) == 21 and all(len(row) == 2 * len(labels) + 2 for row in out)

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


class TestOutputFile:
    """--output is written in full or not at all."""

    BAD_SCORES = "s_a,s_b,s_c\n0.5,0.25,0.25\n0.9,0.3,0.1\n"

    def _failing_reweight(self, tmp_path, out):
        scores = tmp_path / "s.csv"
        scores.write_text(self.BAD_SCORES, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--output", str(out), "reweight", str(scores), "--priors", data("fixture_priors.json")])
            gc.collect()
        assert code == 2
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_failure_leaves_no_new_file(self, tmp_path):
        out = tmp_path / "out.csv"
        self._failing_reweight(tmp_path, out)
        assert sorted(os.listdir(tmp_path)) == ["s.csv"]

    def test_failure_leaves_existing_file_untouched(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier output\n")
        self._failing_reweight(tmp_path, out)
        assert read_bytes(str(out)) == b"earlier output\n"
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "s.csv"]

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_file_mode_as_plain_open(self, tmp_path):
        umask = os.umask(0o027)
        try:
            code, out = run(["normalize", data("fixture_confusion_raw.csv")], tmp_path)
        finally:
            os.umask(umask)
        assert code == 0
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o640
        os.chmod(out, 0o604)
        code, out = run(["normalize", data("fixture_confusion3.csv")], tmp_path)
        assert code == 0
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o604
        assert read_bytes(out).startswith(b"a,b,c\n")

    @pytest.mark.skipif(os.name != "posix", reason="POSIX symbolic links")
    def test_symlink_written_through(self, tmp_path):
        target = tmp_path / "target.csv"
        target.write_bytes(b"earlier output\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        code, _ = run(["normalize", data("fixture_confusion_raw.csv")], tmp_path, "link.csv")
        assert code == 0
        assert link.is_symlink()
        assert read_bytes(str(target)).startswith(b"a,b\n")
        assert sorted(os.listdir(tmp_path)) == ["link.csv", "target.csv"]

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_device_written_in_place(self):
        assert main(["--output", "/dev/null", "normalize", data("fixture_confusion_raw.csv")]) == 0
        assert stat.S_ISCHR(os.stat("/dev/null").st_mode)

    def test_missing_directory_names_the_given_path(self, tmp_path, capsys):
        out = str(tmp_path / "missing" / "x.json")
        errors = []
        for _ in range(2):
            assert main(["--output", out, "evaluate", "--folds", "2"]) == 4
            errors.append(capsys.readouterr().err)
        assert "x.json" in errors[0] and out in errors[0]
        assert ".tmp" not in errors[0]
        assert errors[0] == errors[1]
        if hasattr(os, "fork"):
            with pytest.raises(ChildProcessError):  # the suite's workers are all reaped
                os.waitpid(-1, os.WNOHANG)

    def test_simulate_failure_leaves_neither_file(self, tmp_path, monkeypatch):
        real = cli.simulate_stream

        def failing(spec, clf):
            yield from itertools.islice(real(spec, clf), 3)
            raise ValidationError("stream cut short")

        monkeypatch.setattr(cli, "simulate_stream", failing)
        code = main(["--quiet", "--output", str(tmp_path / "sim"), "simulate", data("fixture_scenario.json")])
        assert code == 2
        assert os.listdir(tmp_path) == []

    @staticmethod
    def _children(pid: int) -> set[int]:
        """The processes whose parent is ``pid``, read from /proc."""
        found = set()
        for entry in os.listdir("/proc"):
            with contextlib.suppress(OSError):
                with open(f"/proc/{entry}/stat", encoding="utf-8") as fp:
                    if int(fp.read().rpartition(")")[2].split()[1]) == pid:
                        found.add(int(entry))
        return found

    def _interrupted(self, tmp_path, entry: str, group: bool, signum: int, ignored: bool = False, rows: int = 20_000):
        """Start a live `reweight --output` over an earlier output, send ``signum`` mid-run and wait for the end.

        Live re-weighting every row takes seconds, in this command's process,
        a reader and a solver where two CPUs are free.  The signal goes to the
        command alone, or, as from `timeout` or a hang-up, to its process
        group.  With ``ignored``, the command starts with ``signum`` ignored,
        as under `nohup`.  Returns the process, its stderr, the output path
        and the children it had when the signal was sent.
        """
        rng = np.random.default_rng(0)
        scores = tmp_path / "s.csv"
        with open(scores, "w", encoding="utf-8") as fp:
            fp.write("s_a,s_b,s_c\n")
            np.savetxt(fp, rng.dirichlet(np.ones(3), rows), fmt="%.17g", delimiter=",")
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier output\n")
        argv = ["--output", str(out), "reweight", str(scores), "--confusion", data("fixture_confusion3.csv"),
                "--reestimate-every", "1"]
        proc = subprocess.Popen(
            [sys.executable, *ENTRIES[entry], *argv], env=src_env(), stderr=subprocess.PIPE, start_new_session=group,
            preexec_fn=(lambda: signal.signal(signum, signal.SIG_IGN)) if ignored else None,
        )
        try:
            deadline = time.monotonic() + 30
            while not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]:
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            time.sleep(0.3)  # mid-run
            children = self._children(proc.pid)
            # Both children were forked before the output was opened: neither holds it.
            for pid in children:
                held = []
                with contextlib.suppress(OSError):  # a child that has just ended
                    for fd in os.listdir(f"/proc/{pid}/fd"):
                        with contextlib.suppress(OSError):
                            held.append(os.readlink(f"/proc/{pid}/fd/{fd}"))
                assert not [path for path in held if path.endswith(".tmp")], held
            if group:
                os.killpg(proc.pid, signum)
            else:
                proc.send_signal(signum)
            _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
        return proc, err, out, children

    def _assert_ended_by(self, signum: int, tmp_path, entry: str, group: bool) -> None:
        proc, err, out, children = self._interrupted(tmp_path, entry, group, signum)
        assert proc.returncode == -signum, err
        assert err == b""  # a solver that died of the same signal is no error
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "s.csv"]
        assert read_bytes(str(out)) == b"earlier output\n"
        assert len(children) == (2 if harness._cpu_count() > 1 else 0)  # the reader and the solver
        assert not [pid for pid in children if os.path.exists(f"/proc/{pid}")]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads child processes from /proc")
    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("group", [False, True], ids=["process", "group"])
    def test_sigterm_leaves_no_temporary_file(self, tmp_path, entry, group):
        self._assert_ended_by(signal.SIGTERM, tmp_path, entry, group)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads child processes from /proc")
    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("group", [False, True], ids=["process", "group"])
    @pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGHUP], ids=["SIGINT", "SIGHUP"])
    def test_sigint_and_sighup_end_it_as_sigterm_does(self, tmp_path, entry, group, signum):
        # Ctrl-C prints no KeyboardInterrupt traceback; a hang-up leaves no .tmp.
        self._assert_ended_by(signum, tmp_path, entry, group)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads child processes from /proc")
    @pytest.mark.parametrize("entry, group, signum", [
        ("module", False, signal.SIGTERM),
        ("script", True, signal.SIGTERM),
        ("script", True, signal.SIGINT),
        ("script", True, signal.SIGHUP),
    ], ids=["module-process-SIGTERM", "script-group-SIGTERM", "script-group-SIGINT", "script-group-SIGHUP"])
    def test_evaluate_ends_by_the_signal_while_its_workers_run(self, tmp_path, entry, group, signum):
        # The built-in suite forks a worker per further CPU; the signal is
        # sent once one is listed, long before the 150 folds are done.
        if harness._cpu_count() < 2:
            pytest.skip("the suite forks no worker on one CPU")
        out = tmp_path / "out.md"
        out.write_bytes(b"earlier output\n")
        argv = ["--output", str(out), "evaluate", "--folds", "150"]
        proc = subprocess.Popen(
            [sys.executable, *ENTRIES[entry], *argv], env=src_env(), stderr=subprocess.PIPE, start_new_session=group,
        )
        try:
            deadline = time.monotonic() + 30
            while not (children := self._children(proc.pid)):
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            if group:
                os.killpg(proc.pid, signum)
            else:
                proc.send_signal(signum)
            _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == -signum, err
        assert err == b""
        assert os.listdir(tmp_path) == ["out.md"]
        assert read_bytes(str(out)) == b"earlier output\n"
        assert not [pid for pid in children if os.path.exists(f"/proc/{pid}")]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads child processes from /proc")
    def test_ignored_sighup_lets_the_command_finish(self, tmp_path):
        # Sent to the group, so the reader and the solver ignore it as well.
        proc, err, out, _ = self._interrupted(tmp_path, "script", True, signal.SIGHUP, ignored=True, rows=2_000)
        assert proc.returncode == 0, err
        assert err == b""
        assert sorted(os.listdir(tmp_path)) == ["out.csv", "s.csv"]
        assert read_bytes(str(out)).count(b"\n") == 1 + 2_000


_NUMPY_ALLOCATION_ERROR = (
    "Unable to allocate 745. GiB for an array with shape (100000000000,) and data type int64"
)


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

    @pytest.mark.parametrize("name, file_name", [
        ("north|south\r\nand\reast\nwest", "scen.json"), (None, "north|south.json"),
    ], ids=["name", "file-name"])
    def test_markdown_escapes_the_scenario_name(self, tmp_path, capsys, name, file_name):
        doc = {
            "labels": ["a", "b"],
            "active_classes": ["a", "b"],
            "true_priors": {"a": 0.5, "b": 0.5},
            "transfer_size": 10,
            "test_size": 10,
            "seed": 5,
            "classifier": {"diagonal": 0.8, "confusion_seed": 2},
        }
        if name is not None:
            doc["name"] = name
        scen = tmp_path / file_name
        scen.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["evaluate", str(scen), "--folds", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "| Method | north\\|south" + ("<br>and<br>east<br>west" if name else "") + " |"
        assert len(lines) == 8  # header, separator and six methods
        assert {len(re.split(r"(?<!\\)\|", line)) for line in lines} == {4}

    def test_rejects_single_fold(self, tmp_path):
        assert main(["evaluate", data("fixture_scenario.json"), "--folds", "1"]) == 2

    @pytest.mark.parametrize("folds", ["0", "1"])
    def test_suite_rejects_fewer_than_two_folds(self, folds, capsys):
        assert main(["evaluate", "--folds", folds]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--folds must be >= 2, got {folds}" in captured.err

    @pytest.mark.parametrize("folds", ["1", "7", "10"])
    def test_refuses_folds_on_drift_scenario(self, folds, capsys):
        assert main(["evaluate", data("fixture_scenario.json"), "--folds", folds]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--folds applies only to cross-validation, not to drift scenarios" in captured.err

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
            env = src_env(PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "prioradapt", "--format", "json", "evaluate", "--folds", "2"],
                capture_output=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    @pytest.mark.skipif(shutil.which("taskset") is None, reason="needs taskset")
    def test_suite_bytes_on_one_cpu(self):
        argv = [sys.executable, "-m", "prioradapt", "--format", "json", "--seed", "7",
                "evaluate", "--folds", "20"]
        default = subprocess.run(argv, capture_output=True, env=src_env(), timeout=120)
        one_cpu = subprocess.run(
            ["taskset", "-c", "0", *argv], capture_output=True, env=src_env(), timeout=120
        )
        assert default.returncode == 0, default.stderr
        assert one_cpu.returncode == 0, one_cpu.stderr
        assert one_cpu.stdout == default.stdout
        assert default.stdout == read_bytes(data("golden_evaluate_seed7.json"))

    def test_json_full_precision_golden(self, tmp_path):
        # golden_evaluate.md rounds to 3 decimals; this pins every digit.
        code, out = run(["--format", "json", "--seed", "7", "evaluate", "--folds", "20"], tmp_path)
        assert code == 0
        assert read_bytes(out) == read_bytes(data("golden_evaluate_seed7.json"))

    @pytest.mark.parametrize("argv", [
        ["evaluate", "--folds", "2", "--window", "0", "--reestimate-every", "0"],
        ["evaluate", "--folds", "2", "--reestimate-every", "50"],
        ["evaluate", "SCENARIO", "--folds", "2", "--window", "0", "--reestimate-every", "-5"],
        ["evaluate", "SCENARIO", "--folds", "2", "--window", "8"],
    ])
    def test_refuses_drift_options_without_drift(self, argv, tmp_path, capsys):
        scen = tmp_path / "scen.json"
        scen.write_text(json.dumps(_SCENARIO), encoding="utf-8")
        assert main([str(scen) if a == "SCENARIO" else a for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--window and --reestimate-every apply only to drift scenarios" in captured.err

    def test_drift_cadence_defaults_to_50(self, tmp_path, capsys):
        scen = data("fixture_scenario.json")
        assert main(["evaluate", scen]) == 0
        default = capsys.readouterr().out
        assert main(["evaluate", scen, "--reestimate-every", "50"]) == 0
        assert capsys.readouterr().out == default
        assert main(["evaluate", scen, "--reestimate-every", "0"]) == 2

    @pytest.mark.parametrize("folds", ["151", "1000"])
    def test_folds_beyond_suite_pool_exit_2(self, folds, capsys):
        assert main(["evaluate", "--folds", folds]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--folds {folds} exceeds the smallest pool, 150 records" in captured.err

    @pytest.mark.parametrize("message, line", [
        (_NUMPY_ALLOCATION_ERROR, _NUMPY_ALLOCATION_ERROR),
        ("", "MemoryError"),  # as Python itself raises it
    ])
    def test_failed_allocation_exits_4(self, tmp_path, monkeypatch, capsys, message, line):
        # Injected: a real allocation this large may wake the OOM killer instead of failing.
        def draw_labels(*args):
            raise MemoryError(message)

        monkeypatch.setattr(harness, "_draw_labels", draw_labels)
        with open(data("fixture_scenario.json"), encoding="utf-8") as fp:
            scenario = json.load(fp)
        del scenario["drift"]
        scenario["transfer_size"] = 100_000_000_000
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        assert main(["evaluate", str(path), "--folds", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {line}\n"

    @pytest.mark.parametrize("transfer_size", [2**53 - 7, 2**60, 2**63 - 10, 10**30])
    @pytest.mark.parametrize("command", ["evaluate", "simulate"])
    def test_sizes_past_an_exact_count_exit_2(self, tmp_path, command, transfer_size):
        # With test_size 8, each sum is past 2**53: the label counts would no
        # longer be exact in float64, nor fit an array.
        with open(data("fixture_scenario.json"), encoding="utf-8") as fp:
            scenario = json.load(fp)
        del scenario["drift"]
        scenario["transfer_size"] = transfer_size
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        argv = {
            "evaluate": ["evaluate", str(path), "--folds", "2"],
            "simulate": ["--output", str(tmp_path / "sim"), "simulate", str(path)],
        }[command]
        proc = subprocess.run(
            [sys.executable, "-m", "prioradapt", *argv], capture_output=True, env=src_env(), timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr.decode() == (
            f"error: {path}: scenario: transfer_size + test_size must be at most 2**53, "
            "the largest count a float64 holds exactly\n"
        )
        assert os.listdir(tmp_path) == ["s.json"]

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


#: ``(patch, message)``: ``_SCENARIO`` updated by ``patch`` (a list replaces it) is
#: refused with ``error: PATH: message``.
_MALFORMED_SCENARIOS = [
    ([1], "scenario JSON must be an object"),
    ({"transfer_size": True}, "scenario.transfer_size must be an integer"),
    ({"labels": ["a", 1, "c"]}, "scenario.labels must be strings"),
    ({"labels": ["a", "a", "c"]}, "scenario.labels: catalog labels must be unique"),
    ({"true_priors": {"z": 1.0}}, "scenario.true_priors: unknown class 'z'"),
    ({"active_classes": []}, "scenario: a scenario needs at least one active class"),
    ({"active_classes": ["a", "a"]}, "scenario: active_classes contains duplicates"),
    ({"test_size": 0}, "scenario: transfer_size and test_size must be >= 1"),
    ({"drift": {"start": 3}}, "scenario.drift must be a list"),
    ({"drift": [3]}, "scenario.drift[0] must be an object"),
    ({"drift": [{"start": 0, "priors": {"a": 1.0}}]},
     "scenario.drift[0]: drift segment must start at index >= 1"),
    ({"drift": [{"start": 60, "priors": {"a": 1.0}}]}, "scenario: drift start 60 beyond stream length 60"),
    ({"classifier": [1]}, "scenario.classifier must be an object"),
    ({"classifier": {"confusion_csv": 3}}, "scenario.classifier.confusion_csv must be a path"),
    ({"classifier": {"diagonal": "high"}},
     "scenario.classifier.diagonal must be a number or a list of 3 numbers"),
    ({"classifier": {"diagonal": [0.7, 0.7]}},
     "scenario.classifier.diagonal must be a number or a list of 3 numbers"),
    ({"classifier": {"diagonal": [0.7, 0.0, 0.7]}}, "scenario.classifier.diagonal entries must lie in (0, 1]"),
    ({"classifier": None}, "scenario.classifier is required"),
]


@pytest.mark.parametrize("patch, message", _MALFORMED_SCENARIOS)
@pytest.mark.parametrize("command", ["evaluate", "simulate"])
def test_malformed_scenario_exits_2_with_one_line(tmp_path, capsys, command, patch, message):
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(patch if isinstance(patch, list) else {**_SCENARIO, **patch}), encoding="utf-8")
    argv = {
        "evaluate": ["evaluate", str(path)],
        "simulate": ["--output", str(tmp_path / "sim"), "simulate", str(path)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
    assert os.listdir(tmp_path) == ["scen.json"]


@pytest.mark.parametrize("command", ["evaluate", "simulate"])
def test_scenario_without_classifier_exits_2_with_one_line(tmp_path, capsys, monkeypatch, command):
    monkeypatch.delitem(_SCENARIO, "classifier")
    test_malformed_scenario_exits_2_with_one_line(tmp_path, capsys, command, {}, "scenario.classifier is required")


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


@pytest.mark.parametrize("exc, code, err", [
    (ParseError("bad cell", path="c.csv", line=3), 2, "error: c.csv:3: bad cell\n"),
    (InsufficientDataError("no decisions"), 2, "error: no decisions\n"),
    (SingularMatrixError("matrix is singular"), 3, "error: SingularMatrixError: matrix is singular\n"),
    (ConvergenceError("cap reached", best_iterate=[0.25, 0.75]), 3,
     "error: ConvergenceError: cap reached\nbest iterate: 0.25, 0.75\n"),
    (FileNotFoundError(2, "No such file or directory", "c.csv"), 4,
     "error: [Errno 2] No such file or directory: 'c.csv'\n"),
], ids=["parse", "insufficient-data", "singular", "convergence", "file-not-found"])
def test_each_failure_has_one_exit_code_and_message(monkeypatch, capsys, exc, code, err):
    def command(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "normalize", command)
    assert main(["normalize", "c.csv"]) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("command, golden", [
    (["estimate", data("fixture_confusion3.csv"), data("fixture_decisions.txt"), "--method", "all"],
     "golden_estimate.json"),
    (["reweight", data("fixture_scores.csv"), "--confusion", data("fixture_confusion3.csv"),
      "--reestimate-every", "2"], "golden_reweight_live.csv"),
], ids=["estimate", "reweight"])
def test_window_past_int64_counts_every_decision(command, golden):
    # In a child process, so that a forked reader runs too.  The goldens are
    # made with no window; a window past the stream must count as none does.
    proc = subprocess.run(
        [sys.executable, "-m", "prioradapt", *command, "--window", str(2**63)],
        capture_output=True, env=src_env(), timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == read_bytes(data(golden))


def test_drift_window_past_int64_is_the_whole_stream(capsys):
    # The fixture's stream is 20 records long; a shorter window changes the rows.
    def rows(window):
        argv = ["--format", "json", "evaluate", data("fixture_scenario.json"), "--reestimate-every", "2"]
        assert main([*argv, "--window", str(window)]) == 0
        return capsys.readouterr().out

    assert rows(2**63) == rows(20) != rows(3)


class TestClosedStreams:
    """A closed stdout is an I/O failure; a closed stderr changes no exit code and no output byte."""

    @staticmethod
    def _bad_row(tmp_path):
        scores = tmp_path / "bad.csv"
        scores.write_text("s_a,s_b\n0.5,0.5\nx,1\n0.2,0.8\n", encoding="utf-8")
        priors = tmp_path / "p.json"
        priors.write_text('{"a": 0.5, "b": 0.5}', encoding="utf-8")
        return ["reweight", str(scores), "--priors", str(priors)]

    @staticmethod
    def _run(argv, closed_fd=None):
        """``python -m prioradapt argv``, started with ``closed_fd`` closed."""
        return subprocess.run(
            [sys.executable, "-m", "prioradapt", *argv], capture_output=True, env=src_env(), timeout=60,
            preexec_fn=None if closed_fd is None else lambda: os.close(closed_fd),
        )

    @pytest.mark.parametrize("argv", [
        ["reweight", data("fixture_scores.csv"), "--priors", data("fixture_priors.json")],
        ["normalize", data("fixture_confusion_raw.csv")],
    ], ids=["reweight", "normalize"])
    def test_closed_stdout_exits_4(self, argv):
        proc = self._run(argv, closed_fd=1)
        assert (proc.returncode, proc.stdout, proc.stderr) == (4, b"", b"error: [Errno 9] stdout is closed\n")

    @pytest.mark.parametrize("lenient, code", [(True, 0), (False, 2)], ids=["lenient", "strict"])
    def test_closed_stderr_changes_nothing_else(self, tmp_path, lenient, code):
        argv = self._bad_row(tmp_path) + ["--lenient"] * lenient
        with_stderr = self._run(argv)
        without = self._run(argv, closed_fd=2)
        assert with_stderr.returncode == without.returncode == code
        assert without.stdout == with_stderr.stdout
        assert without.stdout.count(b"\n") == (3 if lenient else 2)

    @pytest.mark.parametrize("lenient, code", [(True, 0), (False, 2)], ids=["lenient", "strict"])
    def test_no_stderr_in_process_writes_nothing_to_stdout(self, tmp_path, monkeypatch, capsys, lenient, code):
        argv = self._bad_row(tmp_path) + ["--lenient"] * lenient
        assert main(argv) == code
        expected = capsys.readouterr().out
        monkeypatch.setattr(sys, "stderr", None)
        assert main(argv) == code
        assert capsys.readouterr().out == expected


class TestMainLeavesNothingOpen:
    """``run`` ends the process with ``os._exit``, which closes nothing: by then ``main`` must have."""

    @staticmethod
    def _descriptors() -> set:
        return set(os.listdir("/proc/self/fd" if os.path.isdir("/proc/self/fd") else "/dev/fd"))

    @staticmethod
    def _io_failure(scores, priors):
        raise OSError(errno.EIO, "write failed")

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("case, code", [("ok", 0), ("bad_row", 2), ("solver", 3), ("io", 4)])
    def test_descriptors_and_temporaries(self, tmp_path, monkeypatch, capsys, case, code, cpus):
        monkeypatch.setattr(harness, "_cpu_count", lambda: cpus)  # on 2, static reweight forks a reader
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = ["reweight", data("fixture_scores.csv"), "--priors", data("fixture_priors.json")]
        if case == "bad_row":
            argv = TestClosedStreams._bad_row(tmp_path)
        elif case == "solver":
            (tmp_path / "sing.csv").write_text("a,b\n0.5,0.5\n0.5,0.5\n", encoding="utf-8")
            (tmp_path / "d.txt").write_text("0\n1\n", encoding="utf-8")
            argv = ["estimate", str(tmp_path / "sing.csv"), str(tmp_path / "d.txt"), "--method", "inverse"]
        elif case == "io":
            monkeypatch.setattr(cli, "_reweight_rows", self._io_failure)
        before = self._descriptors()
        assert main(["--output", str(out_dir / "x"), *argv]) == code, capsys.readouterr().err
        assert self._descriptors() == before
        assert os.listdir(out_dir) == (["x"] if code in (0, 3) else [])


# Runs the command through the plan's entry, ``python -m prioradapt`` or the
# installed script's ``run()``, with one fault planted: in the reader or the
# solver process, in the j-th call of os.fork or os.pipe, in the j-th live
# estimate, or in the write of the confusion cache entry, which fills the disk
# part way; argv[1] is the plan, the rest the command line.
_FAULT_RUNNER = """
import errno, json, os, runpy, sys
from prioradapt import cli, fileio, harness
from prioradapt.errors import PriorAdaptError

plan = json.loads(sys.argv[1])
fileio._BLOCK_BYTES = plan["block_bytes"]
parent = os.getpid()
if plan["fault"] == "reader":
    real_items = cli._score_items
    def _score_items(path, lenient):
        for n, item in enumerate(real_items(path, lenient)):
            if n == plan["at"] + 1 and os.getpid() != parent:  # item 0 is the catalog
                os._exit(7)
            yield item
    cli._score_items = _score_items
elif plan["fault"] == "solver":
    real_adapt = cli.adapt
    def adapt(*args):
        for n, part in enumerate(real_adapt(*args)):
            if n == plan["at"] and os.getpid() != parent:
                os._exit(7)
            yield part
    cli.adapt = adapt
elif plan["fault"] in ("fork", "pipe"):
    real_call, calls = getattr(os, plan["fault"]), []
    def failing():
        calls.append(1)
        if len(calls) == plan["at"] + 1:
            raise OSError(errno.EAGAIN, "planted failure")
        return real_call()
    setattr(os, plan["fault"], failing)
elif plan["fault"] == "estimate":
    real_qp, calls = harness.estimate_qp, []
    def estimate_qp(conf, hist):
        calls.append(1)
        if len(calls) == plan["at"] + 1:
            raise PriorAdaptError("planted failure")
        return real_qp(conf, hist)
    harness.estimate_qp = estimate_qp
elif plan["fault"] == "cache_write":
    def save(fp, *args, **kwargs):
        fp.write(b"NUMPY, part written")
        raise OSError(errno.ENOSPC, "planted failure")
    fileio.np.save = save
sys.argv = ["prioradapt", *sys.argv[2:]]
if plan["entry"] == "module":
    runpy.run_module("prioradapt", run_name="__main__")
else:
    from prioradapt.__main__ import run
    sys.exit(run())
"""


_FAULTS = ["none", "reader", "solver", "fork", "pipe", "estimate", "bad_row", "dev_full", "broken_pipe", "closed",
           "cache_write"]


@st.composite
def _fault_plans(draw):
    fault = draw(st.sampled_from(_FAULTS))
    return dict(
        cpus=draw(st.sampled_from([1, 2])),
        # Only a live run has a solver, estimates or reads a confusion CSV.
        live=draw(st.booleans()) or fault in ("solver", "estimate", "cache_write"),
        lenient=draw(st.booleans()),
        to_file=draw(st.booleans()),
        existing=draw(st.booleans()),
        buffered=draw(st.booleans()),
        entry=draw(st.sampled_from(["module", "script"])),
        fault=fault,
        at=draw(st.integers(0, TestReweightFaultPlan.ROWS - 1)),
    )


# The plan the pinned examples share: two CPUs, live, to stdout.
_PLAN = dict(cpus=2, live=True, lenient=False, to_file=False, existing=False, buffered=True, entry="module")


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity")
                    or not os.path.exists("/dev/full"), reason="needs fork, CPU affinity and /dev/full")
class TestReweightFaultPlan:
    """Whatever fault hits a ``reweight`` process, it exits with the code that fault implies and leaves no child."""

    ROWS = 150
    BLOCK_BYTES = 1024  # about 20 rows per reader block

    @classmethod
    def inputs(cls, tmp, bad_row=None, without=None):
        """Scores, confusion and priors files; row ``bad_row`` broken, or row ``without`` left out."""
        rng = np.random.default_rng(20)
        scores = rng.dirichlet(np.ones(4), size=cls.ROWS)
        scores[cls.ROWS // 2:, 1] += 2.0
        scores /= scores.sum(axis=1, keepdims=True)
        lines = [",".join(repr(float(x)) for x in row) for row in scores]
        if bad_row is not None:
            lines[bad_row] = "0.5,oops,0.25,0.25"
        if without is not None:
            del lines[without]
        paths = {name: os.path.join(tmp, name) for name in ("s.csv", "c.csv", "p.json")}
        with open(paths["s.csv"], "w", encoding="utf-8") as fp:
            fp.write("\n".join(["s_c0,s_c1,s_c2,s_c3", *lines]) + "\n")
        with open(paths["c.csv"], "w", encoding="utf-8") as fp:
            fp.write("c0,c1,c2,c3\n0.7,0.1,0.1,0.1\n0.1,0.7,0.1,0.1\n0.1,0.1,0.7,0.1\n0.1,0.1,0.1,0.7\n")
        with open(paths["p.json"], "w", encoding="utf-8") as fp:
            fp.write('{"c0": 0.1, "c1": 0.6, "c2": 0.2, "c3": 0.1}')
        return paths

    @staticmethod
    def argv(paths, live, lenient):
        source = (["--confusion", paths["c.csv"], "--reestimate-every", "7", "--window", "40"] if live
                  else ["--priors", paths["p.json"]])
        return ["reweight", paths["s.csv"], *source, *["--lenient"] * lenient]

    @classmethod
    def reference(cls, argv, repeat_at=None) -> str:
        """The fault-free output of ``argv``, made in process on one CPU.

        With ``repeat_at``, live estimate ``repeat_at`` returns the priors
        then in force instead of solving: what keeping them after a failed
        estimate must print, made without a failure.
        """
        real_qp, calls, in_force = harness.estimate_qp, [], [uniform_estimate(4)]

        def estimate_qp(conf, hist):
            calls.append(1)
            if len(calls) != repeat_at + 1:
                in_force[0] = real_qp(conf, hist)
            return in_force[0]

        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(harness, "_cpu_count", lambda: 1), \
                mock.patch.object(harness, "estimate_qp", real_qp if repeat_at is None else estimate_qp), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 0, err.getvalue()
        assert err.getvalue() == ""
        return out.getvalue()

    @classmethod
    def expected(cls, plan, reference):
        """The exit code, the output and whether only a row-boundary prefix of it is promised."""
        fault, at = plan["fault"], plan["at"]
        header, rows = reference.split("\n", 1)[0] + "\n", reference.splitlines(keepends=True)[1:]
        if fault == "bad_row":
            if plan["lenient"]:
                return 0, reference, False
            return 2, header + "".join(rows[:at]), False
        if fault == "dev_full" or (fault in ("broken_pipe", "closed") and not plan["to_file"]):
            return 4, "", False
        forks = plan["cpus"] > 1 and len(os.sched_getaffinity(0)) > 1  # two CPUs keep the runner's own set
        if forks and fault in ("reader", "solver"):
            return 4, reference, True
        return 0, reference, False

    @settings(max_examples=30, deadline=None)
    @given(_fault_plans())
    @example(dict(_PLAN, fault="estimate", at=5))
    @example(dict(_PLAN, fault="fork", at=0))
    @example(dict(_PLAN, fault="fork", at=1))
    @example(dict(_PLAN, fault="pipe", at=0))
    @example(dict(_PLAN, fault="pipe", at=1))
    @example(dict(_PLAN, fault="reader", at=2))
    @example(dict(_PLAN, fault="solver", at=3))
    @example(dict(_PLAN, fault="cache_write", at=0))
    def test_exit_code_output_and_no_child_left(self, plan):
        fault, at = plan["fault"], plan["at"]
        if fault == "reader":
            at %= 7  # of about 13 blocks
        elif fault == "solver":
            at %= 20  # of at least 22 parts
        elif fault in ("fork", "pipe"):
            at %= 2  # the reader's, then the solver's
        elif fault == "estimate":
            at %= 21  # of 21 re-estimates, every 7 of 150 rows
        with tempfile.TemporaryDirectory() as tmp:
            if fault == "bad_row":
                reference_paths = self.inputs(tmp, without=at) if plan["lenient"] else self.inputs(tmp)
                reference = self.reference(self.argv(reference_paths, plan["live"], plan["lenient"]))
                paths = self.inputs(tmp, bad_row=at)
            else:
                paths = self.inputs(tmp)
                reference = self.reference(
                    self.argv(paths, plan["live"], plan["lenient"]), repeat_at=at if fault == "estimate" else None
                )
            code, output, prefix_only = self.expected(dict(plan, at=at), reference)
            if plan["to_file"] and code != 0:
                output, prefix_only = "", False  # a failed command leaves no new file
            argv = self.argv(paths, plan["live"], plan["lenient"])
            out_path = os.path.join(tmp, "out.csv")
            if plan["to_file"]:
                argv = ["--output", "/dev/full" if fault == "dev_full" else out_path, *argv]
                if plan["existing"]:
                    with open(out_path, "w", encoding="utf-8") as fp:
                        fp.write("earlier\n")
            env = entry_env(plan["buffered"])
            cache = os.path.join(tmp, "xdg")  # a cold cache: every live run writes its entry
            env["XDG_CACHE_HOME"] = cache
            stdout, stdout_fd = subprocess.PIPE, None
            if fault == "dev_full" and not plan["to_file"]:
                stdout = open("/dev/full", "wb")
            elif fault == "broken_pipe":
                read_end, stdout_fd = os.pipe()
                os.close(read_end)
                stdout = stdout_fd

            def preexec():
                if plan["cpus"] == 1:
                    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
                if fault == "closed":
                    os.close(1)

            tree_r, tree_w = os.pipe()  # held by every process of the command's tree
            try:
                proc = subprocess.run(
                    [sys.executable, "-c", _FAULT_RUNNER, json.dumps(dict(plan, at=at, block_bytes=self.BLOCK_BYTES)),
                     *argv],
                    stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60, preexec_fn=preexec,
                    pass_fds=(tree_w,),
                )
                os.close(tree_w)
                ended, _, _ = select.select([tree_r], [], [], 10.0)
                assert ended and os.read(tree_r, 1) == b"", "a process of the command outlived it"
            finally:
                os.close(tree_r)
                if stdout_fd is not None:
                    os.close(stdout_fd)
                elif stdout is not subprocess.PIPE:
                    stdout.close()
            err = proc.stderr.decode()
            got = (proc.stdout or b"").decode()
            if plan["to_file"] and fault != "dev_full":
                assert got == ""
                if os.path.exists(out_path):
                    got = read_bytes(out_path).decode()
                    if code != 0:
                        assert plan["existing"] and got == "earlier\n"
                        got = ""
                else:
                    assert code != 0 and not plan["existing"]
            assert proc.returncode == code, err
            assert "Traceback" not in err and "Exception ignored" not in err, err
            errors = [line for line in err.splitlines() if line.startswith("error: ")]
            assert len(errors) == (code != 0), err
            if prefix_only:  # a dead reader or solver, named by the process that reaped it
                assert errors[0].endswith("ended with exit code 7 before its last message"), err
            warned = [line for line in err.splitlines() if line.startswith("warning: ")]
            kept = [line for line in warned if line == "warning: keeping previous priors: planted failure"]
            assert len(warned) == (fault == "estimate" or (fault == "bad_row" and plan["lenient"])), err
            assert len(kept) == (fault == "estimate"), err
            if prefix_only:
                assert output.startswith(got) and (got == "" or got.endswith("\n"))
            else:
                assert got == output
            entries = os.listdir(os.path.join(cache, "prioradapt")) if os.path.exists(cache) else []
            assert not [name for name in entries if not name.endswith(".npy")]  # no temp file left
            assert len(entries) <= plan["live"]
            if fault in ("none", "cache_write"):
                assert len(entries) == (plan["live"] and fault == "none")


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
            env=src_env(),
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "a,b"

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_pipe_with_no_reader_exits_4_with_one_line(self, entry, buffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, *ENTRIES[entry], "reweight", data("fixture_scores.csv"),
                 "--priors", data("fixture_priors.json")],
                stdout=write_end, stderr=subprocess.PIPE, env=entry_env(buffered), timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (4, b"error: [Errno 32] Broken pipe\n")

    # The golden commands of acceptance criterion 10 that can write to stdout,
    # and live reweight; simulate writes two files and needs --output.
    GOLDENS = {
        "normalize": (["normalize", data("fixture_confusion_raw.csv")], "golden_normalize.csv"),
        "estimate": (
            ["estimate", data("fixture_confusion3.csv"), data("fixture_decisions.txt"), "--method", "all"],
            "golden_estimate.json",
        ),
        "reweight": (
            ["reweight", data("fixture_scores.csv"), "--priors", data("fixture_priors.json")],
            "golden_reweight.csv",
        ),
        "reweight-live": (
            ["reweight", data("fixture_scores.csv"), "--confusion", data("fixture_confusion3.csv"),
             "--reestimate-every", "2"],
            "golden_reweight_live.csv",
        ),
        "evaluate": (["evaluate", "--folds", "10"], "golden_evaluate.md"),
    }

    @pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("command", sorted(GOLDENS))
    def test_goldens_through_a_pipe(self, command, entry, buffered):
        # Both entries end in os._exit; no byte of a buffered stdout may be lost to it.
        argv, golden = self.GOLDENS[command]
        proc = subprocess.run(
            [sys.executable, *ENTRIES[entry], "--quiet", *argv],
            capture_output=True, env=entry_env(buffered), timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == read_bytes(data(golden))

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

    def test_bench_tracer_counts_live_estimates(self, tmp_path):
        # Live re-estimates run in harness.adapt, in a solver process where two
        # CPUs are free, which the tracer cannot see.  On one CPU they run in
        # process, and the tracer must see every one through the estimator
        # names bound in harness.
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        scores = data("fixture_scores.csv")
        argv = ["reweight", scores, "--confusion", data("fixture_confusion3.csv"),
                "--reestimate-every", "2"]
        trace = str(tmp_path / "trace.json")

        def one_cpu():
            if hasattr(os, "sched_setaffinity"):
                os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

        traced = subprocess.run(
            [sys.executable, os.path.join(root, "bench", "traced.py"), trace, "--", *argv],
            capture_output=True, env=env, cwd=root, preexec_fn=one_cpu,
        )
        plain = subprocess.run(
            [sys.executable, "-m", "prioradapt", *argv], capture_output=True, env=env, cwd=root, preexec_fn=one_cpu,
        )
        assert traced.returncode == 0, traced.stderr
        assert plain.returncode == 0, plain.stderr
        assert traced.stdout == plain.stdout
        with open(trace, encoding="utf-8") as fp:
            doc = json.load(fp)
        with open(scores, encoding="utf-8") as fp:
            rows = len(fp.read().splitlines()) - 1
        assert doc["spans"]["estimators.qp"]["calls"] == (rows - 1) // 2
        assert len(doc["solves"]) == (rows - 1) // 2

    def test_runtime_never_loads_scipy(self, tmp_path):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        argv = [
            "estimate", data("fixture_confusion3.csv"), data("fixture_decisions.txt"),
            "--method", "all", "--output", str(tmp_path / "priors.json"),
        ]
        script = (
            "import sys\n"
            "from prioradapt.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_confusion_cache_never_loads_hashlib(self, tmp_path):
        # hashlib loads OpenSSL, some MB of resident memory; the cache key is
        # taken with the blake2b that CPython builds in.
        argvs = [
            ["--output", str(tmp_path / "live.csv"), "reweight", data("fixture_scores.csv"),
             "--confusion", data("fixture_confusion3.csv"), "--reestimate-every", "2"],
            ["--output", str(tmp_path / "priors.json"), "estimate", data("fixture_confusion3.csv"),
             data("fixture_decisions.txt"), "--method", "all"],
        ]
        script = (
            "import os, sys\n"
            "from prioradapt.cli import main\n"
            f"for argv in {argvs!r} * 2:\n"
            "    assert main(argv) == 0\n"
            "print([m for m in ('hashlib', '_hashlib') if m in sys.modules])\n"
        )
        cache = tmp_path / "xdg"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=src_env(XDG_CACHE_HOME=str(cache)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
        assert len(os.listdir(cache / "prioradapt")) == 1  # the runs after the first read the entry
        assert read_bytes(str(tmp_path / "live.csv")) == read_bytes(data("golden_reweight_live.csv"))
        assert read_bytes(str(tmp_path / "priors.json")) == read_bytes(data("golden_estimate.json"))

    def test_fileio_loads_no_simulation(self):
        script = (
            "import sys\n"
            "import prioradapt.fileio\n"
            "print([m for m in ('harness', 'estimators', 'monitor') if f'prioradapt.{m}' in sys.modules])\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_package_import_is_lazy(self):
        script = (
            "import importlib, sys\n"
            "import prioradapt\n"
            "assert 'numpy' not in sys.modules, 'import prioradapt loaded numpy'\n"
            "names = {}\n"
            "exec('from prioradapt import *', names)\n"
            "assert set(names) - {'__builtins__'} == set(prioradapt.__all__)\n"
            "for name in prioradapt.__all__:\n"
            "    obj = getattr(prioradapt, name)\n"
            "    assert names[name] is obj, name\n"
            "    assert getattr(importlib.import_module(obj.__module__), name) is obj, name\n"
            "    assert name in dir(prioradapt), name\n"
            "print(len(prioradapt.__all__))\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=src_env())
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) == 48
        with pytest.raises(AttributeError, match="no_such_name"):
            import prioradapt
            prioradapt.no_such_name

    def test_unknown_command_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "prioradapt", "frobnicate"],
            capture_output=True,
            text=True,
            env=src_env(),
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
    ("", "0", "1", "2", "0.5", "0.25", "-1", "nan", "1e999", "1e308", "1e-320", "a", "b", "c",
     "s_a", "s_b", "s_c", "label", '"', "\r")
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
