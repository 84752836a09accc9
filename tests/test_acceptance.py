"""Acceptance gate: one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Tolerances are pinned here, not configurable.
"""

import contextlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from prioradapt import (
    AdaptedPolicy,
    ConfusionMatrix,
    DecisionHistogram,
    IllConditionedError,
    PriorEstimate,
    ScoreRecord,
    StreamMonitor,
    SyntheticClassifier,
    decide_adapted,
    decide_baseline,
    default_suite,
    estimate_matrix_inverse,
    estimate_naive,
    estimate_precision_recall,
    estimate_qp,
    evaluate_suite,
    generate_record,
    solve_simplex_lsq,
)
from prioradapt.cli import main
from prioradapt.estimators import PrecisionRecallTable

from conftest import make_catalog, random_confusion, random_simplex

DATA = os.path.join(os.path.dirname(__file__), "data")


@contextlib.contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {label}: FAIL", flush=True)
        raise
    print(f"\nACCEPTANCE {label}: PASS", flush=True)


def test_criterion_1_consistent_system_recovery():
    with criterion("1 consistent-system recovery"):
        rng = np.random.default_rng(1001)
        start = time.perf_counter()
        worst_qp = 0.0
        worst_inverse = 0.0
        inverse_checked = 0
        for i in range(100):
            k = (3, 10, 50)[i % 3]
            conf = random_confusion(k, rng)
            v_true = random_simplex(k, rng)
            c = conf.mixing_matrix() @ v_true

            qp = estimate_qp(conf, c)
            worst_qp = max(worst_qp, float(np.max(np.abs(qp.values - v_true))))

            inverse = estimate_matrix_inverse(conf, c)
            if inverse.diagnostics.clipped_mass <= 1e-15:  # raw solve already feasible
                inverse_checked += 1
                worst_inverse = max(
                    worst_inverse, float(np.max(np.abs(inverse.values - v_true)))
                )
        elapsed = time.perf_counter() - start
        assert worst_qp <= 1e-12, f"qp worst error {worst_qp:.3e}"
        assert worst_inverse <= 1e-6, f"inverse worst error {worst_inverse:.3e}"
        assert inverse_checked > 0
        assert elapsed <= 10.0, f"took {elapsed:.1f}s"


_GRID_STEP = 1e-3


def _simplex_grid_3() -> np.ndarray:
    ticks = np.arange(0.0, 1.0 + _GRID_STEP / 2, _GRID_STEP)
    points = []
    for a in ticks:
        b = np.arange(0.0, 1.0 - a + _GRID_STEP / 2, _GRID_STEP)
        points.append(
            np.stack([np.full_like(b, a), b, np.maximum(1.0 - a - b, 0.0)], axis=1)
        )
    return np.concatenate(points)


def test_criterion_2_qp_optimality():
    with criterion("2 QP optimality vs brute-force grid"):
        rng = np.random.default_rng(1002)
        grid = _simplex_grid_3()
        start = time.perf_counter()
        worst_gap = -np.inf
        worst_kkt = 0.0
        for _ in range(100):
            h = random_confusion(3, rng).mixing_matrix()
            c = random_simplex(3, rng, alpha=0.5)
            v, report = solve_simplex_lsq(h, c)
            grid_best = float(np.min(np.sum((grid @ h.T - c) ** 2, axis=1)))
            worst_gap = max(worst_gap, report.residual - grid_best)
            worst_kkt = max(worst_kkt, report.kkt_violation)
        elapsed = time.perf_counter() - start
        assert worst_gap <= 1e-6, f"objective exceeds grid minimum by {worst_gap:.3e}"
        assert worst_kkt <= 1e-12, f"worst KKT violation {worst_kkt:.3e}"
        assert elapsed <= 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_residual_dominance():
    with criterion("3 residual dominance of the QP over clipping"):
        rng = np.random.default_rng(1003)
        violations = 0
        checked = 0
        while checked < 1000:
            k = int(rng.integers(3, 8))
            conf = random_confusion(k, rng)
            v = np.zeros(k)
            active = rng.permutation(k)[: rng.integers(1, k + 1)]
            v[active] = random_simplex(active.size, rng)
            counts = rng.multinomial(500, conf.mixing_matrix() @ v)
            hist = DecisionHistogram(counts)
            try:
                inverse = estimate_matrix_inverse(conf, hist)
            except IllConditionedError:
                continue
            qp = estimate_qp(conf, hist)
            # The 1e-10 term only absorbs float evaluation noise on exact
            # ties (both routes at the same optimum); genuine dominance
            # gaps are orders of magnitude larger.
            if qp.diagnostics.residual > inverse.diagnostics.residual + 1e-10:
                violations += 1
            checked += 1
        assert violations == 0, f"{violations} of {checked} instances violated dominance"


def test_criterion_4_precision_recall_reduction():
    with criterion("4 precision/recall estimate reduces to naive when equal"):
        rng = np.random.default_rng(1004)
        for _ in range(100):
            k = int(rng.integers(2, 20))
            counts = rng.integers(0, 1000, size=k)
            counts[int(rng.integers(0, k))] += 1
            hist = DecisionHistogram(counts)
            shared = rng.uniform(0.05, 1.0, k)
            table = PrecisionRecallTable(
                precision=shared, recall=shared.copy(), undefined=np.zeros(k, dtype=bool)
            )
            corrected = estimate_precision_recall(hist, table)
            naive = estimate_naive(hist)
            assert np.array_equal(corrected.values, naive.values)


def test_criterion_5_argmax_invariances():
    with criterion("5 argmax invariances of the re-weighted rule"):
        rng = np.random.default_rng(1005)

        uniform_violations = 0
        for _ in range(10_000):
            k = int(rng.integers(2, 15))
            record = ScoreRecord(rng.dirichlet(np.ones(k)))
            policy = AdaptedPolicy.from_priors(
                PriorEstimate(np.full(k, 1.0 / k), method="uniform")
            )
            if decide_adapted(record, policy) != decide_baseline(record):
                uniform_violations += 1

        scaling_violations = 0
        for _ in range(10_000):
            k = int(rng.integers(2, 15))
            estimate = PriorEstimate(rng.dirichlet(np.ones(k)), method="ground_truth")
            base = AdaptedPolicy.from_priors(estimate)
            scaled = AdaptedPolicy(
                priors=estimate, weights=base.weights * float(rng.uniform(1e-8, 1e8))
            )
            record = ScoreRecord(rng.dirichlet(np.ones(k)))
            if decide_adapted(record, base) != decide_adapted(record, scaled):
                scaling_violations += 1

        assert uniform_violations == 0
        assert scaling_violations == 0


def test_criterion_6_directional_reproduction():
    with criterion("6 adapted accuracy beats baseline on the default suite"):
        start = time.perf_counter()
        suite = default_suite()  # K=36, 12 contexts x 3 classes, 0.65-0.85 diagonal
        assert suite.classifier.catalog.k == 36
        assert all(len(s.active_classes) == 3 for s in suite.scenarios)
        assert all(s.transfer_size == 60 and s.test_size == 90 for s in suite.scenarios)

        rows = evaluate_suite(suite, folds=10)
        elapsed = time.perf_counter() - start

        by = {(r.scenario, r.method): r for r in rows}
        scenarios = [s.name for s in suite.scenarios]
        gains = []
        wins = 0
        for name in scenarios:
            baseline = by[(name, "baseline")].accuracy
            qp = by[(name, "quadratic_program")].accuracy
            truth = by[(name, "ground_truth")].accuracy
            gains.append(qp - baseline)
            wins += qp > baseline
            assert truth >= qp - 0.01, (
                f"{name}: oracle {truth:.3f} below qp {qp:.3f} - 0.01"
            )
        mean_gain = float(np.mean(gains))
        print(
            f"\n  qp wins {wins}/12 scenarios, mean gain {mean_gain * 100:.1f} points, "
            f"{elapsed:.1f}s"
        )
        assert wins >= 11, f"qp beat baseline in only {wins}/12 scenarios"
        assert mean_gain >= 0.03, f"mean gain {mean_gain:.4f} below 0.03"
        assert elapsed <= 120.0, f"took {elapsed:.1f}s"


def test_criterion_7_prior_recovery_consistency():
    with criterion("7 prior recovery at deployment scale"):
        rng = np.random.default_rng(1007)
        k = 20
        conf = random_confusion(k, rng, 0.7, 0.8)
        clf = SyntheticClassifier(conf)
        v_true = np.zeros(k)
        v_true[:5] = random_simplex(5, rng)

        monitor = StreamMonitor(conf.catalog)
        labels = rng.choice(k, size=100_000, p=v_true)
        for label in labels:
            monitor.ingest_scored(generate_record(clf, int(label), rng))
        estimate = estimate_qp(conf, monitor.snapshot())
        l1_error = float(np.abs(estimate.values - v_true).sum())
        print(f"\n  L1 recovery error {l1_error:.4f}")
        assert l1_error <= 0.05


def test_criterion_8_performance_at_k1000():
    with criterion("8 solve at K=1000 within one second and K^2 memory"):
        rng = np.random.default_rng(1008)
        k = 1000

        def instance():
            conf = random_confusion(k, rng, 0.6, 0.9)
            v = random_simplex(k, rng)
            return conf, conf.mixing_matrix() @ v

        times = []
        for _ in range(3):
            conf, c = instance()
            start = time.perf_counter()
            estimate = estimate_qp(conf, c)  # default gradient tolerance
            times.append(time.perf_counter() - start)
            assert estimate.diagnostics.iterations < 10_000
        median = float(np.median(times))

        conf, c = instance()
        tracemalloc.start()
        estimate_qp(conf, c)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        bytes_per_matrix = k * k * 8
        print(f"\n  median {median * 1000:.0f} ms, peak {peak / 1e6:.0f} MB")
        assert median <= 1.0, f"median {median:.2f}s"
        # A few K x K dense temporaries are fine; a K^3 blow-up is not.
        assert peak <= 12 * bytes_per_matrix, f"peak {peak / 1e6:.0f} MB"


def test_criterion_9_window_correctness():
    with criterion("9 windowed histograms match brute force on all prefixes"):
        rng = np.random.default_rng(1009)
        k = 6
        stream = rng.integers(0, k, size=10_000)
        for window in (1, 137, 4096):
            monitor = StreamMonitor(make_catalog(k), window=window)
            for i, decision in enumerate(stream):
                monitor.ingest(int(decision))
                expected = np.bincount(stream[max(0, i + 1 - window): i + 1], minlength=k)
                assert np.array_equal(monitor.snapshot().counts, expected)


def _golden(name: str) -> bytes:
    with open(os.path.join(DATA, name), "rb") as fp:
        return fp.read()


def test_criterion_10_cli_golden_files(tmp_path):
    with criterion("10 CLI outputs are byte-identical to committed goldens"):
        def run(outfile, args):
            out = str(tmp_path / outfile)
            assert main(["--quiet", "--output", out, *args]) == 0
            with open(out, "rb") as fp:
                return fp.read()

        fixture = lambda name: os.path.join(DATA, name)

        assert run("norm.csv", ["normalize", fixture("fixture_confusion_raw.csv")]) == _golden(
            "golden_normalize.csv"
        )
        assert run(
            "est.json",
            [
                "estimate", fixture("fixture_confusion3.csv"),
                fixture("fixture_decisions.txt"), "--method", "all",
            ],
        ) == _golden("golden_estimate.json")
        assert run(
            "rw.csv",
            [
                "reweight", fixture("fixture_scores.csv"),
                "--priors", fixture("fixture_priors.json"),
            ],
        ) == _golden("golden_reweight.csv")

        assert main(
            ["--quiet", "--output", str(tmp_path / "sim"), "simulate", fixture("fixture_scenario.json")]
        ) == 0
        for suffix in ("scores", "truth"):
            with open(tmp_path / f"sim.{suffix}.csv", "rb") as fp:
                assert fp.read() == _golden(f"golden_simulate.{suffix}.csv")

        assert run("eval.md", ["evaluate", "--folds", "10"]) == _golden("golden_evaluate.md")
