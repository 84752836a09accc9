"""Synthetic classifier calibration and the deployment-simulation protocol."""

import contextlib
import errno
import itertools
import os
import re
import select
import signal
import sys
import tempfile
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prioradapt import (
    ClassCatalog,
    ConfusionMatrix,
    DecisionHistogram,
    DriftSegment,
    IllConditionedError,
    ParseError,
    PriorAdaptError,
    PriorEstimate,
    ScenarioSpec,
    SyntheticClassifier,
    ValidationError,
    cross_validate,
    decide_baseline,
    default_suite,
    estimate_confusion,
    evaluate_suite,
    generate_record,
    run_drift_scenario,
    simulate_stream,
)
from prioradapt import harness
from prioradapt.core import METHODS
from prioradapt.errors import ConvergenceError
from prioradapt.harness import _fold_partitions, _mixture_counts, read_scenario_json
from prioradapt.monitor import StreamMonitor

from conftest import make_catalog, random_confusion_rows

DATA_SCENARIO = os.path.join(os.path.dirname(__file__), "data", "fixture_scenario.json")


def make_classifier(rows, sharpness=25.0) -> SyntheticClassifier:
    rows = np.asarray(rows, dtype=float)
    conf = ConfusionMatrix(make_catalog(rows.shape[0]), rows)
    return SyntheticClassifier(conf, sharpness=sharpness)


def uniform_scenario(catalog: ClassCatalog, active, **kw) -> ScenarioSpec:
    priors = np.zeros(catalog.k)
    priors[list(active)] = 1.0 / len(active)
    defaults = dict(transfer_size=20 * len(active), test_size=30 * len(active), seed=5)
    defaults.update(kw)
    return ScenarioSpec(catalog=catalog, active_classes=tuple(active), true_priors=priors, **defaults)


class TestGenerateRecord:
    def test_identity_always_decides_true_class(self):
        for sharpness in (0.5, 5.0, 50.0):
            clf = make_classifier(np.eye(4), sharpness=sharpness)
            rng = np.random.default_rng(1)
            for _ in range(200):
                true_class = int(rng.integers(0, 4))
                record = generate_record(clf, true_class, rng)
                assert decide_baseline(record) == true_class

    def test_scores_sum_to_one(self):
        clf = make_classifier(np.eye(3))
        rng = np.random.default_rng(2)
        for _ in range(100):
            record = generate_record(clf, 0, rng)
            assert abs(record.scores.sum() - 1.0) <= 1e-6

    def test_decision_frequencies_match_confusion_row(self):
        # Monte-Carlo oracle: 1e5 draws from a (0.8, 0.1, 0.1) row.
        clf = make_classifier([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        rng = np.random.default_rng(3)
        decisions = np.zeros(3)
        n = 100_000
        for _ in range(n):
            decisions[decide_baseline(generate_record(clf, 0, rng))] += 1
        assert np.max(np.abs(decisions / n - [0.8, 0.1, 0.1])) <= 0.01

    def test_sharpness_controls_confidence(self):
        clf_soft = make_classifier(np.eye(3), sharpness=1.0)
        clf_sharp = make_classifier(np.eye(3), sharpness=100.0)
        rng1, rng2 = np.random.default_rng(4), np.random.default_rng(4)
        soft = np.mean([generate_record(clf_soft, 0, rng1).scores[0] for _ in range(300)])
        sharp = np.mean([generate_record(clf_sharp, 0, rng2).scores[0] for _ in range(300)])
        assert sharp > soft

    @pytest.mark.parametrize("sharpness", [0.0, -1.0, float("inf"), float("nan")])
    def test_sharpness_must_be_positive_and_finite(self, sharpness):
        # An infinite boost would normalize every score row to nan.
        with pytest.raises(ValidationError, match="sharpness must be a positive finite number"):
            make_classifier(np.eye(3), sharpness=sharpness)

    def test_bad_class_index(self):
        clf = make_classifier(np.eye(3))
        with pytest.raises(ValidationError):
            generate_record(clf, 3, np.random.default_rng(0))


def reference_draw(clf: SyntheticClassifier, label: int, rng: np.random.Generator) -> np.ndarray:
    """One score row drawn the scalar way: ``choice``, one exponential call, swap, boost, normalize."""
    k = clf.catalog.k
    intended = int(rng.choice(k, p=clf.confusion.rows[label]))
    weights = rng.exponential(1.0, k)
    top = int(np.argmax(weights))
    weights[intended], weights[top] = weights[top], weights[intended]
    weights[intended] += clf.sharpness
    return weights / weights.sum()


@st.composite
def classifiers(draw, max_k=300):
    """A classifier with sparse confusion rows (zero entries, a nonzero diagonal) and any sharpness."""
    k = draw(st.integers(2, max_k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.05, 0.5, 1.0]))
    rows = rng.random((k, k)) ** 3 * (rng.random((k, k)) < density) + np.eye(k) * rng.random(k)
    sharpness = draw(st.floats(0.01, 1000.0))
    return make_classifier(rows + np.eye(k) * 1e-3, sharpness=sharpness)


class TestDrawScores:
    @given(
        clf=classifiers(),
        seed=st.integers(0, 2**32 - 1),
        fractions=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_rows_and_generator_state_match_the_scalar_reference(self, clf, seed, fractions):
        labels = [int(f * clf.catalog.k) for f in fractions]
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = harness._draw_scores(clf, len(labels), labels, ours)
        expected = np.stack([reference_draw(clf, label, theirs) for label in labels])
        assert drawn.tobytes() == expected.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    @given(clf=classifiers(max_k=40), seed=st.integers(0, 2**32 - 1), per_class=st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_estimate_confusion_matches_a_per_record_recount(self, clf, seed, per_class):
        k = clf.catalog.k
        theirs = np.random.default_rng(seed)
        counts = np.zeros((k, k), dtype=np.int64)
        for label in range(k):
            for _ in range(per_class):
                counts[label, np.argmax(reference_draw(clf, label, theirs))] += 1
        ours = np.random.default_rng(seed)
        conf = estimate_confusion(clf, per_class, ours)
        assert conf.rows.tobytes() == ConfusionMatrix(clf.catalog, counts).rows.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_generate_record_is_the_one_row_draw(self):
        clf = make_classifier(random_confusion_rows(7, np.random.default_rng(5)))
        ours, theirs = np.random.default_rng(6), np.random.default_rng(6)
        for label in (0, 6, 3, 3):
            record = generate_record(clf, label, ours)
            assert record.scores.tobytes() == reference_draw(clf, label, theirs).tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestEstimateConfusion:
    def test_holds_one_class_of_rows_at_a_time(self):
        # All 400 x 50 rows at once would take 64 MB, twice that normalized.
        k, per_class = 400, 50
        clf = make_classifier(random_confusion_rows(k, np.random.default_rng(7)))
        tracemalloc.start()
        try:
            conf = estimate_confusion(clf, per_class, np.random.default_rng(8))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert conf.k == k
        assert peak < 8e6, f"peak {peak / 1e6:.1f} MB"

    def test_identity_generator_is_exact(self):
        clf = make_classifier(np.eye(4))
        conf = estimate_confusion(clf, 25, np.random.default_rng(0))
        assert np.array_equal(conf.rows, np.eye(4))

    def test_monte_carlo_convergence(self):
        rows = [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]
        clf = make_classifier(rows)
        conf = estimate_confusion(clf, 10_000, np.random.default_rng(1))
        assert np.max(np.abs(conf.rows - rows)) <= 0.02

    def test_single_sample_rows_are_one_hot(self):
        clf = make_classifier(random_confusion_rows(5, np.random.default_rng(2)))
        conf = estimate_confusion(clf, 1, np.random.default_rng(3))
        assert np.allclose(conf.rows.sum(axis=1), 1.0)
        assert np.all(np.isin(conf.rows, [0.0, 1.0]))


class TestMixtureCounts:
    def test_exact_apportionment(self):
        counts = _mixture_counts(np.array([0.5, 0.3, 0.2]), 10)
        assert np.array_equal(counts, [5, 3, 2])

    def test_largest_remainder(self):
        counts = _mixture_counts(np.array([1 / 3, 1 / 3, 1 / 3]), 10)
        assert counts.sum() == 10
        assert sorted(counts) == [3, 3, 4]

    def test_always_sums(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            k = int(rng.integers(2, 12))
            priors = rng.dirichlet(np.ones(k))
            n = int(rng.integers(1, 500))
            assert _mixture_counts(priors, n).sum() == n


class TestScenarioSpec:
    def test_rejects_mass_outside_active(self):
        catalog = make_catalog(3)
        with pytest.raises(ValidationError):
            ScenarioSpec(
                catalog=catalog,
                active_classes=(0,),
                true_priors=np.array([0.5, 0.5, 0.0]),
                transfer_size=10,
                test_size=10,
            )

    def test_rejects_bad_drift_order(self):
        catalog = make_catalog(2)
        priors = np.array([1.0, 0.0])
        with pytest.raises(ValidationError):
            ScenarioSpec(
                catalog=catalog,
                active_classes=(0, 1),
                true_priors=np.array([0.5, 0.5]),
                transfer_size=10,
                test_size=10,
                drift=(
                    DriftSegment(start=8, priors=priors),
                    DriftSegment(start=4, priors=priors),
                ),
            )

    @pytest.mark.parametrize("fields, message", [
        ({"active_classes": (0, 3)}, "active class index out of range for 3 classes"),
        ({"active_classes": (-1, 0)}, "active class index out of range for 3 classes"),
        ({"true_priors": np.array([0.5, 0.5])}, "true_priors must have length 3"),
        ({"drift": (DriftSegment(start=4, priors=np.array([0.5, 0.5])),)},
         "drift priors must match the catalog size"),
    ])
    def test_refuses_what_no_scenario_file_can_spell(self, fields, message):
        # The JSON reader builds indices and vectors from the labels, so only
        # a direct caller can pass these.
        spec = dict(
            catalog=make_catalog(3), active_classes=(0, 1), true_priors=np.array([0.5, 0.5, 0.0]),
            transfer_size=10, test_size=10,
        )
        with pytest.raises(ValidationError) as info:
            ScenarioSpec(**{**spec, **fields})
        assert str(info.value) == message

    def test_sizes_hold_an_exact_float64_count(self):
        catalog = make_catalog(2)
        assert uniform_scenario(catalog, (0, 1), transfer_size=2**53 - 1, test_size=1)
        with pytest.raises(ValidationError, match=r"at most 2\*\*53"):
            uniform_scenario(catalog, (0, 1), transfer_size=2**53, test_size=1)


class TestRunScenario:
    """One scenario evaluated end to end with two-fold cross-validation."""

    def test_perfect_classifier_everything_is_one(self):
        clf = make_classifier(np.eye(4))
        spec = uniform_scenario(clf.catalog, active=(0,), transfer_size=30, test_size=30)
        rows = cross_validate(spec, clf, folds=2)
        assert [r.method for r in rows] == [m.name for m in METHODS]
        for row in rows:
            assert row.accuracy == 1.0, row

    def test_uniform_priors_leave_accuracy_unchanged(self):
        rng = np.random.default_rng(10)
        clf = make_classifier(random_confusion_rows(6, rng, 0.7, 0.8))
        spec = uniform_scenario(clf.catalog, active=tuple(range(6)), seed=77)
        rows = {r.method: r for r in cross_validate(spec, clf, folds=2)}
        baseline = rows["baseline"].accuracy
        sigma = np.sqrt(baseline * (1 - baseline) / spec.test_size)
        for method in ("naive", "matrix_inverse", "quadratic_program", "ground_truth"):
            assert abs(rows[method].accuracy - baseline) <= 2 * sigma + 1e-9

    def test_skewed_scenario_orders_methods(self):
        # 5 of 20 classes active, 0.7 diagonal: re-weighting must help, and
        # knowing the exact priors must be at least as good as estimating.
        rng = np.random.default_rng(11)
        clf = make_classifier(random_confusion_rows(20, rng, 0.69, 0.71))
        spec = uniform_scenario(
            clf.catalog, active=(2, 5, 9, 12, 17), transfer_size=400, test_size=600, seed=21
        )
        rows = {r.method: r for r in cross_validate(spec, clf, folds=2)}
        baseline = rows["baseline"].accuracy
        qp = rows["quadratic_program"].accuracy
        truth = rows["ground_truth"].accuracy
        assert truth >= baseline + 0.02
        assert baseline <= qp <= truth + 0.02

    def test_prior_error_reporting(self):
        clf = make_classifier(np.eye(3))
        spec = uniform_scenario(clf.catalog, active=(0, 1))
        rows = {r.method: r for r in cross_validate(spec, clf, folds=2)}
        assert rows["ground_truth"].prior_l1_error == pytest.approx(0.0, abs=1e-12)
        assert rows["baseline"].prior_l1_error > 0.5  # uniform vs 2-of-3 mixture


class TestCrossValidate:
    def test_partitions_disjoint_and_exhaustive(self):
        rng = np.random.default_rng(12)
        for transfer_idx, test_idx in _fold_partitions(50, 20, 2, rng):
            assert len(transfer_idx) == 20
            assert len(test_idx) == 30
            assert not set(transfer_idx) & set(test_idx)
            assert set(transfer_idx) | set(test_idx) == set(range(50))

    def test_folds_differ(self):
        rng = np.random.default_rng(13)
        parts = _fold_partitions(50, 20, 3, rng)
        assert any(
            set(parts[0][0]) != set(parts[i][0]) for i in range(1, len(parts))
        )

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        clf = make_classifier(random_confusion_rows(6, rng, 0.7, 0.8))
        spec = uniform_scenario(clf.catalog, active=(0, 3), seed=9)
        a = cross_validate(spec, clf, folds=4)
        b = cross_validate(spec, clf, folds=4)
        for ra, rb in zip(a, b):
            assert ra.accuracy == rb.accuracy
            assert ra.accuracy_std == rb.accuracy_std
            assert ra.prior_l1_error == rb.prior_l1_error

    def test_rejects_single_fold(self):
        clf = make_classifier(np.eye(3))
        spec = uniform_scenario(clf.catalog, active=(0,))
        with pytest.raises(ValidationError):
            cross_validate(spec, clf, folds=1)

    def test_rejects_tiny_pool(self):
        clf = make_classifier(np.eye(3))
        spec = uniform_scenario(clf.catalog, active=(0,), transfer_size=1, test_size=1)
        with pytest.raises(ValidationError):
            cross_validate(spec, clf, folds=10)

    def test_rejects_other_catalog(self):
        clf = make_classifier(np.eye(3))
        spec = uniform_scenario(make_catalog(4), active=(0, 1))
        with pytest.raises(ValidationError, match="different catalogs"):
            cross_validate(spec, clf, folds=2)

    def test_partial_fold_failures_average_the_passing_folds(self, monkeypatch):
        # The QP fails in folds 1 and 3; its row reports the failures and
        # the mean over folds 0 and 2.
        rng = np.random.default_rng(14)
        clf = make_classifier(random_confusion_rows(6, rng, 0.7, 0.8))
        spec = uniform_scenario(clf.catalog, active=(0, 3), seed=9)
        calls = itertools.count()
        qp = harness.estimate_qp

        def flaky_qp(conf, hist):
            if next(calls) % 2:
                raise IllConditionedError("injected failure")
            return qp(conf, hist)

        folds = []
        split = harness._evaluate_split

        def recorded_split(*args):
            result = split(*args)
            folds.append(result["quadratic_program"])
            return result

        monkeypatch.setattr(harness, "estimate_qp", flaky_qp)
        monkeypatch.setattr(harness, "_evaluate_split", recorded_split)
        row = {r.method: r for r in cross_validate(spec, clf, folds=4)}["quadratic_program"]
        assert row.error == "failed in 2/4 folds: IllConditionedError: injected failure"
        passing = folds[0::2]  # (accuracy, prior_l1_error) of each passing fold
        assert row.accuracy == np.mean([acc for acc, _ in passing])
        assert row.accuracy_std == np.std([acc for acc, _ in passing])
        assert row.prior_l1_error == np.mean([l1 for _, l1 in passing])
        assert row.folds == 4

    def test_ground_truth_variance_is_resampling_only(self):
        # The oracle row has no estimation noise, so its fold-to-fold std
        # must be within the binomial resampling scale of the test split.
        rng = np.random.default_rng(15)
        clf = make_classifier(random_confusion_rows(12, rng, 0.7, 0.8))
        spec = uniform_scenario(clf.catalog, active=(1, 4, 7), seed=33)
        rows = {r.method: r for r in cross_validate(spec, clf, folds=10)}
        truth = rows["ground_truth"]
        binomial = np.sqrt(truth.accuracy * (1 - truth.accuracy) / spec.test_size)
        assert truth.accuracy_std <= 2 * binomial


class TestDirectionalCoreClaim:
    def test_adaptation_helps_across_random_skewed_scenarios(self):
        # 20 random deployments, each: fresh 20-class classifier with >=0.6
        # diagonal, 5 active classes, 400-record transfer stream.  In at
        # least 90% of them every estimation route must sit between the
        # baseline and the oracle (up to twice the test-set binomial noise).
        rng = np.random.default_rng(1234)
        adapted_methods = ("naive", "precision_recall", "matrix_inverse", "quadratic_program")
        ordered = 0
        n_scenarios = 20
        for s in range(n_scenarios):
            clf = make_classifier(random_confusion_rows(20, rng, 0.6, 0.85))
            active = tuple(int(i) for i in rng.permutation(20)[:5])
            priors = np.zeros(20)
            priors[list(active)] = rng.dirichlet(np.ones(5) * 5.0)
            spec = ScenarioSpec(
                catalog=clf.catalog,
                active_classes=active,
                true_priors=priors,
                transfer_size=400,
                test_size=600,
                seed=int(rng.integers(0, 2**31 - 1)),
                name=f"random-{s}",
            )
            rows = {r.method: r for r in cross_validate(spec, clf, folds=2)}
            baseline = rows["baseline"].accuracy
            truth = rows["ground_truth"].accuracy
            sigma = np.sqrt(max(truth * (1 - truth), 1e-6) / spec.test_size)
            ok = all(
                baseline <= rows[m].accuracy <= truth + 2 * sigma
                for m in adapted_methods
            )
            ordered += ok
        assert ordered >= 0.9 * n_scenarios, f"ordering held in only {ordered}/{n_scenarios}"


def failing_suite():
    """A two-context suite whose first context cannot be cross-validated."""
    suite = default_suite()
    broken = list(suite.scenarios[:2])
    object.__setattr__(broken[0], "transfer_size", 1)
    object.__setattr__(broken[0], "test_size", 1)
    return type(suite)(suite.classifier, tuple(broken), suite.h_seed)


class TestDefaultSuite:
    def test_shape(self):
        suite = default_suite()
        assert len(suite.scenarios) == 12
        assert suite.classifier.catalog.k == 36
        blocks = [set(s.active_classes) for s in suite.scenarios]
        assert all(len(b) == 3 for b in blocks)
        assert not any(blocks[i] & blocks[j] for i in range(12) for j in range(i + 1, 12))
        diag = np.diag(suite.classifier.confusion.rows)
        assert np.all(diag >= 0.65) and np.all(diag <= 0.85)

    def test_deterministic(self):
        a, b = default_suite(), default_suite()
        assert np.array_equal(a.classifier.confusion.rows, b.classifier.confusion.rows)
        assert [s.seed for s in a.scenarios] == [s.seed for s in b.scenarios]

    def test_evaluate_suite_isolates_failures(self):
        suite = failing_suite()
        broken = suite.scenarios
        rows = evaluate_suite(suite, folds=10)
        first = [r for r in rows if r.scenario == broken[0].name]
        second = [r for r in rows if r.scenario == broken[1].name]
        assert all(r.accuracy is None and r.error for r in first)
        assert any(r.accuracy is not None for r in second)


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"),
                    reason="needs os.fork and os.sched_getaffinity")
class TestEvaluateSuiteWorkers:
    """The suite's contexts are cross-validated in one forked process per CPU chunk."""

    FOLDS = 3

    @staticmethod
    def raising_in(names, exc=RuntimeError, only_in_child=False, delay_s=None):
        """A ``cross_validate`` that raises ``exc`` for the named contexts."""
        real, parent = harness.cross_validate, os.getpid()

        def fake(spec, clf, **kw):
            in_child = os.getpid() != parent
            if delay_s and spec.name in delay_s and in_child:
                time.sleep(delay_s[spec.name])
            if spec.name in names and (in_child or not only_in_child):
                raise exc(f"boom in {spec.name}")
            return real(spec, clf, **kw)

        return fake

    def test_chunks_are_contiguous_and_even(self):
        items = tuple(range(12))
        for n, sizes in ((1, [12]), (2, [6, 6]), (5, [3, 3, 2, 2, 2]), (40, [1] * 12)):
            chunks = harness._chunks(items, n)
            assert [len(c) for c in chunks] == sizes
            assert tuple(itertools.chain(*chunks)) == items
        assert harness._chunks((), 4) == [()]

    @pytest.mark.parametrize("make_suite", [default_suite, failing_suite], ids=["default", "failing"])
    def test_rows_do_not_depend_on_cpu_count(self, make_suite, monkeypatch):
        suite = make_suite()
        real_fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
        results = {}
        for n in (1, 2, 5):
            use_cpus(monkeypatch, n)
            forks.clear()
            results[n] = evaluate_suite(suite, folds=self.FOLDS)
            assert len(forks) == min(n, len(suite.scenarios)) - 1
            assert_no_children()
        assert [r.scenario for r in results[1]] == [
            s.name for s in suite.scenarios for _ in METHODS
        ]
        for n in (2, 5):
            assert results[n] == results[1]
            assert repr(results[n]) == repr(results[1])  # bitwise floats, error strings, order

    def test_worker_exception_is_raised_in_the_parent(self, monkeypatch):
        use_cpus(monkeypatch, 2)
        fake = self.raising_in({"context-10"}, only_in_child=True)
        monkeypatch.setattr(harness, "cross_validate", fake)
        with pytest.raises(RuntimeError, match="boom in context-10"):
            evaluate_suite(default_suite(), folds=self.FOLDS)
        assert_no_children()

    def test_earliest_context_error_wins(self, monkeypatch):
        use_cpus(monkeypatch, 3)  # chunks 0-3, 4-7, 8-11
        # context-05's worker is slower than context-09's, and is still reported.
        fake = self.raising_in({"context-05", "context-09"}, delay_s={"context-05": 0.3})
        monkeypatch.setattr(harness, "cross_validate", fake)
        with pytest.raises(RuntimeError, match="boom in context-05"):
            evaluate_suite(default_suite(), folds=self.FOLDS)
        assert_no_children()

    def test_parent_error_kills_the_workers(self, monkeypatch):
        use_cpus(monkeypatch, 3)
        stuck = {"context-04": 120.0, "context-08": 120.0}
        fake = self.raising_in({"context-01", "context-09"}, delay_s=stuck)
        monkeypatch.setattr(harness, "cross_validate", fake)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="boom in context-01"):
            evaluate_suite(default_suite(), folds=self.FOLDS)
        assert time.monotonic() - t0 < 30.0
        assert_no_children()

    def test_dead_worker_chunk_is_evaluated_in_the_parent(self, monkeypatch):
        suite = default_suite()
        use_cpus(monkeypatch, 1)
        reference = evaluate_suite(suite, folds=self.FOLDS)
        real, parent = harness.cross_validate, os.getpid()

        def dying(spec, clf, **kw):
            if spec.name == "context-07" and os.getpid() != parent:
                os._exit(9)
            return real(spec, clf, **kw)

        monkeypatch.setattr(harness, "cross_validate", dying)
        use_cpus(monkeypatch, 3)
        rows = evaluate_suite(suite, folds=self.FOLDS)
        assert repr(rows) == repr(reference)
        assert_no_children()

    def test_chunk_without_a_worker_is_evaluated_in_the_parent(self, monkeypatch):
        suite = default_suite()
        use_cpus(monkeypatch, 1)
        reference = evaluate_suite(suite, folds=self.FOLDS)

        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        use_cpus(monkeypatch, 2)
        assert repr(evaluate_suite(suite, folds=self.FOLDS)) == repr(reference)
        assert_no_children()

    def test_earliest_context_error_wins_without_workers(self, monkeypatch):
        def no_fork():
            raise BlockingIOError(11, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        use_cpus(monkeypatch, 2)  # chunks 0-5 and 6-11, both run here
        fake = self.raising_in({"context-01", "context-08"})
        monkeypatch.setattr(harness, "cross_validate", fake)
        with pytest.raises(RuntimeError, match="boom in context-01"):
            evaluate_suite(default_suite(), folds=self.FOLDS)

    def test_message_stream_closes_quietly(self):
        # A child's pipe breaks when its parent stops reading; the stream it
        # was sending must then close, not send one more message.
        messages = harness._messages(iter(range(3)))
        assert next(messages) == (False, 0)
        messages.close()

    def test_unpicklable_worker_exception_is_raised_from_the_parent(self, monkeypatch):
        class Unpicklable(RuntimeError):
            def __init__(self, message):
                super().__init__(message)
                self.hook = lambda: None

        use_cpus(monkeypatch, 2)
        monkeypatch.setattr(harness, "cross_validate", self.raising_in({"context-08"}, Unpicklable))
        with pytest.raises(Unpicklable, match="boom in context-08"):
            evaluate_suite(default_suite(), folds=self.FOLDS)
        assert_no_children()


@contextlib.contextmanager
def captured_stderr():
    """A list that receives what this process and its forked children write to stderr.

    Both fd 2 and ``sys.stderr`` point at one line-buffered file, so a child
    leaving through ``os._exit`` loses no whole line, and an unraisable
    exception is printed there, as outside pytest, instead of being held.
    """
    with tempfile.TemporaryFile("w+", buffering=1) as fp:
        saved, text = os.dup(2), []
        os.dup2(fp.fileno(), 2)
        try:
            with mock.patch.object(sys, "stderr", fp), \
                    mock.patch.object(sys, "unraisablehook", sys.__unraisablehook__):
                yield text
        finally:
            os.dup2(saved, 2)
            os.close(saved)
            fp.seek(0)
            text.append(fp.read())


@st.composite
def read_ahead_plans(draw):
    """n items; whether they end or stall; one fault at item ``at``; the item count after which the consumer leaves."""
    n = draw(st.integers(0, 20))
    ends = draw(st.booleans())
    fault = draw(st.sampled_from(["none", "raise", "exit", "kill", "pipe", "fork"]))
    at = draw(st.integers(0, n)) if fault in ("raise", "exit", "kill") else None
    # A stalled stream is only left, never read to its end.
    leave = draw((st.none() if ends else st.nothing()) | st.integers(0, n))
    return dict(cpus=draw(st.sampled_from([1, 2])), n=n, ends=ends, fault=fault, at=at, leave=leave)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestReadAheadProperties:
    """``read_ahead`` gives the same items, exception and end in a child as in process, and leaves no child."""

    STALL_S = 5.0

    @classmethod
    def items(cls, n, ends, fault, at, parent):
        """0, 1, ..., n - 1 with ``fault`` at item ``at``, then the end, or a stall of ``STALL_S`` seconds."""
        for i in itertools.count():
            if i == at:
                if fault == "raise":
                    raise RuntimeError(f"failed at item {i}")
                if fault == "exit" and os.getpid() != parent:
                    os._exit(3)
                if fault == "kill" and os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
            if i == n:
                if ends:
                    return
                time.sleep(cls.STALL_S)
            yield i

    @staticmethod
    def expected(cpus, n, ends, fault, at, leave):
        """The items the consumer receives, and then ``"left"``, ``"end"``, ``"lost"`` or the exception's args."""
        stops = {n: "end"}
        if fault == "raise":
            stops[at] = (f"failed at item {at}",)
        elif fault in ("exit", "kill") and cpus > 1:
            stops[at] = "lost"
        if leave is not None:
            stops[leave] = "left"  # before it would read item ``leave``
        m = min(stops)
        return list(range(m)), stops[m]

    @settings(max_examples=150, deadline=None)
    @given(read_ahead_plans())
    def test_items_faults_and_reaping(self, plan):
        cpus, fault, leave = plan["cpus"], plan["fault"], plan["leave"]
        items = self.items(plan["n"], plan["ends"], fault, plan["at"], os.getpid())

        def refuse(*args):
            raise OSError(errno.EAGAIN, "refused")

        refusal = mock.patch.object(os, fault, refuse) if fault in ("pipe", "fork") else contextlib.nullcontext()
        got, outcome = [], "left"
        with captured_stderr() as stderr, refusal, mock.patch.object(harness, "_cpu_count", lambda: cpus):
            with harness.read_ahead(items) as ahead:
                stream = iter(ahead)
                try:
                    while len(got) != leave:
                        got.append(next(stream))
                except StopIteration:
                    outcome = "end"
                except harness.WorkerLost:
                    outcome = "lost"
                except RuntimeError as exc:
                    assert type(exc) is RuntimeError
                    outcome = exc.args
                left_at = time.monotonic()
            # A child still sending is killed, not waited for.
            assert time.monotonic() - left_at < self.STALL_S / 2
        assert (got, outcome) == self.expected(**plan)
        assert_no_children()
        assert "Traceback" not in stderr[0] and "Exception ignored" not in stderr[0]

    @pytest.mark.parametrize("cut", [None, 0, 3, 7], ids=["end", "cut-0", "cut-3", "cut-7"])
    def test_a_forked_copy_of_a_stream(self, cut):
        # A second child reads the first one's stream, read to its end or cut
        # off where the first child exits.  That copy reaps nothing, so no
        # ECHILD comes back; this process reaps the first child and names its
        # exit code.
        parent, forks, real_fork = os.getpid(), [], os.fork

        def items():
            for i in range(8):
                if i == cut and os.getpid() != parent:
                    os._exit(5)
                yield i

        got, outcome = [], "end"
        with captured_stderr() as stderr, mock.patch.object(harness, "_cpu_count", lambda: 2), \
                mock.patch.object(os, "fork", lambda: forks.append(1) or real_fork()):
            try:
                with harness.read_ahead(items()) as ahead, harness.read_ahead(ahead) as copied:
                    got.extend(copied)
            except ChildProcessError as exc:
                outcome = exc
        assert len(forks) == 2
        assert got == list(range(8 if cut is None else cut))
        if cut is None:
            assert outcome == "end"
        else:
            assert type(outcome) is harness.WorkerLost and outcome.errno != errno.ECHILD
            assert re.fullmatch(r"worker process \d+ ended with exit code 5 before its last message", str(outcome))
        assert_no_children()
        assert "Traceback" not in stderr[0] and "Exception ignored" not in stderr[0]

    @pytest.mark.parametrize("stop", [KeyboardInterrupt, ValueError], ids=["signal", "error"])
    def test_a_signal_is_not_reported_as_a_lost_child(self, stop):
        # As when SIGTERM or Ctrl-C reaches the process group: the solver, the
        # child reading the reader's stream, dies too, and the block ends by
        # the signal's exception, not by WorkerLost.
        parent = os.getpid()

        def solved(items):
            for item in items:
                if os.getpid() != parent:
                    os.kill(os.getpid(), signal.SIGKILL)
                yield item

        with mock.patch.object(harness, "_cpu_count", lambda: 2):
            with pytest.raises(stop):
                with harness.read_ahead(iter(range(5))) as ahead, harness.read_ahead(solved(ahead)) as parts:
                    assert parts is not ahead  # the solver was forked
                    time.sleep(0.2)  # past its death
                    raise stop
        assert_no_children()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestRunAhead:
    """A forked child makes its items while nobody reads them, up to the pipe plus ``_AHEAD_BYTES``."""

    @staticmethod
    def payloads(sizes, finished_fd):
        """One bytes item per size, then a byte on ``finished_fd`` once the last is made."""
        for i, size in enumerate(sizes):
            yield bytes([i % 256]) * size
        os.write(finished_fd, b"x")

    @settings(max_examples=15, deadline=None)
    @given(sizes=st.lists(st.integers(1, 3 * harness._PIPE_BYTES // 2), min_size=1, max_size=6))
    def test_child_finishes_before_a_late_consumer_reads(self, sizes):
        assert sum(sizes) < harness._AHEAD_BYTES
        finished_r, finished_w = os.pipe()
        try:
            with mock.patch.object(harness, "_cpu_count", lambda: 2), \
                    harness.read_ahead(self.payloads(sizes, finished_w)) as ahead:
                finished, _, _ = select.select([finished_r], [], [], 60.0)
                assert finished == [finished_r], "the child waited for its reader"
                got = list(ahead)
        finally:
            os.close(finished_r)
            os.close(finished_w)
        assert [len(item) for item in got] == sizes
        assert all(item == bytes([i % 256]) * len(item) for i, item in enumerate(got))
        assert_no_children()


def stream_rows(spec, clf, rng=None):
    """The concatenated (scores, labels, segments) of simulate_stream's blocks, each block checked."""
    blocks = list(simulate_stream(spec, clf, rng))
    for scores, labels, _ in blocks:
        assert 1 <= len(labels) <= harness._STREAM_BLOCK_ROWS
        assert scores.shape == (len(labels), clf.catalog.k)
    segments = np.repeat([s for _, _, s in blocks], [len(l) for _, l, _ in blocks])
    return np.concatenate([b[0] for b in blocks]), np.concatenate([b[1] for b in blocks]), segments


def reference_stream(spec, clf, rng):
    """The stream drawn a row at a time as ``(record, label, segment)``: ``rng.choice`` picks the label, then ``generate_record``."""
    segments = [(0, spec.true_priors), *((seg.start, seg.priors) for seg in spec.drift or ())]
    segment = 0
    for index in range(spec.transfer_size + spec.test_size):
        while segment + 1 < len(segments) and index >= segments[segment + 1][0]:
            segment += 1
        label = int(rng.choice(spec.catalog.k, p=segments[segment][1]))
        yield generate_record(clf, label, rng), label, segment


class TestSimulateStream:
    def test_deterministic(self):
        clf = make_classifier(np.eye(3))
        spec = uniform_scenario(clf.catalog, active=(0, 1), transfer_size=5, test_size=5, seed=7)
        a = [x.tolist() for x in stream_rows(spec, clf)]
        b = [x.tolist() for x in stream_rows(spec, clf)]
        assert a == b

    def test_degenerate_priors(self):
        clf = make_classifier(np.eye(3))
        priors = np.array([1.0, 0.0, 0.0])
        spec = ScenarioSpec(
            catalog=clf.catalog, active_classes=(0,), true_priors=priors,
            transfer_size=10, test_size=10, seed=1,
        )
        _, labels, _ = stream_rows(spec, clf)
        assert set(labels.tolist()) == {0}

    def test_drift_switches_mixture(self):
        clf = make_classifier(np.eye(2))
        spec = ScenarioSpec(
            catalog=clf.catalog,
            active_classes=(0, 1),
            true_priors=np.array([1.0, 0.0]),
            transfer_size=10,
            test_size=10,
            seed=3,
            drift=(DriftSegment(start=10, priors=np.array([0.0, 1.0])),),
        )
        _, labels, segments = stream_rows(spec, clf)
        assert segments.tolist() == [0] * 10 + [1] * 10
        assert all(labels[segments == 0] == 0)
        assert all(labels[segments == 1] == 1)

    @pytest.mark.parametrize("starts", [(), (1024, 3100), (1, 2047, 2048, 4199)])
    def test_blocks_match_the_row_at_a_time_stream(self, starts):
        # 4200 rows cross block bounds inside and at the edges of segments.
        rng = np.random.default_rng(8)
        clf = make_classifier(random_confusion_rows(6, rng, 0.6, 0.9), sharpness=3.0)
        drift = []
        for start in starts:
            priors = rng.dirichlet(np.ones(6)) * (rng.random(6) < 0.6)  # zeros tie in the cdf
            priors[rng.integers(6)] += 0.1
            drift.append(DriftSegment(start, priors / priors.sum()))
        spec = uniform_scenario(clf.catalog, active=range(6), transfer_size=2000, test_size=2200, drift=tuple(drift))
        ours, theirs = np.random.default_rng(21), np.random.default_rng(21)
        scores, labels, segments = stream_rows(spec, clf, ours)
        records, expected_labels, expected_segments = zip(*reference_stream(spec, clf, theirs))
        assert scores.tobytes() == np.stack([r.scores for r in records]).tobytes()
        assert labels.tolist() == list(expected_labels)
        assert segments.tolist() == list(expected_segments)
        assert ours.bit_generator.state == theirs.bit_generator.state
        bounds = [0, *starts, 4200]
        sizes = [len(l) for _, l, _ in simulate_stream(spec, clf)]
        assert sizes == [min(1024, stop - first) for start, stop in zip(bounds, bounds[1:])
                         for first in range(start, stop, 1024)]


class TestRunDriftScenario:
    def _drift_spec(self, clf):
        k = clf.catalog.k
        first = np.zeros(k)
        first[:2] = 0.5
        second = np.zeros(k)
        second[6:] = 0.5
        return ScenarioSpec(
            catalog=clf.catalog,
            active_classes=tuple(range(k)),
            true_priors=first,
            transfer_size=600,
            test_size=600,
            seed=4,
            drift=(DriftSegment(start=600, priors=second),),
        )

    def test_per_segment_rows(self):
        rng = np.random.default_rng(16)
        clf = make_classifier(random_confusion_rows(8, rng, 0.7, 0.8))
        spec = self._drift_spec(clf)
        rows = run_drift_scenario(spec, clf, window=120, reestimate_every=30)
        assert len(rows) == 4  # two segments, baseline + adapted each
        scenarios = {r.scenario for r in rows}
        assert len(scenarios) == 2
        for row in rows:
            assert 0.0 <= row.accuracy <= 1.0
        by = {(r.scenario, r.method): r.accuracy for r in rows}
        for scenario in scenarios:
            # The window flushes the stale mixture, so even the segment
            # straddling the switch must not lose to the baseline.
            assert by[(scenario, "quadratic_program")] >= by[(scenario, "baseline")] - 0.01

    def test_rejects_other_catalog(self):
        # Before the check, every QP re-estimate raised DimensionError, the
        # policy stayed unset and the adapted row repeated the baseline.
        clf = make_classifier(random_confusion_rows(3, np.random.default_rng(17), 0.7, 0.8))
        catalog = make_catalog(4)
        spec = ScenarioSpec(
            catalog=catalog, active_classes=(0, 1, 2), true_priors=[0.5, 0.3, 0.2, 0.0],
            transfer_size=40, test_size=40, seed=4,
            drift=(DriftSegment(start=40, priors=[0.2, 0.3, 0.5, 0.0]),),
        )
        with pytest.raises(ValidationError, match="different catalogs"):
            run_drift_scenario(spec, clf, window=20, reestimate_every=10)

    def test_failed_reestimates_reported(self, monkeypatch):
        # Every second QP re-estimate fails; the replay keeps the previous
        # priors and says so on each adapted row.
        calls = itertools.count()
        qp = harness.estimate_qp

        def flaky_qp(conf, hist):
            if next(calls) % 2:
                raise IllConditionedError("injected failure")
            return qp(conf, hist)

        monkeypatch.setattr(harness, "estimate_qp", flaky_qp)
        spec, clf = read_scenario_json(DATA_SCENARIO)
        rows = run_drift_scenario(spec, clf, window=None, reestimate_every=2)
        failed = (spec.transfer_size + spec.test_size - 1) // 2 // 2
        message = f"{failed} re-estimates failed, kept previous priors: IllConditionedError: injected failure"
        assert [r.error for r in rows if r.method == "quadratic_program"] == [message] * 2
        assert [r.error for r in rows if r.method == "baseline"] == [None] * 2

    def test_window_beats_cumulative_after_drift(self):
        rng = np.random.default_rng(16)
        clf = make_classifier(random_confusion_rows(8, rng, 0.7, 0.8))
        spec = self._drift_spec(clf)
        windowed = run_drift_scenario(spec, clf, window=120, reestimate_every=30)
        cumulative = run_drift_scenario(spec, clf, window=None, reestimate_every=30)
        post = f"{spec.name}/segment-1"
        acc = lambda rows: {
            (r.scenario, r.method): r.accuracy for r in rows
        }[(post, "quadratic_program")]
        # A cumulative histogram keeps pre-switch decisions forever and its
        # estimate stays wrong; the windowed one recovers.
        assert acc(windowed) >= acc(cumulative) + 0.05


def test_convergence_failure_names_its_best_iterate(monkeypatch):
    # The text ``estimate`` writes for the same failure, in each row's error.
    def capped(conf, hist):
        raise ConvergenceError("cap reached", best_iterate=np.array([0.25, 0.75]))

    monkeypatch.setattr(harness, "estimate_qp", capped)
    text = "ConvergenceError: cap reached (best iterate: 0.25, 0.75)"
    spec, clf = read_scenario_json(DATA_SCENARIO)
    replay = run_drift_scenario(spec, clf, window=None, reestimate_every=2)
    errors = [r.error for r in replay if r.method == "quadratic_program"]
    assert len(errors) == 2 and all(e.endswith(f"kept previous priors: {text}") for e in errors)
    spec = uniform_scenario(clf.catalog, active=(0, 1), seed=3)
    rows = {r.method: r for r in cross_validate(spec, clf, folds=2)}
    assert rows["quadratic_program"].error == text
    monkeypatch.setattr(harness, "cross_validate", lambda *args, **kwargs: capped(None, None))
    conf = estimate_confusion(clf, 10, np.random.default_rng(0))
    assert {r.error for r in harness._cross_validate_all([spec], clf, 2, conf)} == {text}


def test_estimator_names_each_method_and_refuses_any_other(monkeypatch):
    conf = ConfusionMatrix(make_catalog(3), np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]))
    hist = DecisionHistogram(np.array([30, 20, 10]))
    estimate = harness.estimator(conf)
    # Each estimator is resolved through harness at call time, so a patched
    # one is the one called.  Sentinels tell the routes apart where values
    # cannot: naive and precision-recall agree on this symmetric matrix.
    routes = {
        "naive": "estimate_naive",
        "precision_recall": "estimate_precision_recall",
        "matrix_inverse": "estimate_matrix_inverse",
        "quadratic_program": "estimate_qp",
    }
    assert list(routes) == [m.name for m in METHODS if m.flag is not None]
    for name in routes.values():
        monkeypatch.setattr(harness, name, lambda *args, name=name: (name, args))
    for method, name in routes.items():
        called, args = estimate(method, hist)
        assert called == name and any(arg is hist for arg in args)
    for typo in ("matrix-inverse", "qp", "", "ground_truth"):
        with pytest.raises(ValidationError, match=rf"^unknown estimation method {typo!r}$"):
            estimate(typo, hist)


def test_adapt_keeps_skipped_rows_and_failed_estimates_in_place():
    # A skipped row's error comes out where the reader put it, and a failed
    # re-estimate just before the part it left the priors in force for.
    skipped = ParseError("row 4 skipped")
    blocks = [np.array([[0.9, 0.1], [0.8, 0.2], [0.3, 0.7]]), skipped, np.array([[0.4, 0.6], [0.2, 0.8]])]
    later = PriorEstimate(np.array([0.25, 0.75]))
    results = iter([PriorAdaptError("first fails"), later])

    def estimate(hist):
        result = next(results)
        if isinstance(result, PriorAdaptError):
            raise result
        return result

    out = list(harness.adapt(blocks, StreamMonitor(make_catalog(2)), estimate, 2))
    failure = out[1]
    assert type(failure) is PriorAdaptError and str(failure) == "first fails"
    shape = [item if isinstance(item, Exception) else (item[0].tolist(), item[1].values.tolist()) for item in out]
    uniform = [0.5, 0.5]
    assert shape == [([[0.9, 0.1], [0.8, 0.2]], uniform), failure, ([[0.3, 0.7]], uniform), skipped,
                     ([[0.4, 0.6]], uniform), ([[0.2, 0.8]], [0.25, 0.75])]
