"""Desk-scale deployment simulation.

Replays the adaptation protocol end to end with a synthetic classifier:
measure a confusion matrix on balanced data, watch a deployment stream
whose class mixture is skewed and unknown, estimate the priors from the
decision histogram, and compare re-weighted accuracy against the baseline
and against the ideal re-weighting with the true priors.

The synthetic classifier stands in for a trained network.  For each sample
of a given true class it first draws the decision it intends to make from
that class's confusion row, then emits a score vector whose argmax is that
intended decision, so its long-run decision frequencies match the
confusion row by construction.  The adaptation gain under skewed priors
does not depend on where the scores come from, which is what makes this
a faithful small-scale reproduction.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import pickle
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .core import (
    METHODS,
    PRIOR_SUM_TOL,
    AdaptedPolicy,
    ClassCatalog,
    ConfusionMatrix,
    DecisionHistogram,
    PriorEstimate,
    ScoreRecord,
    decide_adapted,  # unused; bound because bench/traced.py patches it
    decide_adapted_batch,
    decide_baseline,  # unused; bound because bench/traced.py patches it
    probability_vector,
    uniform_estimate,
)
from .errors import PriorAdaptError, ValidationError
from .estimators import (
    estimate_ground_truth,
    estimate_matrix_inverse,
    estimate_naive,
    estimate_precision_recall,
    estimate_qp,
    precision_recall,
)
from .monitor import StreamMonitor

DEFAULT_SHARPNESS = 25.0
DEFAULT_H_SAMPLES_PER_CLASS = 50


@dataclass(frozen=True)
class DriftSegment:
    """A prior switch taking effect at a given stream position."""

    start: int
    priors: np.ndarray

    def __post_init__(self):
        if self.start < 1:
            raise ValidationError("drift segment must start at index >= 1")
        object.__setattr__(
            self, "priors", probability_vector(self.priors, "drift priors", PRIOR_SUM_TOL)
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """A deployment context: which classes occur, how often, for how long."""

    catalog: ClassCatalog
    active_classes: tuple[int, ...]
    true_priors: np.ndarray
    transfer_size: int
    test_size: int
    drift: Optional[tuple[DriftSegment, ...]] = None
    seed: int = 0
    name: str = "scenario"

    def __post_init__(self):
        k = self.catalog.k
        active = tuple(sorted(int(i) for i in self.active_classes))
        if not active:
            raise ValidationError("a scenario needs at least one active class")
        if len(set(active)) != len(active):
            raise ValidationError("active_classes contains duplicates")
        if active[0] < 0 or active[-1] >= k:
            raise ValidationError(f"active class index out of range for {k} classes")
        object.__setattr__(self, "active_classes", active)

        priors = probability_vector(self.true_priors, "true_priors", PRIOR_SUM_TOL)
        if priors.shape != (k,):
            raise ValidationError(f"true_priors must have length {k}")
        inactive = np.ones(k, dtype=bool)
        inactive[list(active)] = False
        if np.any(priors[inactive] > 0.0):
            raise ValidationError("true_priors put mass on classes outside active_classes")
        object.__setattr__(self, "true_priors", priors)

        if self.transfer_size < 1 or self.test_size < 1:
            raise ValidationError("transfer_size and test_size must be >= 1")
        if self.drift is not None:
            segments = tuple(self.drift)
            starts = [s.start for s in segments]
            if starts != sorted(set(starts)):
                raise ValidationError("drift segment starts must be strictly increasing")
            total = self.transfer_size + self.test_size
            if segments and segments[-1].start >= total:
                raise ValidationError(
                    f"drift start {segments[-1].start} beyond stream length {total}"
                )
            for seg in segments:
                if seg.priors.shape != (k,):
                    raise ValidationError("drift priors must match the catalog size")
            object.__setattr__(self, "drift", segments)


@dataclass(frozen=True)
class SyntheticClassifier:
    """Score generator calibrated to a given confusion matrix."""

    confusion: ConfusionMatrix
    sharpness: float = DEFAULT_SHARPNESS

    def __post_init__(self):
        if not self.sharpness > 0.0:
            raise ValidationError("sharpness must be > 0")

    @property
    def catalog(self) -> ClassCatalog:
        return self.confusion.catalog

    @cached_property
    def cdf(self) -> np.ndarray:
        """Each confusion row's cumulative sum over its last entry, as ``Generator.choice`` builds it."""
        cdf = self.confusion.rows.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        cdf.setflags(write=False)
        return cdf


@dataclass(frozen=True)
class EvaluationRow:
    """One method's result for one scenario, aggregated over folds."""

    scenario: str
    method: str
    accuracy: Optional[float]
    accuracy_std: Optional[float]
    folds: int
    prior_l1_error: Optional[float] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class Suite:
    """A shared classifier plus the scenarios evaluated against it."""

    classifier: SyntheticClassifier
    scenarios: tuple[ScenarioSpec, ...]
    h_seed: int = 0


def _draw_scores(
    clf: SyntheticClassifier,
    n: int,
    labels: Iterable[int],
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``n`` synthetic score rows, one per true label, as an (n, K) array.

    Each row's intended decision is sampled from its class's confusion row;
    its scores are exponential jitter with the largest entry moved to the
    intended decision and boosted by the sharpness, then normalized.  The
    argmax therefore always equals the intended decision, so empirical
    decision frequencies converge to the confusion row exactly.

    ``labels`` is read lazily, each label just before its row is drawn, so
    it may draw from ``rng`` itself, as :func:`simulate_stream`'s does.

    RNG contract, pinned by the goldens: per row, in row order, one
    ``rng.random()`` picks the decision (the draw ``rng.choice(K, p=row)``
    makes) and then one ``rng.exponential(1.0, K)`` gives the jitter.  The
    exponential draws stay one call per row: the ziggurat consumes a
    data-dependent number of words, so batching them would move every
    later row's ``random()`` to another place in the stream.
    """
    cdf, k, sharpness = clf.cdf, clf.catalog.k, clf.sharpness
    weights = np.empty((n, k))
    for row, label in zip(weights, labels):
        intended = cdf[label].searchsorted(rng.random(), side="right")
        row[:] = rng.exponential(1.0, k)
        top = row.argmax()
        row[intended], row[top] = row[top], row[intended]
        row[intended] += sharpness
    return weights / weights.sum(axis=1, keepdims=True)


def generate_record(
    clf: SyntheticClassifier,
    true_class: int,
    rng: np.random.Generator,
) -> ScoreRecord:
    """Draw one synthetic score vector for a sample of ``true_class`` (see :func:`_draw_scores`)."""
    k = clf.catalog.k
    if true_class < 0 or true_class >= k:
        raise ValidationError(f"true_class {true_class} out of range for {k} classes")
    return ScoreRecord(_draw_scores(clf, 1, (true_class,), rng)[0], true_label=true_class)


def estimate_confusion(
    clf: SyntheticClassifier,
    samples_per_class: int,
    rng: np.random.Generator,
) -> ConfusionMatrix:
    """Measure an empirical confusion matrix on balanced synthetic data.

    Each class's ``samples_per_class`` rows are drawn and decided together,
    one class at a time, so at most that many rows are held at once.
    """
    if samples_per_class < 1:
        raise ValidationError("samples_per_class must be >= 1")
    k = clf.catalog.k
    decisions = np.empty((k, samples_per_class), dtype=np.intp)
    for true_class, row in enumerate(decisions):
        row[:] = _draw_scores(clf, samples_per_class, itertools.repeat(true_class), rng).argmax(axis=1)
    counts = np.zeros((k, k), dtype=np.int64)
    np.add.at(counts, (np.arange(k)[:, None], decisions), 1)
    return ConfusionMatrix(clf.catalog, counts)


def _mixture_counts(priors: np.ndarray, n: int) -> np.ndarray:
    """Deterministic per-class sample counts via largest-remainder rounding."""
    ideal = priors * n
    counts = np.floor(ideal).astype(np.int64)
    short = n - int(counts.sum())
    if short > 0:
        remainders = ideal - counts
        # Stable order: biggest remainder first, ties to the lowest index.
        order = np.lexsort((np.arange(priors.size), -remainders))
        counts[order[:short]] += 1
    return counts


def _draw_labels(priors: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Stratified label block matching the mixture, in shuffled order."""
    counts = _mixture_counts(priors, n)
    labels = np.repeat(np.arange(priors.size), counts)
    rng.shuffle(labels)
    return labels


def _histogram(decisions: np.ndarray, k: int) -> DecisionHistogram:
    return DecisionHistogram(np.bincount(decisions, minlength=k))


def _accuracy(decisions: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(decisions == truth))


def estimator(conf: ConfusionMatrix) -> Callable[[str, DecisionHistogram], PriorEstimate]:
    """Return ``estimate(method, hist) -> PriorEstimate`` for the four data-driven methods.

    The precision/recall table is read off ``conf`` once, not per estimate.
    """
    table = precision_recall(conf)

    def estimate(method: str, hist: DecisionHistogram) -> PriorEstimate:
        if method == "naive":
            return estimate_naive(hist)
        if method == "precision_recall":
            return estimate_precision_recall(hist, table)
        if method == "matrix_inverse":
            return estimate_matrix_inverse(conf, hist)
        return estimate_qp(conf, hist)

    return estimate


def adapt(
    blocks: Iterable[np.ndarray],
    monitor: StreamMonitor,
    estimate: Callable[[DecisionHistogram], PriorEstimate],
    every: int,
    on_failure: Callable[[PriorAdaptError], object],
) -> Iterator[tuple[np.ndarray, AdaptedPolicy]]:
    """Yield ``(scores, policy)`` parts of (N, K) score blocks, re-estimating every ``every`` rows.

    The policy starts uniform.  Parts are cut at multiples of ``every``
    rows.  After a part is yielded its baseline decisions are counted in
    ``monitor``; before the row after every ``every``-th,
    ``estimate(monitor.snapshot())`` becomes the policy, so each row is
    decided under the policy in force before it is counted, and nothing is
    estimated after the last row.  An estimate that raises
    :class:`PriorAdaptError` leaves the policy in force and is passed to
    ``on_failure``.
    """
    policy = AdaptedPolicy.from_priors(uniform_estimate(monitor.catalog.k))
    for scores in blocks:
        start = 0
        while start < len(scores):
            seen = monitor.decisions_seen
            if seen and seen % every == 0:
                try:
                    policy = AdaptedPolicy.from_priors(estimate(monitor.snapshot()))
                except PriorAdaptError as exc:
                    on_failure(exc)
            part = scores[start:start + every - seen % every]
            yield part, policy
            monitor.ingest_many(part.argmax(axis=1))
            start += len(part)


def _evaluate_split(
    spec: ScenarioSpec,
    estimate: Callable[[str, DecisionHistogram], PriorEstimate],
    hist: DecisionHistogram,
    scores: np.ndarray,
    truth: np.ndarray,
    baseline_decisions: np.ndarray,
) -> dict[str, tuple[float, float] | str]:
    """Estimate priors from the transfer histogram, score decisions on the test rows.

    ``estimate`` is :func:`estimator` of the scenario's confusion matrix;
    ``scores``, ``truth`` and ``baseline_decisions`` are the test stream's
    (N, K) scores, true labels and baseline argmax decisions.  Each method
    maps to its ``(accuracy, prior_l1_error)`` or to the error it raised.
    """
    def outcome(decisions: np.ndarray, priors: PriorEstimate) -> tuple[float, float]:
        return _accuracy(decisions, truth), float(np.abs(priors.values - spec.true_priors).sum())

    results: dict[str, tuple[float, float] | str] = {
        "baseline": outcome(baseline_decisions, uniform_estimate(spec.catalog.k)),
    }
    for method in METHODS:
        if method.name == "baseline":
            continue
        try:
            if method.name == "ground_truth":
                priors = estimate_ground_truth(spec.true_priors)
            else:
                priors = estimate(method.name, hist)
        except PriorAdaptError as exc:
            results[method.name] = f"{type(exc).__name__}: {exc}"
            continue
        policy = AdaptedPolicy.from_priors(priors)
        results[method.name] = outcome(decide_adapted_batch(scores, policy), priors)
    return results


def _check_catalogs(spec: ScenarioSpec, clf: SyntheticClassifier) -> None:
    if spec.catalog != clf.catalog:
        raise ValidationError("scenario and classifier use different catalogs")


def _collect_rows(spec_name: str, fold_results: list[dict]) -> list[EvaluationRow]:
    """Aggregate :func:`_evaluate_split` results into one row per method."""
    rows = []
    folds = len(fold_results)
    for method in (m.name for m in METHODS):
        ok, errors = [], []
        for result in (f[method] for f in fold_results):
            (errors if isinstance(result, str) else ok).append(result)
        if not ok:
            rows.append(EvaluationRow(spec_name, method, None, None, folds, error=errors[-1]))
            continue
        accuracies, l1_errors = zip(*ok)
        error = f"failed in {len(errors)}/{folds} folds: {errors[-1]}" if errors else None
        rows.append(EvaluationRow(
            spec_name, method, float(np.mean(accuracies)), float(np.std(accuracies)), folds,
            float(np.mean(l1_errors)), error,
        ))
    return rows


def _fold_partitions(
    pool_size: int,
    transfer_size: int,
    folds: int,
    rng: np.random.Generator,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-fold disjoint (transfer, test) index partitions of a fixed pool."""
    partitions = []
    for _ in range(folds):
        order = rng.permutation(pool_size)
        partitions.append((order[:transfer_size], order[transfer_size:]))
    return partitions


def cross_validate(
    spec: ScenarioSpec,
    clf: SyntheticClassifier,
    folds: int = 10,
    confusion: Optional[ConfusionMatrix] = None,
) -> list[EvaluationRow]:
    """K-fold evaluation over a fixed sample pool.

    A pool of ``transfer_size + test_size`` records is drawn once; each
    fold re-partitions it at random into a transfer part (decision
    histogram only) and a test part (accuracy only), disjoint within the
    fold.  Rows carry mean and standard deviation across folds.  Unless
    ``confusion`` is given, the estimators see a confusion matrix measured
    on the classifier from its own random substream.
    """
    _check_catalogs(spec, clf)
    if folds < 2:
        raise ValidationError(f"folds must be >= 2, got {folds}")
    pool_size = spec.transfer_size + spec.test_size
    if pool_size < folds:
        raise ValidationError(
            f"pool of {pool_size} records is too small to re-partition {folds} times"
        )
    pool_ss, fold_ss, h_ss = np.random.SeedSequence(spec.seed).spawn(3)
    pool_rng = np.random.default_rng(pool_ss)
    fold_rng = np.random.default_rng(fold_ss)
    conf = confusion
    if conf is None:
        conf = estimate_confusion(clf, DEFAULT_H_SAMPLES_PER_CLASS, np.random.default_rng(h_ss))
    labels = _draw_labels(spec.true_priors, pool_size, pool_rng)
    scores = _draw_scores(clf, pool_size, labels, pool_rng)
    baseline = scores.argmax(axis=1)
    estimate = estimator(conf)
    fold_results = []
    for transfer_idx, test_idx in _fold_partitions(pool_size, spec.transfer_size, folds, fold_rng):
        hist = _histogram(baseline[transfer_idx], spec.catalog.k)
        fold_results.append(_evaluate_split(
            spec, estimate, hist, scores[test_idx], labels[test_idx], baseline[test_idx],
        ))
    return _collect_rows(spec.name, fold_results)


def diagonal_confusion_rows(diagonal: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Confusion rows with the given diagonal, the rest of each row spread by ``rng.dirichlet``."""
    k = diagonal.size
    rows = np.zeros((k, k))
    for i in range(k):
        spread = rng.dirichlet(np.ones(k - 1))
        rows[i] = np.insert(spread * (1.0 - diagonal[i]), i, diagonal[i])
    return rows


def default_suite(
    seed: int = 20240,
    catalog_size: int = 36,
    n_scenarios: int = 12,
    active_per_scenario: int = 3,
) -> Suite:
    """The default comparison suite: one classifier, twelve disjoint contexts.

    A ``catalog_size``-class synthetic classifier with per-class diagonal
    accuracy drawn uniformly from [0.65, 0.85] and the default sharpness
    (``DEFAULT_SHARPNESS``) is shared by all scenarios; each scenario
    activates a disjoint block of classes with a uniform mixture over
    them, and has 20 transfer and 30 test records per active class.
    """
    if active_per_scenario * n_scenarios > catalog_size:
        raise ValidationError("not enough catalog classes for disjoint scenario blocks")
    catalog = ClassCatalog(tuple(f"c{i:02d}" for i in range(catalog_size)))
    rng = np.random.default_rng(seed)
    rows = diagonal_confusion_rows(rng.uniform(0.65, 0.85, catalog_size), rng)
    clf = SyntheticClassifier(ConfusionMatrix(catalog, rows))

    scenario_seeds = rng.integers(0, 2**31 - 1, size=n_scenarios)
    h_seed = int(rng.integers(0, 2**31 - 1))
    scenarios = []
    for s in range(n_scenarios):
        active = tuple(range(s * active_per_scenario, (s + 1) * active_per_scenario))
        priors = np.zeros(catalog_size)
        priors[list(active)] = 1.0 / active_per_scenario
        scenarios.append(
            ScenarioSpec(
                catalog=catalog,
                active_classes=active,
                true_priors=priors,
                transfer_size=20 * active_per_scenario,
                test_size=30 * active_per_scenario,
                seed=int(scenario_seeds[s]),
                name=f"context-{s:02d}",
            )
        )
    return Suite(classifier=clf, scenarios=tuple(scenarios), h_seed=h_seed)


def _cross_validate_all(
    specs: Sequence[ScenarioSpec],
    clf: SyntheticClassifier,
    folds: int,
    conf: ConfusionMatrix,
) -> list[EvaluationRow]:
    """Cross-validate ``specs`` in order; a context that fails outright gives error rows."""
    rows = []
    for spec in specs:
        try:
            rows += cross_validate(spec, clf, folds=folds, confusion=conf)
        except PriorAdaptError as exc:
            failed = dict.fromkeys((m.name for m in METHODS), f"{type(exc).__name__}: {exc}")
            rows += _collect_rows(spec.name, [failed] * folds)
    return rows


def _cpu_count() -> int:
    """The CPUs this process may run on, or 1 where that cannot be read or nothing can fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _chunks(items: Sequence, n: int) -> list[Sequence]:
    """``items`` cut into ``min(n, len(items))`` contiguous chunks (at least one), longer ones first."""
    n = max(1, min(n, len(items)))
    size, extra = divmod(len(items), n)
    bounds = [i * size + min(i, extra) for i in range(n + 1)]
    return [items[start:stop] for start, stop in zip(bounds, bounds[1:])]


class WorkerLost(ChildProcessError):
    """A worker process ended, or sent bytes that do not unpickle, before its end-of-stream marker."""


class _Worker:
    """A forked child that runs ``produce()`` and pickles what it yields into a pipe, one message each.

    Iterating yields the child's items in order, and then raises the
    exception ``produce`` raised, if any, or :class:`WorkerLost` if the
    child ended without its end-of-stream marker.  As a context manager,
    it reaps the child on exit, killing it first if it is still sending.
    """

    def __init__(self, pid: int, read_fd: int):
        self.pid = pid
        self._pipe = open(read_fd, "rb")
        self._done = False  # the end marker or an exception arrived: the child is exiting

    def __enter__(self) -> "_Worker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __iter__(self) -> Iterator:
        while True:
            try:
                last, value = pickle.load(self._pipe)
            except Exception:  # the end of the pipe, a cut message, or one that cannot be rebuilt
                code = self.close()
                raise WorkerLost(
                    f"worker process {self.pid} ended with exit code {code} before its last message"
                ) from None
            if not last:
                yield value
                continue
            self._done = True
            self.close()
            if value is not None:
                raise value
            return

    def close(self) -> Optional[int]:
        """Reap the child, killing it first unless it is exiting; its exit code, or None if reaped before."""
        if self._pipe.closed:
            return None
        self._pipe.close()
        if not self._done:
            import signal  # only this path needs it, and every command imports this module

            os.kill(self.pid, signal.SIGKILL)
        return os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])


def _messages(produce: Callable[[], Iterable]) -> Iterator[tuple[bool, object]]:
    """``(False, item)`` per item of ``produce()``, then ``(True, None)``, or ``(True, exception)`` if it raised."""
    try:
        for item in produce():
            yield False, item
    except Exception as exc:  # a GeneratorExit, when the pipe breaks, must close this generator
        yield True, exc
        return
    yield True, None


def _fork(produce: Callable[[], Iterable]) -> Optional[_Worker]:
    """Start ``produce()`` in a forked child and return the :class:`_Worker` reading it, or None.

    The child pickles each message of :func:`_messages` into the pipe as
    soon as it has it.  A message that cannot be pickled ends the stream
    there, without its marker.  The child leaves through ``os._exit``, so
    it runs no exit handler and flushes no inherited buffer.  None means
    no child could be started.

    A bare fork, not ``multiprocessing``: importing that costs about a tenth
    of what the suite's workers save, and a spawned child would import
    numpy again.  The command line runs BLAS on one thread (see ``cli``),
    so its process forks with no other thread; in a caller whose OpenBLAS
    runs more, OpenBLAS stops its threads around the fork.
    """
    try:
        read_fd, write_fd = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid:
        os.close(write_fd)
        return _Worker(pid, read_fd)
    status = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            for message in _messages(produce):
                pipe.write(pickle.dumps(message, pickle.HIGHEST_PROTOCOL))
                pipe.flush()
        status = 0
    finally:
        os._exit(status)


@contextlib.contextmanager
def read_ahead(produce: Callable[[], Iterable]) -> Iterator[Iterable]:
    """Yield the items of ``produce()``, made ahead in a forked child while the caller handles them.

    The child runs when this process may use more than one CPU (see
    :func:`_cpu_count`) and a child can be started; otherwise ``produce()``
    runs here, item by item, as the caller iterates.  The items, their
    order and the exception ``produce`` raises after them are the same
    either way.  A child that ends early raises :class:`WorkerLost`.  The
    child is reaped on exit from the block, and killed first if it is
    still running.
    """
    worker = _fork(produce) if _cpu_count() > 1 else None
    if worker is None:
        yield produce()
        return
    with worker:
        yield worker


def evaluate_suite(
    suite: Suite,
    folds: int = 10,
) -> list[EvaluationRow]:
    """Cross-validate every scenario of a suite against its shared classifier.

    The confusion matrix is measured once and shared, mirroring a single
    offline evaluation serving many deployments.  A scenario that fails
    outright contributes error rows instead of raising.

    The scenarios are cut into contiguous chunks, one per CPU this process
    may run on (``os.sched_getaffinity``) and at most one per scenario.
    This process cross-validates the first chunk; each other chunk runs
    ahead in a forked child through :func:`read_ahead`.  Each
    scenario's folds depend only on its own seed and the shared matrix, so
    the rows, and the output bytes made from them, do not depend on the
    number of chunks; under ``taskset -c 0`` there is one chunk and nothing
    forks.  A cgroup CPU quota below the affinity set is not read.  Rows
    come back in scenario order.  Any other exception is raised as the
    serial loop would raise it: the one from the earliest scenario.  A
    chunk whose child could not start or left no result is cross-validated
    here instead, and every child is reaped before this returns or raises.
    """
    if folds < 2:
        raise ValidationError(f"folds must be >= 2, got {folds}")
    clf = suite.classifier
    conf = estimate_confusion(clf, DEFAULT_H_SAMPLES_PER_CLASS, np.random.default_rng(suite.h_seed))
    run = partial(_cross_validate_all, clf=clf, folds=folds, conf=conf)

    def rows_of(chunk):
        # A generator, so that a chunk with no child runs when it is read, not
        # when its block is entered: errors then come in scenario order.
        yield run(chunk)

    first, *rest = _chunks(suite.scenarios, _cpu_count())
    with contextlib.ExitStack() as children:
        ahead = [children.enter_context(read_ahead(partial(rows_of, chunk))) for chunk in rest]
        rows = run(first)
        for chunk, part in zip(rest, ahead):
            try:
                [chunk_rows] = part
            except WorkerLost:
                chunk_rows = run(chunk)
            rows += chunk_rows
        return rows


#: Rows per block of :func:`simulate_stream`.
_STREAM_BLOCK_ROWS = 1024


def simulate_stream(
    spec: ScenarioSpec,
    clf: SyntheticClassifier,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[tuple[np.ndarray, np.ndarray, int]]:
    """Yield ``(scores, labels, segment)`` blocks of a deployment stream.

    The stream has ``transfer_size + test_size`` rows drawn i.i.d. from
    the scenario mixture, switching to each drift segment's mixture at its
    start index.  Segment 0 is the scenario's own priors.  ``scores`` is an
    (n, K) array and ``labels`` the (n,) true class indices of its rows.  A
    block holds at most ``_STREAM_BLOCK_ROWS`` rows, all of one segment.

    RNG contract, pinned by the goldens: per row, in row order, one
    ``rng.random()`` draws the label (the draw ``rng.choice(K, p=priors)``
    makes), then :func:`_draw_scores` draws the row.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    segments = [(0, spec.true_priors), *((seg.start, seg.priors) for seg in spec.drift or ())]
    ends = [start for start, _ in segments[1:]] + [spec.transfer_size + spec.test_size]
    for segment, ((start, priors), end) in enumerate(zip(segments, ends)):
        cdf = priors.cumsum()
        cdf /= cdf[-1]
        for first in range(start, end, _STREAM_BLOCK_ROWS):
            n = min(_STREAM_BLOCK_ROWS, end - first)
            # The kernel draws each label just before its row; tee keeps a copy.
            drawn, kept = itertools.tee(cdf.searchsorted(rng.random(), side="right") for _ in range(n))
            yield _draw_scores(clf, n, drawn, rng), np.fromiter(kept, np.intp, n), segment


def run_drift_scenario(
    spec: ScenarioSpec,
    clf: SyntheticClassifier,
    window: Optional[int],
    reestimate_every: int,
) -> list[EvaluationRow]:
    """Prequential evaluation of a windowed monitor over a drifting stream.

    The stream's blocks run through :func:`adapt`, the loop live
    ``reweight`` runs, and only each row's true label, segment and two
    decisions are kept: every record is decided with the policy in force
    (uniform until the first estimate), then its baseline decision is
    counted in a windowed histogram, and the least-squares estimator
    re-runs every ``reestimate_every`` records.  Accuracy is reported per
    drift segment, baseline versus adapted; the adapted rows' ``error``
    counts the re-estimates that failed and kept the previous priors.  This
    goes beyond the batch protocol the estimators were validated under, so
    treat the rows as an extension rather than a reproduction.
    """
    _check_catalogs(spec, clf)
    if reestimate_every < 1:
        raise ValidationError("reestimate_every must be >= 1")
    stream_ss, h_ss = np.random.SeedSequence(spec.seed).spawn(2)
    conf = estimate_confusion(clf, DEFAULT_H_SAMPLES_PER_CLASS, np.random.default_rng(h_ss))
    truth, segments, baseline, adapted = [], [], [], []

    def scores_of(stream):
        for scores, labels, segment in stream:
            truth.append(labels)
            segments.append(segment)
            yield scores

    failures: list[PriorAdaptError] = []
    parts = adapt(
        scores_of(simulate_stream(spec, clf, np.random.default_rng(stream_ss))),
        StreamMonitor(spec.catalog, window=window),
        partial(estimator(conf), "quadratic_program"), reestimate_every, failures.append,
    )
    for part, policy in parts:
        baseline.append(part.argmax(axis=1))
        adapted.append(decide_adapted_batch(part, policy))
    segments = np.repeat(segments, [len(labels) for labels in truth])
    truth = np.concatenate(truth)
    hits = np.column_stack([np.concatenate(baseline) == truth, np.concatenate(adapted) == truth])
    error = None
    if failures:
        last = failures[-1]
        error = f"{len(failures)} re-estimates failed, kept previous priors: {type(last).__name__}: {last}"
    rows = []
    for segment in np.unique(segments):
        name = f"{spec.name}/segment-{segment}"
        baseline, adapted = hits[segments == segment].mean(axis=0)
        rows.append(EvaluationRow(name, "baseline", float(baseline), None, folds=1))
        rows.append(
            EvaluationRow(name, "quadratic_program", float(adapted), None, folds=1, error=error)
        )
    return rows
