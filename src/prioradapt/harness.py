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

A scenario JSON, read by :func:`read_scenario_json`, holds a deployment
context plus the synthetic classifier to drive it.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import os
import pickle
import signal
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import fileio
from .core import (
    METHODS,
    PRIOR_SUM_TOL,
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
from .errors import ParseError, PriorAdaptError, ValidationError, describe
from .estimators import (
    estimate_ground_truth,
    estimate_matrix_inverse,
    estimate_naive,
    estimate_precision_recall,
    estimate_qp,
    precision_recall,
)
from .fileio import _is_number, read_json
from .monitor import StreamMonitor

DEFAULT_SHARPNESS = 25.0
DEFAULT_H_SAMPLES_PER_CLASS = 50
DEFAULT_FOLDS = 10


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
        if self.transfer_size + self.test_size > 2**53:
            raise ValidationError(
                "transfer_size + test_size must be at most 2**53, the largest count a float64 holds exactly"
            )
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

    @property
    def segments(self) -> list[tuple[int, np.ndarray]]:
        """``(start, priors)`` of each prior segment in stream order; segment 0 starts at 0 with ``true_priors``."""
        return [(0, self.true_priors), *((seg.start, seg.priors) for seg in self.drift or ())]


@dataclass(frozen=True)
class SyntheticClassifier:
    """Score generator calibrated to a given confusion matrix."""

    confusion: ConfusionMatrix
    sharpness: float = DEFAULT_SHARPNESS

    def __post_init__(self):
        if not 0.0 < self.sharpness < np.inf:
            raise ValidationError("sharpness must be a positive finite number")

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


def _is_seed(value) -> bool:
    """A JSON integer that ``np.random.default_rng`` accepts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _require(doc: dict, key: str, kind, where: str, path: str):
    if key not in doc:
        raise ParseError(f"{where}.{key} is required", path=path)
    value = doc[key]
    if kind is int and isinstance(value, bool):
        raise ParseError(f"{where}.{key} must be an integer", path=path)
    if not isinstance(value, kind):
        raise ParseError(f"{where}.{key} must be of type {kind.__name__}", path=path)
    return value


def _priors_from_mapping(
    mapping: dict, catalog: ClassCatalog, where: str, path: str
) -> np.ndarray:
    priors = np.zeros(catalog.k)
    for label, value in mapping.items():
        if label not in catalog.labels:
            raise ParseError(f"{where}: unknown class {label!r}", path=path)
        if not _is_number(value):
            raise ParseError(f"{where}.{label} must be a number", path=path)
        priors[catalog.index_of(label)] = float(value)
    return priors


def read_scenario_json(
    path: str,
    seed_override: Optional[int] = None,
) -> tuple[ScenarioSpec, SyntheticClassifier]:
    """Parse a scenario file, whose classifier section is required; validation failures name the offending field."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ParseError("scenario JSON must be an object", path=path)

    labels = _require(doc, "labels", list, "scenario", path)
    if not all(isinstance(l, str) for l in labels):
        raise ParseError("scenario.labels must be strings", path=path)
    try:
        catalog = ClassCatalog(tuple(labels))
    except PriorAdaptError as exc:
        raise ParseError(f"scenario.labels: {exc}", path=path) from exc

    active_labels = _require(doc, "active_classes", list, "scenario", path)
    active = []
    for label in active_labels:
        if label not in catalog.labels:
            raise ParseError(f"scenario.active_classes: unknown class {label!r}", path=path)
        active.append(catalog.index_of(label))

    priors = _priors_from_mapping(
        _require(doc, "true_priors", dict, "scenario", path),
        catalog, "scenario.true_priors", path,
    )

    drift = None
    if "drift" in doc and doc["drift"] is not None:
        if not isinstance(doc["drift"], list):
            raise ParseError("scenario.drift must be a list", path=path)
        segments = []
        for i, entry in enumerate(doc["drift"]):
            where = f"scenario.drift[{i}]"
            if not isinstance(entry, dict):
                raise ParseError(f"{where} must be an object", path=path)
            start = _require(entry, "start", int, where, path)
            seg_priors = _priors_from_mapping(
                _require(entry, "priors", dict, where, path),
                catalog, f"{where}.priors", path,
            )
            try:
                segments.append(DriftSegment(start=start, priors=seg_priors))
            except PriorAdaptError as exc:
                raise ParseError(f"{where}: {exc}", path=path) from exc
        drift = tuple(segments)

    seed = doc.get("seed", 0)
    if not _is_seed(seed):
        raise ParseError("scenario.seed must be a non-negative integer", path=path)
    if seed_override is not None:
        seed = seed_override
    sharpness = _sharpness(doc.get("sharpness", DEFAULT_SHARPNESS), "scenario", path)
    transfer_size = _require(doc, "transfer_size", int, "scenario", path)
    test_size = _require(doc, "test_size", int, "scenario", path)
    try:
        spec = ScenarioSpec(
            catalog=catalog,
            active_classes=tuple(active),
            true_priors=priors,
            transfer_size=transfer_size,
            test_size=test_size,
            drift=drift,
            seed=int(seed),
            name=str(doc.get("name", os.path.splitext(os.path.basename(path))[0])),
        )
    except PriorAdaptError as exc:
        raise ParseError(f"scenario: {exc}", path=path) from exc

    if doc.get("classifier") is None:
        raise ParseError("scenario.classifier is required", path=path)
    return spec, _build_classifier(doc["classifier"], catalog, sharpness, path)


def _sharpness(value, where: str, path: str) -> float:
    if not _is_number(value) or not 0 < value < np.inf:
        raise ParseError(f"{where}.sharpness must be a positive finite number", path=path)
    return float(value)


def _build_classifier(
    section, catalog: ClassCatalog, default_sharpness: float, path: str
) -> SyntheticClassifier:
    """The synthetic classifier; its sharpness defaults to the scenario's."""
    where = "scenario.classifier"
    if not isinstance(section, dict):
        raise ParseError(f"{where} must be an object", path=path)
    sharpness = _sharpness(section.get("sharpness", default_sharpness), where, path)
    if "confusion_csv" in section:
        csv_path = section["confusion_csv"]
        if not isinstance(csv_path, str):
            raise ParseError(f"{where}.confusion_csv must be a path", path=path)
        if not os.path.isabs(csv_path):
            csv_path = os.path.join(os.path.dirname(os.path.abspath(path)), csv_path)
        conf = fileio.read_confusion_csv(csv_path)  # through the module: bench/traced.py wraps it there
        if conf.catalog != catalog:
            raise ParseError(
                f"{where}.confusion_csv labels do not match scenario.labels", path=path
            )
        return SyntheticClassifier(conf, sharpness=sharpness)
    if "diagonal" in section:
        diagonal = section["diagonal"]
        conf_seed = section.get("confusion_seed", 0)
        if not _is_seed(conf_seed):
            raise ParseError(f"{where}.confusion_seed must be a non-negative integer", path=path)
        rng = np.random.default_rng(conf_seed)
        if _is_number(diagonal):
            diag = np.full(catalog.k, float(diagonal))
        elif (
            isinstance(diagonal, list) and len(diagonal) == catalog.k
            and all(_is_number(d) for d in diagonal)
        ):
            diag = np.array([float(d) for d in diagonal])
        else:
            raise ParseError(
                f"{where}.diagonal must be a number or a list of {catalog.k} numbers",
                path=path,
            )
        if np.any(diag <= 0.0) or np.any(diag > 1.0):
            raise ParseError(f"{where}.diagonal entries must lie in (0, 1]", path=path)
        # Rows with a diagonal in (0, 1] are finite, nonnegative and never all zero.
        rows = diagonal_confusion_rows(diag, rng)
        return SyntheticClassifier(ConfusionMatrix(catalog, rows), sharpness=sharpness)
    raise ParseError(
        f"{where} needs either confusion_csv or diagonal", path=path
    )


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
    return ScoreRecord(_draw_scores(clf, 1, (true_class,), rng)[0])


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
    Any other method name raises :class:`ValidationError`.
    """
    table = precision_recall(conf)

    def estimate(method: str, hist: DecisionHistogram) -> PriorEstimate:
        if method == "naive":
            return estimate_naive(hist)
        if method == "precision_recall":
            return estimate_precision_recall(hist, table)
        if method == "matrix_inverse":
            return estimate_matrix_inverse(conf, hist)
        if method == "quadratic_program":
            return estimate_qp(conf, hist)
        raise ValidationError(f"unknown estimation method {method!r}")

    return estimate


def adapt(
    items: Iterable,
    monitor: StreamMonitor,
    estimate: Callable[[DecisionHistogram], PriorEstimate],
    every: int,
) -> Iterator:
    """Yield ``(scores, priors)`` parts of the (N, K) score blocks among ``items``, re-estimating every ``every`` rows.

    The priors start uniform.  Parts are cut at multiples of ``every``
    rows.  After a part is yielded its baseline decisions are counted in
    ``monitor``; before the row after every ``every``-th,
    ``estimate(monitor.snapshot())`` comes into force, so each row is
    decided under the priors in force before it is counted, and nothing is
    estimated after the last row.  An estimate that raises
    :class:`PriorAdaptError` leaves the priors in force, and the error is
    yielded in its place.  An item that is not an array, such as a skipped
    row's error, is yielded as it is, in its place.
    """
    priors = uniform_estimate(monitor.catalog.k)
    for scores in items:
        if not isinstance(scores, np.ndarray):
            yield scores
            continue
        start = 0
        while start < len(scores):
            seen = monitor.decisions_seen
            if seen and seen % every == 0:
                try:
                    priors = estimate(monitor.snapshot())
                except PriorAdaptError as exc:
                    yield exc
            part = scores[start:start + every - seen % every]
            yield part, priors
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
            results[method.name] = describe(exc)
            continue
        results[method.name] = outcome(decide_adapted_batch(scores, priors), priors)
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
    folds: int = DEFAULT_FOLDS,
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


def default_suite(seed: int = 20240) -> Suite:
    """The default comparison suite: one classifier, twelve disjoint contexts.

    A 36-class synthetic classifier with per-class diagonal accuracy drawn
    uniformly from [0.65, 0.85] and the default sharpness
    (``DEFAULT_SHARPNESS``) is shared by all scenarios.  The twelve
    contexts each activate a disjoint block of three classes with a
    uniform mixture over them, and have 20 transfer and 30 test records
    per active class.
    """
    catalog = ClassCatalog(tuple(f"c{i:02d}" for i in range(36)))
    rng = np.random.default_rng(seed)
    rows = diagonal_confusion_rows(rng.uniform(0.65, 0.85, 36), rng)
    clf = SyntheticClassifier(ConfusionMatrix(catalog, rows))

    scenario_seeds = rng.integers(0, 2**31 - 1, size=12)
    h_seed = int(rng.integers(0, 2**31 - 1))
    scenarios = []
    for s in range(12):
        active = (3 * s, 3 * s + 1, 3 * s + 2)
        priors = np.zeros(36)
        priors[list(active)] = 1.0 / 3
        scenarios.append(
            ScenarioSpec(
                catalog=catalog,
                active_classes=active,
                true_priors=priors,
                transfer_size=60,
                test_size=90,
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
            failed = dict.fromkeys((m.name for m in METHODS), describe(exc))
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
    """A worker process ended, or sent bytes that do not unpickle, before its end-of-stream marker.

    ``pid`` is the worker's.  Only the process that forked it can reap it,
    so only there does the message name its exit code.
    """

    pid: Optional[int] = None


def _lost(pid: int, exit_code: Optional[int]) -> WorkerLost:
    """The :class:`WorkerLost` of worker ``pid``, naming its exit code if it was reaped."""
    ended = "ended" if exit_code is None else f"ended with exit code {exit_code}"
    lost = WorkerLost(f"worker process {pid} {ended} before its last message")
    lost.pid = pid
    return lost


def _messages(items: Iterable) -> Iterator[tuple[bool, object]]:
    """``(False, item)`` per item of ``items``, then ``(True, None)``, or ``(True, exception)`` if iterating raised."""
    try:
        for item in items:
            yield False, item
    except Exception as exc:  # a GeneratorExit, when the pipe breaks, must close this generator
        yield True, exc
        return
    yield True, None


#: Pickled bytes a child may hold while its pipe is full; past this it waits for room.
_AHEAD_BYTES = 16 << 20
#: The pipe capacity asked for, where the kernel allows it.
_PIPE_BYTES = 1 << 20


def _pipe() -> tuple[int, int]:
    """``os.pipe()``, enlarged to ``_PIPE_BYTES`` where ``F_SETPIPE_SZ`` allows it (best effort)."""
    read_fd, write_fd = os.pipe()
    with contextlib.suppress(ImportError, AttributeError, OSError):
        import fcntl  # Linux only; only the fork paths need it

        fcntl.fcntl(write_fd, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    return read_fd, write_fd


def _send(fd: int, messages: Iterable) -> None:
    """Pickle each of ``messages`` into the pipe ``fd`` as soon as the pipe has room.

    The writes do not block: while the pipe is full, the messages are held
    here and the next one is made meanwhile.  Only while more than
    ``_AHEAD_BYTES`` are held, and after the last message or an exception,
    does this wait for the reader.
    """
    import select  # only a forked child needs it

    os.set_blocking(fd, False)
    room = select.poll()
    room.register(fd, select.POLLOUT)
    held: collections.deque[memoryview] = collections.deque()
    size = 0

    def write_held(limit: int) -> None:
        """Write held bytes while the pipe takes them; while more than ``limit`` are held, wait for room."""
        nonlocal size
        while held:
            try:
                written = os.write(fd, held[0])
            except BlockingIOError:
                if size <= limit:
                    return
                room.poll()
                continue
            size -= written
            if written == len(held[0]):
                held.popleft()
            else:
                held[0] = held[0][written:]

    try:
        for message in messages:
            data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
            held.append(memoryview(data))
            size += len(data)
            write_held(_AHEAD_BYTES)
    finally:
        write_held(0)


#: The signals that end a command, cleaning up, as SIGTERM does (see
#: ``prioradapt.__main__.run``); SIGHUP is POSIX only.
ENDING_SIGNALS = tuple(getattr(signal, name) for name in ("SIGTERM", "SIGINT", "SIGHUP") if hasattr(signal, name))


def _fork(items: Iterable) -> Optional[tuple[int, int]]:
    """Iterate ``items`` in a forked child; return its pid and the read end of its pipe, or None.

    The child pickles each message of :func:`_messages` into the pipe as
    soon as the pipe has room (see :func:`_send`), so it runs ahead of its
    reader by up to the pipe's capacity (``_PIPE_BYTES`` where the kernel
    allows) plus ``_AHEAD_BYTES`` of held messages.  A message that cannot
    be pickled ends the stream there, without its marker.  The child leaves
    through ``os._exit``, so it runs no exit handler and flushes no
    inherited buffer; SIGTERM, SIGINT and SIGHUP end it at once, whatever
    handler the parent runs, unless the parent ignores them.  None means no
    child could be started; ``items`` is then untouched.

    A bare fork, not ``multiprocessing``: importing that costs about a tenth
    of what the suite's workers save, and a spawned child would import
    numpy again.  The command line runs BLAS on one thread (see ``cli``),
    so its process forks with no other thread; in a caller whose OpenBLAS
    runs more, OpenBLAS stops its threads around the fork.
    """
    try:
        read_fd, write_fd = _pipe()
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
        return pid, read_fd
    status = 1
    try:
        for signum in ENDING_SIGNALS:
            if signal.getsignal(signum) is not signal.SIG_IGN:
                signal.signal(signum, signal.SIG_DFL)
        os.close(read_fd)
        _send(write_fd, _messages(items))
        status = 0
    finally:
        os._exit(status)


@contextlib.contextmanager
def read_ahead(items: Iterable) -> Iterator[Iterable]:
    """Yield ``items`` made ahead in a forked child while the caller handles them.

    The child runs when this process may use more than one CPU (see
    :func:`_cpu_count`) and a child can be started (see :func:`_fork`);
    otherwise ``items`` itself is yielded, and runs here, item by item, as
    the caller iterates.  The items, their order and the exception that
    iterating them raises after them are the same either way.  The child
    runs ahead of the caller by at most the pipe's capacity plus
    ``_AHEAD_BYTES`` of pickled items.  A child whose pipe ends before its
    last message raises :class:`WorkerLost`, naming its exit code.  The
    child is reaped as soon as its last message arrives; on exit from the
    block, one that has not sent it is killed and reaped.

    The yielded stream may be read on in a process forked from this one,
    such as a second ``read_ahead``'s child.  That copy only closes the
    pipe: it never kills or reaps a process it did not fork, so its
    :class:`WorkerLost` names no exit code.  When that error reaches this
    block, it is raised again naming the code.
    """
    forker = os.getpid()
    child = _fork(items) if _cpu_count() > 1 else None
    if child is None:
        yield items
        return
    pid, read_fd = child
    pipe = open(read_fd, "rb")
    exit_code: Optional[int] = None

    def reap(kill: bool) -> Optional[int]:
        """Close the pipe; in the forking process, kill the child if ``kill``, reap it once and return its exit code."""
        nonlocal exit_code
        pipe.close()
        if exit_code is None and os.getpid() == forker:
            if kill:
                os.kill(pid, signal.SIGKILL)
            exit_code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        return exit_code

    def received() -> Iterator:
        while True:
            try:
                last, value = pickle.load(pipe)
            except Exception:  # the end of the pipe, a cut message, or one that cannot be rebuilt
                raise _lost(pid, reap(kill=True)) from None
            if last:
                break
            yield value
        reap(kill=False)
        if value is not None:
            raise value

    try:
        yield received()
    except WorkerLost as exc:
        if exc.pid != pid:
            raise
        raise _lost(pid, reap(kill=True)) from None
    finally:
        reap(kill=True)


def evaluate_suite(
    suite: Suite,
    folds: int = DEFAULT_FOLDS,
) -> list[EvaluationRow]:
    """Cross-validate every scenario of a suite against its shared classifier.

    The confusion matrix is measured once and shared, mirroring a single
    offline evaluation serving many deployments.  A scenario that fails
    outright contributes error rows instead of raising.

    The scenarios are cut into contiguous chunks, one per CPU this process
    may run on (``os.sched_getaffinity``) and at most one per scenario.
    This process cross-validates the first chunk; each other chunk is
    ``map(run, [chunk])`` passed to :func:`read_ahead`, so it runs ahead in
    a forked child, or, with no child, lazily here when its turn comes.
    Each scenario's folds depend only on its own seed and the shared
    matrix, so the rows, and the output bytes made from them, do not depend
    on the number of chunks; under ``taskset -c 0`` there is one chunk and
    nothing forks.  A cgroup CPU quota below the affinity set is not read.
    Rows come back in scenario order.  Any other exception is raised as the
    serial loop would raise it: the one from the earliest scenario.  A
    chunk whose child left no result is cross-validated here instead, and
    every child is reaped before this returns or raises.
    """
    if folds < 2:
        raise ValidationError(f"folds must be >= 2, got {folds}")
    clf = suite.classifier
    conf = estimate_confusion(clf, DEFAULT_H_SAMPLES_PER_CLASS, np.random.default_rng(suite.h_seed))
    run = partial(_cross_validate_all, clf=clf, folds=folds, conf=conf)
    first, *rest = _chunks(suite.scenarios, _cpu_count())
    with contextlib.ExitStack() as children:
        ahead = [children.enter_context(read_ahead(map(run, [chunk]))) for chunk in rest]
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
    segments = spec.segments
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
    decisions are kept: every record is decided with the priors in force
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

    failures = []
    parts = adapt(
        scores_of(simulate_stream(spec, clf, np.random.default_rng(stream_ss))),
        StreamMonitor(spec.catalog, window=window),
        partial(estimator(conf), "quadratic_program"), reestimate_every,
    )
    for item in parts:
        if isinstance(item, PriorAdaptError):
            failures.append(item)
            continue
        part, priors = item
        baseline.append(part.argmax(axis=1))
        adapted.append(decide_adapted_batch(part, priors))
    segments = np.repeat(segments, [len(labels) for labels in truth])
    truth = np.concatenate(truth)
    hits = np.column_stack([np.concatenate(baseline) == truth, np.concatenate(adapted) == truth])
    error = None
    if failures:
        error = f"{len(failures)} re-estimates failed, kept previous priors: {describe(failures[-1])}"
    rows = []
    for segment in np.unique(segments):
        name = f"{spec.name}/segment-{segment}"
        baseline, adapted = hits[segments == segment].mean(axis=0)
        rows.append(EvaluationRow(name, "baseline", float(baseline), None, folds=1))
        rows.append(
            EvaluationRow(name, "quadratic_program", float(adapted), None, folds=1, error=error)
        )
    return rows
