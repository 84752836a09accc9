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

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .core import (
    METHODS,
    AdaptedPolicy,
    ClassCatalog,
    ConfusionMatrix,
    DecisionHistogram,
    PriorEstimate,
    ScoreRecord,
    decide_adapted,
    decide_adapted_batch,
    decide_baseline,
    uniform_estimate,
)
from .errors import PriorAdaptError, ValidationError
from .estimators import (
    PrecisionRecallTable,
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
        priors = np.asarray(self.priors, dtype=np.float64)
        if self.start < 1:
            raise ValidationError("drift segment must start at index >= 1")
        _check_simplex(priors, "drift priors")
        priors.setflags(write=False)
        object.__setattr__(self, "priors", priors)


def _check_simplex(v: np.ndarray, what: str) -> None:
    if v.ndim != 1:
        raise ValidationError(f"{what} must be a vector")
    if not np.all(np.isfinite(v)) or np.any(v < 0.0):
        raise ValidationError(f"{what} must be finite and nonnegative")
    if abs(float(v.sum()) - 1.0) > 1e-9:
        raise ValidationError(f"{what} must sum to 1, got {float(v.sum())!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """A deployment context: which classes occur, how often, for how long."""

    catalog: ClassCatalog
    active_classes: tuple[int, ...]
    true_priors: np.ndarray
    transfer_size: int
    test_size: int
    sharpness: float = DEFAULT_SHARPNESS
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

        priors = np.asarray(self.true_priors, dtype=np.float64)
        if priors.shape != (k,):
            raise ValidationError(f"true_priors must have length {k}")
        _check_simplex(priors, "true_priors")
        inactive = np.ones(k, dtype=bool)
        inactive[list(active)] = False
        if np.any(priors[inactive] > 0.0):
            raise ValidationError("true_priors put mass on classes outside active_classes")
        priors.setflags(write=False)
        object.__setattr__(self, "true_priors", priors)

        if self.transfer_size < 1 or self.test_size < 1:
            raise ValidationError("transfer_size and test_size must be >= 1")
        if not self.sharpness > 0.0:
            raise ValidationError("sharpness must be > 0")
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


@dataclass(frozen=True)
class EvaluationRow:
    """One method's result for one scenario, aggregated over folds."""

    scenario: str
    method: str
    accuracy: Optional[float]
    accuracy_std: Optional[float]
    folds: int
    priors: Optional[np.ndarray] = None
    prior_l1_error: Optional[float] = None
    error: Optional[str] = None


@dataclass(frozen=True)
class Suite:
    """A shared classifier plus the scenarios evaluated against it."""

    classifier: SyntheticClassifier
    scenarios: tuple[ScenarioSpec, ...]
    h_seed: int = 0


def generate_record(
    clf: SyntheticClassifier,
    true_class: int,
    rng: np.random.Generator,
) -> ScoreRecord:
    """Draw one synthetic score vector for a sample of ``true_class``.

    The intended decision is sampled from the class's confusion row; the
    score vector is exponential jitter with the largest entry moved to the
    intended decision and boosted by the sharpness, then normalized.  The
    argmax therefore always equals the intended decision, so empirical
    decision frequencies converge to the confusion row exactly.
    """
    k = clf.catalog.k
    if true_class < 0 or true_class >= k:
        raise ValidationError(f"true_class {true_class} out of range for {k} classes")
    row = clf.confusion.rows[true_class]
    intended = int(rng.choice(k, p=row))
    weights = rng.exponential(1.0, k)
    top = int(np.argmax(weights))
    weights[intended], weights[top] = weights[top], weights[intended]
    weights[intended] += clf.sharpness
    return ScoreRecord(weights / weights.sum(), true_label=true_class)


def estimate_confusion(
    clf: SyntheticClassifier,
    samples_per_class: int,
    rng: Optional[np.random.Generator] = None,
) -> ConfusionMatrix:
    """Measure an empirical confusion matrix on balanced synthetic data."""
    if samples_per_class < 1:
        raise ValidationError("samples_per_class must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)
    k = clf.catalog.k
    counts = np.zeros((k, k), dtype=np.int64)
    for true_class in range(k):
        for _ in range(samples_per_class):
            record = generate_record(clf, true_class, rng)
            counts[true_class, decide_baseline(record)] += 1
    return ConfusionMatrix(clf.catalog, counts, sample_counts=counts.sum(axis=1))


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


def _draw_records(
    clf: SyntheticClassifier,
    labels: Sequence[int],
    rng: np.random.Generator,
) -> list[ScoreRecord]:
    return [generate_record(clf, int(lbl), rng) for lbl in labels]


def _stack(records: Sequence[ScoreRecord]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (N, K) scores, true labels and baseline decisions of labelled records."""
    scores = np.stack([r.scores for r in records])
    labels = np.array([r.true_label for r in records])
    return scores, labels, scores.argmax(axis=1)


def _histogram(decisions: np.ndarray, k: int) -> DecisionHistogram:
    return DecisionHistogram(np.bincount(decisions, minlength=k))


def _accuracy(decisions: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean(decisions == truth))


def _evaluate_split(
    spec: ScenarioSpec,
    conf: ConfusionMatrix,
    hist: DecisionHistogram,
    scores: np.ndarray,
    truth: np.ndarray,
    baseline_decisions: np.ndarray,
    table: PrecisionRecallTable,
) -> dict[str, dict]:
    """Estimate priors from the transfer histogram, score decisions on the test rows.

    ``scores``, ``truth`` and ``baseline_decisions`` are the test stream's
    (N, K) scores, true labels and baseline argmax decisions; ``table`` is
    ``precision_recall(conf)``, read once per scenario by the caller.
    """
    catalog = spec.catalog

    def estimate(method: str) -> PriorEstimate:
        if method == "naive":
            return estimate_naive(hist)
        if method == "precision_recall":
            return estimate_precision_recall(hist, table)
        if method == "matrix_inverse":
            return estimate_matrix_inverse(conf, hist)
        if method == "quadratic_program":
            return estimate_qp(conf, hist)
        return estimate_ground_truth(spec.true_priors)

    results: dict[str, dict] = {}
    results["baseline"] = {
        "accuracy": _accuracy(baseline_decisions, truth),
        "priors": uniform_estimate(catalog.k).values,
        "prior_l1_error": float(
            np.abs(uniform_estimate(catalog.k).values - spec.true_priors).sum()
        ),
    }
    for method in METHODS:
        if method.name == "baseline":
            continue
        try:
            priors = estimate(method.name)
        except PriorAdaptError as exc:
            results[method.name] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        policy = AdaptedPolicy.from_priors(priors)
        decisions = decide_adapted_batch(scores, policy)
        results[method.name] = {
            "accuracy": _accuracy(decisions, truth),
            "priors": priors.values,
            "prior_l1_error": float(np.abs(priors.values - spec.true_priors).sum()),
        }
    return results


def _check_catalogs(spec: ScenarioSpec, clf: SyntheticClassifier) -> None:
    if spec.catalog != clf.catalog:
        raise ValidationError("scenario and classifier use different catalogs")


def _resolve_confusion(
    clf: SyntheticClassifier,
    confusion: Optional[ConfusionMatrix],
    h_samples_per_class: int,
    rng: np.random.Generator,
) -> ConfusionMatrix:
    if confusion is not None:
        return confusion
    return estimate_confusion(clf, h_samples_per_class, rng)


def _collect_rows(spec_name: str, fold_results: list[dict[str, dict]]) -> list[EvaluationRow]:
    """Aggregate per-fold results into one row per method."""
    rows = []
    folds = len(fold_results)
    for method in (m.name for m in METHODS):
        accuracies = [f[method]["accuracy"] for f in fold_results if "error" not in f[method]]
        errors = [f[method]["error"] for f in fold_results if "error" in f[method]]
        if not accuracies:
            rows.append(
                EvaluationRow(
                    scenario=spec_name,
                    method=method,
                    accuracy=None,
                    accuracy_std=None,
                    folds=folds,
                    error=errors[-1] if errors else "no successful folds",
                )
            )
            continue
        ok = [f[method] for f in fold_results if "error" not in f[method]]
        priors = np.mean([r["priors"] for r in ok], axis=0)
        error = None
        if errors:
            error = f"failed in {len(errors)}/{folds} folds: {errors[-1]}"
        rows.append(
            EvaluationRow(
                scenario=spec_name,
                method=method,
                accuracy=float(np.mean(accuracies)),
                accuracy_std=float(np.std(accuracies)),
                folds=folds,
                priors=priors,
                prior_l1_error=float(np.mean([r["prior_l1_error"] for r in ok])),
                error=error,
            )
        )
    return rows


def run_scenario(
    spec: ScenarioSpec,
    clf: SyntheticClassifier,
    confusion: Optional[ConfusionMatrix] = None,
    h_samples_per_class: int = DEFAULT_H_SAMPLES_PER_CLASS,
) -> list[EvaluationRow]:
    """Single-pass evaluation: fresh transfer and test streams, one row per method.

    The transfer stream only ever feeds the decision histogram; the test
    stream only ever scores decisions.  The two are drawn from separate
    RNG substreams, so no sample is shared.  Unless ``confusion`` is given,
    the estimators see an empirically measured confusion matrix (its own
    substream).
    """
    _check_catalogs(spec, clf)
    transfer_ss, test_ss, h_ss = np.random.SeedSequence(spec.seed).spawn(3)
    transfer_rng = np.random.default_rng(transfer_ss)
    test_rng = np.random.default_rng(test_ss)
    conf = _resolve_confusion(
        clf, confusion, h_samples_per_class, np.random.default_rng(h_ss)
    )
    transfer = _draw_records(clf, _draw_labels(spec.true_priors, spec.transfer_size, transfer_rng), transfer_rng)
    test = _draw_records(clf, _draw_labels(spec.true_priors, spec.test_size, test_rng), test_rng)
    hist = _histogram(_stack(transfer)[2], spec.catalog.k)
    results = _evaluate_split(spec, conf, hist, *_stack(test), precision_recall(conf))
    return _collect_rows(spec.name, [results])


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
    h_samples_per_class: int = DEFAULT_H_SAMPLES_PER_CLASS,
) -> list[EvaluationRow]:
    """K-fold evaluation over a fixed sample pool.

    A pool of ``transfer_size + test_size`` records is drawn once; each
    fold re-partitions it at random into a transfer part (decision
    histogram only) and a test part (accuracy only), disjoint within the
    fold.  Rows carry mean and standard deviation across folds.
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
    conf = _resolve_confusion(
        clf, confusion, h_samples_per_class, np.random.default_rng(h_ss)
    )
    pool = _draw_records(clf, _draw_labels(spec.true_priors, pool_size, pool_rng), pool_rng)
    scores, labels, baseline = _stack(pool)
    table = precision_recall(conf)
    fold_results = []
    for transfer_idx, test_idx in _fold_partitions(pool_size, spec.transfer_size, folds, fold_rng):
        hist = _histogram(baseline[transfer_idx], spec.catalog.k)
        fold_results.append(_evaluate_split(
            spec, conf, hist, scores[test_idx], labels[test_idx], baseline[test_idx], table,
        ))
    return _collect_rows(spec.name, fold_results)


def default_suite(
    seed: int = 20240,
    catalog_size: int = 36,
    n_scenarios: int = 12,
    active_per_scenario: int = 3,
    transfer_per_class: int = 20,
    test_per_class: int = 30,
    diagonal_range: tuple[float, float] = (0.65, 0.85),
    sharpness: float = DEFAULT_SHARPNESS,
) -> Suite:
    """The default comparison suite: one classifier, twelve disjoint contexts.

    A ``catalog_size``-class synthetic classifier with per-class diagonal
    accuracy drawn from ``diagonal_range`` is shared by all scenarios; each
    scenario activates a disjoint block of classes with a uniform mixture
    over them.
    """
    if active_per_scenario * n_scenarios > catalog_size:
        raise ValidationError("not enough catalog classes for disjoint scenario blocks")
    catalog = ClassCatalog(tuple(f"c{i:02d}" for i in range(catalog_size)))
    rng = np.random.default_rng(seed)
    diagonal = rng.uniform(diagonal_range[0], diagonal_range[1], catalog_size)
    rows = np.zeros((catalog_size, catalog_size))
    for i in range(catalog_size):
        spread = rng.dirichlet(np.ones(catalog_size - 1))
        rows[i, :] = np.insert(spread * (1.0 - diagonal[i]), i, diagonal[i])
    clf = SyntheticClassifier(ConfusionMatrix(catalog, rows), sharpness=sharpness)

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
                transfer_size=transfer_per_class * active_per_scenario,
                test_size=test_per_class * active_per_scenario,
                sharpness=sharpness,
                seed=int(scenario_seeds[s]),
                name=f"context-{s:02d}",
            )
        )
    return Suite(classifier=clf, scenarios=tuple(scenarios), h_seed=h_seed)


def evaluate_suite(
    suite: Suite,
    folds: int = 10,
    h_samples_per_class: int = DEFAULT_H_SAMPLES_PER_CLASS,
) -> list[EvaluationRow]:
    """Cross-validate every scenario of a suite against its shared classifier.

    The confusion matrix is measured once and shared, mirroring a single
    offline evaluation serving many deployments.  A scenario that fails
    outright contributes error rows instead of raising.
    """
    clf = suite.classifier
    conf = estimate_confusion(clf, h_samples_per_class, np.random.default_rng(suite.h_seed))
    rows = []
    for spec in suite.scenarios:
        try:
            rows += cross_validate(spec, clf, folds=folds, confusion=conf)
        except PriorAdaptError as exc:
            message = f"{type(exc).__name__}: {exc}"
            rows += [
                EvaluationRow(
                    scenario=spec.name, method=method.name, accuracy=None,
                    accuracy_std=None, folds=folds, error=message,
                )
                for method in METHODS
            ]
    return rows


def simulate_stream(
    spec: ScenarioSpec,
    clf: SyntheticClassifier,
    rng: Optional[np.random.Generator] = None,
) -> Iterator[tuple[int, ScoreRecord, int]]:
    """Yield ``(index, record, segment)`` for a deployment stream.

    The stream has ``transfer_size + test_size`` records drawn i.i.d. from
    the scenario mixture, switching to each drift segment's mixture at its
    start index.  Segment 0 is the scenario's own priors.
    """
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    total = spec.transfer_size + spec.test_size
    boundaries = [(seg.start, seg.priors) for seg in (spec.drift or ())]
    segment = 0
    priors = spec.true_priors
    for index in range(total):
        while boundaries and index >= boundaries[0][0]:
            priors = boundaries.pop(0)[1]
            segment += 1
        label = int(rng.choice(spec.catalog.k, p=priors))
        yield index, generate_record(clf, label, rng), segment


def run_drift_scenario(
    spec: ScenarioSpec,
    clf: SyntheticClassifier,
    window: Optional[int],
    reestimate_every: int,
    confusion: Optional[ConfusionMatrix] = None,
    h_samples_per_class: int = DEFAULT_H_SAMPLES_PER_CLASS,
) -> list[EvaluationRow]:
    """Prequential evaluation of a windowed monitor over a drifting stream.

    Every record is decided with the policy estimated from the decisions
    seen so far (baseline decisions, windowed histogram, least-squares
    estimator re-run every ``reestimate_every`` records), then counted.
    Accuracy is reported per drift segment, baseline versus adapted.
    This goes beyond the batch protocol the estimators were validated
    under, so treat the rows as an extension rather than a reproduction.
    """
    _check_catalogs(spec, clf)
    if reestimate_every < 1:
        raise ValidationError("reestimate_every must be >= 1")
    stream_ss, h_ss = np.random.SeedSequence(spec.seed).spawn(2)
    conf = _resolve_confusion(
        clf, confusion, h_samples_per_class, np.random.default_rng(h_ss)
    )
    monitor = StreamMonitor(spec.catalog, window=window)
    policy: Optional[AdaptedPolicy] = None
    per_segment: dict[int, dict[str, int]] = {}
    for index, record, segment in simulate_stream(spec, clf, np.random.default_rng(stream_ss)):
        stats = per_segment.setdefault(segment, {"n": 0, "baseline": 0, "adapted": 0})
        baseline = decide_baseline(record)
        adapted = decide_adapted(record, policy) if policy is not None else baseline
        stats["n"] += 1
        stats["baseline"] += int(baseline == record.true_label)
        stats["adapted"] += int(adapted == record.true_label)
        monitor.ingest(baseline)
        if (index + 1) % reestimate_every == 0:
            try:
                estimate = estimate_qp(conf, monitor.snapshot())
                policy = AdaptedPolicy.from_priors(estimate)
            except PriorAdaptError:
                pass  # keep the previous policy
    rows = []
    for segment in sorted(per_segment):
        stats = per_segment[segment]
        name = f"{spec.name}/segment-{segment}"
        rows.append(
            EvaluationRow(
                scenario=name,
                method="baseline",
                accuracy=stats["baseline"] / stats["n"],
                accuracy_std=None,
                folds=1,
            )
        )
        rows.append(
            EvaluationRow(
                scenario=name,
                method="quadratic_program",
                accuracy=stats["adapted"] / stats["n"],
                accuracy_std=None,
                folds=1,
            )
        )
    return rows
