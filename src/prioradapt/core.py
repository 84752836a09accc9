"""Domain types and the baseline / prior-re-weighted decision rules.

A classifier trained on balanced data implicitly assumes every class is
equally likely.  When the deployment environment favors a subset of
classes, multiplying each confidence score by an estimated class prior
and taking the argmax recovers the Bayes-optimal decision under the new
priors, without retraining.  The correction scales each score by the
ratio of the new prior to the training prior; with balanced training the
latter is 1/K for every class, so the ratio is the estimated prior times a
constant, and the rules take the :class:`PriorEstimate` itself.

This module holds the immutable value types the rest of the package is
built on, each with only the fields some caller reads, plus the two
decision rules.  The adapted rule and the re-weighting are written once,
as kernels over every row of an (N, K) score array
(:func:`decide_adapted_batch` and :func:`reweight_batch`);
:func:`decide_adapted`, :func:`reweight` and :func:`reweight_normalized`
are one-row calls of them.

All types are frozen dataclasses wrapping read-only numpy arrays; every
operation is a pure function, so everything here is safe to share across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .errors import DimensionError, InsufficientDataError, ValidationError
from .solver import Gram, condition_estimate

SCORE_SUM_TOL = 1e-6
PRIOR_SUM_TOL = 1e-9


class Method(NamedTuple):
    """One row of the comparison tables."""

    name: str
    flag: Optional[str]  # the CLI ``--method`` value; None unless estimated from data
    display: str


#: Every method in table row order.  The flagged rows estimate priors from
#: data: they are the CLI's ``--method`` choices and the rows eligible for
#: the best marker.
METHODS = (
    Method("baseline", None, "Baseline"),
    Method("naive", "naive", "Naive"),
    Method("precision_recall", "pr", "Precision-recall"),
    Method("matrix_inverse", "inverse", "Matrix inverse"),
    Method("quadratic_program", "qp", "Quadratic programming"),
    Method("ground_truth", None, "Ground truth"),
)

def readonly(a, dtype=np.float64) -> np.ndarray:
    """A read-only copy of ``a`` as ``dtype``: how every value type stores a caller's array.

    A value type that computes a new array from its input, as
    :class:`ConfusionMatrix` does, stores that array read-only instead of
    a copy of it.
    """
    out = np.array(a, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def probability_vector(values, what: str, tol: float) -> np.ndarray:
    """A read-only copy of ``values`` once it is checked to be a probability vector.

    It must have K >= 2 entries that pass :func:`check_probability_rows`;
    otherwise :class:`ValidationError` is raised.
    """
    v = readonly(values)
    if v.ndim != 1 or v.size < 2:
        raise ValidationError(f"{what} must be a vector of K >= 2 entries, got shape {v.shape}")
    check_probability_rows(v[np.newaxis], what, tol)
    return v


def check_probability_rows(rows: np.ndarray, what: str, tol: float) -> None:
    """Check that every row of an (N, K) array is a probability vector.

    Each entry must be finite and in [0, 1], and each row must sum to 1
    within ``tol``.  Otherwise :class:`ValidationError` is raised with the
    first condition that the first failing row breaks.
    """
    finite = np.isfinite(rows).all(axis=1)
    in_range = ((rows >= 0.0) & (rows <= 1.0)).all(axis=1)
    with np.errstate(over="ignore"):  # a row that overflows is out of range anyway
        totals = rows.sum(axis=1)
    ok = finite & in_range & (np.abs(totals - 1.0) <= tol)
    if ok.all():
        return
    row = int(ok.argmin())
    if not finite[row]:
        raise ValidationError(f"{what} must be finite, got NaN or infinity")
    if not in_range[row]:
        raise ValidationError(f"{what} must lie in [0, 1]")
    raise ValidationError(f"{what} must sum to 1 within {tol}, got {float(totals[row])!r}")


@dataclass(frozen=True)
class ClassCatalog:
    """Ordered list of the K class names known to the classifier."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) < 2:
            raise ValidationError(f"catalog needs at least 2 classes, got {len(labels)}")
        if len(set(labels)) != len(labels):
            raise ValidationError("catalog labels must be unique")
        if any(not isinstance(l, str) or not l for l in labels):
            raise ValidationError("catalog labels must be non-empty strings")

    @property
    def k(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown class label {label!r}") from None


@dataclass(frozen=True)
class ScoreRecord:
    """One deployment sample: its softmax score vector, which is all the decision rules read.

    Scores must already be probabilities summing to 1 (within 1e-6);
    violating records are rejected rather than silently renormalized so
    upstream data bugs surface immediately.
    """

    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "scores", probability_vector(self.scores, "scores", SCORE_SUM_TOL))

    @property
    def k(self) -> int:
        return self.scores.size


@dataclass(frozen=True)
class ConfusionMatrix:
    """Row-normalized confusion matrix measured on balanced held-out data.

    Entry ``rows[j, i]`` estimates the probability of deciding class ``i``
    when the true class is ``j``.  Construction accepts raw nonnegative
    counts or already-normalized rows; rows are normalized to sum to 1
    either way.
    """

    catalog: ClassCatalog
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        k = self.catalog.k
        if rows.shape != (k, k):
            raise DimensionError(f"confusion matrix must be {k}x{k}, got {rows.shape}")
        if not np.all(np.isfinite(rows)):
            raise ValidationError("confusion matrix contains NaN or infinity")
        if np.any(rows < 0.0):
            raise ValidationError("confusion matrix entries must be nonnegative")
        with np.errstate(over="ignore"):
            sums = rows.sum(axis=1)
        bad = np.nonzero((sums == 0.0) | ~np.isfinite(sums))[0]
        if bad.size:
            why = "is all zeros" if sums[bad[0]] == 0.0 else "sums past the largest float"
            raise ValidationError(
                f"confusion row {self.catalog.labels[bad[0]]!r} {why} and cannot be normalized"
            )
        rows = rows / sums[:, None]  # a new array: the caller's stays writable and apart
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def k(self) -> int:
        return self.catalog.k

    def mixing_matrix(self) -> np.ndarray:
        """Matrix mapping class priors to the expected decision distribution.

        Its columns are the confusion rows, so ``mixing_matrix() @ priors``
        gives the decision frequencies a deployed classifier produces under
        those priors.
        """
        return self.rows.T.copy()

    @cached_property
    def gram(self) -> Gram:
        """The mixing matrix H (a read-only view of the rows), ``H^T H`` and its step bound.

        Built on first use and kept: every least-squares re-estimate
        against this matrix reuses it.
        """
        return Gram.of(self.rows.T)

    @cached_property
    def condition(self) -> float:
        """The exact 1-norm condition number of :meth:`mixing_matrix`, computed once and kept."""
        return condition_estimate(self.mixing_matrix())


@dataclass(frozen=True)
class DecisionHistogram:
    """Counts of argmax decisions per class observed during deployment."""

    counts: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.counts)
        if raw.ndim != 1 or raw.size < 2:
            raise ValidationError(f"counts must be a vector of K >= 2 entries, got shape {raw.shape}")
        counts = readonly(raw, dtype=np.int64)
        if not np.array_equal(counts, raw):
            raise ValidationError("decision counts must be integers")
        if np.any(counts < 0):
            raise ValidationError("decision counts must be nonnegative")
        object.__setattr__(self, "counts", counts)

    @property
    def k(self) -> int:
        return self.counts.size

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def normalized(self) -> np.ndarray:
        """The observation vector of decision frequencies, counts / total."""
        if self.total == 0:
            raise InsufficientDataError("cannot normalize an empty decision histogram")
        return self.counts / self.total


@dataclass(frozen=True)
class EstimatorDiagnostics:
    """Optional bookkeeping attached to a prior estimate."""

    residual: Optional[float] = None  # ||Hv - c||_2 of the returned vector
    iterations: Optional[int] = None
    clipped_mass: Optional[float] = None  # negative mass removed before renormalizing
    kkt_violation: Optional[float] = None  # stationarity defect of a least-squares solve
    converged: Optional[bool] = None


@dataclass(frozen=True)
class PriorEstimate:
    """A point on the K-simplex and the diagnostics of the solve that produced it."""

    values: np.ndarray
    diagnostics: EstimatorDiagnostics = field(default_factory=EstimatorDiagnostics)

    def __post_init__(self):
        object.__setattr__(self, "values", probability_vector(self.values, "priors", PRIOR_SUM_TOL))

    @property
    def k(self) -> int:
        return self.values.size


def uniform_estimate(k: int) -> PriorEstimate:
    """The balanced-training prior as an estimate (re-weighting no-op)."""
    return PriorEstimate(np.full(k, 1.0 / k))


def decide_baseline(record: ScoreRecord) -> int:
    """Default decision rule: index of the maximum score.

    Ties break toward the lowest class index, so the rule is deterministic.
    """
    return int(np.argmax(record.scores))


def reweight(record: ScoreRecord, priors: PriorEstimate) -> np.ndarray:
    """Per-class product of estimated prior and score, as one row of :func:`reweight_batch`.

    The result is deliberately not renormalized: the evidence term shared
    by all classes cannot change the argmax, and keeping raw products makes
    the positive-scaling invariance explicit.  Use
    :func:`reweight_normalized` for display.
    """
    if record.k != priors.k:
        raise DimensionError(f"record has {record.k} scores, expected {priors.k}")
    return _products(record.scores[np.newaxis], priors)[0]


def reweight_normalized(record: ScoreRecord, priors: PriorEstimate) -> np.ndarray:
    """Re-weighted products scaled to sum to 1 when their sum is positive.

    When every product is zero the raw zero vector is returned unchanged;
    there is no meaningful normalization in that case.  This is one row of
    :func:`reweight_batch`'s normalized products.
    """
    return _normalized(reweight(record, priors)[np.newaxis])[0]


def decide_adapted(record: ScoreRecord, priors: PriorEstimate) -> int:
    """Prior-aware decision rule: argmax of prior times score, as one row of :func:`decide_adapted_batch`.

    Ties break toward the lowest class index.  If no exact product is
    positive (the rule is undefined there) the baseline decision is used
    instead.
    """
    products = reweight(record, priors)[np.newaxis]
    return int(_adapted_decisions(record.scores[np.newaxis], priors, products)[0][0])


def _products(scores: np.ndarray, priors: PriorEstimate) -> np.ndarray:
    if scores.ndim != 2 or scores.shape[1] != priors.k:
        raise DimensionError(f"scores have shape {scores.shape}, expected (N, {priors.k})")
    return scores * priors.values


def _normalized(products: np.ndarray) -> np.ndarray:
    """Each row of ``products`` divided by its sum where that sum is positive, else as it is."""
    totals = products.sum(axis=1, keepdims=True)
    return np.divide(products, totals, out=products.copy(), where=totals > 0.0)


#: The smallest normal double; a product below it has lost mantissa bits.
_TINY = np.finfo(np.float64).tiny


def _adapted_decisions(
    scores: np.ndarray, priors: PriorEstimate, products: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's argmax of ``products`` (of ``scores`` where no exact product is positive) and where it fell back.

    A row whose largest product is at or below ``_TINY`` is decided again
    on its products without exponent limits (:func:`_scaled_products`).
    """
    decisions = products.argmax(axis=1)
    fell_back = np.zeros(len(decisions), dtype=bool)
    small = np.flatnonzero(products.max(axis=1) <= _TINY)
    if small.size:
        scaled = _scaled_products(scores[small], priors.values)
        decisions[small] = scaled.argmax(axis=1)
        fell_back[small] = ~(scaled > 0.0).any(axis=1)
        decisions[fell_back] = scores[fell_back].argmax(axis=1)
    return decisions, fell_back


def _scaled_products(scores: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """The products ``scores * priors``, rounded once with no exponent limits, times a power of two per row.

    Each product is the product of the two mantissas (``np.frexp``),
    rounded once, times 2 to the sum of the exponents.  The power of two
    puts a row's largest exponent sum at 0, so its largest product lies in
    [0.5, 1), where ``np.ldexp`` is exact.  A product that it scales below
    the normal range lies below 2**-1022 and is never the largest.
    """
    score_mant, score_exp = np.frexp(scores)
    prior_mant, prior_exp = np.frexp(priors)
    mant, exp = np.frexp(score_mant * prior_mant)
    exp += score_exp + prior_exp
    top = np.where(mant > 0.0, exp, exp.min()).max(axis=1, keepdims=True)
    return np.ldexp(mant, exp - top)


def decide_adapted_batch(scores: np.ndarray, priors: PriorEstimate) -> np.ndarray:
    """The adapted rule applied to each row of an (N, K) score array.

    The rule is argmax of prior times score, ties to the lowest class
    index, and the row's baseline argmax where no exact product is
    positive.  A product that underflows is compared as it would round
    without exponent limits.
    Rows are not validated; pass scores that :func:`check_probability_rows`
    accepts.
    """
    return _adapted_decisions(scores, priors, _products(scores, priors))[0]


def reweight_batch(scores: np.ndarray, priors: PriorEstimate) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The adapted decisions, raw products and normalized products of (N, K) scores.

    Row by row these are :func:`decide_adapted`, :func:`reweight` and
    :func:`reweight_normalized`, from one product per entry.
    """
    products = _products(scores, priors)
    return _adapted_decisions(scores, priors, products)[0], products, _normalized(products)
