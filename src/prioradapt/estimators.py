"""Prior estimation from the classifier's observed decision frequencies.

Four routes from a decision histogram to a prior vector on the simplex:

* ``estimate_naive`` — raw decision frequencies.  Exact when precision
  equals recall per class.
* ``estimate_precision_recall`` — frequencies corrected by the per-class
  precision/recall ratio read off a balanced confusion matrix.
* ``estimate_matrix_inverse`` — direct solve of the decision-mixing model,
  negatives clipped to zero and the result renormalized.
* ``estimate_qp`` — least squares over the probability simplex, which is
  the clipping-free way to enforce valid priors.

All estimators renormalize onto the simplex, which is harmless for the
downstream decision rule: re-weighted decisions are invariant to positive
scaling of the prior vector.

A caveat on the precision/recall route: the decision frequencies come from
the deployment stream while precision comes from balanced offline data, and
precision itself depends on the deployment priors.  Under strongly skewed
priors the correction is therefore only approximate; the matrix-inverse and
least-squares routes model the full error structure instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import (
    SCORE_SUM_TOL,
    ConfusionMatrix,
    DecisionHistogram,
    EstimatorDiagnostics,
    PriorEstimate,
    probability_vector,
    readonly,
)
from .errors import (
    DegenerateRecallError,
    DimensionError,
    IllConditionedError,
    InsufficientDataError,
    ValidationError,
)
from .solver import (
    CONDITION_LIMIT,
    condition_estimate,  # unused, but bound because bench/traced.py patches it
    solve_linear,  # unused, but bound because bench/traced.py patches it
    solve_simplex_lsq,
)

Observations = Union[DecisionHistogram, np.ndarray, "list[float]"]


@dataclass(frozen=True)
class PrecisionRecallTable:
    """Per-class precision and recall derived from a confusion matrix.

    ``undefined`` flags classes whose column carries no mass, for which
    precision is reported as 0 but is really 0/0.
    """

    precision: np.ndarray
    recall: np.ndarray
    undefined: np.ndarray

    def __post_init__(self):
        precision = readonly(self.precision)
        recall = readonly(self.recall)
        undefined = readonly(self.undefined, dtype=bool)
        if precision.shape != recall.shape or precision.shape != undefined.shape:
            raise DimensionError("precision, recall and undefined must share a shape")
        for name, vec in (("precision", precision), ("recall", recall)):
            if np.any(vec < 0.0) or np.any(vec > 1.0 + 1e-12):
                raise ValidationError(f"{name} entries must lie in [0, 1]")
        object.__setattr__(self, "precision", precision)
        object.__setattr__(self, "recall", recall)
        object.__setattr__(self, "undefined", undefined)


def precision_recall(conf: ConfusionMatrix) -> PrecisionRecallTable:
    """Read per-class precision and recall off a confusion matrix.

    Recall is the diagonal of the row-normalized matrix.  Precision is the
    diagonal over the column sum, i.e. it assumes the balanced test
    conditions the matrix was measured under.

    Classes whose column sums to zero get precision 0 with the
    ``undefined`` flag set.
    """
    recall = np.diag(conf.rows).copy()
    column_mass = conf.rows.sum(axis=0)
    undefined = column_mass == 0.0
    precision = np.zeros(conf.k)
    np.divide(recall, column_mass, out=precision, where=~undefined)
    return PrecisionRecallTable(precision=precision, recall=recall, undefined=undefined)


def _observation_vector(hist: Observations, k: int) -> np.ndarray:
    """Accept a decision histogram or a pre-normalized observation vector."""
    if isinstance(hist, DecisionHistogram):
        if hist.k != k:
            raise DimensionError(f"histogram has {hist.k} classes, expected {k}")
        return hist.normalized()
    c = np.asarray(hist, dtype=np.float64)
    if c.shape != (k,):
        raise DimensionError(f"observation vector must have length {k}, got shape {c.shape}")
    if not np.any(c):
        raise InsufficientDataError("observation vector has no mass")
    return probability_vector(c, "observation vector", SCORE_SUM_TOL)


def estimate_naive(hist: Observations) -> PriorEstimate:
    """Decision frequencies as priors: count_i / total.

    Exact when per-class precision equals recall; otherwise a biased but
    often serviceable first guess.
    """
    if isinstance(hist, DecisionHistogram):
        values = hist.normalized()
    else:
        values = _observation_vector(hist, np.size(hist))
        values = values / values.sum()
    return PriorEstimate(values, method="naive")


def estimate_precision_recall(
    hist: Observations,
    table: PrecisionRecallTable,
) -> PriorEstimate:
    """Frequency estimate corrected by the precision/recall ratio.

    Each class frequency is scaled by precision/recall before renormalizing
    onto the simplex.  Classes that received no decisions contribute zero
    regardless of their table entries; a class that did receive decisions
    but has zero recall, or a recall so small that its corrected frequency
    overflows, makes the correction undefined and raises
    :class:`DegenerateRecallError`.
    """
    k = table.recall.size
    if isinstance(hist, DecisionHistogram):
        observed = hist.counts.astype(np.float64)
    else:
        observed = _observation_vector(hist, k)
    if observed.shape != table.recall.shape:
        raise DimensionError("histogram dimension does not match the precision/recall table")

    active = observed > 0.0
    bad = active & (table.recall == 0.0)
    if np.any(bad):
        idx = int(np.nonzero(bad)[0][0])
        raise DegenerateRecallError(
            f"class {idx} received decisions but has zero recall; its prior is unidentifiable"
        )
    # Scale counts by the precision/recall ratio; the ratio is exactly 1
    # when precision equals recall, so this path reduces to the naive
    # estimate bit for bit.
    ratio = np.ones(k)
    with np.errstate(over="ignore"):
        np.divide(table.precision, table.recall, out=ratio, where=active)
        raw = np.where(active, ratio * observed, 0.0)
        total = raw.sum()
    if not np.isfinite(total):
        idx = int(raw.argmax())
        raise DegenerateRecallError(
            f"class {idx} has a precision/recall ratio too large to correct its frequency; "
            "its prior is unidentifiable"
        )
    if total <= 0.0:
        raise InsufficientDataError("all corrected frequencies are zero")
    return PriorEstimate(raw / total, method="precision_recall")


def estimate_matrix_inverse(
    conf: ConfusionMatrix,
    hist: Observations,
) -> PriorEstimate:
    """Direct solve of the decision-mixing model, clipped onto the simplex.

    Solves ``H v = c`` where the columns of H are the confusion rows and c
    is the observed decision frequency vector.  Nothing constrains the raw
    solution to be a probability vector, so negative entries are clipped to
    zero and the remainder renormalized.  Diagnostics record the clipped
    mass and the residual of the returned (clipped) vector.

    Raises :class:`IllConditionedError` when the condition number exceeds
    1e12; fall back to :func:`estimate_qp` in that case.
    """
    c = _observation_vector(hist, conf.k)
    h = conf.mixing_matrix()
    cond = conf.condition
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise IllConditionedError(
            f"mixing matrix condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}; "
            "use the least-squares estimator instead"
        )
    # The check above already rejected a singular or ill-conditioned H, so
    # one factorization is enough; this is exactly what solve_linear returns.
    raw = np.linalg.solve(h, c)
    clipped = np.maximum(raw, 0.0)
    clipped_mass = float((clipped - raw).sum())
    total = clipped.sum()
    if total <= 0.0:
        raise IllConditionedError("clipped solution has no positive mass")
    values = clipped / total
    residual = float(np.linalg.norm(h @ values - c))
    return PriorEstimate(
        values,
        method="matrix_inverse",
        diagnostics=EstimatorDiagnostics(residual=residual, clipped_mass=clipped_mass),
    )


def estimate_qp(
    conf: ConfusionMatrix,
    hist: Observations,
) -> PriorEstimate:
    """Least-squares fit of the decision-mixing model over the simplex.

    Minimizes ``||H v - c||^2`` subject to v being a probability vector,
    exactly (see :func:`~prioradapt.solver.solve_simplex_lsq`).  Unlike the
    direct solve this is well-posed even for singular H, and it never needs
    clipping.  The Gram matrix of H is built on the first call and cached
    on ``conf``, so re-estimates against the same matrix cost O(K^2) plus
    solves the size of the support.  Diagnostics carry the final residual,
    the iteration count, the KKT defect and whether the solve converged.
    """
    c = _observation_vector(hist, conf.k)
    gram = conf.gram
    values, report = solve_simplex_lsq(gram.h, c, gram=gram)
    return PriorEstimate(
        values,
        method="quadratic_program",
        diagnostics=EstimatorDiagnostics(
            residual=float(np.sqrt(report.residual)),
            iterations=report.iterations,
            kkt_violation=report.kkt_violation,
            converged=report.converged,
        ),
    )


def estimate_ground_truth(priors) -> PriorEstimate:
    """Wrap known true priors for the oracle comparison row."""
    return PriorEstimate(priors, method="ground_truth")
