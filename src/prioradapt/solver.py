"""Numerical machinery for the prior-estimation problem.

Three pieces: a dense linear solve (LU with partial pivoting, via LAPACK),
Euclidean projection onto the probability simplex, and a projected-gradient
minimizer of ``||H v - c||^2`` over the simplex.  The projected-gradient
solver replaces a generic convex-programming dependency: each iteration is
one O(K^2) matrix-vector pass plus an O(K log K) projection, and the only
K x K storage is the matrix itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import (
    ConvergenceError,
    IllConditionedWarning,
    SingularMatrixError,
    ValidationError,
)

CONDITION_LIMIT = 1e12

_LIPSCHITZ_POWER_STEPS = 50
_LIPSCHITZ_SAFETY = 1.1


@dataclass(frozen=True)
class SolverOptions:
    """Knobs for the projected-gradient solver.

    ``gradient_tolerance`` is applied to the per-iteration decrease of the
    squared residual; once an iteration improves by less than this the
    solve is considered converged.  ``seed`` fixes the start vector of the
    power iteration that bounds the step, so identical inputs produce
    bitwise-identical iterates.
    """

    max_iterations: int = 10_000
    gradient_tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be >= 1")
        if not self.gradient_tolerance > 0.0:
            raise ValidationError("gradient_tolerance must be > 0")


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float  # final squared residual ||Hv - c||^2
    converged: bool
    kkt_violation: float


def _as_square_matrix(h) -> np.ndarray:
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValidationError("matrix contains NaN or infinity")
    return h


def _as_vector(c, n: int) -> np.ndarray:
    c = np.asarray(c, dtype=np.float64)
    if c.shape != (n,):
        raise ValidationError(f"expected a vector of length {n}, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValidationError("vector contains NaN or infinity")
    return c


def condition_estimate(h) -> float:
    """1-norm condition estimate of a square matrix from its LU factors.

    Returns ``inf`` for exactly singular input.
    """
    h = _as_square_matrix(h)
    anorm = np.linalg.norm(h, 1)
    if anorm == 0.0:
        return np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(h)
    if np.any(np.diag(lu) == 0.0):
        return np.inf
    gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
    rcond, _ = gecon(lu, anorm)
    if rcond <= 0.0:
        return np.inf
    return 1.0 / float(rcond)


def solve_linear(h, c) -> np.ndarray:
    """Solve ``H v = c`` by dense LU with partial pivoting.

    Raises :class:`SingularMatrixError` on exact singularity.  When the
    condition estimate exceeds 1e12 the solve still proceeds but an
    :class:`IllConditionedWarning` is attached, since the result may carry
    few correct digits.
    """
    h = _as_square_matrix(h)
    c = _as_vector(c, h.shape[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(h)
    if np.any(np.diag(lu) == 0.0):
        raise SingularMatrixError("matrix is exactly singular")
    anorm = np.linalg.norm(h, 1)
    gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
    rcond, _ = gecon(lu, anorm)
    if rcond <= 0.0:
        raise SingularMatrixError("matrix is numerically singular (rcond = 0)")
    if 1.0 / rcond > CONDITION_LIMIT:
        warnings.warn(
            f"condition estimate {1.0 / rcond:.3e} exceeds {CONDITION_LIMIT:.0e}; "
            "solution digits are unreliable",
            IllConditionedWarning,
            stacklevel=2,
        )
    return scipy.linalg.lu_solve((lu, piv), c)


def project_simplex(y) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold algorithm: sort descending, find the largest prefix
    whose running mean (shifted by the unit-sum constraint) stays below the
    prefix entries, subtract that threshold and clip.  O(K log K).

    A single redistribution pass afterwards spreads the leftover rounding
    error uniformly over the support, keeping the unit-sum defect at a few
    ulps even for large-magnitude input.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size < 1:
        raise ValidationError(f"expected a vector, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValidationError("cannot project a vector with NaN or infinity")
    if np.max(np.abs(y)) > 1e10:
        # The projection is shift-invariant; recentring keeps the unit-sum
        # offset from vanishing below the ulp of extreme inputs.
        y = y - np.max(y)
    u = np.sort(y)[::-1]
    cumulative = np.cumsum(u) - 1.0
    indices = np.arange(1, y.size + 1)
    support = np.nonzero(u * indices > cumulative)[0]
    rho = support[-1] + 1
    theta = cumulative[rho - 1] / rho
    x = np.maximum(y - theta, 0.0)
    # Redistribute the rounding defect over the support, then re-clip.
    mask = x > 0.0
    n_support = int(np.count_nonzero(mask))
    x[mask] -= (x.sum() - 1.0) / n_support
    np.maximum(x, 0.0, out=x)
    return x


def _lipschitz_bound(h: np.ndarray, seed: int) -> float:
    """Power-iteration upper bound on ||H||_2^2 with a safety factor."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(h.shape[0])
    norm = np.linalg.norm(w)
    if norm == 0.0:
        w = np.ones(h.shape[0])
        norm = np.linalg.norm(w)
    w /= norm
    estimate = 0.0
    for _ in range(_LIPSCHITZ_POWER_STEPS):
        w = h.T @ (h @ w)
        norm = np.linalg.norm(w)
        if norm == 0.0:  # H is the zero matrix
            return _LIPSCHITZ_SAFETY
        estimate = norm
        w /= norm
    return _LIPSCHITZ_SAFETY * max(estimate, np.finfo(np.float64).tiny)


def kkt_violation(h, c, v) -> float:
    """Stationarity defect of ``v`` for min ||Hv - c||^2 over the simplex.

    At the optimum the gradient is constant on the support and no smaller
    anywhere else; returns the largest deviation from that pattern (0 at
    an exact optimum).
    """
    h = _as_square_matrix(h)
    c = _as_vector(c, h.shape[0])
    v = _as_vector(v, h.shape[0])
    grad = 2.0 * (h.T @ (h @ v - c))
    support = v > 0.0
    if not np.any(support):
        return float("inf")
    mu = grad[support].mean()
    on_support = float(np.abs(grad[support] - mu).max())
    off_support = 0.0
    if not np.all(support):
        off_support = float(np.maximum(mu - grad[~support], 0.0).max())
    return max(on_support, off_support)


def solve_simplex_lsq(
    h,
    c,
    opts: Optional[SolverOptions] = None,
) -> tuple[np.ndarray, SolveReport]:
    """Minimize ``||H v - c||^2`` over the probability simplex.

    Projected gradient from the uniform vector with a fixed step 1/L,
    where L is a safety-margined power-iteration bound on ``||H||_2^2``.
    That step keeps the squared residual non-increasing, and since the
    objective is convex any fixed point of the projected step is a global
    minimizer.  Stops when one iteration decreases the squared residual
    by less than ``opts.gradient_tolerance``.

    Returns the feasible iterate and a :class:`SolveReport`.  Raises
    :class:`ConvergenceError` (carrying the best iterate and its report)
    if the iteration cap is reached first.
    """
    if opts is None:
        opts = SolverOptions()
    h = _as_square_matrix(h)
    c = _as_vector(c, h.shape[0])
    k = h.shape[0]

    lip = _lipschitz_bound(h, opts.seed)
    step = 1.0 / lip

    v = np.full(k, 1.0 / k)
    residual = h @ v - c
    sq_residual = float(residual @ residual)

    converged = False
    iterations = 0
    for iterations in range(1, opts.max_iterations + 1):
        gradient = 2.0 * (h.T @ residual)
        candidate = project_simplex(v - step * gradient)
        cand_residual = h @ candidate - c
        cand_sq = float(cand_residual @ cand_residual)
        decrease = sq_residual - cand_sq
        # Accept only non-worsening steps so the residual trace is monotone
        # even at float stagnation.
        if cand_sq <= sq_residual:
            v, residual, sq_residual = candidate, cand_residual, cand_sq
        if decrease < opts.gradient_tolerance:
            converged = True
            break

    report = SolveReport(
        iterations=iterations,
        residual=sq_residual,
        converged=converged,
        kkt_violation=kkt_violation(h, c, v),
    )
    if not converged:
        raise ConvergenceError(
            f"no convergence within {opts.max_iterations} iterations "
            f"(squared residual {sq_residual:.6e})",
            best_iterate=v,
            report=report,
        )
    return v, report

