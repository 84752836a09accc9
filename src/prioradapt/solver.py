"""Numerical machinery for the prior-estimation problem.

Three pieces: a dense linear solve (LU with partial pivoting, via numpy's
LAPACK) guarded by the exact 1-norm condition number, Euclidean projection
onto the probability simplex, and an exact minimizer
of ``||H v - c||^2`` over the simplex.  The simplex solve needs H only
through the Gram matrix ``G = H^T H`` (a :class:`Gram`) and the vector
``b = H^T c``, so a caller that solves many times against one H builds the
Gram matrix once and each further solve costs O(K^2) plus a few linear
solves of the size of the optimum's support.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    ConvergenceError,
    IllConditionedWarning,
    SingularMatrixError,
    ValidationError,
)

CONDITION_LIMIT = 1e12

#: Projected-gradient steps spent finding the optimum's support before the
#: active-set method takes over; the search also stops once the support
#: has stayed the same for two steps (with every class observed, the first
#: step often removes none).
_SUPPORT_STEPS = 20
#: A class joins the support only if its multiplier is below minus this
#: many ulps of the gradient scale; smaller ones are rounding noise.
_MULTIPLIER_ULPS = 16
#: Cap on the projected-gradient steps and the active-set method's support
#: solves together; a solve that reaches it raises ConvergenceError.
_MAX_ITERATIONS = 10_000
#: Rows of |G| that :meth:`Gram.of` holds at once to sum for the step bound;
#: at K = 1000 a block is 256 KB, where a whole |G| would be another 8 MB.
_BOUND_BLOCK_ROWS = 32


@dataclass(frozen=True)
class SolveReport:
    iterations: int
    residual: float  # final squared residual ||Hv - c||^2
    converged: bool
    kkt_violation: float


@dataclass(frozen=True, eq=False)
class Gram:
    """A square H, its Gram matrix ``G = H^T H`` and the step bound ``||G||_inf``.

    Build one with :meth:`of`, which validates H once; ``h`` is a read-only
    view of it.  ``||G||_inf`` bounds the largest eigenvalue of the
    symmetric G, so ``1 / bound`` is a safe projected-gradient step without
    any random start vector.
    """

    h: np.ndarray
    matrix: np.ndarray
    bound: float

    @classmethod
    def of(cls, h) -> "Gram":
        h = _as_square_matrix(h).view()
        h.setflags(write=False)
        g = h.T @ h
        g.setflags(write=False)
        return cls(h=h, matrix=g, bound=_row_sum_bound(g))


def _row_sum_bound(g: np.ndarray) -> float:
    """``||g||_inf``, the largest absolute row sum, equal to ``np.abs(g).sum(axis=1).max()``.

    |g| is taken :data:`_BOUND_BLOCK_ROWS` rows at a time; each row is
    summed as in one whole-array call, and numpy's maximum passes on a NaN.
    """
    sums = np.empty(len(g))
    for start in range(0, len(g), _BOUND_BLOCK_ROWS):
        stop = start + _BOUND_BLOCK_ROWS
        np.abs(g[start:stop]).sum(axis=1, out=sums[start:stop])
    return float(sums.max())


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


def _inverse(a: np.ndarray) -> tuple[Optional[np.ndarray], float]:
    """Inverse of a square matrix and its 1-norm condition number ``||A||_1 ||A^-1||_1``.

    Returns ``(None, inf)`` for an exactly singular matrix, and an infinite
    condition number whenever the inverse overflows.
    """
    try:
        inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        return None, np.inf
    with np.errstate(over="ignore"):  # an inverse too large to add up is mapped to inf below
        cond = float(np.linalg.norm(a, 1)) * float(np.linalg.norm(inv, 1))
    return inv, cond if np.isfinite(cond) else np.inf


def condition_estimate(h) -> float:
    """Exact 1-norm condition number of a square matrix, from its inverse.

    Returns ``inf`` for singular input.  LAPACK's ``gecon`` estimate is a
    lower bound on this number, so a matrix it placed just under
    ``CONDITION_LIMIT`` may lie above it here.
    """
    return _inverse(_as_square_matrix(h))[1]


def solve_linear(h, c) -> np.ndarray:
    """Solve ``H v = c`` by dense LU with partial pivoting.

    Raises :class:`SingularMatrixError` when the condition number is
    infinite.  When it exceeds 1e12 the solve still proceeds but an
    :class:`IllConditionedWarning` is attached, since the result may carry
    few correct digits.
    """
    h = _as_square_matrix(h)
    c = _as_vector(c, h.shape[0])
    cond = _inverse(h)[1]
    if not np.isfinite(cond):
        raise SingularMatrixError("matrix is singular (condition number inf)")
    if cond > CONDITION_LIMIT:
        warnings.warn(
            f"condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}; "
            "solution digits are unreliable",
            IllConditionedWarning,
            stacklevel=2,
        )
    return np.linalg.solve(h, c)


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


def kkt_violation(h, c, v) -> float:
    """Stationarity defect of ``v`` for min ||Hv - c||^2 over the simplex.

    At the optimum the gradient is constant on the support and no smaller
    anywhere else; returns the largest deviation from that pattern (0 at
    an exact optimum).
    """
    h = _as_square_matrix(h)
    c = _as_vector(c, h.shape[0])
    v = _as_vector(v, h.shape[0])
    return _kkt_defect(2.0 * (h.T @ (h @ v - c)), v)


def _kkt_defect(grad: np.ndarray, v: np.ndarray) -> float:
    support = v > 0.0
    if not np.any(support):
        return float("inf")
    mu = grad[support].mean()
    on_support = float(np.abs(grad[support] - mu).max())
    off_support = 0.0
    if not np.all(support):
        off_support = float(np.maximum(mu - grad[~support], 0.0).max())
    return max(on_support, off_support)


def _half_gradient(g: np.ndarray, b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``G v - b``, reading only the rows of the symmetric G where v is nonzero."""
    support = np.flatnonzero(v)
    if 2 * support.size > v.size:
        return g @ v - b
    return v[support] @ g[support] - b


def _support_solve(
    h: np.ndarray,
    c: np.ndarray,
    g: np.ndarray,
    b: np.ndarray,
    support: np.ndarray,
) -> np.ndarray:
    """Minimize ``||H x - c||^2`` over ``{x : 1^T x = 1}`` on the coordinates in ``support``.

    Solves the KKT system ``[G_SS 1; 1^T 0] [x; mu] = [b_S; 1]`` by LU and
    corrects the result once with the residual ``H_S x - c`` computed
    through H (Bjorck's corrected seminormal equations), applying the
    KKT matrix's inverse to it: G alone holds only half the digits of H's
    smallest singular values.  When the KKT system's 1-norm condition
    number exceeds ``CONDITION_LIMIT`` (columns of H that nearly coincide,
    or affinely dependent ones) it solves the same problem through H by
    SVD least squares instead, with the constraint eliminated.
    """
    n = support.size
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = g[np.ix_(support, support)]
    kkt[n, n] = 0.0
    cols = h[:, support]
    inv, cond = _inverse(kkt)
    if cond < CONDITION_LIMIT:
        sol = np.linalg.solve(kkt, np.append(b[support], 1.0))
        x = sol[:n]
        grad = cols.T @ (cols @ x - c)
        correction = np.append(-grad - sol[n], 1.0 - x.sum())
        return x + (inv @ correction)[:n]
    last = cols[:, -1]
    y = np.linalg.lstsq(cols[:, :-1] - last[:, None], c - last, rcond=None)[0]
    return np.append(y, 1.0 - y.sum())


def solve_simplex_lsq(
    h,
    c,
    gram: Optional[Gram] = None,
) -> tuple[np.ndarray, SolveReport]:
    """Minimize ``||H v - c||^2`` over the probability simplex, exactly.

    Works on ``G = H^T H`` and ``b = H^T c``; to reuse G across solves with
    the same H, pass ``gram`` (``Gram.of(h)``) and ``gram.h`` as ``h``, any
    other ``h`` being refused.  Projected-gradient steps from the projection
    of c, with the fixed step ``1 / ||G||_inf``, guess the support of the
    optimum: at most 20, fewer once two steps in a row leave the support
    unchanged.  An active-set method then finishes.  It solves the KKT
    system on the guessed support and drops every nonpositive entry until
    the solution is positive (Heinz & Chang's fully constrained least
    squares).  From there it follows Lawson & Hanson: add the class with the
    most negative multiplier, re-solve, and step back to the feasible
    segment when an entry turns nonpositive, dropping it; it stops when no
    multiplier is negative beyond rounding.  The result is the optimum to
    rounding error, also for singular H.

    Returns the feasible minimizer and a :class:`SolveReport` whose
    ``iterations`` counts gradient steps plus support solves.  Raises
    :class:`ConvergenceError` (carrying the current feasible iterate and
    its report) if ``_MAX_ITERATIONS`` (10 000) of them do not reach the
    optimum.
    """
    if gram is None:
        gram = Gram.of(h)
        h = gram.h
    elif h is not gram.h:
        raise ValidationError("a Gram matrix must be passed with its own H, gram.h")
    c = _as_vector(c, h.shape[0])
    g = gram.matrix
    b = h.T @ c
    budget = _MAX_ITERATIONS

    v = project_simplex(c)
    iterations = 0
    if gram.bound > 0.0:
        step = 1.0 / gram.bound
        support = v > 0.0
        unchanged = 0
        while iterations < min(_SUPPORT_STEPS, budget) and unchanged < 2:
            iterations += 1
            v = project_simplex(v - step * _half_gradient(g, b, v))
            previous, support = support, v > 0.0
            unchanged = unchanged + 1 if np.array_equal(previous, support) else 0
    tol = _MULTIPLIER_ULPS * np.finfo(np.float64).eps * (np.diag(g).max() + np.abs(b).max())
    v, solves, converged = _active_set(h, c, g, b, v, tol, budget - iterations)
    iterations += solves

    support = np.flatnonzero(v)
    residual = h[:, support] @ v[support] - c
    sq_residual = float(residual @ residual)
    report = SolveReport(
        iterations=iterations,
        residual=sq_residual,
        converged=converged,
        kkt_violation=_kkt_defect(2.0 * _half_gradient(g, b, v), v),
    )
    if not converged:
        raise ConvergenceError(
            f"no convergence within {budget} iterations "
            f"(squared residual {sq_residual:.6e})",
            best_iterate=v,
            report=report,
        )
    return v, report


def _multipliers(g: np.ndarray, b: np.ndarray, v: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Half-gradient minus its mean on the support; +inf on the support itself."""
    grad = _half_gradient(g, b, v)
    multipliers = grad - grad[support].mean()
    multipliers[support] = np.inf
    return multipliers


def _active_set(
    h: np.ndarray,
    c: np.ndarray,
    g: np.ndarray,
    b: np.ndarray,
    v: np.ndarray,
    tol: float,
    budget: int,
) -> tuple[np.ndarray, int, bool]:
    """Lawson-Hanson active-set method on the simplex, from the support of ``v``.

    Returns the final feasible iterate (``v`` itself if the budget runs
    out before the first one), the number of support solves, and whether
    it is optimal: every multiplier off the support is at least ``-tol``.
    """
    k = v.size
    support = np.flatnonzero(v > 0.0)
    solves = 0
    # Shrink the guessed support, dropping every nonpositive entry at once
    # (Heinz & Chang), until the support solve is strictly positive.
    while True:
        if solves == budget:
            return v, solves, False
        solves += 1
        x = _support_solve(h, c, g, b, support)
        if np.all(x > 0.0):
            break
        support = support[x > 0.0]
    v = np.zeros(k)
    v[support] = x
    multipliers = _multipliers(g, b, v, support)
    while True:
        added = int(np.argmin(multipliers))
        if not multipliers[added] < -tol:
            return v, solves, True
        support = np.sort(np.append(support, added))
        while True:
            if solves == budget:
                return v, solves, False
            solves += 1
            x = _support_solve(h, c, g, b, support)
            out = x <= 0.0
            if added >= 0 and out[np.searchsorted(support, added)]:
                # Rounding made a multiplier look improving: the class
                # cannot enter.  Keep v and try the next class.
                support = support[support != added]
                multipliers[added] = np.inf
                break
            if not np.any(out):
                v = np.zeros(k)
                v[support] = x
                multipliers = _multipliers(g, b, v, support)
                break
            # Step from v toward x until the first entry reaches zero; drop it.
            current = v[support]
            ratios = current[out] / (current[out] - x[out])
            alpha = ratios.min()
            current += alpha * (x - current)
            current[np.flatnonzero(out)[ratios == alpha]] = 0.0
            v = np.zeros(k)
            v[support] = np.maximum(current, 0.0)
            support = np.flatnonzero(v)
            added = -1
