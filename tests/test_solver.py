"""Linear solve, simplex projection, and the simplex least-squares solver."""

import itertools
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import scipy.linalg
import scipy.optimize

from prioradapt import (
    ConfusionMatrix,
    ConvergenceError,
    Gram,
    IllConditionedWarning,
    SingularMatrixError,
    ValidationError,
    condition_estimate,
    estimate_matrix_inverse,
    kkt_violation,
    project_simplex,
    solve_linear,
    solve_simplex_lsq,
)
from prioradapt import solver

from conftest import make_catalog, random_confusion_rows, random_simplex

#: The smallest normal double.
TINY = np.finfo(np.float64).tiny

#: Weight of the unit-sum row in the NNLS reference (as in bench/checks.py).
NNLS_SUM_WEIGHT = 1e4

#: Machine epsilon; the entries of a simplex point are at most 1, so it
#: bounds their ulps.
EPS = np.finfo(np.float64).eps

#: A well-posed problem's H has a 2-norm condition number at most this.
WELL_POSED_COND = 100.0

#: How many eps a well-posed solve may lie from the exact optimum, in its
#: largest entry.  Measured over 32 000 draws of :func:`well_posed_problems`:
#: median 0.30, 99th percentile 5.0, largest 52.8.  Without Bjorck's
#: correction step 4.7 % of draws lay farther than this (99th percentile
#: 520, largest 2006).
EXACT_EPS = 128

#: How many eps the objective of an ill-posed solve may lie above the exact
#: optimum's.  H's columns and c lie on the simplex, so the objective is at
#: most 2.  Measured over 8 000 draws like :func:`ill_posed_problems`',
#: with 2-norm condition numbers from 3e3 to 2e13: median 7e-18, 99th
#: percentile 0.03, largest 4.6, and no growth with the condition number.
#: Solving every support through the KKT system, without the SVD branch,
#: put 12.8 % of 400 draws farther than this (largest 1.5e8); a bound of
#: eps times the condition number caught that on 0.7 % of them.
ILL_POSED_GAP_EPS = 64

#: How many eps :func:`estimate_matrix_inverse` may lie from the exact
#: solve, clipped and renormalized, in its largest entry, on the draws of
#: :func:`well_posed_problems`.  Measured over 4 000 draws: median 0.35,
#: 99th percentile 3.2, largest 11.1.  Solving the normal equations
#: ``H^T H v = H^T c`` instead put 21.5 % of 1 000 draws farther than this.
INVERSE_EPS = 32


def brute_force_simplex_grid(k: int, step: float) -> np.ndarray:
    """All simplex points on a regular grid (oracle helper, K <= 3)."""
    ticks = np.arange(0.0, 1.0 + step / 2, step)
    if k == 2:
        return np.stack([ticks, 1.0 - ticks], axis=1)
    points = []
    for a in ticks:
        b = np.arange(0.0, 1.0 - a + step / 2, step)
        block = np.stack([np.full_like(b, a), b, np.maximum(1.0 - a - b, 0.0)], axis=1)
        points.append(block)
    return np.concatenate(points)


class TestSolveLinear:
    def test_identity(self):
        c = np.array([0.3, 0.5, 0.2])
        assert np.allclose(solve_linear(np.eye(3), c), c)

    def test_diagonal_scaling(self):
        out = solve_linear(2.0 * np.eye(3), np.array([1.0, 2.0, 3.0]))
        assert np.allclose(out, [0.5, 1.0, 1.5])

    def test_three_class_forward_oracle(self):
        h = np.array([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        v = np.array([0.7, 0.2, 0.1])
        c = h @ v  # = (0.59, 0.24, 0.17)
        assert np.allclose(c, [0.59, 0.24, 0.17])
        out = solve_linear(h, c)
        assert np.allclose(out, v, atol=1e-12)

    def test_residual_contract(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = int(rng.integers(2, 30))
            h = random_confusion_rows(k, rng).T
            c = random_simplex(k, rng)
            v = solve_linear(h, c)
            assert np.max(np.abs(h @ v - c)) <= 1e-8 * np.max(np.abs(c))

    def test_singular_raises(self):
        h = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SingularMatrixError):
            solve_linear(h, np.array([1.0, 1.0]))

    def test_ill_conditioned_warns(self):
        h = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
        with pytest.warns(IllConditionedWarning):
            solve_linear(h, np.array([1.0, 1.0]))

    def test_condition_estimate(self):
        assert condition_estimate(np.eye(4)) == pytest.approx(1.0)
        assert condition_estimate(np.ones((2, 2))) == np.inf


def gecon_estimate(a: np.ndarray) -> float:
    """LAPACK's 1-norm condition estimate from an LU factorization (a lower bound)."""
    lu, _ = scipy.linalg.lu_factor(a)
    gecon = scipy.linalg.get_lapack_funcs("gecon", (lu,))
    rcond, _ = gecon(lu, np.linalg.norm(a, 1))
    return 1.0 / rcond if rcond > 0.0 else np.inf


@st.composite
def square_matrices(draw):
    """Square matrices of order 2-12, some with two nearly equal columns."""
    k = draw(st.integers(min_value=2, max_value=12))
    entries = st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False)
    a = draw(hnp.arrays(np.float64, (k, k), elements=entries))
    a += draw(st.sampled_from([0.0, 1.0, float(k)])) * np.eye(k)
    if draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, k - 1), min_size=2, max_size=2, unique=True))
        gap = draw(st.sampled_from([1e-3, 1e-6, 1e-9, 1e-12, 1e-15]))
        a[:, j] = a[:, i] + gap * draw(hnp.arrays(np.float64, k, elements=entries))
    return a


class TestConditionNumber:
    # At the smallest normal double, gecon on the unscaled matrix returns
    # rcond 0, though the exact condition number is 4.
    @example(a=np.array([[0.0, TINY], [TINY, TINY]]), column=1)
    @given(square_matrices(), st.integers(0, 11))
    @settings(max_examples=300, deadline=None)
    def test_against_gecon_and_svd(self, a, column):
        k = a.shape[0]
        eps = np.finfo(np.float64).eps
        cond = condition_estimate(a)
        s = np.linalg.svd(a, compute_uv=False)
        kappa2 = float(s[0]) / float(s[-1]) if s[-1] > 0.0 else np.inf
        # ||A||_1 and ||A||_2 are within a factor sqrt(K) of each other, so
        # the 1-norm and 2-norm condition numbers are within a factor K;
        # rounding caps what any computed inverse can show near 1 / eps.
        assert cond >= min(kappa2, 1.0 / (k * eps)) / k
        if kappa2 * eps <= 1e-6:
            # Both computed numbers carry relative errors up to about K * kappa * eps.
            slack = 4.0 * k * kappa2 * eps
            assert cond <= k * kappa2 * (1.0 + slack)
            # The condition number does not change under scaling; gecon's
            # estimate near underflow does, so it is taken on a scaled copy.
            assert cond >= gecon_estimate(a / np.abs(a).max()) * (1.0 - slack)
        singular = a.copy()
        singular[:, column % k] = 0.0
        assert condition_estimate(singular) == np.inf
        with pytest.raises(SingularMatrixError):
            solve_linear(singular, np.ones(k))

    def test_exact_where_gecon_underestimates(self):
        # ||A||_1 = 5 and ||A^-1||_1 = 3.25; gecon's estimate for A is 2.5.
        a = np.array([[2.0, 0.0, 0.0], [2.0, 0.0, -1.0], [1.0, 2.0, 3.0]])
        assert gecon_estimate(a) < 3.0
        assert condition_estimate(a) == 16.25

    def test_inverse_too_large_to_add_up_is_inf_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert condition_estimate([[1.0, 1.0], [0.0, 1e-308]]) == np.inf
            assert condition_estimate(np.array([[0.0, TINY], [TINY, TINY]])) == 4.0


class TestProjectSimplex:
    def test_symmetric_input(self):
        assert np.allclose(project_simplex(np.array([0.5, 0.5, 0.5])), 1 / 3)

    @staticmethod
    def _projection_kkt_defect(y, x):
        # Optimal projections shift every support entry by one common
        # threshold and shift non-support entries by no more than it.
        gap = y - x
        support = x > 0.0
        theta = gap[support].max()
        on = np.abs(gap[support] - theta).max()
        off = 0.0 if support.all() else np.maximum(gap[~support] - theta, 0.0).max()
        return max(on, off)

    def test_clipping_case_vs_grid_oracle(self):
        y = np.array([1.2, -0.2, 0.0])
        out = project_simplex(y)
        assert np.allclose(out, [1.0, 0.0, 0.0], atol=1e-12)
        # Oracle: nothing on a fine simplex grid is closer to y.
        grid = brute_force_simplex_grid(3, 1e-3)
        best = np.min(np.sum((grid - y) ** 2, axis=1))
        assert np.sum((out - y) ** 2) <= best + 1e-9
        assert self._projection_kkt_defect(y, out) <= 1e-12

    def test_kkt_conditions_on_random_inputs(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            y = rng.normal(0, 3, size=int(rng.integers(2, 40)))
            x = project_simplex(y)
            assert self._projection_kkt_defect(y, x) <= 1e-10

    def test_feasible_point_unchanged(self):
        y = np.array([0.2, 0.3, 0.5])
        assert np.array_equal(project_simplex(y), y)
        y = np.array([0.5, 0.5, 0.0])
        assert np.array_equal(project_simplex(y), y)

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            project_simplex(np.array([np.nan, 0.0]))
        with pytest.raises(ValidationError):
            project_simplex(np.array([np.inf, 0.0]))

    @pytest.mark.parametrize("y", [np.empty(0), np.ones((2, 2)), np.float64(1.0)], ids=["empty", "matrix", "scalar"])
    def test_rejects_what_is_not_a_vector(self, y):
        with pytest.raises(ValidationError, match=rf"^expected a vector, got shape {re.escape(str(y.shape))}$"):
            project_simplex(y)

    @given(
        hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=60),
            elements=st.floats(min_value=-1e6, max_value=1e6),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_output_always_on_simplex(self, y):
        x = project_simplex(y)
        assert np.all(x >= 0.0)
        assert abs(x.sum() - 1.0) <= 1e-12

    @given(
        hnp.arrays(
            np.float64,
            st.integers(min_value=1, max_value=30),
            elements=st.floats(min_value=-100, max_value=100),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, y):
        once = project_simplex(y)
        twice = project_simplex(once)
        assert np.allclose(twice, once, atol=1e-14)

    def test_optimality_against_random_candidates(self):
        rng = np.random.default_rng(13)
        y = rng.normal(0, 2, size=8)
        x = project_simplex(y)
        candidates = rng.dirichlet(np.ones(8), size=100_000)
        dist_x = np.sum((x - y) ** 2)
        dist_c = np.sum((candidates - y) ** 2, axis=1)
        assert np.all(dist_x <= dist_c + 1e-12)

    def test_huge_magnitudes_stay_feasible(self):
        for y in ([1e300, 1e300], [0.0, -1e300], [1e18, 1.0, -1e18]):
            x = project_simplex(np.array(y))
            assert np.all(x >= 0.0)
            assert abs(x.sum() - 1.0) <= 1e-12


class TestGram:
    @pytest.mark.parametrize("scale", [1e-200, 1.0, 1e150, 1e153, 1e160])
    @pytest.mark.parametrize("k", [
        1, solver._BOUND_BLOCK_ROWS - 1, solver._BOUND_BLOCK_ROWS, solver._BOUND_BLOCK_ROWS + 1,
        2 * solver._BOUND_BLOCK_ROWS + 1, 1000,
    ])
    def test_bound_is_the_whole_row_sum_maximum(self, k, scale):
        # Blocks of rows give the bound bit for bit, also where the sums
        # overflow to inf (1e153) or G itself does, to inf and NaN (1e160).
        h = scale * np.random.default_rng(k).standard_normal((k, k))
        with np.errstate(over="ignore", invalid="ignore"):
            expected = float(np.abs(h.T @ h).sum(axis=1).max())
            bound = Gram.of(h).bound
        assert bound == expected or (np.isnan(bound) and np.isnan(expected))

    def test_empty_matrix_has_no_bound(self):
        with pytest.raises(ValueError, match="zero-size array"):
            Gram.of(np.zeros((0, 0)))

    def test_holds_g_once(self):
        # G is the one K x K array made; the bound's |G| is taken in blocks
        # of rows, and H, here the rows of a confusion matrix, is not copied.
        k = 500
        h = random_confusion_rows(k, np.random.default_rng(3)).T
        tracemalloc.start()
        try:
            gram = Gram.of(h)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.shares_memory(gram.h, h)
        assert peak < 1.25 * h.nbytes, f"peak {peak / h.nbytes:.2f} K x K arrays"


class TestSolveSimplexLsq:
    def test_identity_projection(self):
        c = np.array([0.2, 0.3, 0.5])
        v, report = solve_simplex_lsq(np.eye(3), c)
        assert np.allclose(v, c, atol=1e-12)
        assert report.converged
        assert report.residual <= 1e-20

    def test_consistent_recovery(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            k = int(rng.integers(2, 40))
            h = random_confusion_rows(k, rng).T
            v_true = random_simplex(k, rng)
            v, report = solve_simplex_lsq(h, h @ v_true)
            assert np.max(np.abs(v - v_true)) <= 1e-12
            assert report.kkt_violation <= 1e-12

    def test_two_class_line_search_oracle(self):
        # Infeasible unconstrained optimum; the constrained best is found by
        # brute-force line search over the one free coordinate.
        h = np.array([[0.9, 0.4], [0.1, 0.6]])
        c = np.array([0.95, 0.05])
        t = np.arange(0.0, 1.0 + 5e-7, 1e-6)
        points = np.stack([t, 1.0 - t], axis=1)
        objective = np.sum((points @ h.T - c) ** 2, axis=1)
        best = points[np.argmin(objective)]
        v, _ = solve_simplex_lsq(h, c)
        assert np.max(np.abs(v - best)) <= 1e-4
        assert np.allclose(v, [1.0, 0.0], atol=1e-9)

    def test_global_optimality_vs_grid(self):
        rng = np.random.default_rng(17)
        grid_cache = brute_force_simplex_grid(3, 1e-3)
        for _ in range(10):
            h = random_confusion_rows(3, rng).T
            c = random_simplex(3, rng, alpha=0.4)
            v, report = solve_simplex_lsq(h, c)
            grid_best = np.min(np.sum((grid_cache @ h.T - c) ** 2, axis=1))
            assert report.residual <= grid_best + 1e-6

    def test_bitwise_determinism(self):
        rng = np.random.default_rng(5)
        h = random_confusion_rows(12, rng).T
        c = random_simplex(12, rng)
        v1, r1 = solve_simplex_lsq(h, c)
        gram = Gram.of(h)
        v2, r2 = solve_simplex_lsq(gram.h, c, gram=gram)
        assert np.array_equal(v1, v2)
        assert r1 == r2

    def test_iteration_cap_carries_best_iterate(self, monkeypatch):
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 1)
        rng = np.random.default_rng(6)
        h = random_confusion_rows(5, rng).T
        c = random_simplex(5, rng)
        with pytest.raises(ConvergenceError) as info:
            solve_simplex_lsq(h, c)
        err = info.value
        assert err.best_iterate is not None
        assert abs(err.best_iterate.sum() - 1.0) <= 1e-12
        assert err.report.iterations == 1
        assert not err.report.converged

    def test_budget_that_runs_out_adding_a_class(self, monkeypatch):
        # On this draw one Heinz-Chang solve is positive and a class is left
        # to add; a cap of 7 leaves no solve for it, so the budget runs out
        # inside the Lawson-Hanson loop and the Heinz-Chang iterate is carried.
        rng = np.random.default_rng(181)
        h = random_confusion_rows(8, rng, 0.2, 0.5).T
        c = random_simplex(8, rng, 0.3)
        calls = []
        support_solve, multipliers = solver._support_solve, solver._multipliers
        monkeypatch.setattr(solver, "_support_solve", lambda *a: calls.append("solve") or support_solve(*a))
        monkeypatch.setattr(solver, "_multipliers", lambda *a: calls.append("multipliers") or multipliers(*a))
        monkeypatch.setattr(solver, "_MAX_ITERATIONS", 7)
        with pytest.raises(ConvergenceError) as info:
            solve_simplex_lsq(h, c)
        assert calls == ["solve", "multipliers"]
        err = info.value
        assert np.all(err.best_iterate >= 0.0) and abs(err.best_iterate.sum() - 1.0) <= 1e-12
        assert err.report.iterations == 7 and not err.report.converged

    @pytest.mark.parametrize("h, c, message", [
        (np.ones((2, 3)), [0.5, 0.5], r"expected a square matrix, got shape \(2, 3\)"),
        (np.ones(2), [0.5, 0.5], r"expected a square matrix, got shape \(2,\)"),
        ([[1.0, np.nan], [0.0, 1.0]], [0.5, 0.5], "matrix contains NaN or infinity"),
        (np.eye(2), [0.2, 0.3, 0.5], r"expected a vector of length 2, got shape \(3,\)"),
        (np.eye(2), [np.inf, 0.5], "vector contains NaN or infinity"),
    ])
    def test_refuses_shapes_and_values(self, h, c, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            solve_simplex_lsq(h, c)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            kkt_violation(h, c, np.full(2, 0.5))

    def test_gram_of_another_shape(self):
        with pytest.raises(ValidationError, match=r"^a Gram matrix must be passed with its own H, gram\.h$"):
            solve_simplex_lsq(np.eye(2), [0.5, 0.5], gram=Gram.of(np.eye(3)))

    @pytest.mark.parametrize("other", [
        np.array([[0.9, 0.2], [0.1, 0.8]]),  # same shape, other entries
        np.eye(2),  # equal to the Gram's H, but not it
    ])
    def test_gram_of_another_h(self, other):
        gram = Gram.of(np.eye(2))
        with pytest.raises(ValidationError, match=r"^a Gram matrix must be passed with its own H, gram\.h$"):
            solve_simplex_lsq(other, [0.5, 0.5], gram=gram)
        assert solve_simplex_lsq(gram.h, [0.5, 0.5], gram=gram)[0].tolist() == [0.5, 0.5]

    def test_class_that_cannot_enter_stays_out(self, monkeypatch):
        # Rounding can make a class's multiplier look improving while the
        # support solve with it puts it at or below zero.  Without a way to
        # keep it out, the active set adds it and drops it again until the
        # iteration cap.
        support_solve = solver._support_solve

        def refuse_class_2(h, c, g, b, support):
            x = support_solve(h, c, g, b, support)
            x[support == 2] = -1.0
            return x

        monkeypatch.setattr(solver, "_support_solve", refuse_class_2)
        v, report = solve_simplex_lsq(np.eye(3), np.array([0.2, 0.3, 0.5]))
        assert report.converged
        assert v[2] == 0.0
        assert np.allclose(v, [0.45, 0.55, 0.0], rtol=0.0, atol=1e-15)

    def test_singular_matrix_is_fine(self):
        h = np.array([[0.5, 0.5], [0.5, 0.5]])
        v, report = solve_simplex_lsq(h, np.array([0.6, 0.4]))
        assert abs(v.sum() - 1.0) <= 1e-12
        # Every simplex point maps to (0.5, 0.5); residual is irreducible.
        assert report.residual == pytest.approx(0.02, abs=1e-12)


def _objective(h: np.ndarray, c: np.ndarray, v: np.ndarray) -> float:
    r = h @ v - c
    return float(r @ r)


def nnls_reference(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """min ||Hv - c||^2 over the simplex via NNLS on [H; w 1^T] v = [c; w]."""
    k = h.shape[1]
    a = np.vstack([h, np.full((1, k), NNLS_SUM_WEIGHT)])
    v, _ = scipy.optimize.nnls(a, np.append(c, NNLS_SUM_WEIGHT), maxiter=50 * k)
    return v / v.sum()


def slsqp_reference(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    k = h.shape[1]
    result = scipy.optimize.minimize(
        lambda v: _objective(h, c, v),
        np.full(k, 1.0 / k),
        jac=lambda v: 2.0 * (h.T @ (h @ v - c)),
        method="SLSQP",
        bounds=[(0.0, 1.0)] * k,
        constraints=[{"type": "eq", "fun": lambda v: v.sum() - 1.0, "jac": lambda v: np.ones(k)}],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    assert result.success, result.message
    return result.x


@st.composite
def column_stochastic_problems(draw):
    """(H, c): H with nonnegative unit-sum columns, some duplicated or mixed; c on the simplex.

    Rank deficiency comes from repeated columns and from columns that are
    convex combinations of two others; c is either consistent (H times a
    simplex point, possibly sparse) or a sparse decision histogram.
    """
    k = draw(st.integers(min_value=2, max_value=40))
    entries = st.floats(min_value=0.0, max_value=1.0)
    h = draw(hnp.arrays(np.float64, (k, k), elements=entries))
    h[np.arange(k), np.arange(k)] += draw(st.floats(min_value=0.0, max_value=float(k)))
    h[0, h.sum(axis=0) == 0.0] = 1.0
    h /= h.sum(axis=0)
    for _ in range(draw(st.integers(min_value=0, max_value=k - 1))):
        dst, a, b = (draw(st.integers(min_value=0, max_value=k - 1)) for _ in range(3))
        t = draw(st.sampled_from([0.0, 0.5, draw(st.floats(min_value=0.0, max_value=1.0))]))
        h[:, dst] = t * h[:, a] + (1.0 - t) * h[:, b]
    weights = draw(hnp.arrays(np.float64, k, elements=entries))
    if not weights.any():
        weights[0] = 1.0
    weights /= weights.sum()
    c = h @ weights if draw(st.booleans()) else weights
    return h, c


def _exact_solve(a: list, rhs: list):
    """The solution of the square system ``a x = rhs`` in Fractions, by Gaussian elimination; None if ``a`` is singular."""
    n = len(a)
    m = [row + [r] for row, r in zip(a, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    x = [Fraction(0)] * n
    for r in reversed(range(n)):
        x[r] = (m[r][n] - sum(m[r][j] * x[j] for j in range(r + 1, n))) / m[r][r]
    return x


def exact_objective(h: np.ndarray, c: np.ndarray, v: list) -> Fraction:
    """``||H v - c||^2`` in Fractions, for the doubles in H and c and the doubles or Fractions in v."""
    residual = [sum(Fraction(x) * y for x, y in zip(row, v)) - Fraction(ci) for row, ci in zip(h.tolist(), c.tolist())]
    return sum(r * r for r in residual)


def exact_simplex_lsq(h: np.ndarray, c: np.ndarray) -> list:
    """The exact minimizer of ``||H v - c||^2`` over the simplex, for the doubles in H and c (small K, H nonsingular).

    Tries every support S, smallest first.  It solves the KKT system
    ``[G_SS 1; 1^T 0] [x; mu] = [b_S; 1]`` in exact rational arithmetic,
    with ``G = H^T H`` and ``b = H^T c``, and returns the first point that
    is positive on S and whose multipliers ``(G v - b)_j + mu`` off S are
    nonnegative.  For a nonsingular H, G is positive definite, and that
    KKT point is the one optimum.
    """
    k = len(h)
    hq = [[Fraction(x) for x in row] for row in h.tolist()]
    cq = [Fraction(x) for x in c.tolist()]
    g = [[sum(row[i] * row[j] for row in hq) for j in range(k)] for i in range(k)]
    b = [sum(row[i] * ci for row, ci in zip(hq, cq)) for i in range(k)]
    for size in range(1, k + 1):
        for support in itertools.combinations(range(k), size):
            kkt = [[g[i][j] for j in support] + [Fraction(1)] for i in support] + [[Fraction(1)] * size + [Fraction(0)]]
            sol = _exact_solve(kkt, [b[i] for i in support] + [Fraction(1)])
            if sol is None or min(sol[:size]) <= 0:
                continue
            v = [Fraction(0)] * k
            for i, x in zip(support, sol):
                v[i] = x
            if all(sum(g[j][i] * v[i] for i in support) - b[j] + sol[size] >= 0 for j in range(k) if j not in support):
                return v
    raise AssertionError("no support satisfies the KKT conditions")


@st.composite
def well_posed_problems(draw):
    """(H, c) for 2 <= K <= 6: H's columns on the simplex, its condition number at most ``WELL_POSED_COND``; c on the simplex.

    Half of the c's are H times a simplex point, so that the optimum fits
    them; the others mostly do not, and the optimum often lies on a face.
    """
    k = draw(st.integers(min_value=2, max_value=6))
    alpha = draw(st.sampled_from([0.3, 1.0, 3.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    while True:
        h = rng.dirichlet(np.full(k, alpha), k).T
        if np.linalg.cond(h) <= WELL_POSED_COND:
            break
    c = rng.dirichlet(np.full(k, 0.5))
    return h, h @ c if draw(st.booleans()) else c


@st.composite
def ill_posed_problems(draw):
    """(H, c) for 2 <= K <= 6: H's columns on the simplex, two of them 1e-3 to 1e-12 apart; c on the simplex.

    Half of the c's are H times a simplex point, so that the optimum may
    mix the two nearly coincident columns.
    """
    k = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    h = rng.dirichlet(np.ones(k), k).T
    a, b = rng.choice(k, 2, replace=False)
    t = 10.0 ** -draw(st.floats(min_value=3.0, max_value=12.0))
    h[:, b] = (1.0 - t) * h[:, a] + t * rng.dirichlet(np.ones(k))
    c = rng.dirichlet(np.full(k, 0.5))
    return h, h @ c if draw(st.booleans()) else c


class TestSimplexLsqProperties:
    @given(well_posed_problems())
    @settings(max_examples=300, deadline=None)
    def test_within_a_few_eps_of_the_exact_optimum(self, problem):
        h, c = problem
        v, report = solve_simplex_lsq(h, c)
        assert report.converged
        distance = max(abs(Fraction(x) - y) for x, y in zip(v.tolist(), exact_simplex_lsq(h, c)))
        assert distance <= EXACT_EPS * Fraction(EPS), float(distance / Fraction(EPS))

    @given(ill_posed_problems())
    @settings(max_examples=200, deadline=None)
    def test_objective_within_a_few_eps_of_the_exact_optimum_when_ill_posed(self, problem):
        h, c = problem
        v, report = solve_simplex_lsq(h, c)
        assert report.converged
        gap = exact_objective(h, c, v.tolist()) - exact_objective(h, c, exact_simplex_lsq(h, c))
        assert gap <= ILL_POSED_GAP_EPS * Fraction(EPS), float(gap / Fraction(EPS))

    @given(column_stochastic_problems())
    @settings(max_examples=300, deadline=None)
    def test_exact_optimum_against_nnls(self, problem):
        h, c = problem
        v, report = solve_simplex_lsq(h, c)
        assert report.converged
        assert np.all(v >= 0.0) and abs(v.sum() - 1.0) <= 1e-12
        assert kkt_violation(h, c, v) <= 1e-12
        assert report.kkt_violation <= 1e-12
        assert _objective(h, c, v) <= _objective(h, c, nnls_reference(h, c)) + 1e-9

    @pytest.mark.parametrize("case", ["near_duplicate", "collinear", "duplicate_and_near"])
    def test_nearly_coincident_columns(self, case):
        # Columns of H a hair apart hold too few digits in G = H^T H for the
        # KKT solve alone; cases found by the hypothesis test above.
        if case == "near_duplicate":
            d = 2.5540186007244566e-09
            h = np.array([[2.220446049250313e-16, d], [1.0 - 2.220446049250313e-16, 1.0 - d]])
            c = np.array([1.0, 0.0])
        elif case == "collinear":
            # Columns 0 and 1 and c lie on the segment from e_0 to the
            # uniform columns, c between the two: the optimum mixes them.
            k = 14

            def on_segment(a):
                col = np.full(k, a)
                col[0] = 1.0 - (k - 1) * a
                return col

            h = np.full((k, k), 1.0 / k)
            h[:, 0] = on_segment(1.3333102226228071e-06)
            h[:, 1] = on_segment(3.9997920108154427e-06)
            c = on_segment(1.9999480013519634e-06)
        else:
            h = np.array([
                [0.4, 0.4, 0.39999997615814215, 0.2],
                [0.2, 0.2, 0.20000002384185794, 0.2],
                [0.2, 0.2, 0.2, 0.2],
                [0.2, 0.2, 0.2, 0.4],
            ])
            c = np.full(4, 0.25)
        v, report = solve_simplex_lsq(h, c)
        assert report.converged
        assert kkt_violation(h, c, v) <= 1e-12
        assert _objective(h, c, v) <= _objective(h, c, nnls_reference(h, c)) + 1e-9

    def test_agrees_with_slsqp(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            k = int(rng.integers(2, 21))
            h = random_confusion_rows(k, rng, 0.3, 0.9).T
            c = random_simplex(k, rng, alpha=0.3)
            v, report = solve_simplex_lsq(h, c)
            reference = slsqp_reference(h, c)
            assert report.residual <= _objective(h, c, reference) + 1e-15
            assert np.max(np.abs(v - reference)) <= 1e-6


class TestMatrixInverseProperties:
    @given(well_posed_problems())
    @settings(max_examples=300, deadline=None)
    def test_within_a_few_eps_of_the_exact_solve(self, problem):
        h, c = problem
        conf = ConfusionMatrix(make_catalog(h.shape[0]), h.T)
        estimate = estimate_matrix_inverse(conf, c)
        h = [[Fraction(x) for x in row] for row in conf.mixing_matrix().tolist()]
        raw = _exact_solve(h, [Fraction(x) for x in c.tolist()])
        clipped = [max(x, Fraction(0)) for x in raw]
        exact = [x / sum(clipped) for x in clipped]
        distance = max(abs(Fraction(x) - y) for x, y in zip(estimate.values.tolist(), exact))
        assert distance <= INVERSE_EPS * Fraction(EPS), float(distance / Fraction(EPS))


class TestKktViolation:
    def test_zero_at_optimum(self):
        h = np.eye(3)
        c = np.array([0.2, 0.3, 0.5])
        assert kkt_violation(h, c, c) <= 1e-15

    def test_infinite_at_the_zero_vector(self):
        # No class carries mass, so no multiplier pattern can hold.
        assert kkt_violation(np.eye(3), [0.2, 0.3, 0.5], np.zeros(3)) == np.inf

    def test_positive_off_optimum(self):
        h = np.eye(3)
        c = np.array([0.2, 0.3, 0.5])
        v = np.array([0.5, 0.3, 0.2])
        assert kkt_violation(h, c, v) > 1e-3
