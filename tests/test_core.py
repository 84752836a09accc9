"""Domain types and the two decision rules."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prioradapt import (
    AdaptedPolicy,
    ClassCatalog,
    ConfusionMatrix,
    DecisionHistogram,
    DimensionError,
    DriftSegment,
    InsufficientDataError,
    PrecisionRecallTable,
    PriorEstimate,
    ScenarioSpec,
    ScoreRecord,
    ValidationError,
    decide_adapted,
    decide_baseline,
    estimate_qp,
    reweight,
    reweight_normalized,
    uniform_estimate,
)
from prioradapt.core import (
    PRIOR_SUM_TOL,
    SCORE_SUM_TOL,
    check_probability_rows,
    decide_adapted_batch,
    probability_vector,
    reweight_batch,
)

from conftest import make_catalog


class TestClassCatalog:
    def test_basic(self):
        cat = ClassCatalog(("cat", "dog", "bird"))
        assert cat.k == 3
        assert cat.index_of("dog") == 1

    def test_rejects_single_class(self):
        with pytest.raises(ValidationError):
            ClassCatalog(("only",))

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            ClassCatalog(("a", "a"))

    def test_rejects_empty_label(self):
        with pytest.raises(ValidationError):
            ClassCatalog(("a", ""))

    def test_unknown_label(self):
        with pytest.raises(ValidationError):
            ClassCatalog(("a", "b")).index_of("c")


class TestScoreRecord:
    def test_valid(self):
        r = ScoreRecord((0.1, 0.7, 0.2), true_label=2)
        assert r.k == 3
        assert r.true_label == 2

    def test_scores_are_immutable(self):
        r = ScoreRecord((0.5, 0.5))
        with pytest.raises(ValueError):
            r.scores[0] = 1.0

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            ScoreRecord((0.5, 0.6))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            ScoreRecord((1.2, -0.2))

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            ScoreRecord((float("nan"), 1.0))

    def test_rejects_bad_label(self):
        with pytest.raises(ValidationError):
            ScoreRecord((0.5, 0.5), true_label=5)

    def test_sum_tolerance_is_tight(self):
        # 1e-7 off is fine, 1e-5 off is not: data bugs must surface.
        ScoreRecord((0.5 + 5e-8, 0.5))
        with pytest.raises(ValidationError):
            ScoreRecord((0.5 + 1e-5, 0.5))


class TestConfusionMatrix:
    def test_normalizes_counts(self):
        conf = ConfusionMatrix(make_catalog(2), np.array([[8, 2], [4, 6]]))
        assert np.allclose(conf.rows, [[0.8, 0.2], [0.4, 0.6]])
        assert np.allclose(conf.rows.sum(axis=1), 1.0, atol=1e-9)

    def test_zero_row_names_label(self):
        with pytest.raises(ValidationError, match="x01"):
            ConfusionMatrix(make_catalog(2), np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            ConfusionMatrix(make_catalog(2), np.array([[1.0, -0.1], [0.0, 1.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            ConfusionMatrix(make_catalog(3), np.eye(2))

    def test_mixing_matrix_is_transpose(self):
        rows = np.array([[0.9, 0.1], [0.4, 0.6]])
        conf = ConfusionMatrix(make_catalog(2), rows)
        assert np.array_equal(conf.mixing_matrix(), rows.T)


class TestDecisionHistogram:
    def test_total(self):
        hist = DecisionHistogram(np.array([2, 1, 0]))
        assert hist.total == 3

    def test_normalized_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            counts = rng.integers(0, 1000, size=rng.integers(2, 40))
            counts[0] += 1  # nonempty
            c = DecisionHistogram(counts).normalized()
            assert abs(c.sum() - 1.0) <= 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            DecisionHistogram(np.array([1, -1]))

    def test_rejects_fractional(self):
        with pytest.raises(ValidationError):
            DecisionHistogram(np.array([1.5, 2.0]))

    def test_empty_normalize_errors(self):
        with pytest.raises(InsufficientDataError):
            DecisionHistogram(np.array([0, 0])).normalized()


class TestPriorEstimate:
    def test_simplex_enforced(self):
        with pytest.raises(ValidationError):
            PriorEstimate(np.array([0.5, 0.6]), method="ground_truth")

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            PriorEstimate(np.array([0.5, 0.5]), method="folk")


class TestDecideBaseline:
    def test_unique_maximum(self):
        assert decide_baseline(ScoreRecord((0.1, 0.7, 0.2))) == 1

    def test_tie_breaks_low(self):
        assert decide_baseline(ScoreRecord((0.5, 0.5, 0.0))) == 0

    def test_full_tie_breaks_low(self):
        assert decide_baseline(ScoreRecord((1 / 3, 1 / 3, 1 / 3))) == 0


def _policy(priors) -> AdaptedPolicy:
    return AdaptedPolicy.from_priors(
        PriorEstimate(np.asarray(priors, dtype=float), method="ground_truth")
    )


class TestReweight:
    def test_elementwise_product(self):
        out = reweight(ScoreRecord((0.4, 0.35, 0.25)), _policy((0.1, 0.6, 0.3)))
        assert np.allclose(out, [0.04, 0.21, 0.075], atol=1e-15)

    def test_uniform_priors_preserve_ranking(self):
        scores = (0.5, 0.2, 0.3)
        out = reweight(ScoreRecord(scores), _policy((1 / 3, 1 / 3, 1 / 3)))
        assert np.allclose(out * 3, scores)

    def test_zero_prior_annihilates(self):
        out = reweight(ScoreRecord((0.9, 0.1)), _policy((0.0, 1.0)))
        assert np.allclose(out, [0.0, 0.1])

    def test_not_renormalized(self):
        out = reweight(ScoreRecord((0.4, 0.35, 0.25)), _policy((0.1, 0.6, 0.3)))
        assert out.sum() != pytest.approx(1.0)

    def test_normalized_variant(self):
        record = ScoreRecord((0.4, 0.35, 0.25))
        out = reweight_normalized(record, _policy((0.1, 0.6, 0.3)))
        assert out.sum() == pytest.approx(1.0)
        raw = reweight(record, _policy((0.1, 0.6, 0.3)))
        assert np.allclose(out, raw / raw.sum())

    def test_normalized_keeps_all_zero(self):
        out = reweight_normalized(ScoreRecord((1.0, 0.0)), _policy((0.0, 1.0)))
        assert np.array_equal(out, [0.0, 0.0])

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            reweight(ScoreRecord((0.5, 0.5)), _policy((0.2, 0.3, 0.5)))

    def test_monotone_per_class(self):
        # Raising one score (mass taken from another class) never lowers
        # that class's product.
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(2, 10))
            policy = _policy(rng.dirichlet(np.ones(k)))
            s = rng.dirichlet(np.ones(k))
            i, j = rng.choice(k, size=2, replace=False)
            delta = s[j] * rng.uniform(0, 1)
            bumped = s.copy()
            bumped[i] += delta
            bumped[j] -= delta
            before = reweight(ScoreRecord(s), policy)[i]
            after = reweight(ScoreRecord(bumped), policy)[i]
            assert after >= before


class TestDecideAdapted:
    def test_flips_decision(self):
        assert decide_adapted(ScoreRecord((0.4, 0.35, 0.25)), _policy((0.1, 0.6, 0.3))) == 1

    def test_uniform_equals_baseline(self):
        record = ScoreRecord((0.2, 0.5, 0.3))
        policy = _policy((1 / 3, 1 / 3, 1 / 3))
        assert decide_adapted(record, policy) == decide_baseline(record)

    def test_only_positive_product_wins(self):
        assert decide_adapted(ScoreRecord((0.9, 0.1)), _policy((0.0, 1.0))) == 1

    def test_all_zero_falls_back_with_flag(self):
        record = ScoreRecord((1.0, 0.0))
        decision, fell_back = decide_adapted(record, _policy((0.0, 1.0)), return_fallback=True)
        assert decision == decide_baseline(record) == 0
        assert fell_back

    def test_no_fallback_flag_normally(self):
        decision, fell_back = decide_adapted(
            ScoreRecord((0.4, 0.6)), _policy((0.5, 0.5)), return_fallback=True
        )
        assert decision == 1
        assert not fell_back

    def test_argmax_invariance_under_uniform(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            k = int(rng.integers(2, 12))
            record = ScoreRecord(rng.dirichlet(np.ones(k)))
            assert decide_adapted(record, _policy(np.full(k, 1 / k))) == decide_baseline(record)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            k = int(rng.integers(2, 12))
            est = PriorEstimate(rng.dirichlet(np.ones(k)), method="ground_truth")
            base = AdaptedPolicy.from_priors(est)
            scale = float(rng.uniform(1e-6, 1e6))
            scaled = AdaptedPolicy(priors=est, weights=base.weights * scale)
            record = ScoreRecord(rng.dirichlet(np.ones(k)))
            assert decide_adapted(record, base) == decide_adapted(record, scaled)

    def test_zero_prior_never_chosen_unless_fallback(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            k = int(rng.integers(3, 10))
            priors = rng.dirichlet(np.ones(k))
            dead = int(rng.integers(0, k))
            priors[dead] = 0.0
            priors /= priors.sum()
            policy = _policy(priors)
            record = ScoreRecord(rng.dirichlet(np.ones(k)))
            decision, fell_back = decide_adapted(record, policy, return_fallback=True)
            if not fell_back:
                assert priors[decision] > 0.0


@st.composite
def _grid_batch(draw):
    """Scores and priors on a coarse grid, so ties and zero products are common."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(1, 12))
    row = st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any)
    counts = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=np.float64)
    weights = np.array(draw(row), dtype=np.float64)
    return counts / counts.sum(axis=1, keepdims=True), weights / weights.sum()


class TestDecideAdaptedBatch:
    @given(batch=_grid_batch())
    @example(batch=(np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]), np.array([0.0, 0.5, 0.5])))
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_rule_row_by_row(self, batch):
        scores, priors = batch
        policy = _policy(priors)
        expected = [decide_adapted(ScoreRecord(row), policy) for row in scores]
        assert decide_adapted_batch(scores, policy).tolist() == expected

    def test_rejects_wrong_width(self):
        with pytest.raises(DimensionError):
            decide_adapted_batch(np.full((2, 2), 0.5), _policy((0.2, 0.3, 0.5)))


class TestAdaptedPolicy:
    def test_weights_are_scaled_priors(self):
        policy = _policy((0.1, 0.6, 0.3))
        assert np.allclose(policy.weights, [0.3, 1.8, 0.9])

    def test_zero_weight_iff_zero_prior(self):
        policy = _policy((0.0, 1.0))
        assert policy.weights[0] == 0.0 and policy.weights[1] > 0.0

    def test_rejects_mismatched_zero_pattern(self):
        est = PriorEstimate(np.array([0.0, 1.0]), method="ground_truth")
        with pytest.raises(ValidationError):
            AdaptedPolicy(priors=est, weights=np.array([0.5, 2.0]))

    def test_rejects_negative_weights(self):
        est = PriorEstimate(np.array([0.5, 0.5]), method="ground_truth")
        with pytest.raises(ValidationError):
            AdaptedPolicy(priors=est, weights=np.array([-1.0, 1.0]))


def test_uniform_estimate():
    est = uniform_estimate(4)
    assert est.method == "uniform"
    assert np.allclose(est.values, 0.25)


class TestArrayIntake:
    """Value types keep their own read-only copies and share one probability rule."""

    @pytest.mark.parametrize("build, attrs", [
        (
            lambda a: ScenarioSpec(
                catalog=make_catalog(3), active_classes=(0, 1), true_priors=a[0],
                transfer_size=10, test_size=10,
            ),
            ("true_priors",),
        ),
        (lambda a: DriftSegment(start=1, priors=a[0]), ("priors",)),
        (lambda a: PrecisionRecallTable(*a), ("precision", "recall", "undefined")),
    ], ids=["ScenarioSpec", "DriftSegment", "PrecisionRecallTable"])
    def test_callers_arrays_stay_writable_and_apart(self, build, attrs):
        arrays = [np.array([0.75, 0.25, 0.0]), np.array([0.25, 0.75, 0.0]), np.array([True, False, False])]
        obj = build(arrays)
        for name, array in zip(attrs, arrays):
            before = array.copy()
            array[0] = array[2]  # raises if the object froze the caller's array
            stored = getattr(obj, name)
            assert np.array_equal(stored, before)
            assert not stored.flags.writeable

    @pytest.mark.parametrize("build, tol", [
        (ScoreRecord, SCORE_SUM_TOL),
        (lambda v: PriorEstimate(v, method="naive"), PRIOR_SUM_TOL),
        (lambda v: DriftSegment(start=1, priors=v), PRIOR_SUM_TOL),
        (
            lambda v: ScenarioSpec(
                catalog=make_catalog(3), active_classes=(0, 1, 2), true_priors=v,
                transfer_size=10, test_size=10,
            ),
            PRIOR_SUM_TOL,
        ),
        (lambda v: estimate_qp(ConfusionMatrix(make_catalog(3), np.eye(3)), v), SCORE_SUM_TOL),
    ], ids=["ScoreRecord", "PriorEstimate", "DriftSegment", "ScenarioSpec", "estimators"])
    def test_sum_tolerance(self, build, tol):
        build(np.array([0.25 + tol / 2, 0.25, 0.5]))
        with pytest.raises(ValidationError) as excinfo:
            build(np.array([0.25 + 2 * tol, 0.25, 0.5]))
        assert type(excinfo.value) is ValidationError


@st.composite
def _edge_batch(draw):
    """Grid scores, some nudged to a row sum at the 1e-6 edge, and grid priors with zeros."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(1, 12))
    row = st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any)
    counts = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=np.float64)
    scores = counts / counts.sum(axis=1, keepdims=True)
    for r in range(n):
        nudge = draw(st.sampled_from([0.0, 0.0, 9.9e-7, -9.9e-7]))
        top = int(scores[r].argmax())
        scores[r, top] = min(1.0, scores[r, top] + nudge)
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any)), float)
    return scores, weights / weights.sum()


class TestReweightBatch:
    @given(batch=_edge_batch())
    @example(batch=(np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]), np.array([0.0, 0.5, 0.5])))
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_rules_row_by_row(self, batch):
        scores, priors = batch
        policy = _policy(priors)
        records = [ScoreRecord(row) for row in scores]  # every row is a valid score vector
        decisions, products, normalized = reweight_batch(scores, policy)
        assert decisions.tolist() == [decide_adapted(r, policy) for r in records]
        assert products.tobytes() == np.stack([reweight(r, policy) for r in records]).tobytes()
        assert normalized.tobytes() == np.stack(
            [reweight_normalized(r, policy) for r in records]
        ).tobytes()
        assert np.array_equal(decide_adapted_batch(scores, policy), decisions)

    def test_rejects_wrong_width(self):
        with pytest.raises(DimensionError):
            reweight_batch(np.full((2, 2), 0.5), _policy((0.2, 0.3, 0.5)))


_ENTRIES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 0.5 + 1e-6, -0.25, 1.5, 1e308, np.nan, np.inf])


def _vector_fault(v, tol):
    """The message of the first probability-vector condition ``v`` breaks, checked one by one."""
    if not np.all(np.isfinite(v)):
        return "scores must be finite, got NaN or infinity"
    if np.any(v < 0.0) or np.any(v > 1.0):
        return "scores must lie in [0, 1]"
    total = float(v.sum())
    if abs(total - 1.0) > tol:
        return f"scores must sum to 1 within {tol}, got {total!r}"
    return None


class TestCheckProbabilityRows:
    @given(st.integers(2, 4).flatmap(
        lambda k: st.lists(st.lists(_ENTRIES, min_size=k, max_size=k), min_size=1, max_size=6)
    ))
    @settings(max_examples=300, deadline=None)
    def test_reports_the_first_bad_row(self, rows):
        rows = np.array(rows)
        faults = [f for f in (_vector_fault(row, SCORE_SUM_TOL) for row in rows) if f is not None]
        try:
            check_probability_rows(rows, "scores", SCORE_SUM_TOL)
        except ValidationError as exc:
            assert faults and str(exc) == faults[0]
        else:
            assert not faults
        for row in rows:
            fault = _vector_fault(row, SCORE_SUM_TOL)
            if fault is None:
                assert probability_vector(row, "scores", SCORE_SUM_TOL).tobytes() == row.tobytes()
            else:
                with pytest.raises(ValidationError, match=re.escape(fault)):
                    probability_vector(row, "scores", SCORE_SUM_TOL)
