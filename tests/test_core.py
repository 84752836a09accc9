"""Domain types and the two decision rules."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prioradapt import (
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
    _adapted_decisions,
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
        r = ScoreRecord((0.1, 0.7, 0.2))
        assert r.k == 3

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

    @pytest.mark.parametrize("counts", [[3], [[1, 2], [3, 4]]], ids=["one class", "matrix"])
    def test_rejects_what_is_not_a_vector_of_two_or_more(self, counts):
        shape = np.shape(counts)
        with pytest.raises(ValidationError, match=rf"^counts must be a vector of K >= 2 entries, got shape {re.escape(str(shape))}$"):
            DecisionHistogram(np.array(counts))


class TestPriorEstimate:
    def test_simplex_enforced(self):
        with pytest.raises(ValidationError):
            PriorEstimate(np.array([0.5, 0.6]))


class TestDecideBaseline:
    def test_unique_maximum(self):
        assert decide_baseline(ScoreRecord((0.1, 0.7, 0.2))) == 1

    def test_tie_breaks_low(self):
        assert decide_baseline(ScoreRecord((0.5, 0.5, 0.0))) == 0

    def test_full_tie_breaks_low(self):
        assert decide_baseline(ScoreRecord((1 / 3, 1 / 3, 1 / 3))) == 0


def _priors(values) -> PriorEstimate:
    return PriorEstimate(np.asarray(values, dtype=float))


def _fell_back(record: ScoreRecord, priors: PriorEstimate) -> bool:
    """Whether the adapted rule falls back to the baseline on ``record``, as the batch kernel reports it."""
    scores = record.scores[np.newaxis]
    return bool(_adapted_decisions(scores, priors, scores * priors.values)[1][0])


# The adapted rule and the re-weighting written row by row, apart from the
# batch kernels that the scalar names call: the reference the kernels are
# compared with.

def reference_reweight(record: ScoreRecord, priors: PriorEstimate) -> np.ndarray:
    if record.k != priors.k:
        raise DimensionError(f"record has {record.k} scores, expected {priors.k}")
    return priors.values * record.scores


def reference_reweight_normalized(record: ScoreRecord, priors: PriorEstimate) -> np.ndarray:
    products = reference_reweight(record, priors)
    total = products.sum()
    if total > 0.0:
        return products / total
    return products


def reference_decide_adapted(record: ScoreRecord, priors: PriorEstimate) -> tuple[int, bool]:
    """The adapted decision and whether it fell back to the baseline."""
    products = reference_reweight(record, priors)
    if not np.any(products > 0.0):
        return decide_baseline(record), True
    return int(np.argmax(products)), False


class TestReweight:
    def test_elementwise_product(self):
        out = reweight(ScoreRecord((0.4, 0.35, 0.25)), _priors((0.1, 0.6, 0.3)))
        assert np.allclose(out, [0.04, 0.21, 0.075], atol=1e-15)

    def test_uniform_priors_preserve_ranking(self):
        scores = (0.5, 0.2, 0.3)
        out = reweight(ScoreRecord(scores), _priors((1 / 3, 1 / 3, 1 / 3)))
        assert np.allclose(out * 3, scores)

    def test_zero_prior_annihilates(self):
        out = reweight(ScoreRecord((0.9, 0.1)), _priors((0.0, 1.0)))
        assert np.allclose(out, [0.0, 0.1])

    def test_not_renormalized(self):
        out = reweight(ScoreRecord((0.4, 0.35, 0.25)), _priors((0.1, 0.6, 0.3)))
        assert out.sum() != pytest.approx(1.0)

    def test_normalized_variant(self):
        record = ScoreRecord((0.4, 0.35, 0.25))
        out = reweight_normalized(record, _priors((0.1, 0.6, 0.3)))
        assert out.sum() == pytest.approx(1.0)
        raw = reweight(record, _priors((0.1, 0.6, 0.3)))
        assert np.allclose(out, raw / raw.sum())

    def test_normalized_keeps_all_zero(self):
        out = reweight_normalized(ScoreRecord((1.0, 0.0)), _priors((0.0, 1.0)))
        assert np.array_equal(out, [0.0, 0.0])

    def test_dimension_error(self):
        with pytest.raises(DimensionError):
            reweight(ScoreRecord((0.5, 0.5)), _priors((0.2, 0.3, 0.5)))

    def test_monotone_per_class(self):
        # Raising one score (mass taken from another class) never lowers
        # that class's product.
        rng = np.random.default_rng(42)
        for _ in range(200):
            k = int(rng.integers(2, 10))
            priors = _priors(rng.dirichlet(np.ones(k)))
            s = rng.dirichlet(np.ones(k))
            i, j = rng.choice(k, size=2, replace=False)
            delta = s[j] * rng.uniform(0, 1)
            bumped = s.copy()
            bumped[i] += delta
            bumped[j] -= delta
            before = reweight(ScoreRecord(s), priors)[i]
            after = reweight(ScoreRecord(bumped), priors)[i]
            assert after >= before


class TestDecideAdapted:
    def test_flips_decision(self):
        assert decide_adapted(ScoreRecord((0.4, 0.35, 0.25)), _priors((0.1, 0.6, 0.3))) == 1

    def test_uniform_equals_baseline(self):
        record = ScoreRecord((0.2, 0.5, 0.3))
        priors = _priors((1 / 3, 1 / 3, 1 / 3))
        assert decide_adapted(record, priors) == decide_baseline(record)

    def test_only_positive_product_wins(self):
        assert decide_adapted(ScoreRecord((0.9, 0.1)), _priors((0.0, 1.0))) == 1

    def test_all_zero_falls_back_with_flag(self):
        record, priors = ScoreRecord((1.0, 0.0)), _priors((0.0, 1.0))
        assert decide_adapted(record, priors) == decide_baseline(record) == 0
        assert _fell_back(record, priors)

    def test_no_fallback_flag_normally(self):
        record, priors = ScoreRecord((0.4, 0.6)), _priors((0.5, 0.5))
        assert decide_adapted(record, priors) == 1
        assert not _fell_back(record, priors)

    def test_argmax_invariance_under_uniform(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            k = int(rng.integers(2, 12))
            record = ScoreRecord(rng.dirichlet(np.ones(k)))
            assert decide_adapted(record, _priors(np.full(k, 1 / k))) == decide_baseline(record)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            k = int(rng.integers(2, 12))
            est = PriorEstimate(rng.dirichlet(np.ones(k)))
            c = float(rng.uniform(1e-8, 1e8))
            record = ScoreRecord(rng.dirichlet(np.ones(k)))
            expected = int(np.argmax((c * est.values) * record.scores))
            assert decide_adapted(record, est) == expected

    def test_zero_prior_never_chosen_unless_fallback(self):
        rng = np.random.default_rng(9)
        for _ in range(500):
            k = int(rng.integers(3, 10))
            values = rng.dirichlet(np.ones(k))
            dead = int(rng.integers(0, k))
            values[dead] = 0.0
            values /= values.sum()
            record = ScoreRecord(rng.dirichlet(np.ones(k)))
            priors = _priors(values)
            if not _fell_back(record, priors):
                assert values[decide_adapted(record, priors)] > 0.0


@st.composite
def _grid_batch(draw):
    """Scores and priors on a coarse grid, so ties and zero products are common."""
    k = draw(st.integers(2, 6))
    n = draw(st.integers(1, 12))
    row = st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any)
    counts = np.array(draw(st.lists(row, min_size=n, max_size=n)), dtype=np.float64)
    priors = np.array(draw(row), dtype=np.float64)
    return counts / counts.sum(axis=1, keepdims=True), priors / priors.sum()


class TestDecideAdaptedBatch:
    @given(batch=_grid_batch())
    @example(batch=(np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]), np.array([0.0, 0.5, 0.5])))
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_rule_row_by_row(self, batch):
        scores, values = batch
        priors = _priors(values)
        expected = [reference_decide_adapted(ScoreRecord(row), priors)[0] for row in scores]
        assert decide_adapted_batch(scores, priors).tolist() == expected

    def test_rejects_wrong_width(self):
        with pytest.raises(DimensionError):
            decide_adapted_batch(np.full((2, 2), 0.5), _priors((0.2, 0.3, 0.5)))


def _round53(q: Fraction) -> Fraction:
    """``q`` rounded to 53 significant bits, ties to even, with no exponent limits."""
    if q == 0:
        return q
    e = q.numerator.bit_length() - q.denominator.bit_length()
    if q < Fraction(2) ** e:
        e -= 1  # now 2**e <= q < 2**(e + 1)
    unit = Fraction(2) ** (e - 52)
    return round(q / unit) * unit


def exact_decide_adapted(scores, priors) -> tuple[int, bool]:
    """The adapted decision and fallback flag from the exact products of the doubles.

    The decision is the lowest index whose exact product, rounded to a
    double's 53 bits but not to its exponent range, is largest; it differs
    from the exact argmax only where the top exact products round alike.
    It falls back to the baseline only where no exact product is positive.
    """
    products = [Fraction(s) * Fraction(p) for s, p in zip(scores.tolist(), priors.tolist())]
    if not any(products):
        return int(np.argmax(scores)), True
    rounded = [_round53(q) for q in products]
    return rounded.index(max(rounded)), False


#: Small entries: powers of two, so scaled duplicates tie exactly, the
#: smallest normal double and subnormal ones, and zeros.
_SMALL = st.one_of(
    st.just(0.0),
    st.sampled_from([2.0 ** -e for e in (40, 41, 60, 500, 1000, 1022, 1023, 1050, 1074)]),
    st.sampled_from([1e-30, 1e-300, 3e-310, 5e-324, 2.2250738585072014e-308, 1e-12]),
    st.floats(min_value=0.0, max_value=1e-300),
    st.floats(min_value=1e-320, max_value=1e-10),
)


@st.composite
def _tiny_product_batch(draw):
    """Scores and priors whose large entries often sit apart, so every product of a row may be tiny."""
    k = draw(st.integers(2, 6))

    def vector(big):
        weights = np.array([draw(st.integers(1, 3)) if i in big else 0 for i in range(k)], float)
        small = np.array([0.0 if i in big else draw(_SMALL) for i in range(k)])
        return weights / weights.sum() + small

    positions = st.sets(st.integers(0, k - 1), min_size=1, max_size=k)
    prior_big = draw(positions)
    apart = draw(st.booleans()) and len(prior_big) < k
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        big = draw(positions.filter(lambda b: not (apart and b & prior_big)))
        rows.append(vector(big))
    return np.array(rows), vector(prior_big)


#: How many ulps a ``norm_*`` entry may lie from the exact quotient of its
#: row's ``raw_*`` doubles.  Measured over 10 000 draws of
#: :func:`_tiny_product_batch` (137 169 entries): median 5e-5, 99th
#: percentile 1.18, largest 2.61; over 299 280 entries of Dirichlet(0.3)
#: rows and priors at K = 2 to 1000, largest 3.30.
NORM_ULPS = 8


def exact_normalized_ulps(raw, normalized) -> list[float]:
    """How many ulps each of ``normalized`` lies from its ``raw`` double over the row's exact sum."""
    exact = [Fraction(p) for p in raw.tolist()]
    total = sum(exact)
    quotients = [p / total for p in exact] if total else exact
    return [float(abs(Fraction(got) - q) / Fraction(math.ulp(float(q)))) if q else (0.0 if got == 0.0 else math.inf)
            for got, q in zip(normalized.tolist(), quotients)]


class TestExactReference:
    """The adapted rule against exact rational products of the same doubles."""

    @given(batch=_tiny_product_batch())
    @example(batch=(np.array([[1e-30, 1.0, 0.0]]), np.array([1e-300, 0.0, 1.0])))
    @example(batch=(np.array([[2.0 ** -1000, 2.0 ** -1001, 0.0, 1.0]]), np.array([2.0 ** -60, 2.0 ** -59, 1.0, 0.0])))
    @example(batch=(np.array([[5e-324, 0.0, 1.0], [0.0, 1.0, 0.0]]), np.array([1.0, 0.0, 0.0])))
    @settings(max_examples=500, deadline=None)
    def test_decisions_follow_the_exact_products(self, batch):
        scores, values = batch
        priors = _priors(values)
        expected = [exact_decide_adapted(row, priors.values) for row in scores]
        decisions, products, normalized = reweight_batch(scores, priors)
        assert decisions.tolist() == [d for d, _ in expected]
        assert decide_adapted_batch(scores, priors).tolist() == [d for d, _ in expected]
        exact = [[float(Fraction(s) * Fraction(p)) for s, p in zip(row.tolist(), priors.values.tolist())]
                 for row in scores]
        assert products.tolist() == exact  # one correctly rounded multiply each
        for raw, norm in zip(products, normalized):
            assert max(exact_normalized_ulps(raw, norm)) <= NORM_ULPS
        for row, want in zip(scores, expected):
            record = ScoreRecord(row)
            assert (decide_adapted(record, priors), _fell_back(record, priors)) == want

    def test_an_underflowed_product_still_decides(self):
        # The exact products are (1e-330, 0, 0): every double product is 0.
        record, priors = ScoreRecord((1e-30, 1.0, 0.0)), _priors((1e-300, 0.0, 1.0))
        assert reweight(record, priors).tolist() == [0.0, 0.0, 0.0]
        assert (decide_adapted(record, priors), _fell_back(record, priors)) == (0, False)

    def test_subnormal_products_that_round_alike_are_told_apart(self):
        # 0.3 and 0.45 times 2**-1073 both round to 2**-1074.
        record = ScoreRecord((2.0 ** -1073, 2.0 ** -1073, 0.0, 1.0))
        priors = _priors((0.3, 0.45, 0.25, 0.0))
        assert reweight(record, priors).tolist() == [5e-324, 5e-324, 0.0, 0.0]
        assert (decide_adapted(record, priors), _fell_back(record, priors)) == (1, False)


def test_uniform_estimate():
    est = uniform_estimate(4)
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
        (lambda a: PrecisionRecallTable(*a), ("precision", "recall")),
    ], ids=["ScenarioSpec", "DriftSegment", "PrecisionRecallTable"])
    def test_callers_arrays_stay_writable_and_apart(self, build, attrs):
        arrays = [np.array([0.75, 0.25, 0.0]), np.array([0.25, 0.75, 0.0])]
        obj = build(arrays)
        for name, array in zip(attrs, arrays):
            before = array.copy()
            array[0] = array[2]  # raises if the object froze the caller's array
            stored = getattr(obj, name)
            assert np.array_equal(stored, before)
            assert not stored.flags.writeable

    @pytest.mark.parametrize("scale", [1.0, 40.0], ids=["rows", "counts"])
    def test_confusion_rows_are_a_new_read_only_array(self, scale):
        # Rows that already sum to 1 are divided all the same: the quotient
        # is what is stored, never the caller's array.
        array = scale * np.array([[0.75, 0.25, 0.0], [0.25, 0.75, 0.0], [0.0, 0.5, 0.5]])
        conf = ConfusionMatrix(make_catalog(3), array)
        before = conf.rows.copy()
        array[0] = array[2]  # raises if the matrix froze the caller's array
        assert not np.shares_memory(conf.rows, array)
        assert np.array_equal(conf.rows, before)
        assert np.array_equal(before, np.array([[0.75, 0.25, 0.0], [0.25, 0.75, 0.0], [0.0, 0.5, 0.5]]))
        assert not conf.rows.flags.writeable

    def test_confusion_matrix_holds_its_rows_once(self):
        # From a float64 array the only K x K array made is the normalized
        # rows it keeps; the checks' boolean temporaries are an eighth each.
        k = 500
        catalog = make_catalog(k)
        array = np.random.default_rng(0).random((k, k))
        tracemalloc.start()
        try:
            conf = ConfusionMatrix(catalog, array)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert conf.k == k
        assert peak < 1.25 * array.nbytes, f"peak {peak / array.nbytes:.2f} K x K arrays"

    @pytest.mark.parametrize("build, tol", [
        (ScoreRecord, SCORE_SUM_TOL),
        (PriorEstimate, PRIOR_SUM_TOL),
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
    priors = np.array(draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any)), float)
    return scores, priors / priors.sum()


class TestReweightBatch:
    @given(batch=_edge_batch())
    @example(batch=(np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5]]), np.array([0.0, 0.5, 0.5])))
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_rules_row_by_row(self, batch):
        scores, values = batch
        priors = _priors(values)
        records = [ScoreRecord(row) for row in scores]  # every row is a valid score vector
        decisions, products, normalized = reweight_batch(scores, priors)
        assert decisions.tolist() == [reference_decide_adapted(r, priors)[0] for r in records]
        assert products.tobytes() == np.stack([reference_reweight(r, priors) for r in records]).tobytes()
        assert normalized.tobytes() == np.stack(
            [reference_reweight_normalized(r, priors) for r in records]
        ).tobytes()
        assert np.array_equal(decide_adapted_batch(scores, priors), decisions)

    def test_rejects_wrong_width(self):
        with pytest.raises(DimensionError):
            reweight_batch(np.full((2, 2), 0.5), _priors((0.2, 0.3, 0.5)))


@st.composite
def _wide_record(draw):
    """A score vector and priors of up to 300 classes, some priors zero, so row sums take numpy's pairwise steps."""
    k = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.dirichlet(np.ones(k))
    values[rng.random(k) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = 0.0
    if not values.any():
        values[rng.integers(k)] = 1.0
    return ScoreRecord(rng.dirichlet(np.ones(k))), _priors(values / values.sum())


class TestScalarNamesAreOneRowCalls:
    @given(drawn=st.one_of(_wide_record(), _edge_batch().map(
        lambda batch: (ScoreRecord(batch[0][0]), _priors(batch[1]))
    )))
    @example(drawn=(ScoreRecord((1.0, 0.0, 0.0)), _priors((0.0, 0.5, 0.5))))
    @settings(max_examples=300, deadline=None)
    def test_match_the_row_by_row_reference(self, drawn):
        record, priors = drawn
        got = decide_adapted(record, priors), _fell_back(record, priors)
        assert got == reference_decide_adapted(record, priors)
        assert type(got[0]) is int
        assert reweight(record, priors).tobytes() == reference_reweight(record, priors).tobytes()
        normalized = reweight_normalized(record, priors)
        assert normalized.shape == (record.k,)
        assert normalized.tobytes() == reference_reweight_normalized(record, priors).tobytes()

    @pytest.mark.parametrize("rule", [reweight, reweight_normalized, decide_adapted])
    def test_wrong_width_names_the_record(self, rule):
        with pytest.raises(DimensionError, match=r"^record has 2 scores, expected 3$"):
            rule(ScoreRecord((0.5, 0.5)), _priors((0.2, 0.3, 0.5)))


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

    @pytest.mark.parametrize("values", [[1.0], [[0.5, 0.5]], 1.0], ids=["one entry", "matrix", "scalar"])
    def test_probability_vector_needs_a_vector_of_two_or_more(self, values):
        shape = np.shape(values)
        with pytest.raises(ValidationError, match=rf"^priors must be a vector of K >= 2 entries, got shape {re.escape(str(shape))}$"):
            probability_vector(values, "priors", PRIOR_SUM_TOL)
