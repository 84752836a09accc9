"""The four prior-estimation routes and their cross-cutting properties."""

import numpy as np
import pytest

from prioradapt import (
    ConfusionMatrix,
    DecisionHistogram,
    Gram,
    DegenerateRecallError,
    DimensionError,
    IllConditionedError,
    InsufficientDataError,
    ValidationError,
    estimate_ground_truth,
    estimate_matrix_inverse,
    estimate_naive,
    estimate_precision_recall,
    estimate_qp,
    precision_recall,
)

from conftest import make_catalog, random_confusion, random_simplex

def conf_from(rows) -> ConfusionMatrix:
    rows = np.asarray(rows, dtype=float)
    return ConfusionMatrix(make_catalog(rows.shape[0]), rows)


class TestPrecisionRecall:
    def test_identity_is_perfect(self):
        table = precision_recall(conf_from(np.eye(3)))
        assert np.allclose(table.precision, 1.0)
        assert np.allclose(table.recall, 1.0)
        assert not table.undefined.any()

    def test_two_class_column_sums(self):
        table = precision_recall(conf_from([[0.8, 0.2], [0.4, 0.6]]))
        assert np.allclose(table.recall, [0.8, 0.6])
        assert np.allclose(table.precision, [0.8 / 1.2, 0.6 / 0.8])

    def test_zero_column_flagged(self):
        # Column 2 receives no decisions from any class.
        table = precision_recall(conf_from([[0.9, 0.1, 0.0], [0.2, 0.8, 0.0], [0.5, 0.5, 0.0]]))
        assert table.undefined[2]
        assert table.precision[2] == 0.0
        assert not table.undefined[:2].any()


class TestEstimateNaive:
    def test_direct_frequency(self):
        est = estimate_naive(DecisionHistogram(np.array([50, 30, 20])))
        assert np.allclose(est.values, [0.5, 0.3, 0.2])
        assert est.method == "naive"

    def test_single_observed_class(self):
        est = estimate_naive(DecisionHistogram(np.array([0, 0, 10])))
        assert np.allclose(est.values, [0.0, 0.0, 1.0])

    def test_uniform_counts(self):
        est = estimate_naive(DecisionHistogram(np.array([1, 1, 1, 1])))
        assert np.allclose(est.values, 0.25)

    def test_empty_histogram_errors(self):
        with pytest.raises(InsufficientDataError):
            estimate_naive(DecisionHistogram(np.array([0, 0])))

    @pytest.mark.parametrize("c", [np.array(1.0), [[0.5, 0.5]]])
    def test_observation_vector_must_be_1d(self, c):
        with pytest.raises(DimensionError):
            estimate_naive(c)


class TestEstimatePrecisionRecall:
    def test_equal_precision_recall_reduces_to_naive(self):
        hist = DecisionHistogram(np.array([50, 30, 20]))
        table = precision_recall(conf_from(np.eye(3)))
        est = estimate_precision_recall(hist, table)
        naive = estimate_naive(hist)
        assert np.array_equal(est.values, naive.values)

    def test_correction_arithmetic(self):
        from prioradapt.estimators import PrecisionRecallTable

        table = PrecisionRecallTable(
            precision=np.array([0.9, 0.5]),
            recall=np.array([0.6, 1.0]),
            undefined=np.zeros(2, dtype=bool),
        )
        est = estimate_precision_recall(DecisionHistogram(np.array([20, 80])), table)
        # Raw corrected masses are proportional to (0.3, 0.4).
        assert np.allclose(est.values, [3 / 7, 4 / 7], atol=1e-15)
        assert est.method == "precision_recall"

    def test_degenerate_recall(self):
        from prioradapt.estimators import PrecisionRecallTable

        table = PrecisionRecallTable(
            precision=np.array([0.9, 0.5]),
            recall=np.array([0.0, 1.0]),
            undefined=np.zeros(2, dtype=bool),
        )
        with pytest.raises(DegenerateRecallError):
            estimate_precision_recall(DecisionHistogram(np.array([20, 80])), table)
        # Zero recall on a class with no decisions is fine.
        est = estimate_precision_recall(DecisionHistogram(np.array([0, 80])), table)
        assert np.allclose(est.values, [0.0, 1.0])

    def test_all_zero_correction_errors(self):
        from prioradapt.estimators import PrecisionRecallTable

        table = PrecisionRecallTable(
            precision=np.array([0.0, 0.0]),
            recall=np.array([0.5, 0.5]),
            undefined=np.ones(2, dtype=bool),
        )
        with pytest.raises(InsufficientDataError):
            estimate_precision_recall(DecisionHistogram(np.array([10, 10])), table)


class TestEstimateMatrixInverse:
    def test_identity_mixing(self):
        est = estimate_matrix_inverse(conf_from(np.eye(3)), np.array([0.5, 0.3, 0.2]))
        assert np.allclose(est.values, [0.5, 0.3, 0.2], atol=1e-12)
        assert est.method == "matrix_inverse"

    def test_symmetric_forward_oracle(self):
        conf = conf_from([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        est = estimate_matrix_inverse(conf, np.array([0.59, 0.24, 0.17]))
        assert np.allclose(est.values, [0.7, 0.2, 0.1], atol=1e-10)
        assert est.diagnostics.clipped_mass == pytest.approx(0.0, abs=1e-12)

    def test_clip_then_normalize(self):
        # Hand Cramer's rule: raw solution (1.1, -0.1), clipped to (1.1, 0),
        # normalized to (1, 0).
        conf = conf_from([[0.9, 0.1], [0.4, 0.6]])
        est = estimate_matrix_inverse(conf, np.array([0.95, 0.05]))
        assert np.allclose(est.values, [1.0, 0.0], atol=1e-12)
        assert est.diagnostics.clipped_mass == pytest.approx(0.1, abs=1e-9)
        assert est.diagnostics.residual is not None and est.diagnostics.residual > 0

    def test_counts_input(self):
        conf = conf_from([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]])
        est = estimate_matrix_inverse(conf, DecisionHistogram(np.array([59, 24, 17])))
        assert np.allclose(est.values, [0.7, 0.2, 0.1], atol=1e-10)

    def test_ill_conditioned_raises(self):
        conf = conf_from([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(IllConditionedError):
            estimate_matrix_inverse(conf, np.array([0.6, 0.4]))

    def test_ill_conditioned_raises_again_from_the_cached_condition(self):
        conf = conf_from([[0.5, 0.5], [0.5 + 1e-14, 0.5 - 1e-14]])
        for _ in range(2):
            with pytest.raises(IllConditionedError, match="condition number"):
                estimate_matrix_inverse(conf, np.array([0.6, 0.4]))

    def test_repeated_estimates_invert_h_once(self, monkeypatch):
        inverted = []
        inv = np.linalg.inv

        def counting(a):
            inverted.append(a)
            return inv(a)

        monkeypatch.setattr(np.linalg, "inv", counting)
        rng = np.random.default_rng(33)
        conf = random_confusion(6, rng)
        for _ in range(3):
            estimate_matrix_inverse(conf, random_simplex(6, rng))
        assert len(inverted) == 1
        assert np.array_equal(inverted[0], conf.mixing_matrix())

    def test_residual_is_taken_on_the_c_ordered_mixing_matrix(self):
        rng = np.random.default_rng(34)
        for k in (3, 36, 200):
            conf = random_confusion(k, rng)
            c = random_simplex(k, rng)
            est = estimate_matrix_inverse(conf, c)
            expected = float(np.linalg.norm(conf.mixing_matrix() @ est.values - c))
            assert est.diagnostics.residual == expected


class TestEstimateQp:
    def test_identity_projection(self):
        est = estimate_qp(conf_from(np.eye(3)), np.array([0.2, 0.3, 0.5]))
        assert np.allclose(est.values, [0.2, 0.3, 0.5], atol=1e-12)
        assert est.method == "quadratic_program"
        assert est.diagnostics.iterations is not None

    def test_consistent_forward_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            k = int(rng.integers(3, 30))
            conf = random_confusion(k, rng)
            v_true = random_simplex(k, rng)
            c = conf.mixing_matrix() @ v_true
            est = estimate_qp(conf, c)
            assert np.max(np.abs(est.values - v_true)) <= 1e-12
            assert est.diagnostics.converged
            assert est.diagnostics.kkt_violation <= 1e-12

    def test_infeasible_case_matches_line_search(self):
        conf = conf_from([[0.9, 0.1], [0.4, 0.6]])
        est = estimate_qp(conf, np.array([0.95, 0.05]))
        assert np.allclose(est.values, [1.0, 0.0], atol=1e-9)

    def test_second_estimate_reuses_cached_gram(self, monkeypatch):
        built = []
        build = Gram.of

        def counting(h):
            built.append(h)
            return build(h)

        monkeypatch.setattr(Gram, "of", counting)
        rng = np.random.default_rng(32)
        conf = random_confusion(6, rng)
        first = estimate_qp(conf, random_simplex(6, rng))
        second = estimate_qp(conf, random_simplex(6, rng))
        assert len(built) == 1
        assert np.shares_memory(built[0], conf.rows)  # H is a view, not a copy
        assert first.diagnostics.converged and second.diagnostics.converged

    def test_singular_confusion_still_solves(self):
        conf = conf_from([[0.5, 0.5], [0.5, 0.5]])
        est = estimate_qp(conf, np.array([0.6, 0.4]))
        assert abs(est.values.sum() - 1.0) <= 1e-9


class TestEstimateGroundTruth:
    def test_passthrough(self):
        est = estimate_ground_truth(np.array([0.2, 0.8]))
        assert np.allclose(est.values, [0.2, 0.8])
        assert est.method == "ground_truth"

    def test_uniform(self):
        est = estimate_ground_truth(np.array([0.25] * 4))
        assert np.allclose(est.values, 0.25)

    def test_off_simplex_rejected(self):
        with pytest.raises(ValidationError):
            estimate_ground_truth(np.array([0.5, 0.6]))


class TestCrossCuttingProperties:
    def test_all_outputs_on_simplex(self):
        rng = np.random.default_rng(77)
        for _ in range(30):
            k = int(rng.integers(2, 15))
            conf = random_confusion(k, rng)
            counts = rng.multinomial(200, conf.mixing_matrix() @ random_simplex(k, rng))
            hist = DecisionHistogram(counts)
            table = precision_recall(conf)
            for est in (
                estimate_naive(hist),
                estimate_precision_recall(hist, table),
                estimate_matrix_inverse(conf, hist),
                estimate_qp(conf, hist),
            ):
                assert np.all(est.values >= 0.0)
                assert np.all(est.values <= 1.0)
                assert abs(est.values.sum() - 1.0) <= 1e-9

    def test_consistency_naive_only_for_identity(self):
        rng = np.random.default_rng(78)
        v_true = np.array([0.6, 0.3, 0.1])

        # Identity mixing: decision frequencies ARE the priors.
        ident = conf_from(np.eye(3))
        c = ident.mixing_matrix() @ v_true
        assert np.allclose(estimate_naive(c).values, v_true, atol=1e-12)

        # Non-trivial mixing: naive is biased, model-based routes are not.
        conf = random_confusion(3, rng, 0.6, 0.8)
        c = conf.mixing_matrix() @ v_true
        assert np.max(np.abs(estimate_naive(c).values - v_true)) > 1e-3
        assert np.allclose(estimate_matrix_inverse(conf, c).values, v_true, atol=1e-6)
        assert np.allclose(estimate_qp(conf, c).values, v_true, atol=1e-12)

    def test_qp_residual_never_worse_than_clipped_inverse(self):
        rng = np.random.default_rng(79)
        checked = 0
        for _ in range(100):
            k = int(rng.integers(2, 8))
            conf = random_confusion(k, rng)
            v = np.zeros(k)
            active = rng.permutation(k)[: rng.integers(1, k + 1)]
            v[active] = random_simplex(active.size, rng)
            counts = rng.multinomial(300, conf.mixing_matrix() @ v)
            hist = DecisionHistogram(counts)
            try:
                inverse = estimate_matrix_inverse(conf, hist)
            except IllConditionedError:
                continue
            qp = estimate_qp(conf, hist)
            assert qp.diagnostics.residual <= inverse.diagnostics.residual + 1e-10
            checked += 1
        assert checked > 80

    def test_reduction_to_naive_is_exact(self):
        rng = np.random.default_rng(80)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            counts = rng.integers(0, 500, size=k)
            counts[rng.integers(0, k)] += 1
            hist = DecisionHistogram(counts)
            from prioradapt.estimators import PrecisionRecallTable

            shared = rng.uniform(0.1, 1.0, k)
            table = PrecisionRecallTable(
                precision=shared, recall=shared.copy(), undefined=np.zeros(k, dtype=bool)
            )
            est = estimate_precision_recall(hist, table)
            assert np.array_equal(est.values, estimate_naive(hist).values)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(81)
        for _ in range(10):
            k = int(rng.integers(3, 9))
            conf = random_confusion(k, rng)
            counts = rng.multinomial(400, conf.mixing_matrix() @ random_simplex(k, rng))
            hist = DecisionHistogram(counts)
            table = precision_recall(conf)

            perm = rng.permutation(k)
            perm_conf = ConfusionMatrix(
                make_catalog(k), conf.rows[np.ix_(perm, perm)]
            )
            perm_hist = DecisionHistogram(counts[perm])
            perm_table = precision_recall(perm_conf)

            pairs = [
                (estimate_naive(hist), estimate_naive(perm_hist)),
                (
                    estimate_precision_recall(hist, table),
                    estimate_precision_recall(perm_hist, perm_table),
                ),
                (
                    estimate_matrix_inverse(conf, hist),
                    estimate_matrix_inverse(perm_conf, perm_hist),
                ),
                (
                    estimate_qp(conf, hist),
                    estimate_qp(perm_conf, perm_hist),
                ),
            ]
            for original, permuted in pairs:
                assert np.allclose(original.values[perm], permuted.values, atol=1e-7)
