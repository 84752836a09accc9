"""Test-time class-prior estimation and decision re-weighting.

A deployed classifier rarely sees the balanced class mixture it was
trained on.  This package estimates the actual deployment priors from the
classifier's own decision stream, in four ways of increasing fidelity
(raw decision frequency, precision/recall correction, direct inversion of
the confusion-matrix model, and least squares over the probability
simplex), then re-weights posterior scores with the estimate so that the
argmax decision reflects the deployment mixture.  No retraining involved.
"""

from .core import (
    AdaptedPolicy,
    ClassCatalog,
    ConfusionMatrix,
    DecisionHistogram,
    EstimatorDiagnostics,
    PriorEstimate,
    ScoreRecord,
    decide_adapted,
    decide_baseline,
    reweight,
    reweight_normalized,
    uniform_estimate,
)
from .errors import (
    ConvergenceError,
    DegenerateRecallError,
    DimensionError,
    IllConditionedError,
    IllConditionedWarning,
    InsufficientDataError,
    ParseError,
    PriorAdaptError,
    SingularMatrixError,
    ValidationError,
)
from .estimators import (
    PrecisionRecallTable,
    estimate_ground_truth,
    estimate_matrix_inverse,
    estimate_naive,
    estimate_precision_recall,
    estimate_qp,
    precision_recall,
)
from .harness import (
    DriftSegment,
    EvaluationRow,
    ScenarioSpec,
    Suite,
    SyntheticClassifier,
    cross_validate,
    default_suite,
    estimate_confusion,
    evaluate_suite,
    generate_record,
    run_drift_scenario,
    simulate_stream,
)
from .monitor import StreamMonitor
from .solver import (
    Gram,
    SolveReport,
    condition_estimate,
    kkt_violation,
    project_simplex,
    solve_linear,
    solve_simplex_lsq,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptedPolicy",
    "ClassCatalog",
    "ConfusionMatrix",
    "ConvergenceError",
    "DecisionHistogram",
    "DegenerateRecallError",
    "DimensionError",
    "DriftSegment",
    "EstimatorDiagnostics",
    "EvaluationRow",
    "Gram",
    "IllConditionedError",
    "IllConditionedWarning",
    "InsufficientDataError",
    "ParseError",
    "PrecisionRecallTable",
    "PriorAdaptError",
    "PriorEstimate",
    "ScenarioSpec",
    "ScoreRecord",
    "SingularMatrixError",
    "SolveReport",
    "StreamMonitor",
    "Suite",
    "SyntheticClassifier",
    "ValidationError",
    "condition_estimate",
    "cross_validate",
    "decide_adapted",
    "decide_baseline",
    "default_suite",
    "estimate_confusion",
    "estimate_ground_truth",
    "estimate_matrix_inverse",
    "estimate_naive",
    "estimate_precision_recall",
    "estimate_qp",
    "evaluate_suite",
    "generate_record",
    "kkt_violation",
    "precision_recall",
    "project_simplex",
    "reweight",
    "reweight_normalized",
    "run_drift_scenario",
    "simulate_stream",
    "solve_linear",
    "solve_simplex_lsq",
    "uniform_estimate",
]
