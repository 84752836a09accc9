"""Test-time class-prior estimation and decision re-weighting.

A deployed classifier rarely sees the balanced class mixture it was
trained on.  This package estimates the actual deployment priors from the
classifier's own decision stream, in four ways of increasing fidelity
(raw decision frequency, precision/recall correction, direct inversion of
the confusion-matrix model, and least squares over the probability
simplex), then re-weights posterior scores with the estimate so that the
argmax decision reflects the deployment mixture.  No retraining involved.
"""

import importlib

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "core": (
        "ClassCatalog",
        "ConfusionMatrix",
        "DecisionHistogram",
        "EstimatorDiagnostics",
        "PriorEstimate",
        "ScoreRecord",
        "decide_adapted",
        "decide_baseline",
        "reweight",
        "reweight_normalized",
        "uniform_estimate",
    ),
    "errors": (
        "ConvergenceError",
        "DegenerateRecallError",
        "DimensionError",
        "IllConditionedError",
        "IllConditionedWarning",
        "InsufficientDataError",
        "ParseError",
        "PriorAdaptError",
        "SingularMatrixError",
        "ValidationError",
    ),
    "estimators": (
        "PrecisionRecallTable",
        "estimate_ground_truth",
        "estimate_matrix_inverse",
        "estimate_naive",
        "estimate_precision_recall",
        "estimate_qp",
        "precision_recall",
    ),
    "harness": (
        "DriftSegment",
        "EvaluationRow",
        "ScenarioSpec",
        "Suite",
        "SyntheticClassifier",
        "cross_validate",
        "default_suite",
        "estimate_confusion",
        "evaluate_suite",
        "generate_record",
        "run_drift_scenario",
        "simulate_stream",
    ),
    "monitor": ("StreamMonitor",),
    "solver": (
        "Gram",
        "SolveReport",
        "condition_estimate",
        "kkt_violation",
        "project_simplex",
        "solve_linear",
        "solve_simplex_lsq",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # PEP 562: a public name loads its submodule on first use, so that
    # ``import prioradapt`` loads no numpy and ``python -m prioradapt``
    # reaches ``cli`` before numpy does (see the ``cli`` docstring).
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
