"""Independent checks of the CLI's outputs (numpy and scipy only).

Nothing here imports ``prioradapt``: every expected value is recomputed
from the generated inputs.  Each check returns a :class:`Verdict` holding a
per-item failure count, so a partially wrong output fails only the items it
got wrong, plus the quality figures the benchmark reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

#: Relative agreement required of re-weighted products and normalized columns.
PRODUCT_RTOL = 1e-12
#: A QP estimate may exceed the reference objective by this much (absolute,
#: squared-residual units) plus QP_GAP_RTOL of the reference objective.
QP_GAP_ATOL = 1e-8
QP_GAP_RTOL = 1e-6
#: Weight of the unit-sum row appended to H for the NNLS reference.
NNLS_SUM_WEIGHT = 1e4


@dataclass
class Verdict:
    items: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    accuracy_gain_pts: float = float("nan")
    prior_l1_error: float = float("nan")
    objective_gap_max: float = float("nan")

    def fail(self, count: int, message: str) -> None:
        self.failed = min(self.items, self.failed + int(count))
        if len(self.problems) < 5:
            self.problems.append(message)


def parse_csv_floats(text: str, columns: int) -> np.ndarray:
    """Parse a header-less, all-numeric CSV body into an (n, columns) array."""
    body = text.strip("\n")
    if not body:
        return np.empty((0, columns))
    values = np.array(body.replace("\n", ",").split(","), dtype=np.float64)
    if values.size % columns:
        raise ValueError(f"{values.size} cells do not fill rows of {columns}")
    return values.reshape(-1, columns)


def read_confusion(path: str) -> np.ndarray:
    """Row-normalized confusion rows from a confusion CSV."""
    with open(path, encoding="utf-8") as fp:
        header = fp.readline().rstrip("\n").split(",")
        rows = parse_csv_floats(fp.read(), len(header))
    return rows / rows.sum(axis=1, keepdims=True)


def adapted_decisions(products: np.ndarray, baseline: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Argmax of the products (lowest index on ties), or baseline where all are zero."""
    fallback = ~np.any(products > 0.0, axis=1)
    return np.where(fallback, baseline, np.argmax(products, axis=1)), fallback


def _close(actual: np.ndarray, expected: np.ndarray, rtol: float) -> np.ndarray:
    """Row mask of elementwise relative agreement (exact zeros must match)."""
    return np.all(np.abs(actual - expected) <= rtol * np.abs(expected), axis=1)


def qp_objective(h: np.ndarray, c: np.ndarray, v: np.ndarray) -> float:
    r = h @ v - c
    return float(r @ r)


def simplex_lsq_reference(h: np.ndarray, c: np.ndarray) -> np.ndarray:
    """min ||Hv - c||^2 over the simplex via NNLS on [H; w 1^T] v = [c; w]."""
    k = h.shape[1]
    a = np.vstack([h, np.full((1, k), NNLS_SUM_WEIGHT)])
    b = np.concatenate([c, [NNLS_SUM_WEIGHT]])
    v, _ = scipy.optimize.nnls(a, b, maxiter=50 * k)
    return v / v.sum()


def qp_gap(h: np.ndarray, c: np.ndarray, v: np.ndarray) -> tuple[float, bool]:
    """Objective excess of ``v`` over the NNLS reference, and whether it is acceptable."""
    ref = qp_objective(h, c, simplex_lsq_reference(h, c))
    gap = qp_objective(h, c, v) - ref
    feasible = bool(np.all(v >= 0.0) and abs(v.sum() - 1.0) <= 1e-9)
    return gap, feasible and gap <= QP_GAP_ATOL + QP_GAP_RTOL * ref


def window_mix(labels: np.ndarray, k: int) -> np.ndarray:
    return np.bincount(labels, minlength=k) / labels.size


# ---------------------------------------------------------------------------
# reweight
# ---------------------------------------------------------------------------

def read_reweight_output(path: str, k: int) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fp:
        header = fp.readline().rstrip("\n").split(",")
        return header, parse_csv_floats(fp.read(), 2 + 2 * k)


def check_reweight(
    out_path: str,
    labels: list[str],
    scores: np.ndarray,
    truth: np.ndarray,
    priors: np.ndarray | None = None,
    confusion: np.ndarray | None = None,
    cadence: int | None = None,
    window: int | None = None,
    generating: np.ndarray | None = None,
    block: int = 500,
    gap_points: int = 4,
) -> Verdict:
    """Check a ``reweight`` output row by row.

    Static mode passes ``priors``.  Live mode passes ``confusion``,
    ``cadence``, ``window`` and the ``generating`` priors of each row: the
    priors in force are recovered as raw/score, may change only at multiples
    of the cadence, start uniform, and at ``gap_points`` evenly spaced
    re-estimations must solve the simplex least-squares problem on the
    checker's own windowed histogram.

    The prior error is, live, the mean L1 distance between the priors put in
    force at each re-estimation and the priors generating that row.  Static
    priors are the generating ones, so there it is the sampling floor: the
    mean L1 distance between them and the label mix of each ``block`` rows.
    """
    n, k = scores.shape
    verdict = Verdict(items=n)
    try:
        header, out = read_reweight_output(out_path, k)
    except (OSError, ValueError) as exc:
        verdict.fail(n, f"unreadable output: {exc}")
        return verdict
    want = ["baseline", "adapted"] + [f"raw_{l}" for l in labels] + [f"norm_{l}" for l in labels]
    if header != want:
        verdict.fail(n, "header mismatch")
        return verdict
    if out.shape[0] != n:
        verdict.fail(n, f"expected {n} rows, got {out.shape[0]}")
        return verdict

    baseline_out, adapted_out = out[:, 0], out[:, 1]
    raw, norm = out[:, 2:2 + k], out[:, 2 + k:]
    baseline = np.argmax(scores, axis=1)  # numpy breaks ties toward the lowest index
    ok = baseline_out == baseline

    if priors is not None:
        in_force = np.broadcast_to(priors / priors.sum(), (n, k))
    else:
        in_force, cadence_ok = _recover_live_priors(raw, scores, cadence, verdict)
        ok &= cadence_ok

    products = in_force * scores
    adapted, _ = adapted_decisions(products, baseline)
    totals = products.sum(axis=1, keepdims=True)
    expected_norm = np.where(totals > 0.0, products / np.where(totals > 0.0, totals, 1.0), products)
    ok &= adapted_out == adapted
    ok &= _close(raw, products, PRODUCT_RTOL)
    ok &= _close(norm, expected_norm, PRODUCT_RTOL)
    bad = int(np.count_nonzero(~ok))
    if bad:
        first = int(np.nonzero(~ok)[0][0])
        verdict.fail(bad, f"{bad} rows disagree with the reference, first at data row {first}")

    verdict.accuracy_gain_pts = 100.0 * (np.mean(adapted == truth) - np.mean(baseline == truth))

    if priors is not None:
        block = min(block, n)
        starts = range(block, n + 1, block)
        verdict.prior_l1_error = float(np.mean([
            np.abs(in_force[0] - window_mix(truth[s - block:s], k)).sum() for s in starts
        ]))
        return verdict

    points = range(cadence, n, cadence)
    verdict.prior_l1_error = float(np.mean([np.abs(in_force[r] - generating[r]).sum() for r in points]))
    h = confusion.T
    picks = sorted({points[int(i)] for i in np.linspace(0, len(points) - 1, gap_points)})
    gaps = []
    for r in picks:
        c = window_mix(baseline[max(0, r - window):r], k)
        gap, acceptable = qp_gap(h, c, in_force[r])
        gaps.append(gap)
        if not acceptable:
            verdict.fail(cadence, f"priors estimated at row {r} miss the QP optimum by {gap:.3e}")
    verdict.objective_gap_max = max(gaps)
    return verdict


def _recover_live_priors(
    raw: np.ndarray,
    scores: np.ndarray,
    cadence: int,
    verdict: Verdict,
) -> tuple[np.ndarray, np.ndarray]:
    """Block-constant priors in force, and a row mask of cadence compliance.

    Each block of ``cadence`` rows takes the priors recovered from its first
    row; a later row whose own raw/score differs from them, or a first block
    that is not uniform, fails.
    """
    n, k = scores.shape
    with np.errstate(divide="ignore", invalid="ignore"):
        recovered = np.where(scores > 0.0, raw / scores, np.nan)
    starts = np.arange(0, n, cadence)
    block_priors = recovered[starts]
    in_force = np.repeat(block_priors, cadence, axis=0)[:n]
    usable = ~np.isnan(recovered)
    drift = np.abs(recovered - in_force) > 1e-12 * np.abs(in_force)
    ok = ~np.any(drift & usable, axis=1)
    if not np.all(np.isclose(block_priors[0], 1.0 / k, rtol=1e-12, atol=0.0)):
        verdict.fail(min(cadence, n), "priors in the first block are not uniform")
    off_simplex = np.abs(np.nansum(block_priors, axis=1) - 1.0) > 1e-9
    if np.any(off_simplex):
        verdict.fail(cadence * int(np.count_nonzero(off_simplex)), "priors in force leave the simplex")
    return np.nan_to_num(in_force), ok


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def check_estimate(
    out_path: str,
    labels: list[str],
    confusion: np.ndarray,
    decisions: np.ndarray,
    truth: np.ndarray,
    window: int,
) -> Verdict:
    """Check an ``estimate --method all --window W`` priors document.

    Every decision line is one item; any wrong method fails them all.
    """
    verdict = Verdict(items=decisions.size)
    k = len(labels)
    try:
        with open(out_path, encoding="utf-8") as fp:
            doc = json.load(fp)
        methods = doc["methods"]
        estimates = {
            name: np.array([methods[name]["priors"][l] for l in labels])
            for name in ("naive", "precision_recall", "matrix_inverse", "quadratic_program")
        }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        verdict.fail(verdict.items, f"unreadable priors document: {exc}")
        return verdict
    if doc.get("labels") != labels or doc.get("total_decisions") != window:
        verdict.fail(verdict.items, "labels or total_decisions mismatch")

    counts = np.bincount(decisions[-window:], minlength=k)
    c = counts / window
    if not np.array_equal(estimates["naive"], c):
        verdict.fail(verdict.items, "naive priors differ from the window's bincount")

    recall = np.diag(confusion)
    precision = recall / confusion.sum(axis=0)
    active = counts > 0
    corrected = np.where(active, precision / recall * counts, 0.0)
    if not np.allclose(estimates["precision_recall"], corrected / corrected.sum(), rtol=1e-10, atol=1e-15):
        verdict.fail(verdict.items, "precision/recall priors differ from the reference")

    h = confusion.T
    direct = np.maximum(np.linalg.solve(h, c), 0.0)
    if not np.allclose(estimates["matrix_inverse"], direct / direct.sum(), rtol=1e-8, atol=1e-12):
        verdict.fail(verdict.items, "matrix-inverse priors differ from the reference")

    qp = estimates["quadratic_program"]
    verdict.objective_gap_max, acceptable = qp_gap(h, c, qp)
    if not acceptable:
        verdict.fail(verdict.items, f"QP priors miss the optimum by {verdict.objective_gap_max:.3e}")

    # Decisions-only adaptation: re-decide each window decision d as the
    # class j maximizing qp_j * P(decide d | true j).
    d, y = decisions[-window:], truth[-window:]
    redecide = np.argmax(qp[:, None] * confusion, axis=0)
    verdict.accuracy_gain_pts = 100.0 * (np.mean(redecide[d] == y) - np.mean(d == y))
    verdict.prior_l1_error = float(np.abs(qp - window_mix(y, k)).sum())
    return verdict


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

SUITE_SCENARIOS = tuple(f"context-{s:02d}" for s in range(12))
SUITE_METHODS = (
    "baseline", "naive", "precision_recall", "matrix_inverse", "quadratic_program", "ground_truth",
)
BOLDABLE = SUITE_METHODS[1:5]
#: L1 distance from the uniform 1/36 prior to a uniform prior on 3 classes.
SUITE_BASELINE_L1 = 3 * (1 / 3 - 1 / 36) + 33 / 36


def check_evaluate(out_path: str, folds: int) -> Verdict:
    """Check ``--format json evaluate`` on the built-in suite.

    Items are scenario-folds; a scenario with any bad row fails its folds.
    """
    verdict = Verdict(items=len(SUITE_SCENARIOS) * folds)
    try:
        with open(out_path, encoding="utf-8") as fp:
            doc = json.load(fp)
        rows = {(r["scenario"], r["method"]): r for r in doc["rows"]}
        best = doc["best"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        verdict.fail(verdict.items, f"unreadable evaluation document: {exc}")
        return verdict
    if len(doc["rows"]) != len(SUITE_SCENARIOS) * len(SUITE_METHODS):
        verdict.fail(verdict.items, f"expected 72 rows, got {len(doc['rows'])}")
        return verdict
    gains, l1 = [], []
    for scenario in SUITE_SCENARIOS:
        problem = _scenario_problem(rows, best, scenario, folds)
        if problem:
            verdict.fail(folds, f"{scenario}: {problem}")
            continue
        qp = rows[(scenario, "quadratic_program")]
        gains.append(100.0 * (qp["accuracy_mean"] - rows[(scenario, "baseline")]["accuracy_mean"]))
        l1.append(qp["prior_l1_error"])
    if gains:
        verdict.accuracy_gain_pts = float(np.mean(gains))
        verdict.prior_l1_error = float(np.mean(l1))
    return verdict


def _scenario_problem(rows: dict, best: dict, scenario: str, folds: int) -> str | None:
    for method in SUITE_METHODS:
        row = rows.get((scenario, method))
        if row is None:
            return f"missing {method} row"
        if row["error"] is not None:
            return f"{method} reports {row['error']}"
        if row["folds"] != folds:
            return f"{method} ran {row['folds']} folds"
        if not (0.0 <= row["accuracy_mean"] <= 1.0 and row["accuracy_std"] >= 0.0):
            return f"{method} accuracy out of range"
    if rows[(scenario, "ground_truth")]["prior_l1_error"] != 0.0:
        return "ground-truth prior error is not zero"
    if not np.isclose(rows[(scenario, "baseline")]["prior_l1_error"], SUITE_BASELINE_L1, rtol=1e-12):
        return "baseline prior error is not the uniform prior's"
    accuracies = [rows[(scenario, m)]["accuracy_mean"] for m in BOLDABLE]
    if best.get(scenario) != BOLDABLE[int(np.argmax(accuracies))]:
        return "best-method marker disagrees"
    return None
