"""Tests of the benchmark's own generator and output checks.

Run with ``python3 -m pytest bench/selftest.py`` or ``python3 bench/selftest.py``.
The outputs checked here are written by numpy reference code, never by
prioradapt, and then corrupted one way at a time.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _reweight_output(path, labels, scores, in_force):
    """Write what ``reweight`` should print for the given priors in force per row."""
    products = in_force * scores
    baseline = np.argmax(scores, axis=1)
    adapted, _ = checks.adapted_decisions(products, baseline)
    totals = products.sum(axis=1, keepdims=True)
    norm = products / totals
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write("baseline,adapted," + ",".join(f"raw_{l}" for l in labels) + ","
                 + ",".join(f"norm_{l}" for l in labels) + "\n")
        for b, a, raw, nrm in zip(baseline, adapted, products, norm):
            fp.write(f"{b},{a}," + ",".join(map(_fmt, raw)) + "," + ",".join(map(_fmt, nrm)) + "\n")


def _static_case(tmp, k=5, n=60):
    rng = np.random.default_rng(3)
    labels = gen.class_labels(k)
    conf = gen.confusion_rows(rng, k)
    priors = gen.sparse_priors(rng, k, 3)
    truth, decisions = gen.draw_stream(rng, conf, [(n, priors)])
    scores = gen.draw_scores(rng, truth, decisions, k)
    out = os.path.join(tmp, "static.csv")
    _reweight_output(out, labels, scores, np.broadcast_to(priors / priors.sum(), scores.shape))
    return out, labels, scores, truth, priors


def _rewrite_cell(path, row, col, transform):
    with open(path, encoding="utf-8") as fp:
        lines = fp.read().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = transform(cells[col])
    lines[row + 1] = ",".join(cells)
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write("\n".join(lines) + "\n")


def test_generator_is_byte_deterministic_per_seed():
    w = run.ReweightStatic()
    digests = []
    with tempfile.TemporaryDirectory() as tmp:
        for seed in (5, 5, 6):
            vdir = os.path.join(tmp, str(len(digests)))
            os.makedirs(vdir)
            w.build(np.random.default_rng(seed), vdir)
            h = hashlib.sha256()
            for name in sorted(os.listdir(vdir)):
                with open(os.path.join(vdir, name), "rb") as fp:
                    h.update(fp.read())
            digests.append(h.hexdigest())
    assert digests[0] == digests[1]
    assert digests[0] != digests[2]


def test_generated_scores_decide_as_drawn():
    rng = np.random.default_rng(0)
    conf = gen.confusion_rows(rng, 50)
    assert np.allclose(conf.sum(axis=1), 1.0)
    assert np.all(np.diag(conf) >= gen.DIAGONAL_RANGE[0])
    truth, decisions = gen.draw_stream(rng, conf, [(300, gen.sparse_priors(rng, 50, 5))])
    scores = gen.draw_scores(rng, truth, decisions, 50)
    assert np.array_equal(np.argmax(scores, axis=1), decisions)
    assert np.allclose(scores.sum(axis=1), 1.0)


def test_reweight_check_accepts_reference_and_rejects_corruption():
    with tempfile.TemporaryDirectory() as tmp:
        out, labels, scores, truth, priors = _static_case(tmp)
        k = len(labels)
        assert checks.check_reweight(out, labels, scores, truth, priors=priors).failed == 0

        flipped = lambda cell: str((int(cell) + 1) % k)  # noqa: E731
        _rewrite_cell(out, 7, 1, flipped)
        assert checks.check_reweight(out, labels, scores, truth, priors=priors).failed == 1

        _, labels, scores, truth, priors = _static_case(tmp)
        target = 2 + int(np.argmax(priors))
        _rewrite_cell(out, 11, target, lambda cell: _fmt(float(cell) * (1 + 1e-9)))
        assert checks.check_reweight(out, labels, scores, truth, priors=priors).failed == 1


def _live_case(tmp, k=6, n=40, cadence=10, window=20):
    rng = np.random.default_rng(8)
    labels = gen.class_labels(k)
    conf = gen.confusion_rows(rng, k)
    priors = gen.sparse_priors(rng, k, 3)
    truth, decisions = gen.draw_stream(rng, conf, [(n, priors)])
    scores = gen.draw_scores(rng, truth, decisions, k)
    in_force = np.full((n, k), 1.0 / k)
    for r in range(cadence, n, cadence):
        c = checks.window_mix(decisions[max(0, r - window):r], k)
        in_force[r:] = checks.simplex_lsq_reference(conf.T, c)
    out = os.path.join(tmp, "live.csv")
    _reweight_output(out, labels, scores, in_force)
    args = dict(confusion=conf, cadence=cadence, window=window, gap_points=3,
                generating=np.broadcast_to(priors, (n, k)))
    return out, labels, scores, truth, in_force, args


def test_live_check_rejects_off_cadence_change_and_non_optimal_priors():
    with tempfile.TemporaryDirectory() as tmp:
        out, labels, scores, truth, in_force, args = _live_case(tmp)
        assert checks.check_reweight(out, labels, scores, truth, **args).failed == 0

        shifted = in_force.copy()
        shifted[15:] = shifted[25]  # changes at row 15, off the cadence of 10
        _reweight_output(out, labels, scores, shifted)
        assert checks.check_reweight(out, labels, scores, truth, **args).failed > 0

        uniform = np.full_like(in_force, 1.0 / len(labels))
        _reweight_output(out, labels, scores, uniform)
        verdict = checks.check_reweight(out, labels, scores, truth, **args)
        assert verdict.failed > 0 and verdict.objective_gap_max > checks.QP_GAP_ATOL


def _estimate_case(tmp, k=8, n=4000, window=1500):
    rng = np.random.default_rng(11)
    labels = gen.class_labels(k)
    conf = gen.confusion_rows(rng, k)
    truth, decisions = gen.draw_stream(rng, conf, [(n, gen.sparse_priors(rng, k, 4))])
    counts = np.bincount(decisions[-window:], minlength=k)
    c = counts / window
    corrected = np.diag(conf) / conf.sum(axis=0) / np.diag(conf) * counts
    direct = np.maximum(np.linalg.solve(conf.T, c), 0.0)
    methods = {
        "naive": c,
        "precision_recall": corrected / corrected.sum(),
        "matrix_inverse": direct / direct.sum(),
        "quadratic_program": checks.simplex_lsq_reference(conf.T, c),
    }
    doc = {
        "labels": labels,
        "methods": {m: {"priors": dict(zip(labels, v.tolist()))} for m, v in methods.items()},
        "total_decisions": window,
    }
    out = os.path.join(tmp, "estimate.json")
    return out, doc, (out, labels, conf, decisions, truth, window)


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp)


def test_estimate_check_rejects_wrong_naive_and_non_optimal_qp():
    with tempfile.TemporaryDirectory() as tmp:
        out, doc, args = _estimate_case(tmp)
        _write_json(out, doc)
        assert checks.check_estimate(*args).failed == 0

        naive = doc["methods"]["naive"]["priors"]
        first = next(iter(naive))
        naive[first] = np.nextafter(naive[first], 1.0)
        _write_json(out, doc)
        assert checks.check_estimate(*args).failed == len(args[3])

        out, doc, args = _estimate_case(tmp)
        qp = doc["methods"]["quadratic_program"]["priors"]
        top, low = max(qp, key=qp.get), min(qp, key=qp.get)
        moved = 0.01 * qp[top]
        qp[top] -= moved
        qp[low] += moved
        _write_json(out, doc)
        verdict = checks.check_estimate(*args)
        assert verdict.failed == len(args[3])
        assert verdict.objective_gap_max > checks.QP_GAP_ATOL


def _evaluate_doc(folds):
    rows, best = [], {}
    for s, scenario in enumerate(checks.SUITE_SCENARIOS):
        for m, method in enumerate(checks.SUITE_METHODS):
            l1 = {"baseline": checks.SUITE_BASELINE_L1, "ground_truth": 0.0}.get(method, 0.1)
            rows.append({"scenario": scenario, "method": method, "accuracy_mean": 0.5 + 0.01 * m,
                         "accuracy_std": 0.01, "folds": folds, "prior_l1_error": l1, "error": None})
        best[scenario] = "quadratic_program"
    return {"scenarios": list(checks.SUITE_SCENARIOS), "best": best, "rows": rows}


def test_evaluate_check_rejects_errors_and_missing_rows():
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "evaluate.json")
        doc = _evaluate_doc(4)
        _write_json(out, doc)
        assert checks.check_evaluate(out, 4).failed == 0

        doc["rows"][8]["error"] = "ConvergenceError: no convergence"
        _write_json(out, doc)
        assert checks.check_evaluate(out, 4).failed == 4

        doc = _evaluate_doc(4)
        del doc["rows"][0]
        _write_json(out, doc)
        assert checks.check_evaluate(out, 4).failed == 48


if __name__ == "__main__":
    tests = [obj for name, obj in sorted(globals().items()) if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
