"""Seeded input generator for the benchmark.

Uses numpy only and never imports ``prioradapt``, so a change to the
package's own synthetic generator cannot change what the benchmark feeds
it.  The score model mirrors the paper's setting: a classifier trained on
balanced data with a diagonally dominant confusion matrix, deployed on a
stream whose class mixture is skewed and may switch partway through.

Every function takes a ``numpy.random.Generator``; the same seed gives
byte-identical files.
"""

from __future__ import annotations

import json

import numpy as np

DIAGONAL_RANGE = (0.65, 0.85)
SHARPNESS = 25.0
#: Extra weight on the true class of a misclassified sample.  Real softmax
#: outputs keep evidence for the true class when they err; that evidence is
#: what re-weighting by the right priors recovers.
TRUE_CLASS_EVIDENCE = 12.5


def class_labels(k: int) -> list[str]:
    width = len(str(k - 1))
    return [f"c{i:0{width}d}" for i in range(k)]


def confusion_rows(rng: np.random.Generator, k: int) -> np.ndarray:
    """Row-stochastic K x K matrix with each diagonal in DIAGONAL_RANGE."""
    diag = rng.uniform(*DIAGONAL_RANGE, k)
    spread = rng.dirichlet(np.ones(k - 1), size=k) * (1.0 - diag)[:, None]
    rows = np.empty((k, k))
    off = ~np.eye(k, dtype=bool)
    rows[off] = spread.ravel()
    rows[np.arange(k), np.arange(k)] = diag
    return rows


def sparse_priors(rng: np.random.Generator, k: int, active: int) -> np.ndarray:
    """A prior vector with mass on ``active`` random classes only."""
    priors = np.zeros(k)
    support = rng.choice(k, size=active, replace=False)
    priors[support] = rng.dirichlet(np.full(active, 5.0))
    return priors


def draw_stream(
    rng: np.random.Generator,
    rows: np.ndarray,
    segments: list[tuple[int, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (truth, decision) pairs; ``segments`` lists (length, priors) in order.

    Each decision is drawn from its true class's confusion row, so long-run
    decision frequencies follow ``rows.T @ priors``.
    """
    k = rows.shape[0]
    truth = np.concatenate([rng.choice(k, size=n, p=p) for n, p in segments])
    decisions = np.empty_like(truth)
    for cls in np.unique(truth):
        where = np.nonzero(truth == cls)[0]
        decisions[where] = rng.choice(k, size=where.size, p=rows[cls])
    return truth, decisions


def draw_scores(
    rng: np.random.Generator,
    truth: np.ndarray,
    decisions: np.ndarray,
    k: int,
) -> np.ndarray:
    """Softmax-like score rows whose unique argmax is the given decision."""
    n = decisions.size
    weights = rng.exponential(1.0, (n, k))
    idx = np.arange(n)
    top = weights.argmax(axis=1)
    weights[idx, top], weights[idx, decisions] = weights[idx, decisions], weights[idx, top]
    weights[idx, decisions] += SHARPNESS
    wrong = truth != decisions
    weights[idx[wrong], truth[wrong]] += TRUE_CLASS_EVIDENCE
    return weights / weights.sum(axis=1, keepdims=True)


def _fmt(values) -> str:
    return ",".join(map("{:.17g}".format, values))


def write_confusion_csv(path: str, labels: list[str], rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write(",".join(labels) + "\n")
        for row in rows.tolist():
            fp.write(_fmt(row) + "\n")


def write_scores_csv(
    path: str,
    labels: list[str],
    scores: np.ndarray,
    truth: np.ndarray,
) -> None:
    """Scores CSV with the truth ``label`` column first."""
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write("label," + ",".join(f"s_{l}" for l in labels) + "\n")
        for t, row in zip(truth.tolist(), scores.tolist()):
            fp.write(labels[t] + "," + _fmt(row) + "\n")


def write_priors_json(path: str, labels: list[str], priors: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        json.dump(dict(zip(labels, priors.tolist())), fp)
        fp.write("\n")


def write_decisions(path: str, decisions: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fp:
        fp.write("\n".join(map(str, decisions.tolist())) + "\n")
