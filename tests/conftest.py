"""Shared helpers for the test suite."""

from __future__ import annotations

from unittest import mock

import numpy as np

from prioradapt import ClassCatalog, ConfusionMatrix, fileio


def make_catalog(k: int) -> ClassCatalog:
    return ClassCatalog(tuple(f"x{i:02d}" for i in range(k)))


def random_confusion_rows(
    k: int,
    rng: np.random.Generator,
    diag_lo: float = 0.5,
    diag_hi: float = 0.9,
) -> np.ndarray:
    """Diagonally dominant row-normalized rows (well-conditioned by design)."""
    diag = rng.uniform(diag_lo, diag_hi, k)
    rows = np.zeros((k, k))
    for i in range(k):
        spread = rng.dirichlet(np.ones(k - 1))
        rows[i] = np.insert(spread * (1.0 - diag[i]), i, diag[i])
    return rows


def random_confusion(
    k: int,
    rng: np.random.Generator,
    diag_lo: float = 0.5,
    diag_hi: float = 0.9,
) -> ConfusionMatrix:
    return ConfusionMatrix(make_catalog(k), random_confusion_rows(k, rng, diag_lo, diag_hi))


def random_simplex(k: int, rng: np.random.Generator, alpha: float = 1.0) -> np.ndarray:
    return rng.dirichlet(np.full(k, alpha))


def small_blocks(size: int):
    """Read every text stream in blocks of about ``size`` bytes, its header included, and gather csv-rule rows ``size`` at a time."""
    return mock.patch.multiple(fileio, _CSV_BLOCK_BYTES=size, _LINE_BLOCK_BYTES=size, _CSV_BLOCK_ROWS=size)
