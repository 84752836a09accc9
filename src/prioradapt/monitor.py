"""Accumulate deployment decisions into histograms.

The monitor is the single mutable object in the package: one owner feeds
decisions in, and :meth:`StreamMonitor.snapshot` hands out immutable
histogram copies that may cross threads freely.  Cumulative counting is
the default; a fixed-length sliding window supports environments whose
class mixture drifts over time.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core import ClassCatalog, DecisionHistogram, ScoreRecord, decide_baseline
from .errors import DimensionError, InsufficientDataError, ValidationError


class StreamMonitor:
    """Running histogram of a classifier's argmax decisions.

    With ``window=W`` only the most recent W decisions are counted; older
    ones are evicted as new ones arrive.  Without a window all decisions
    accumulate.

    The histogram counts baseline (unweighted) decisions even when a
    re-weighting policy is in play: the estimation model relates priors to
    the classifier's raw decision frequencies, and feeding the adapted
    decisions back in would create a feedback loop with no supporting
    analysis.
    """

    def __init__(self, catalog: ClassCatalog, window: Optional[int] = None):
        if window is not None and window < 1:
            raise ValidationError("window length must be >= 1")
        if window is not None and window > 2**63 - 1:  # ring slots are numbered in int64
            raise ValidationError(f"window length must be <= 2**63 - 1, got {window}")
        self.catalog = catalog
        self.window = window
        self._counts = np.zeros(catalog.k, dtype=np.int64)
        # Decision number n sits in slot n % window.  The ring grows to the
        # window length as decisions arrive, so a long window costs no
        # memory up front.
        self._ring: Optional[np.ndarray] = (
            np.empty(0, dtype=np.int64) if window is not None else None
        )
        self._seen = 0

    @property
    def decisions_seen(self) -> int:
        """Total decisions ingested, including any evicted from the window."""
        return self._seen

    def ingest(self, decision: int) -> None:
        """Count one decision, evicting the oldest if the window is full."""
        self.ingest_many((int(decision),))

    def ingest_many(self, decisions) -> None:
        """Count a batch of decisions in order, evicting the oldest past the window.

        The whole batch is checked first: an index out of range raises
        :class:`ValidationError` and leaves the monitor unchanged.
        """
        try:
            batch = np.asarray(decisions, dtype=np.int64)
        except OverflowError:
            raise ValidationError(f"decision index out of range for {self.catalog.k} classes") from None
        if batch.ndim != 1:
            raise DimensionError(f"decisions must be one-dimensional, got shape {batch.shape}")
        bad = (batch < 0) | (batch >= self.catalog.k)
        if bad.any():
            raise ValidationError(
                f"decision index {batch[bad.argmax()]} out of range for {self.catalog.k} classes"
            )
        k = self.catalog.k
        if self._ring is None:
            self._counts += np.bincount(batch, minlength=k)
        else:
            # Only the last `window` decisions of the batch enter the ring;
            # the ones before them would be evicted within the batch.
            window = self.window
            counted = batch[-window:]
            filled = min(self._seen, window)
            evicted = max(0, filled + len(counted) - window)
            for slots in self._slots(self._seen - filled, evicted):
                self._counts -= np.bincount(self._ring[slots], minlength=k)
            start = self._seen + len(batch) - len(counted)
            self._reserve(min(start + len(counted), window))
            for slots in self._slots(start, len(counted)):
                size = slots.stop - slots.start
                self._ring[slots] = counted[:size]
                counted = counted[size:]
                self._counts += np.bincount(self._ring[slots], minlength=k)
        self._seen += len(batch)

    def _slots(self, first: int, n: int) -> list[slice]:
        """The ring slots of decisions ``first`` to ``first + n - 1``, ``n`` at most the window: at most two slices, split at the wrap point."""
        start = first % self.window
        stop = start + n
        if stop <= self.window:
            return [slice(start, stop)] if n else []
        return [slice(start, self.window), slice(0, stop - self.window)]

    def _reserve(self, n: int) -> None:
        """Grow the ring to hold at least ``n`` slots, doubling up to the window length."""
        if n > len(self._ring):
            grown = np.empty(min(self.window, max(n, 2 * len(self._ring))), dtype=np.int64)
            grown[: len(self._ring)] = self._ring
            self._ring = grown

    def ingest_scored(self, record: ScoreRecord) -> int:
        """Count a score record's baseline decision and return it."""
        if record.k != self.catalog.k:
            raise DimensionError(
                f"record has {record.k} scores, expected {self.catalog.k}"
            )
        decision = decide_baseline(record)
        self.ingest(decision)
        return decision

    def snapshot(self) -> DecisionHistogram:
        """Immutable copy of the current histogram.

        Later ingests never mutate a snapshot already handed out.
        """
        total = int(self._counts.sum())
        if total == 0:
            raise InsufficientDataError("no decisions ingested yet")
        return DecisionHistogram(self._counts.copy())
