"""Accumulate deployment decisions into histograms.

The monitor is the single mutable object in the package: one owner feeds
decisions in, and :meth:`StreamMonitor.snapshot` hands out immutable
histogram copies that may cross threads freely.  Cumulative counting is
the default; a fixed-length sliding window supports environments whose
class mixture drifts over time.
"""

from __future__ import annotations

from collections import deque
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
        self.catalog = catalog
        self.window = window
        self._counts = np.zeros(catalog.k, dtype=np.int64)
        self._ring: Optional[deque[int]] = deque() if window is not None else None
        self._seen = 0

    @property
    def decisions_seen(self) -> int:
        """Total decisions ingested, including any evicted from the window."""
        return self._seen

    def ingest(self, decision: int) -> None:
        """Count one decision, evicting the oldest if the window is full."""
        decision = int(decision)
        if decision < 0 or decision >= self.catalog.k:
            raise ValidationError(
                f"decision index {decision} out of range for {self.catalog.k} classes"
            )
        if self._ring is not None:
            if len(self._ring) == self.window:
                evicted = self._ring.popleft()
                self._counts[evicted] -= 1
            self._ring.append(decision)
        self._counts[decision] += 1
        self._seen += 1

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
