"""Accumulate deployment decisions into histograms.

The monitor is the single mutable object in the package: one owner feeds
decisions in, and :meth:`StreamMonitor.snapshot` hands out immutable
histogram copies that may cross threads freely.  Cumulative counting is
the default; a fixed-length sliding window supports environments whose
class mixture drifts over time.  The window is the batches it was given,
held oldest first, so a windowed monitor holds at most ``window``
decisions however long the stream runs.
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
    ones are evicted as new ones arrive.  The monitor holds copies of the
    counted parts of its batches, at most W decisions in all, and any
    W >= 1 is accepted: a W past the stream's length counts every
    decision.  Without a window all decisions accumulate and none is held.

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
        self._held: deque[np.ndarray] = deque()
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
        window = self.window
        # Decisions before the batch's last `window` would leave within it.
        counted = batch if window is None else batch[-window:]
        self._counts += np.bincount(counted, minlength=k)
        if window is not None and len(counted):
            self._held.append(counted.copy())
            excess = min(self._seen, window) + len(counted) - window
            while excess > 0:
                oldest = self._held.popleft()
                self._counts -= np.bincount(oldest[:excess], minlength=k)
                if excess < len(oldest):
                    self._held.appendleft(oldest[excess:])
                excess -= len(oldest)
        self._seen += len(batch)

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
        if self._seen == 0:
            raise InsufficientDataError("no decisions ingested yet")
        return DecisionHistogram(self._counts)
