"""Decision stream accumulation, windowed and cumulative."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prioradapt import (
    AdaptedPolicy,
    DimensionError,
    InsufficientDataError,
    PriorEstimate,
    ScoreRecord,
    StreamMonitor,
    ValidationError,
    decide_adapted,
)

from conftest import make_catalog


class TestIngest:
    def test_counts(self):
        monitor = StreamMonitor(make_catalog(3))
        for d in (0, 0, 1):
            monitor.ingest(d)
        assert np.array_equal(monitor.snapshot().counts, [2, 1, 0])

    def test_window_evicts_oldest(self):
        monitor = StreamMonitor(make_catalog(3), window=2)
        for d in (0, 1, 2):
            monitor.ingest(d)
        assert np.array_equal(monitor.snapshot().counts, [0, 1, 1])

    def test_out_of_range(self):
        monitor = StreamMonitor(make_catalog(3))
        with pytest.raises(ValidationError):
            monitor.ingest(7)
        with pytest.raises(ValidationError):
            monitor.ingest(-1)

    @pytest.mark.parametrize("window", [None, 2])
    def test_out_of_range_batch_leaves_monitor_unchanged(self, window):
        monitor = StreamMonitor(make_catalog(3), window=window)
        monitor.ingest_many([0, 1, 1])
        before = monitor.snapshot().counts
        for batch, bad in (([2, 3, 0], 3), ([0, -1], -1)):
            with pytest.raises(ValidationError, match=f"decision index {bad} out of range"):
                monitor.ingest_many(batch)
            assert np.array_equal(monitor.snapshot().counts, before)
            assert monitor.decisions_seen == 3
        with pytest.raises(DimensionError):
            monitor.ingest_many([[2]])
        monitor.ingest_many([2])
        assert np.array_equal(monitor.snapshot().counts, [0, 1, 1] if window else [1, 2, 1])

    def test_totals(self):
        monitor = StreamMonitor(make_catalog(2), window=3)
        for d in (0, 1, 0, 1, 1):
            monitor.ingest(d)
        assert monitor.decisions_seen == 5
        assert monitor.snapshot().total == 3  # min(seen, window)

    def test_window_validation(self):
        with pytest.raises(ValidationError):
            StreamMonitor(make_catalog(2), window=0)


class TestSnapshot:
    def test_empty_errors(self):
        with pytest.raises(InsufficientDataError):
            StreamMonitor(make_catalog(2)).snapshot()

    def test_no_aliasing(self):
        monitor = StreamMonitor(make_catalog(2))
        monitor.ingest(0)
        snap = monitor.snapshot()
        monitor.ingest(0)
        monitor.ingest(1)
        assert np.array_equal(snap.counts, [1, 0])
        assert np.array_equal(monitor.snapshot().counts, [2, 1])

    def test_windowed_after_eviction(self):
        monitor = StreamMonitor(make_catalog(3), window=2)
        for d in (2, 2, 0):
            monitor.ingest(d)
        snap = monitor.snapshot()
        assert snap.total == 2
        assert np.array_equal(snap.counts, [1, 0, 1])


class TestIngestScored:
    def test_decides_and_counts(self):
        monitor = StreamMonitor(make_catalog(3))
        decision = monitor.ingest_scored(ScoreRecord((0.1, 0.7, 0.2)))
        assert decision == 1
        assert np.array_equal(monitor.snapshot().counts, [0, 1, 0])

    def test_identical_records_double(self):
        monitor = StreamMonitor(make_catalog(3))
        record = ScoreRecord((0.1, 0.7, 0.2))
        monitor.ingest_scored(record)
        monitor.ingest_scored(record)
        assert np.array_equal(monitor.snapshot().counts, [0, 2, 0])

    def test_invalid_record_leaves_monitor_unchanged(self):
        monitor = StreamMonitor(make_catalog(3))
        monitor.ingest_scored(ScoreRecord((1.0, 0.0, 0.0)))
        with pytest.raises(ValidationError):
            ScoreRecord((0.9, 0.3, 0.1))  # bad sum never reaches the monitor
        with pytest.raises(DimensionError):
            monitor.ingest_scored(ScoreRecord((0.5, 0.5)))
        assert np.array_equal(monitor.snapshot().counts, [1, 0, 0])

    def test_counts_baseline_even_with_policy(self):
        monitor = StreamMonitor(make_catalog(2))
        policy = AdaptedPolicy.from_priors(
            PriorEstimate(np.array([0.0, 1.0]), method="ground_truth")
        )
        record = ScoreRecord((0.9, 0.1))
        assert decide_adapted(record, policy) == 1
        decision = monitor.ingest_scored(record)
        assert decision == 0  # baseline, not adapted
        assert np.array_equal(monitor.snapshot().counts, [1, 0])
        with pytest.raises(TypeError):
            monitor.ingest_scored(record, policy)  # no closed-loop mode


class TestStreamProperties:
    @given(st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_order_insensitive_without_window(self, decisions):
        forward = StreamMonitor(make_catalog(5))
        shuffled = StreamMonitor(make_catalog(5))
        for d in decisions:
            forward.ingest(d)
        rng = np.random.default_rng(0)
        for d in rng.permutation(decisions):
            shuffled.ingest(int(d))
        assert np.array_equal(forward.snapshot().counts, shuffled.snapshot().counts)

    @given(
        st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=300),
        st.none() | st.integers(min_value=1, max_value=20),
        st.lists(st.integers(min_value=0, max_value=45), max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_window_matches_brute_force_all_prefixes(self, decisions, window, sizes):
        # Decisions arrive in batches of the given sizes, a size of 1 through
        # ingest, then one at a time once the sizes run out.
        monitor = StreamMonitor(make_catalog(4), window=window)
        sizes = iter(sizes)
        i = 0
        while i < len(decisions):
            size = next(sizes, 1)
            if size == 1:
                monitor.ingest(decisions[i])
            else:
                monitor.ingest_many(np.array(decisions[i: i + size], dtype=np.int64))
            i = min(i + size, len(decisions))
            tail = decisions[max(0, i - (window or i)): i]
            assert monitor.decisions_seen == i
            if tail:
                expected = np.bincount(tail, minlength=4)
                assert np.array_equal(monitor.snapshot().counts, expected)
