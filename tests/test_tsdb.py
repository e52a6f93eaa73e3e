"""Tests for the time-series store behind the SLO evaluator.

Pins the PromQL-shaped semantics the SLO layer relies on: deterministic
ticks with an injected clock, counter-reset-aware ``increase``, windowed
histogram bucket deltas (checked against hand computation), label
subset-matching with cross-series summing, ring-buffer eviction, and the
background sampler thread with ``on_tick`` callbacks.
"""

from __future__ import annotations

import time

import pytest

from repro.observability.metrics import MetricsRegistry, quantile_from_buckets
from repro.observability.tsdb import TimeSeriesStore


def _fixture() -> tuple[MetricsRegistry, TimeSeriesStore]:
    registry = MetricsRegistry()
    store = TimeSeriesStore(registry, interval_s=1.0, capacity=64, clock=lambda: 0.0)
    return registry, store


class TestTicking:
    def test_manual_ticks_sample_every_series(self):
        registry, store = _fixture()
        counter = registry.counter("t_total")
        gauge = registry.gauge("t_depth")
        hist = registry.histogram("t_seconds", buckets=(0.1, 1.0))
        counter.inc(3, cell="a")
        gauge.set(7, cell="a")
        hist.observe(0.05, cell="a")
        store.tick(now=1.0)
        assert store.ticks == 1 and store.last_tick == 1.0
        assert {s.name for s in store._series.values()} == {"t_total", "t_depth", "t_seconds"}
        (total,) = store.match("t_total")
        (depth,) = store.match("t_depth")
        assert list(total.points) == [(1.0, 3.0)]
        assert list(depth.points) == [(1.0, 7.0)]

    def test_now_prefers_last_tick_then_clock(self):
        _, store = _fixture()
        assert store.now() == 0.0  # injected clock
        store.tick(now=5.0)
        assert store.now() == 5.0

    def test_invalid_construction_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="interval_s"):
            TimeSeriesStore(registry, interval_s=0.0)
        with pytest.raises(ValueError, match="capacity"):
            TimeSeriesStore(registry, capacity=1)

    def test_ring_buffer_evicts_oldest(self):
        registry = MetricsRegistry()
        store = TimeSeriesStore(registry, interval_s=1.0, capacity=4, clock=lambda: 0.0)
        gauge = registry.gauge("t_depth")
        for t in range(10):
            gauge.set(float(t))
            store.tick(now=float(t))
        (depth,) = store.match("t_depth")
        assert list(depth.points) == [(6.0, 6.0), (7.0, 7.0), (8.0, 8.0), (9.0, 9.0)]

    def test_on_tick_callbacks_see_the_stamp(self):
        registry, store = _fixture()
        registry.counter("t_total").inc()
        seen: list[float] = []
        store.on_tick.append(seen.append)
        store.tick(now=2.0)
        store.tick(now=3.0)
        assert seen == [2.0, 3.0]


class TestCounterQueries:
    def test_increase_is_growth_inside_the_window(self):
        registry, store = _fixture()
        counter = registry.counter("t_total")
        for t, value in enumerate([0, 10, 25, 40, 100]):
            counter.inc(value - counter.value())
            store.tick(now=float(t))
        # window (2, 4]: baseline is the t=2 sample (25) -> growth 75
        assert store.increase("t_total", window_s=2.0, now=4.0) == 75.0

    def test_counter_reset_counts_post_restart_value_in_full(self):
        registry, store = _fixture()
        counter = registry.counter("t_total")
        values = [0.0, 50.0, 80.0, 5.0, 20.0]  # restart between 80 and 5
        for t, value in enumerate(values):
            # force the absolute sampled value, restart included
            with counter._lock:
                counter._series[counter.labels()] = value
            store.tick(now=float(t))
        # growth: 50 + 30, then the reset adds 5 in full, then +15
        assert store.increase("t_total", window_s=10.0, now=4.0) == 100.0

    def test_labels_subset_match_and_sum_across_series(self):
        registry, store = _fixture()
        counter = registry.counter("t_total")
        counter.inc(0, cell="a", reason="x")
        counter.inc(0, cell="b", reason="x")
        store.tick(now=0.0)
        counter.inc(10, cell="a", reason="x")
        counter.inc(4, cell="b", reason="x")
        store.tick(now=1.0)
        assert store.increase("t_total", window_s=5.0, now=1.0) == 14.0
        assert store.increase("t_total", window_s=5.0, now=1.0, cell="a") == 10.0
        assert store.increase("t_total", window_s=5.0, now=1.0, reason="x") == 14.0
        assert store.increase("t_total", window_s=5.0, now=1.0, cell="zzz") == 0.0

    def test_single_sample_contributes_nothing(self):
        """One sample gives no delta — increase needs at least two points."""
        registry, store = _fixture()
        registry.counter("t_total").inc(99)
        store.tick(now=0.0)
        assert store.increase("t_total", window_s=10.0, now=0.0) == 0.0

    def test_rate_points_are_per_gap_and_reset_aware(self):
        """A one-gap window sees only that gap's growth, a reset included."""
        registry, store = _fixture()
        counter = registry.counter("t_total")
        for t, value in enumerate([0.0, 10.0, 10.0, 2.0]):
            with counter._lock:
                counter._series[counter.labels()] = value
            store.tick(now=float(t * 2))
        pts = [
            (end, store.increase("t_total", window_s=2.0, now=end) / 2.0)
            for end in (2.0, 4.0, 6.0)
        ]
        assert pts == [(2.0, 5.0), (4.0, 0.0), (6.0, 1.0)]


class TestHistogramQueries:
    def test_window_quantile_matches_hand_computation(self):
        registry, store = _fixture()
        hist = registry.histogram("t_seconds", buckets=(0.1, 0.5, 1.0))
        # before the window: 100 fast observations
        for _ in range(100):
            hist.observe(0.05)
        store.tick(now=0.0)
        # inside the window: 8 fast + 2 slow
        for _ in range(8):
            hist.observe(0.05)
        for _ in range(2):
            hist.observe(0.4)
        store.tick(now=1.0)
        win = store.histogram_increase("t_seconds", window_s=1.0, now=1.0)
        assert win is not None
        bounds, count, total, deltas = win
        assert bounds == (0.1, 0.5, 1.0)
        assert count == 10 and deltas == [8, 2, 0, 0]
        assert total == pytest.approx(8 * 0.05 + 2 * 0.4)
        # the pre-window 100 observations must not leak into the quantile:
        # p50 sits inside the first bucket, p95 inside the second
        assert quantile_from_buckets(bounds, deltas, 0.5) <= 0.1
        assert 0.1 < quantile_from_buckets(bounds, deltas, 0.95) <= 0.5

    def test_series_born_mid_window_uses_zero_baseline(self):
        registry, store = _fixture()
        hist = registry.histogram("t_seconds", buckets=(0.1, 1.0))
        store.tick(now=0.0)  # histogram exists but has no series yet
        hist.observe(0.05, cell="late")
        store.tick(now=1.0)
        win = store.histogram_increase("t_seconds", window_s=10.0, now=1.0)
        assert win is not None and win[1] == 1

    def test_no_observations_is_nan_not_zero(self):
        registry, store = _fixture()
        registry.histogram("t_seconds", buckets=(0.1, 1.0))
        store.tick(now=0.0)
        # a histogram with no observed series is "no data", not a zero delta
        assert store.histogram_increase("t_seconds", window_s=5.0, now=0.0) is None
        assert store.histogram_increase("missing", window_s=5.0, now=0.0) is None

    def test_mismatched_bucket_bounds_raise(self):
        registry, store = _fixture()
        registry.histogram("t_a_seconds", buckets=(0.1, 1.0)).observe(0.05)
        store.tick(now=0.0)
        # a second registry reusing the same metric name with other bounds
        other = MetricsRegistry()
        store2 = TimeSeriesStore(other, interval_s=1.0, clock=lambda: 0.0)
        other.histogram("t_a_seconds", buckets=(0.2, 2.0)).observe(0.05, cell="x")
        store2.tick(now=0.0)
        store2._series.update(store._series)  # force the collision
        with pytest.raises(ValueError, match="mismatched buckets"):
            store2.histogram_increase("t_a_seconds", window_s=5.0, now=0.0)

    def test_quantile_points_skip_empty_gaps(self):
        """A gap with no new observations has a zero-count delta, not stale data."""
        registry, store = _fixture()
        hist = registry.histogram("t_seconds", buckets=(0.1, 0.5, 1.0))
        hist.observe(0.05)
        store.tick(now=0.0)
        store.tick(now=1.0)  # no new observations in this gap
        hist.observe(0.4)
        store.tick(now=2.0)
        gaps = {
            end: store.histogram_increase("t_seconds", window_s=1.0, now=end)
            for end in (1.0, 2.0)
        }
        assert gaps[1.0] is not None and gaps[1.0][1] == 0
        pts = [
            (end, quantile_from_buckets(win[0], win[3], 0.99))
            for end, win in gaps.items()
            if win is not None and win[1] > 0
        ]
        assert [t for t, _ in pts] == [2.0]
        assert 0.1 < pts[0][1] <= 0.5


class TestSamplerThread:
    def test_background_sampler_ticks_and_stops(self):
        registry = MetricsRegistry()
        counter = registry.counter("t_total")
        counter.inc(5)
        store = TimeSeriesStore(registry, interval_s=0.01, capacity=512)
        with store:
            deadline = time.monotonic() + 5.0
            while store.ticks < 3 and time.monotonic() < deadline:
                time.sleep(0.005)
        assert store.ticks >= 3
        ticks_after_stop = store.ticks
        time.sleep(0.05)
        assert store.ticks == ticks_after_stop  # sampler actually stopped
        (total,) = store.match("t_total")
        assert total.points[-1][1] == 5.0

    def test_start_is_idempotent(self):
        registry = MetricsRegistry()
        store = TimeSeriesStore(registry, interval_s=0.01)
        try:
            assert store.start() is store
            thread = store._thread
            store.start()
            assert store._thread is thread
        finally:
            store.stop()

    def test_on_tick_runs_on_the_sampler_thread(self):
        import threading

        registry = MetricsRegistry()
        registry.counter("t_total").inc()
        store = TimeSeriesStore(registry, interval_s=0.01)
        names: list[str] = []
        store.on_tick.append(lambda _now: names.append(threading.current_thread().name))
        with store:
            deadline = time.monotonic() + 5.0
            while not names and time.monotonic() < deadline:
                time.sleep(0.005)
        assert names and names[0] == "repro-tsdb-sampler"
