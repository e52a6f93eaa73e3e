"""Tests for the metrics registry and its event-bus subscriber.

The instruments mirror the Prometheus data model (counter / gauge /
histogram with label sets): a :class:`MetricsSubscriber` turns a traced
sort's span events into scrape-ready numbers that must agree with the cost
ledger, and :func:`~repro.observability.export.traffic_metrics` adds the
machine schedule's traffic.
"""

from __future__ import annotations

import json

import pytest

from repro.core.machine_sort import MachineSorter
from repro.graphs import k2
from repro.machine import machine_traffic
from repro.observability import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSubscriber,
    Tracer,
    traffic_metrics,
)
from repro.observability.events import point_event


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("requests_total")
        assert c.value() == 0
        c.inc()
        c.inc(4)
        assert c.value() == 5

    def test_label_sets_are_independent_series(self):
        c = Counter("rounds_total")
        c.inc(3, kind="s2")
        c.inc(2, kind="routing")
        c.inc(1, kind="s2")
        assert c.value(kind="s2") == 4
        assert c.value(kind="routing") == 2
        assert c.value(kind="free") == 0

    def test_label_order_does_not_matter(self):
        c = Counter("x_total")
        c.inc(1, a="1", b="2")
        assert c.value(b="2", a="1") == 1

    def test_negative_increment_rejected(self):
        c = Counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("bad name")
        with pytest.raises(ValueError):
            Counter("")


class TestGauge:
    def test_set_inc_dec(self):
        g = Gauge("depth")
        g.set(5)
        g.inc()
        g.dec(2)
        assert g.value() == 4

    def test_gauges_can_go_negative(self):
        g = Gauge("delta")
        g.dec(3)
        assert g.value() == -3


class TestHistogram:
    def test_cumulative_bucket_semantics(self):
        h = Histogram("pairs", buckets=(1, 2, 4))
        for v in (1, 1, 2, 3, 100):
            h.observe(v)
        snap = h.snapshot_series()
        assert snap["count"] == 5
        assert snap["sum"] == 107
        # cumulative: le=1 holds 2, le=2 holds 3, le=4 holds 4, +Inf holds all
        assert snap["buckets"] == {"1": 2, "2": 3, "4": 4, "+Inf": 5}
        # a NaN observation is counted only in +Inf, as an overflow is
        h = Histogram("pairs", buckets=(1, 2, 4))
        h.observe(float("nan"))
        assert h.snapshot_series()["buckets"] == {"1": 0, "2": 0, "4": 0, "+Inf": 1}

    def test_unknown_series_snapshot_is_empty(self):
        h = Histogram("pairs")
        assert h.snapshot_series(kind="nope") == {"count": 0, "sum": 0.0, "buckets": {}}

    def test_unsorted_or_empty_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(4, 2, 1))


class TestMetricsRegistry:
    def test_idempotent_creation_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("spans_total", "help text")
        b = reg.counter("spans_total")
        assert a is b
        assert "spans_total" in reg
        assert "other" not in reg

    def test_type_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x_total")

    def test_expose_text_prometheus_format(self):
        reg = MetricsRegistry()
        reg.counter("spans_total", "spans seen").inc(2, kind="s2")
        reg.gauge("depth").set(3)
        reg.histogram("pairs", buckets=(1, 2)).observe(2)
        text = reg.expose_text()
        assert "# HELP spans_total spans seen" in text
        assert "# TYPE spans_total counter" in text
        assert 'spans_total{kind="s2"} 2' in text
        assert "# TYPE depth gauge" in text
        assert "depth 3" in text
        assert "# TYPE pairs histogram" in text
        assert 'pairs_bucket{le="2"} 1' in text
        assert 'pairs_bucket{le="+Inf"} 1' in text
        assert "pairs_sum 2" in text
        assert "pairs_count 1" in text

    def test_empty_registry_exposes_nothing(self):
        assert MetricsRegistry().expose_text() == ""
        assert MetricsRegistry().snapshot() == {}

    def test_snapshot_is_json_safe(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(1, kind="s2")
        reg.histogram("h", buckets=(1,)).observe(0.5)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["c_total"]["type"] == "counter"
        assert snap["c_total"]["series"] == [{"labels": {"kind": "s2"}, "value": 1}]
        assert snap["h"]["series"][0]["count"] == 1


class TestMetricsSubscriber:
    def _instrumented_run(self, rng, r=3):
        tracer = Tracer()
        registry = MetricsRegistry()
        tracer.bus.subscribe(MetricsSubscriber(registry))
        sorter = MachineSorter.for_factor(k2(), r)
        machine, ledger = sorter.sort(rng.integers(0, 100, size=2**r), tracer=tracer)
        traffic = list(machine_traffic(sorter.schedule(), sorter.network))
        traffic_metrics(registry, traffic, sorter.network)
        return tracer, traffic, registry, machine, ledger

    def test_span_counters_agree_with_span_tree(self, rng):
        tracer, _, registry, _, ledger = self._instrumented_run(rng)
        spans = registry.counter("repro_spans_total")
        total_spans = sum(v for _, v in spans.series())
        assert total_spans == sum(1 for _ in tracer.iter_spans())
        # Theorem 1 straight from the scrape: (r-1)^2 s2 spans at r=3
        s2_spans = sum(v for k, v in spans.series() if dict(k).get("kind") == "s2")
        assert s2_spans == 4

    def test_rounds_counter_agrees_with_ledger(self, rng):
        _, _, registry, _, ledger = self._instrumented_run(rng)
        rounds = registry.counter("repro_rounds_total")
        assert sum(v for _, v in rounds.series()) == ledger.total_rounds
        assert rounds.value(kind="s2") == ledger.s2_rounds
        assert rounds.value(kind="routing") == ledger.routing_rounds

    def test_comparisons_counter_agrees_with_span_attributes(self, rng):
        tracer, _, registry, machine, _ = self._instrumented_run(rng)
        comparisons = registry.counter("repro_comparisons_total")
        attributed = sum(
            int(s.attrs.get("comparisons", 0)) for s in tracer.iter_spans()
        )
        assert sum(v for _, v in comparisons.series()) == attributed
        # spans attribute most (not all) machine comparisons to phases
        assert 0 < attributed <= machine.comparisons

    def test_machine_step_instruments(self, rng):
        _, traffic, registry, machine, _ = self._instrumented_run(rng)
        assert registry.counter("repro_machine_steps_total").value() == machine.operations
        pairs_total = registry.counter("repro_machine_pairs_total").value()
        assert pairs_total == sum(len(step.pairs) for step in traffic) == machine.comparisons
        hist = registry.histogram("repro_machine_pairs").snapshot_series()
        assert hist["count"] == machine.operations
        util = registry.gauge("repro_machine_utilisation").value()
        assert 0 < util <= 1.0

    def test_depth_gauge_returns_to_zero(self, rng):
        _, _, registry, _, _ = self._instrumented_run(rng)
        assert registry.gauge("repro_span_depth").value() == 0

    def test_span_seconds_histogram_observes_every_span(self, rng):
        tracer, _, registry, _, _ = self._instrumented_run(rng)
        snap = registry.histogram("repro_span_seconds").snapshot_series()
        assert snap["count"] == sum(1 for _ in tracer.iter_spans())
        assert snap["sum"] >= 0

    def test_point_events_counted_by_name(self):
        sub = MetricsSubscriber()
        sub.on_event(point_event("distribute"))
        sub.on_event(point_event("distribute"))
        sub.on_event(point_event("cleanup"))
        points = sub.registry.counter("repro_points_total")
        assert points.value(name="distribute") == 2
        assert points.value(name="cleanup") == 1

    def test_subscriber_creates_registry_when_omitted(self):
        sub = MetricsSubscriber()
        assert "repro_spans_total" in sub.registry

    def test_exposition_round_trip_scrapeable(self, rng):
        _, _, registry, _, _ = self._instrumented_run(rng)
        text = registry.expose_text()
        assert "# TYPE repro_spans_total counter" in text
        assert "# TYPE repro_machine_pairs histogram" in text
        # every sample line is "name{labels} value"
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name, value = line.rsplit(" ", 1)
            float(value)
            assert name


class TestInstrumentHelpers:
    """Counter.count_exceptions() / Gauge.set_max()."""

    def test_counter_count_exceptions_counts_only_failures(self):
        registry = MetricsRegistry()
        errors = registry.counter("errs_total", "test")
        with errors.count_exceptions(kind="x"):
            pass
        assert errors.value(kind="x") == 0
        with pytest.raises(ValueError):
            with errors.count_exceptions(kind="x"):
                raise ValueError("boom")  # must re-raise, not swallow
        assert errors.value(kind="x") == 1

    def test_gauge_set_max_is_a_high_water_mark(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth", "test")
        gauge.set_max(3, q="a")
        gauge.set_max(7, q="a")
        gauge.set_max(5, q="a")
        assert gauge.value(q="a") == 7


class TestThreadSafety:
    """Satellite: concurrent scrapes during active instrument traffic."""

    def test_concurrent_counter_increments_do_not_drop(self):
        import threading

        registry = MetricsRegistry()
        counter = registry.counter("c_total", "test")

        def work():
            for _ in range(2000):
                counter.inc(worker="w")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value(worker="w") == 16000

    def test_scrapes_stay_consistent_during_active_kernel_runs(self, rng, schedule_caches):
        """expose_text()/snapshot() must never crash or emit torn lines while
        profiled kernel runs are feeding the same registry from other
        threads (the live /metrics-under-load regime)."""
        import threading

        from repro.observability.kernelprof import KernelProfiler
        from repro.schedule import compile_schedule
        from repro.staticcheck import emit_schedule
        from repro.graphs import path_graph

        registry = MetricsRegistry()
        profiler = KernelProfiler(registry=registry)
        kernel = compile_schedule(emit_schedule(path_graph(3), 3, backend="lattice"))
        keys = rng.integers(0, 2**31, size=(16, kernel.num_nodes))
        stop = threading.Event()
        failures: list[BaseException] = []

        def runner():
            try:
                while not stop.is_set():
                    profiler.run(kernel, keys)
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=runner) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(50):
                text = registry.expose_text()
                for line in text.splitlines():
                    if not line.startswith("#"):
                        float(line.rsplit(" ", 1)[1])  # every sample parses
                json.dumps(registry.snapshot())  # snapshot stays JSON-safe
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10.0)
        assert not failures

    def test_publish_cache_metrics_is_exact_under_contention(self, schedule_caches):
        """Concurrent delta-clamped publishes must not double-count: after
        the dust settles the mirrored counters equal the caches' own."""
        import threading

        from repro.observability.cachestats import all_cache_stats, publish_cache_metrics
        from repro.schedule import compile_schedule
        from repro.staticcheck import emit_schedule
        from repro.graphs import k2, path_graph

        registry = MetricsRegistry()
        barrier = threading.Barrier(6)
        failures: list[BaseException] = []

        def scraper():
            try:
                barrier.wait(timeout=10.0)
                for _ in range(100):
                    publish_cache_metrics(registry)
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        def compiler():
            try:
                barrier.wait(timeout=10.0)
                for r in (2, 3):
                    compile_schedule(emit_schedule(path_graph(3), r, backend="lattice"))
                    compile_schedule(emit_schedule(k2(), r + 2, backend="lattice"))
            except BaseException as exc:  # pragma: no cover - failure path
                failures.append(exc)

        threads = [threading.Thread(target=scraper) for _ in range(4)]
        threads += [threading.Thread(target=compiler) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not failures
        publish_cache_metrics(registry)  # final settle
        hits = registry.counter("repro_schedule_cache_hits_total", "")
        misses = registry.counter("repro_schedule_cache_misses_total", "")
        for name, snap in all_cache_stats().items():
            assert hits.value(cache=name) == snap["hits"], name
            assert misses.value(cache=name) == snap["misses"], name


class TestSamplerConcurrency:
    """Satellite: the tsdb sampler thread must never torn-read.

    A histogram observation updates count, sum and one bucket; the tsdb
    sampler snapshots all three via ``raw_samples()``.  With worker threads
    hammering a shared histogram while the sampler ticks at full speed,
    every sampled tuple must stay internally consistent (bucket counts sum
    to the observation count) and every per-series sequence monotone.
    """

    def test_sampler_never_tears_a_histogram_under_load(self):
        import threading

        from repro.observability.tsdb import TimeSeriesStore

        registry = MetricsRegistry()
        hist = registry.histogram("t_seconds", "test", buckets=(0.01, 0.1, 1.0))
        counter = registry.counter("t_total", "test")
        store = TimeSeriesStore(registry, interval_s=1.0, capacity=4096,
                                clock=lambda: 0.0)
        ticks = 0

        def hammer(worker: int) -> None:
            values = (0.005, 0.05, 0.5, 2.0)
            for i in range(4000):
                hist.observe(values[i % 4], cell="shared")
                counter.inc(cell="shared", worker=str(worker))

        workers = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
        for t in workers:
            t.start()
        # tick as fast as possible for the whole duration of the hammering
        while any(t.is_alive() for t in workers):
            store.tick(now=float(ticks))
            ticks += 1
        for t in workers:
            t.join()
        store.tick(now=float(ticks))

        key = ("t_seconds", (("cell", "shared"),))
        samples = list(store._series[key].points)
        assert len(samples) >= 2
        prev_count = 0
        for _t, count, _total, bucket_counts in samples:
            # internal consistency: never a torn read across the lock
            assert sum(bucket_counts) == count
            # counts only ever grow
            assert count >= prev_count
            prev_count = count
        # the final sample saw every observation
        assert prev_count == 4 * 4000
        assert len(store.match("t_total", cell="shared")) == 4  # one series per worker
        assert store.increase("t_total", window_s=float(ticks + 1), now=float(ticks)) > 0
