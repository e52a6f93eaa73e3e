"""Tests for SLO specs and the multi-window burn-rate alert evaluator.

Pins the burn math (error ratio over budget, hand-computed on synthetic
counters and histograms), the both-windows-must-fire severity rule, the
ok → warning → page → resolved state machine with its tracer point events,
the JSON-safe ``/alerts.json`` snapshot, :func:`default_serve_slos`, and —
the acceptance path — a synthetic overload fault driving the availability
SLO to page through a *real* service under loadgen, with the resulting
``slo`` section failing a benchreg candidate.
"""

from __future__ import annotations

import json

import pytest

from repro.observability.metrics import MetricsRegistry
from repro.observability.slo import (
    SEVERITIES,
    BurnPolicy,
    SLOEvaluator,
    SLOSpec,
    default_serve_slos,
)
from repro.observability.tracer import Tracer
from repro.observability.tsdb import TimeSeriesStore


def _store() -> tuple[MetricsRegistry, TimeSeriesStore]:
    registry = MetricsRegistry()
    return registry, TimeSeriesStore(registry, interval_s=1.0, clock=lambda: 0.0)


#: tight test policies: page at 5× budget on (10s, 2s), warn at 2× on (10s, 4s)
_PAGE = BurnPolicy(long_s=10.0, short_s=2.0, burn=5.0)
_WARN = BurnPolicy(long_s=10.0, short_s=4.0, burn=2.0)


def _avail_spec(objective: float = 0.9) -> SLOSpec:
    return SLOSpec(
        name="avail",
        objective=objective,
        kind="counter_ratio",
        bad_metric="t_bad_total",
        total_metric="t_req_total",
        page=_PAGE,
        warn=_WARN,
    )


class TestSpecValidation:
    def test_objective_must_be_a_proper_fraction(self):
        for objective in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError, match="objective"):
                SLOSpec(name="x", objective=objective,
                        bad_metric="b", total_metric="t")

    def test_kind_specific_fields_required(self):
        with pytest.raises(ValueError, match="counter_ratio"):
            SLOSpec(name="x", objective=0.9)
        with pytest.raises(ValueError, match="histogram_threshold"):
            SLOSpec(name="x", objective=0.9, kind="histogram_threshold")
        with pytest.raises(ValueError, match="unknown SLI kind"):
            SLOSpec(name="x", objective=0.9, kind="gauge_watch")

    def test_burn_policy_validation(self):
        with pytest.raises(ValueError, match="positive"):
            BurnPolicy(long_s=0.0, short_s=0.0, burn=1.0)
        with pytest.raises(ValueError, match="short window"):
            BurnPolicy(long_s=5.0, short_s=10.0, burn=1.0)
        with pytest.raises(ValueError, match="burn threshold"):
            BurnPolicy(long_s=10.0, short_s=5.0, burn=0.0)

    def test_budget_and_window_scaling(self):
        spec = _avail_spec(objective=0.99)
        assert spec.budget == pytest.approx(0.01)
        scaled = spec.scaled(0.1)
        assert scaled.page.long_s == pytest.approx(1.0)
        assert scaled.page.short_s == pytest.approx(0.2)
        assert scaled.page.burn == _PAGE.burn  # thresholds never scale
        assert spec.scaled(1.0) is spec


class TestBurnMath:
    def test_counter_ratio_error_and_burn(self):
        registry, store = _store()
        req = registry.counter("t_req_total")
        bad = registry.counter("t_bad_total")
        req.inc(0), bad.inc(0)
        store.tick(now=0.0)
        req.inc(100), bad.inc(20)
        store.tick(now=1.0)
        spec = _avail_spec(objective=0.9)  # budget 0.1
        assert spec.error_ratio(store, window_s=5.0, now=1.0) == pytest.approx(0.2)
        assert spec.burn_rate(store, window_s=5.0, now=1.0) == pytest.approx(2.0)

    def test_no_traffic_means_no_data_not_zero(self):
        registry, store = _store()
        registry.counter("t_req_total").inc(0)
        registry.counter("t_bad_total").inc(0)
        store.tick(now=0.0)
        store.tick(now=1.0)
        spec = _avail_spec()
        assert spec.error_ratio(store, window_s=5.0, now=1.0) is None
        assert spec.burn_rate(store, window_s=5.0, now=1.0) is None

    def test_histogram_threshold_counts_slow_observations_as_bad(self):
        registry, store = _store()
        hist = registry.histogram("t_seconds", buckets=(0.1, 0.5, 1.0))
        store.tick(now=0.0)
        for _ in range(90):
            hist.observe(0.05)
        for _ in range(10):
            hist.observe(0.4)
        store.tick(now=1.0)
        spec = SLOSpec(
            name="latency", objective=0.95, kind="histogram_threshold",
            metric="t_seconds", threshold_s=0.1, page=_PAGE, warn=_WARN,
        )
        assert spec.error_ratio(store, window_s=5.0, now=1.0) == pytest.approx(0.1)
        # budget 0.05 -> burn 2
        assert spec.burn_rate(store, window_s=5.0, now=1.0) == pytest.approx(2.0)

    def test_threshold_snaps_to_the_largest_bound_at_or_below(self):
        registry, store = _store()
        hist = registry.histogram("t_seconds", buckets=(0.1, 0.5, 1.0))
        store.tick(now=0.0)
        hist.observe(0.05)
        hist.observe(0.3)  # lands in the (0.1, 0.5] bucket
        store.tick(now=1.0)
        # 0.3 is not a bound: snapped down to 0.1, so the 0.3 obs counts bad
        spec = SLOSpec(
            name="latency", objective=0.5, kind="histogram_threshold",
            metric="t_seconds", threshold_s=0.3, page=_PAGE, warn=_WARN,
        )
        assert spec.error_ratio(store, window_s=5.0, now=1.0) == pytest.approx(0.5)
        # exactly on a bound: everything <= 0.5 is good
        spec_on_bound = SLOSpec(
            name="latency2", objective=0.5, kind="histogram_threshold",
            metric="t_seconds", threshold_s=0.5, page=_PAGE, warn=_WARN,
        )
        assert spec_on_bound.error_ratio(store, window_s=5.0, now=1.0) == pytest.approx(0.0)


class _PointCollector:
    """Bus subscriber capturing point events with their attrs."""

    def __init__(self) -> None:
        self.events: list = []

    def on_event(self, event) -> None:
        if event.kind == "point":
            self.events.append(event)


def _drive(registry, store, evaluator, plan):
    """Tick through ``plan``: (time, req_increment, bad_increment) rows."""
    req = registry.counter("t_req_total")
    bad = registry.counter("t_bad_total")
    transitions = []
    for t, dreq, dbad in plan:
        req.inc(dreq)
        bad.inc(dbad)
        store.tick(now=float(t))
        transitions.extend(evaluator.evaluate(float(t)))
    return transitions


class TestEvaluator:
    def test_both_windows_must_fire(self):
        """Bad events older than the short window must not keep paging."""
        registry, store = _store()
        evaluator = SLOEvaluator(store, [_avail_spec()])
        # a 100%-bad burst through t=4, clean traffic afterwards: at t=7 the
        # long window still burns above the page threshold but the 2s short
        # window is clean, so severity has decayed off page
        _drive(registry, store, evaluator,
               [(0, 0, 0), (1, 10, 10), (2, 10, 10), (3, 10, 10),
                (4, 10, 10), (5, 10, 0), (6, 10, 0), (7, 10, 0)])
        snapshot = evaluator.snapshot(7.0)
        (alert,) = snapshot["alerts"]
        assert alert["burn"]["page_long"] > _PAGE.burn
        assert alert["burn"]["page_short"] == pytest.approx(0.0)
        assert alert["severity"] != "page"
        # it *did* page during the burst itself, when both windows burned
        assert snapshot["page_alerts"] == 1

    def test_state_machine_pages_then_resolves_with_tracer_events(self):
        registry, store = _store()
        tracer = Tracer()
        collector = _PointCollector()
        tracer.bus.subscribe(collector)
        evaluator = SLOEvaluator(store, [_avail_spec()], tracer=tracer)
        # heavy shedding (80% bad, 8x budget) then full recovery
        plan = [(0, 0, 0), (1, 10, 8), (2, 10, 8), (3, 10, 8)]
        plan += [(t, 10, 0) for t in range(4, 15)]
        transitions = _drive(registry, store, evaluator, plan)
        kinds = [(t["kind"], t["from"], t["to"]) for t in transitions]
        assert ("firing", "ok", "page") in kinds
        assert kinds[-1][0] == "resolved" and kinds[-1][2] == "ok"
        assert evaluator.page_alerts == 1
        assert evaluator.max_severity_seen == "page"
        # the same transitions rode the tracer bus as slo-* point events
        names = [e.name for e in collector.events]
        assert "slo-firing" in names and "slo-resolved" in names
        firing = next(e for e in collector.events if e.name == "slo-firing")
        assert firing.attrs["kind"] == "slo"
        assert firing.attrs["slo"] == "avail"
        assert firing.attrs["severity"] == "page"

    def test_moderate_burn_warns_without_paging(self):
        registry, store = _store()
        evaluator = SLOEvaluator(store, [_avail_spec()])
        # 30% bad = 3x budget: above warn (2x), below page (5x)
        transitions = _drive(
            registry, store, evaluator,
            [(0, 0, 0)] + [(t, 10, 3) for t in range(1, 6)],
        )
        assert [(t["from"], t["to"]) for t in transitions] == [("ok", "warning")]
        assert evaluator.page_alerts == 0
        assert evaluator.max_severity_seen == "warning"

    def test_duplicate_spec_name_rejected(self):
        _, store = _store()
        evaluator = SLOEvaluator(store, [_avail_spec()])
        with pytest.raises(ValueError, match="duplicate"):
            evaluator.add(_avail_spec())

    def test_snapshot_is_json_safe_and_complete(self):
        registry, store = _store()
        evaluator = SLOEvaluator(store, [_avail_spec()])
        _drive(registry, store, evaluator,
               [(0, 0, 0), (1, 10, 8), (2, 10, 8), (3, 10, 8)])
        snapshot = evaluator.snapshot(3.0)
        json.dumps(snapshot)
        assert snapshot["severities"] == list(SEVERITIES)
        assert snapshot["current_severity"] == "page"
        assert snapshot["page_alerts"] == 1
        (alert,) = snapshot["alerts"]
        assert alert["spec"]["name"] == "avail"
        assert alert["since"] is not None
        assert alert["events"][-1]["to"] == "page"
        assert set(alert["burn"]) == {"page_long", "page_short", "warn_long", "warn_short"}

    def test_evaluate_with_no_data_stays_ok_quietly(self):
        _, store = _store()
        evaluator = SLOEvaluator(store, [_avail_spec()])
        assert evaluator.evaluate(0.0) == []
        assert evaluator.snapshot(0.0)["current_severity"] == "ok"


class TestDefaultServeSlos:
    def test_covers_the_four_serving_objectives(self):
        specs = default_serve_slos()
        assert [s.name for s in specs] == [
            "serve-availability",
            "serve-request-p99",
            "serve-deadline-misses",
            "serve-queue-wait-p99",
        ]
        by_name = {s.name: s for s in specs}
        assert by_name["serve-availability"].bad_metric == "repro_serve_rejections_total"
        assert by_name["serve-request-p99"].metric == "repro_serve_request_seconds"
        assert by_name["serve-queue-wait-p99"].threshold_s == pytest.approx(0.1)

    def test_latency_thresholds_are_exact_request_time_buckets(self):
        """The histogram SLOs count observations at or below a bucket bound
        as good, so each threshold must be a bound, not snapped down; the
        ladder also resolves group-commit waits in the tens of µs."""
        from repro.serve import REQUEST_TIME_BUCKETS

        thresholds = [s.threshold_s for s in default_serve_slos() if s.threshold_s is not None]
        assert thresholds == [0.25, 0.1]
        assert all(t in REQUEST_TIME_BUCKETS for t in thresholds)
        assert REQUEST_TIME_BUCKETS[0] == 1e-5
        assert list(REQUEST_TIME_BUCKETS) == sorted(set(REQUEST_TIME_BUCKETS))

    def test_window_scale_shrinks_every_policy(self):
        base = default_serve_slos()
        scaled = default_serve_slos(window_scale=0.01)
        for b, s in zip(base, scaled):
            assert s.page.long_s == pytest.approx(b.page.long_s * 0.01)
            assert s.warn.short_s == pytest.approx(b.warn.short_s * 0.01)
            assert s.objective == b.objective


class TestAcceptanceSyntheticFault:
    """The ISSUE's acceptance path: a forced-shed overload drill drives the
    availability SLO ok → page (visible in the slo snapshot and on the
    tracer bus), and the resulting document fails a benchreg candidate."""

    @pytest.fixture(scope="class")
    def fault_doc(self):
        from repro.serve import LoadScenario, ServiceConfig, run_loadgen

        tracer = Tracer()
        collector = _PointCollector()  # subscribed before the drill: the bus is live
        tracer.bus.subscribe(collector)
        doc = run_loadgen(
            LoadScenario(requests=200, rate=4000.0, arrivals="burst", seed=3),
            config=ServiceConfig(
                max_batch=4, max_queue_depth=4,
                flush_penalty_s=0.05,
            ),
            tracer=tracer,
            slo=True,
        )
        return doc, collector

    def test_overload_pages_the_availability_slo(self, fault_doc):
        doc, _collector = fault_doc
        assert doc["counts"]["rejected"] > 0, "the drill must shed"
        slo = doc["slo"]
        assert slo["page_alerts"] >= 1
        assert slo["max_severity_seen"] == "page"
        avail = next(
            a for a in slo["alerts"] if a["spec"]["name"] == "serve-availability"
        )
        events = avail["events"]
        assert events, "the availability SLO must transition"
        assert events[0]["from"] == "ok"
        assert any(e["to"] == "page" for e in events)
        json.dumps(doc)

    def test_transitions_reached_the_tracer_bus(self, fault_doc):
        _doc, collector = fault_doc
        firing = [e for e in collector.events if e.name == "slo-firing"]
        assert any(e.attrs["slo"] == "serve-availability" for e in firing), [
            (e.name, dict(e.attrs)) for e in collector.events if e.name.startswith("slo-")
        ]

    def test_benchreg_v6_candidate_fails_on_page_alerts(self, fault_doc):
        """The page-alert gate (since benchreg v6) reads the projected
        scenario record."""
        doc, _collector = fault_doc
        from repro.observability.benchreg import candidate_errors, scenario_record

        record = scenario_record(doc)
        assert record["page_alerts"] >= 1 and record["max_severity_seen"] == "page"
        errors = candidate_errors({"cells": [], "serving": [record]})
        assert any("page-severity" in e for e in errors)

    def test_clean_run_passes_the_v6_gate(self):
        from repro.observability.benchreg import candidate_errors, scenario_record
        from repro.serve import LoadScenario, ServiceConfig, run_loadgen

        doc = run_loadgen(
            LoadScenario(requests=60, rate=2000.0),
            config=ServiceConfig(max_batch=16),
            slo=True,
        )
        assert doc["slo"]["page_alerts"] == 0
        assert candidate_errors({"cells": [], "serving": [scenario_record(doc)]}) == []
