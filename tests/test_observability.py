"""Tests for the unified tracing & telemetry layer.

The headline assertion: a full ``r``-dimensional sort's span tree contains
exactly ``(r-1)**2`` spans of kind ``s2`` and ``(r-1)(r-2)`` spans of kind
``routing`` — Theorem 1 verified from telemetry alone, on both backends,
independently of the ledger's hand-rolled counters.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.lattice_sort import ProductNetworkSorter
from repro.core.machine_sort import MachineSorter
from repro.core.multiway_merge import multiway_merge
from repro.core.sorting import multiway_merge_sort
from repro.graphs import ProductGraph, k2, path_graph
from repro.machine.machine import TrafficRound, machine_traffic, measure_step
from repro.machine.metrics import CostLedger
from repro.observability import (
    NULL_TRACER,
    CallbackSubscriber,
    EventBus,
    LedgerSubscriber,
    Tracer,
    chrome_trace_json,
    coerce_tracer,
    machine_steps,
    phase_summary,
    point_event,
    spans_to_jsonl,
    steps_to_jsonl,
    to_chrome_trace,
)
from repro.orders import lattice_to_sequence


class TestTracer:
    def test_span_tree_nesting(self):
        tracer = Tracer()
        with tracer.span("outer", dim=3):
            with tracer.span("inner-a", kind="s2", rounds=5):
                pass
            with tracer.span("inner-b", kind="routing", rounds=2):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "outer"
        assert [c.name for c in root.children] == ["inner-a", "inner-b"]
        assert root.children[0].parent_id == root.span_id
        assert root.total_rounds() == 7
        assert tracer.count(kind="s2") == 1
        assert tracer.find("inner-b")[0].rounds == 2

    def test_set_updates_attrs_mid_span(self):
        tracer = Tracer()
        with tracer.span("phase") as sp:
            sp.set(rounds=9, blocks=4)
        assert tracer.roots[0].rounds == 9
        assert tracer.roots[0].attrs["blocks"] == 4

    def test_wall_time_monotone(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        span = tracer.roots[0]
        assert span.end >= span.start
        assert span.duration >= 0.0

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        assert tracer.roots[0].end is not None
        assert tracer.roots[0].attrs.get("error") is True
        assert tracer.current is None

    def test_bus_sees_start_and_end_events(self):
        tracer = Tracer()
        seen = []
        tracer.bus.subscribe(seen.append)
        with tracer.span("phase", kind="s2") as sp:
            sp.set(rounds=3)
        kinds = [(e.kind, e.name) for e in seen]
        assert kinds == [("span_start", "phase"), ("span_end", "phase")]
        # span_end carries the final attributes, set() included
        assert seen[1].attrs["rounds"] == 3

    def test_point_event_parented_under_current_span(self):
        tracer = Tracer()
        seen = []
        tracer.bus.subscribe(seen.append)
        with tracer.span("phase"):
            tracer.event("probe", payload=[1, 2])
        points = [e for e in seen if e.kind == "point"]
        assert len(points) == 1
        assert points[0].parent_id == tracer.roots[0].span_id
        assert points[0].attrs["payload"] == [1, 2]


class TestNullTracerFastPath:
    def test_disabled_flag(self):
        assert NULL_TRACER.disabled is True
        assert Tracer().disabled is False
        assert coerce_tracer(None) is NULL_TRACER
        tracer = Tracer()
        assert coerce_tracer(tracer) is tracer

    def test_span_is_shared_noop_singleton(self):
        # zero allocation per span: every call hands back the same object
        a = NULL_TRACER.span("anything", rounds=1)
        b = NULL_TRACER.span("else")
        assert a is b
        with a as entered:
            assert entered.set(rounds=5) is entered

    def test_collects_nothing(self):
        with NULL_TRACER.span("x"):
            NULL_TRACER.event("y", payload=1)
        assert list(NULL_TRACER.iter_spans()) == []
        assert NULL_TRACER.count() == 0
        assert NULL_TRACER.total_rounds() == 0

    def test_untraced_sort_records_nothing(self, rng):
        # tracer=None must leave no telemetry residue anywhere
        sorter = ProductNetworkSorter.for_factor(path_graph(3), 3)
        keys = rng.integers(0, 100, size=27)
        lattice, ledger = sorter.sort_sequence(keys)  # no tracer argument
        assert np.all(np.diff(lattice_to_sequence(lattice)) >= 0)
        assert list(NULL_TRACER.iter_spans()) == []


THEOREM1_CASES = [
    ("lattice", 3),
    ("lattice", 4),
    ("machine", 3),
    ("machine", 4),
]


class TestTheorem1FromTelemetry:
    """``(r-1)**2`` S₂ spans and ``(r-1)(r-2)`` routing spans, per backend."""

    @pytest.mark.parametrize("backend,r", THEOREM1_CASES)
    def test_span_counts_match_theorem1(self, backend, r, rng):
        tracer = Tracer()
        if backend == "lattice":
            sorter = ProductNetworkSorter.for_factor(path_graph(3), r)
            keys = rng.integers(0, 2**20, size=3**r)
            lattice, ledger = sorter.sort_sequence(keys, tracer=tracer)
            seq = lattice_to_sequence(lattice)
        else:
            sorter = MachineSorter.for_factor(k2(), r)
            keys = rng.integers(0, 2**20, size=2**r)
            machine, ledger = sorter.sort(keys, tracer=tracer)
            seq = lattice_to_sequence(machine.lattice())
        assert np.all(np.diff(seq) >= 0)
        assert tracer.count(kind="s2") == (r - 1) ** 2
        assert tracer.count(kind="routing") == (r - 1) * (r - 2)
        # the telemetry invoice equals the driver's ledger, charge by charge
        assert tracer.total_rounds() == ledger.total_rounds
        s2_spans = tracer.find(kind="s2")
        assert sum(s.rounds for s in s2_spans) == ledger.s2_rounds
        assert sum(s.rounds for s in tracer.find(kind="routing")) == ledger.routing_rounds

    def test_lattice_traced_observer_path_same_counts(self, rng):
        # the readable per-block Step 4 path (state observer on the bus) must
        # emit the same span structure as the vectorised path
        r = 3
        sorter = ProductNetworkSorter.for_factor(path_graph(3), r)
        keys = rng.integers(0, 2**20, size=3**r)
        tracer = Tracer()
        tracer.bus.subscribe(CallbackSubscriber(lambda e, p: None))
        sorter.sort_sequence(keys, tracer=tracer)
        assert tracer.count(kind="s2") == (r - 1) ** 2
        assert tracer.count(kind="routing") == (r - 1) * (r - 2)

    def test_recursion_shape(self, rng):
        # dims 3..r each appear as one merge span on the charged path
        r = 4
        tracer = Tracer()
        sorter = ProductNetworkSorter.for_factor(path_graph(3), r)
        sorter.sort_sequence(rng.integers(0, 2**20, size=3**r), tracer=tracer)
        merges = tracer.find("merge")
        assert sorted(s.attrs["dim"] for s in merges) == [3, 3, 4]
        # every merge level has distribute/interleave free spans
        assert tracer.count("distribute", kind="free") == len(merges)
        assert tracer.count("interleave", kind="free") == len(merges)


class TestLedgerSubscriber:
    def test_rebuilds_invoice_from_bus(self, rng):
        tracer = Tracer()
        replayed = CostLedger()
        tracer.bus.subscribe(LedgerSubscriber(replayed))
        sorter = ProductNetworkSorter.for_factor(path_graph(3), 3)
        _, direct = sorter.sort_sequence(rng.integers(0, 2**20, size=27), tracer=tracer)
        # one run fed both ledgers once — identical, not doubled
        assert replayed.s2_calls == direct.s2_calls
        assert replayed.routing_calls == direct.routing_calls
        assert replayed.total_rounds == direct.total_rounds

    def test_ignores_unrelated_events(self):
        ledger = CostLedger()
        sub = LedgerSubscriber(ledger)
        sub.on_event(point_event("noise", payload=1))
        tracer = Tracer()
        tracer.bus.subscribe(sub)
        with tracer.span("structural"):  # no kind attr -> no charge
            pass
        assert ledger.total_rounds == 0 and ledger.s2_calls == 0


class TestPointEventStates:
    """Intermediate states arrive as ``point`` events on the tracer's bus —
    the unified replacement for the retired ``trace=`` callable hook."""

    def _inputs(self):
        return [[1, 4, 7, 10], [2, 5, 8, 11]]

    def test_bare_bus_sees_stages(self):
        bus = EventBus()
        captured = {}
        bus.subscribe(CallbackSubscriber(lambda e, p: captured.update({e: p})))
        out = multiway_merge(self._inputs(), tracer=bus)
        assert out == sorted(sum(self._inputs(), []))
        assert captured["result"] == out
        for stage in ("step1_B", "step2_C", "step3_D", "step4_F", "result"):
            assert stage in captured

    def test_tracer_bus_and_bare_bus_see_identical_streams(self):
        via_tracer, via_bus = [], []
        tracer = Tracer()
        tracer.bus.subscribe(CallbackSubscriber(lambda e, p: via_tracer.append((e, p))))
        multiway_merge(self._inputs(), tracer=tracer)
        bus = EventBus()
        bus.subscribe(CallbackSubscriber(lambda e, p: via_bus.append((e, p))))
        multiway_merge(self._inputs(), tracer=bus)
        assert via_tracer == via_bus

    def test_span_only_tracer_emits_no_point_events(self):
        tracer = Tracer()  # private bus, no subscribers
        out = multiway_merge(self._inputs(), tracer=tracer)
        assert out == sorted(sum(self._inputs(), []))
        assert tracer.roots  # spans recorded as usual

    def test_sequence_level_span_tree(self):
        tracer = Tracer()
        multiway_merge(self._inputs(), tracer=tracer)
        root = tracer.roots[0]
        assert root.name == "multiway-merge"
        names = [c.name for c in root.children]
        assert names == ["distribute", "column-merge", "column-merge", "interleave", "cleanup"]

    def test_multiway_merge_sort_spans(self):
        tracer = Tracer()
        keys = list(range(26, -1, -1))
        out = multiway_merge_sort(keys, 3, tracer=tracer)
        assert out == sorted(keys)
        root = tracer.roots[0]
        assert root.name == "sort" and root.attrs["backend"] == "sequence"
        assert tracer.count("merge-round") == 1  # r = 3: one merge round


class TestMachineTimeline:
    """The per-super-step records of a machine schedule's traffic pass."""

    def test_records_every_super_step(self, rng):
        sorter = MachineSorter.for_factor(k2(), 3)
        machine, ledger = sorter.sort(rng.integers(0, 100, size=8))
        steps = machine_steps(machine_traffic(sorter.schedule(), sorter.network), sorter.network)
        assert len(steps) == machine.operations
        assert [s["step"] for s in steps] == list(range(len(steps)))
        assert sum(s["rounds"] for s in steps) == ledger.total_rounds
        assert sum(s["pairs"] for s in steps) == machine.comparisons
        assert all(1 <= s["dimension"] <= 3 for s in steps if s["dimension"] is not None)
        assert all(0 < s["utilisation"] <= 1.0 for s in steps)

    def test_mixed_dimension_step_has_no_single_dimension(self):
        net = ProductGraph(path_graph(3), 2)
        traffic = [
            TrafficRound(0, *measure_step(net, pairs))
            for pairs in (
                [((0, 0), (0, 1)), ((1, 0), (2, 0))],  # dims 1 and 2
                [((0, 1), (0, 2))],  # dim 1 only
            )
        ]
        steps = machine_steps(traffic, net)
        assert steps[0]["dimension"] is None
        assert steps[1]["dimension"] == 1


class TestExporters:
    def _traced_machine_run(self, rng, r=3):
        tracer = Tracer()
        sorter = MachineSorter.for_factor(k2(), r)
        sorter.sort(rng.integers(0, 100, size=2**r), tracer=tracer)
        return tracer, list(machine_traffic(sorter.schedule(), sorter.network)), sorter.network

    def test_jsonl_round_trip(self, rng):
        tracer, traffic, network = self._traced_machine_run(rng)
        lines = spans_to_jsonl(tracer).splitlines()
        records = [json.loads(line) for line in lines]
        assert len(records) == sum(1 for _ in tracer.iter_spans())
        by_id = {rec["span_id"]: rec for rec in records}
        for rec in records:  # parent links resolve within the file
            assert rec["parent_id"] is None or rec["parent_id"] in by_id
        steps = machine_steps(traffic, network)
        assert [json.loads(line) for line in steps_to_jsonl(steps).splitlines()] == steps
        assert steps[0]["step"] == 0
        assert "time" not in steps[0]  # placed by the schedule, not timed

    def test_chrome_trace_structure(self, rng):
        tracer, traffic, _ = self._traced_machine_run(rng)
        doc = to_chrome_trace(tracer, traffic=traffic)
        text = json.dumps(doc)  # must be JSON-serialisable as-is
        doc = json.loads(text)
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        counters = [e for e in events if e["ph"] == "C"]
        assert len(complete) == sum(1 for _ in tracer.iter_spans())
        assert len(counters) == len(traffic)
        for e in complete:
            assert e["ts"] >= 0 and e["dur"] >= 0
            assert {"name", "cat", "pid", "tid", "args"} <= set(e)
        # one named track per paper dimension seen in the span tree
        track_names = {
            e["args"]["name"] for e in meta if e["name"] == "thread_name"
        }
        dims = {s.attrs["dim"] for s in tracer.iter_spans() if "dim" in s.attrs}
        assert {f"dimension {d}" for d in dims} <= track_names

    def test_chrome_counters_sit_in_their_charged_spans_in_round_order(self, rng):
        tracer, traffic, _ = self._traced_machine_run(rng, r=4)
        events = to_chrome_trace(tracer, traffic=traffic)["traceEvents"]
        charged = [e for e in events if e.get("cat") in ("s2", "routing")]
        counters = [e for e in events if e["ph"] == "C"]
        assert [c["args"]["pairs"] for c in counters] == [len(step.pairs) for step in traffic]
        for step, counter in zip(traffic, counters):
            span = charged[step.phase]
            assert span["ts"] < counter["ts"] < span["ts"] + span["dur"]
        stamps = [c["ts"] for c in counters]
        assert stamps == sorted(stamps)

    def test_chrome_trace_dimension_tracks_inherited(self, rng):
        tracer, _, _ = self._traced_machine_run(rng)
        doc = to_chrome_trace(tracer)
        # children of a dim=k merge span (e.g. column-merges) inherit track k
        by_name = {}
        for e in doc["traceEvents"]:
            if e.get("ph") == "X":
                by_name.setdefault(e["name"], e)
        assert by_name["column-merges"]["tid"] == by_name["merge"]["tid"]

    def test_phase_summary_table(self, rng):
        tracer, traffic, network = self._traced_machine_run(rng)
        text = phase_summary(tracer, steps=machine_steps(traffic, network))
        assert "phase" in text and "rounds" in text
        assert "initial-block-sorts" in text and "transposition" in text
        assert "super-steps" in text  # the machine footer

    @pytest.mark.parametrize(
        "factor,r", [(path_graph(3), 3), (k2(), 4)], ids=["path-n3-r3", "k2-n2-r4"]
    )
    def test_phase_summary_comparisons_total_the_machines(self, factor, r):
        # a machine transposition's pairs are compare-exchanges too
        tracer = Tracer()
        sorter = MachineSorter.for_factor(factor, r)
        machine, _ = sorter.sort(np.arange(sorter.network.num_nodes)[::-1], tracer=tracer)
        rows = phase_summary(tracer).splitlines()[2:]
        assert sum(int(row.split()[4]) for row in rows) == machine.comparisons

    def test_empty_exports(self):
        tracer = Tracer()
        assert spans_to_jsonl(tracer) == ""
        doc = to_chrome_trace(tracer)
        assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []
        assert "phase" in phase_summary(tracer)

    def test_chrome_trace_json_cli_equivalence(self, rng):
        tracer, traffic, _ = self._traced_machine_run(rng)
        doc = json.loads(chrome_trace_json(tracer, traffic=traffic))
        assert doc["traceEvents"]


class TestEventBus:
    def test_subscribe_unsubscribe(self):
        bus = EventBus()
        assert not bus.active
        seen = []
        bus.subscribe(seen.append)
        assert bus.active
        bus.publish(point_event("x"))
        bus.unsubscribe(seen.append)
        assert not bus.active
        bus.publish(point_event("y"))
        assert len(seen) == 1

    def test_object_subscriber_unsubscribes_by_identity(self):
        bus = EventBus()
        seen = []
        sub = CallbackSubscriber(lambda e, p: seen.append(e))
        bus.subscribe(sub)
        assert bus.active
        bus.unsubscribe(sub)
        assert not bus.active

    def test_unsubscribe_absent_is_noop(self):
        bus = EventBus()
        bus.unsubscribe(lambda e: None)
        assert not bus.active

    def test_multiple_subscribers_all_see_events(self):
        bus = EventBus()
        a, b = [], []
        bus.subscribe(a.append)
        bus.subscribe(b.append)
        bus.publish(point_event("x", payload=1))
        assert len(a) == len(b) == 1
        assert a[0] is b[0]


class TestExportEdgeCases:
    """Exports must not crash on empty, disabled or span-less tracers."""

    def test_null_tracer_exports(self):
        assert spans_to_jsonl(NULL_TRACER) == ""
        doc = to_chrome_trace(NULL_TRACER)
        # only the process_name metadata record — no spans, no counters
        assert [e for e in doc["traceEvents"] if e["ph"] != "M"] == []
        assert json.loads(chrome_trace_json(NULL_TRACER)) == doc
        text = phase_summary(NULL_TRACER)
        assert "phase" in text  # header renders, no rows

    def test_empty_timeline_exports(self):
        steps = machine_steps([], ProductGraph(k2(), 2))
        assert steps_to_jsonl(steps) == ""
        assert "machine: 0 super-steps" in phase_summary(Tracer(), steps=steps)
        doc = to_chrome_trace(Tracer(), traffic=[])
        assert [e for e in doc["traceEvents"] if e["ph"] == "C"] == []

    def test_point_events_only_tracer(self):
        tracer = Tracer()
        collected = []
        tracer.bus.subscribe(collected.append)
        tracer.event("distribute", payload={"dim": 3})
        tracer.event("cleanup")
        # events flowed to the bus, but no spans were ever opened
        assert [e.name for e in collected] == ["distribute", "cleanup"]
        assert tracer.roots == []
        assert spans_to_jsonl(tracer) == ""
        doc = json.loads(chrome_trace_json(tracer))
        assert [e for e in doc["traceEvents"] if e["ph"] != "M"] == []
        assert "phase" in phase_summary(tracer)
