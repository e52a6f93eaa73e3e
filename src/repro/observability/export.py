"""Exporters: span trees and machine traffic to shareable formats.

Four targets, one per audience:

``spans_to_jsonl`` / ``steps_to_jsonl``
    newline-delimited JSON — one record per span (or per machine super-step,
    :func:`machine_steps`), stable keys, made for ``jq`` and for diffing
    benchmark trajectories across commits.

``to_chrome_trace`` / ``chrome_trace_json``
    the Chrome trace-event format (the ``traceEvents`` array flavour),
    loadable in Perfetto or ``chrome://tracing``.  Every paper dimension
    gets its own named track (``tid``), so a sort of an ``r``-dimensional
    product renders as ``r`` lanes of S₂/routing slices plus a ``driver``
    lane for the structural spans; a machine traffic pass adds a
    parallelism counter track.

``phase_summary``
    a fixed-width text table aggregating spans by phase name — the quick
    terminal answer to "where did the rounds go".

``traffic_metrics``
    the machine's traffic instruments in a
    :class:`~repro.observability.metrics.MetricsRegistry`.

The machine's rows, counters and instruments are reductions of one static
traffic pass (:func:`~repro.machine.machine.machine_traffic`): the schedule
is oblivious, so what each super-step carries is fixed before a key is read.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from typing import TYPE_CHECKING, Any

from .events import phase_key
from .tracer import Span, Tracer

if TYPE_CHECKING:
    from ..graphs.product import ProductGraph
    from ..machine.machine import TrafficRound

__all__ = [
    "machine_steps",
    "spans_to_jsonl",
    "steps_to_jsonl",
    "to_chrome_trace",
    "chrome_trace_json",
    "phase_summary",
    "traffic_metrics",
]


def _roots(source: Tracer | Iterable[Span]) -> list[Span]:
    # any tracer-shaped object (Tracer, NullTracer) exposes .roots; a bare
    # iterable of spans is taken as the roots themselves
    roots = getattr(source, "roots", None)
    if roots is not None:
        return list(roots)
    return list(source)


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of attr values to JSON-safe types."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    try:
        return int(value)  # numpy integers
    except (TypeError, ValueError):
        return repr(value)


def span_record(span: Span) -> dict[str, Any]:
    """The flat dict a span serialises to (one JSONL line)."""
    return {
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "kind": span.kind,
        "start": span.start,
        "end": span.end,
        "duration_s": span.duration,
        "rounds": span.rounds,
        "attrs": {k: _jsonable(v) for k, v in span.attrs.items()},
    }


def spans_to_jsonl(source: Tracer | Iterable[Span]) -> str:
    """Serialise every span (depth-first) as newline-delimited JSON."""
    lines = []
    for root in _roots(source):
        for span in root.walk():
            lines.append(json.dumps(span_record(span), sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def machine_steps(
    traffic: Iterable[TrafficRound], network: ProductGraph
) -> list[dict[str, Any]]:
    """One record per super-step of a machine traffic pass: the pairs it
    engaged, the rounds it was charged, the paper dimension all its pairs
    lie in (``None`` when it mixes dimensions), whether every pair was a
    factor edge, the fraction of nodes busy and, when it routed, its link
    traversals and deepest buffer."""
    steps = []
    for index, step in enumerate(traffic):
        dims = {
            network.differing_dimension(network.label_of(a), network.label_of(b))
            for a, b in step.pairs
        }
        routes = step.routes
        steps.append(
            {
                "step": index,
                "pairs": len(step.pairs),
                "rounds": step.charge,
                "dimension": dims.pop() if len(dims) == 1 else None,
                "adjacent": routes is None,
                "utilisation": 2 * len(step.pairs) / network.num_nodes,
                "routed_hops": 0 if routes is None else routes.link_traversals,
                "peak_buffer_depth": 0 if routes is None else routes.peak_buffer_depth,
            }
        )
    return steps


def steps_to_jsonl(steps: Iterable[dict[str, Any]]) -> str:
    """Serialise :func:`machine_steps` records as newline-delimited JSON."""
    lines = [json.dumps(step, sort_keys=True) for step in steps]
    return "\n".join(lines) + ("\n" if lines else "")


def traffic_metrics(
    registry: Any, traffic: Iterable[TrafficRound], network: ProductGraph
) -> None:
    """Add a machine traffic pass to ``registry``'s machine instruments:

    ==============================  =========  =================================
    metric                          type       meaning
    ==============================  =========  =================================
    ``repro_machine_steps_total``   counter    compare-exchange super-steps
    ``repro_machine_pairs_total``   counter    node pairs engaged, total
    ``repro_machine_pairs``         histogram  pairs engaged per super-step
    ``repro_machine_utilisation``   gauge      the last step's utilisation
    ``repro_link_traversals_total`` counter    directed-link traversals, by
                                               step kind (adjacent/routed)
    ``repro_peak_buffer_depth``     gauge      deepest intermediate-node
                                               buffer (run max)
    ``repro_buffer_occupancy``      histogram  buffered packets per routing
                                               round
    ==============================  =========  =================================
    """
    r = registry
    steps = r.counter("repro_machine_steps_total", "machine compare-exchange super-steps")
    pairs_total = r.counter("repro_machine_pairs_total", "node pairs engaged in super-steps")
    pairs_hist = r.histogram("repro_machine_pairs", "node pairs engaged per super-step")
    util = r.gauge("repro_machine_utilisation", "fraction of nodes busy, last super-step")
    traversals = r.counter("repro_link_traversals_total", "directed-link traversals, by step kind")
    buffer_peak = r.gauge("repro_peak_buffer_depth", "deepest intermediate-node buffer observed")
    occupancy = r.histogram("repro_buffer_occupancy", "buffered packets per routing round")
    for step in traffic:
        pairs = len(step.pairs)
        steps.inc()
        pairs_total.inc(pairs)
        pairs_hist.observe(pairs)
        util.set(2 * pairs / network.num_nodes)
        routes = step.routes
        if routes is None:
            traversals.inc(2 * pairs, kind="adjacent")
        else:
            traversals.inc(routes.link_traversals, kind="routed")
            if routes.peak_buffer_depth > buffer_peak.value():
                buffer_peak.set(routes.peak_buffer_depth)
            for depth in routes.round_occupancy:
                occupancy.observe(depth)


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------

#: tid used for spans that belong to no single paper dimension
DRIVER_TRACK = 0


def to_chrome_trace(
    source: Tracer | Iterable[Span],
    traffic: Iterable[TrafficRound] | None = None,
    process_name: str = "product-network sort",
) -> dict[str, Any]:
    """Build a Chrome trace-event JSON document (as a dict).

    Spans become complete (``ph: "X"``) events; the track (``tid``) of each
    span is its ``dim`` attribute, inherited from the nearest ancestor when
    absent, with dimension-less spans on the ``driver`` track.  Timestamps
    are microseconds relative to the earliest recorded instant, as the
    format expects.

    With the ``traffic`` of the traced machine run's schedule, each
    super-step adds a ``parallelism`` counter (``ph: "C"``) placed by the
    schedule, not timed: inside the charged span of its phase (the
    ``source``'s charged spans, in order, are the schedule's phases), spread
    evenly in round order.
    """
    roots = _roots(source)
    origin = min((root.start for root in roots), default=0.0)
    to_us = lambda t: (t - origin) * 1e6
    events: list[dict[str, Any]] = []
    tracks: set[int] = set()

    def emit(span: Span, inherited_dim: int | None) -> None:
        dim = span.attrs.get("dim", inherited_dim)
        tid = int(dim) if dim is not None else DRIVER_TRACK
        tracks.add(tid)
        end = span.end if span.end is not None else span.start
        events.append(
            {
                "name": span.name,
                "cat": span.kind or "phase",
                "ph": "X",
                "ts": to_us(span.start),
                "dur": max(to_us(end) - to_us(span.start), 0.0),
                "pid": 0,
                "tid": tid,
                "args": {k: _jsonable(v) for k, v in span.attrs.items()},
            }
        )
        for child in span.children:
            emit(child, dim if dim is not None else inherited_dim)

    for root in roots:
        emit(root, None)

    if traffic is not None:
        charged = [event for event in events if event["cat"] in ("s2", "routing")]
        by_phase: dict[int, list[int]] = {}
        for step in traffic:
            by_phase.setdefault(step.phase, []).append(len(step.pairs))
        for phase, counts in by_phase.items():
            span = charged[phase]
            for i, pairs in enumerate(counts):
                events.append(
                    {
                        "name": "parallelism",
                        "ph": "C",
                        "ts": span["ts"] + span["dur"] * (i + 1) / (len(counts) + 1),
                        "pid": 0,
                        "args": {"pairs": pairs},
                    }
                )

    meta: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "args": {"name": process_name},
        }
    ]
    for tid in sorted(tracks):
        label = "driver" if tid == DRIVER_TRACK else f"dimension {tid}"
        meta.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": label},
            }
        )
        meta.append(
            {"name": "thread_sort_index", "ph": "M", "pid": 0, "tid": tid, "args": {"sort_index": tid}}
        )

    return {"traceEvents": meta + events, "displayTimeUnit": "ms"}


def chrome_trace_json(
    source: Tracer | Iterable[Span],
    traffic: Iterable[TrafficRound] | None = None,
    **kwargs: Any,
) -> str:
    """:func:`to_chrome_trace`, serialised."""
    return json.dumps(to_chrome_trace(source, traffic=traffic, **kwargs), indent=1)


# ----------------------------------------------------------------------
# text summary
# ----------------------------------------------------------------------

def phase_summary(
    source: Tracer | Iterable[Span], steps: list[dict[str, Any]] | None = None
) -> str:
    """Aggregate spans by phase key into a fixed-width text table.

    Rows are keyed by :func:`~repro.observability.events.phase_key` — the
    same normalisation the topology observatory uses for per-phase edge
    attribution, so the two tables join on the phase column.  The
    comparisons column counts a routing span's ``pairs`` (the machine's
    transpositions compare-exchange too).  With the :func:`machine_steps`
    of the run's schedule, two machine lines follow the table.
    """
    agg: dict[tuple[str, str], dict[str, float]] = {}
    order: list[tuple[str, str]] = []
    for root in _roots(source):
        for span in root.walk():
            key = (phase_key(span.name, span.attrs.get("dim")), span.kind)
            if key not in agg:
                agg[key] = {"count": 0, "rounds": 0, "comparisons": 0, "wall_ms": 0.0}
                order.append(key)
            a = agg[key]
            a["count"] += 1
            a["rounds"] += span.rounds
            a["comparisons"] += int(span.attrs.get("comparisons", 0))
            if span.kind == "routing":
                a["comparisons"] += int(span.attrs.get("pairs", 0))
            a["wall_ms"] += span.duration * 1e3

    headers = ["phase", "kind", "count", "rounds", "comparisons", "wall ms"]
    body = [
        [
            name,
            kind or "-",
            str(int(agg[(name, kind)]["count"])),
            str(int(agg[(name, kind)]["rounds"])),
            str(int(agg[(name, kind)]["comparisons"])),
            f"{agg[(name, kind)]['wall_ms']:.3f}",
        ]
        for name, kind in order
    ]
    widths = [
        max(len(headers[c]), max((len(row[c]) for row in body), default=0))
        for c in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in body]
    if steps is not None:
        pairs = sum(step["pairs"] for step in steps)
        per_dim: dict[int, int] = {}
        for step in steps:
            if step["dimension"] is not None:
                per_dim[step["dimension"]] = per_dim.get(step["dimension"], 0) + 1
        lines.append("")
        lines.append(
            f"machine: {len(steps)} super-steps, {sum(step['rounds'] for step in steps)} rounds, "
            f"mean parallelism {pairs / len(steps) if steps else 0.0:.1f} pairs/step, "
            f"peak utilisation {max((step['utilisation'] for step in steps), default=0.0):.0%}, "
            f"{sum(1 for step in steps if not step['adjacent'])} routed steps"
        )
        if per_dim:
            lines.append(
                "steps per dimension: "
                + ", ".join(f"d{d}: {c}" for d, c in sorted(per_dim.items()))
            )
    return "\n".join(lines)
