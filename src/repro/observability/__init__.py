"""Unified tracing & telemetry for the product-network sorters.

The paper's claims are structural — Lemma 3 and Theorem 1 count *which
phases run, how often, at what cost* — so this package records a run as a
hierarchical tree of phase :class:`~repro.observability.tracer.Span` objects
(distribute → column-merges → interleave → clean-up, recursing through
dimensions ``3..r``), streams everything over one
:class:`~repro.observability.events.EventBus`, and exports to JSONL, Chrome
trace-event JSON (Perfetto / ``chrome://tracing``) and text summaries.  The
machine's link traffic is read off its schedule, not recorded
(:class:`~repro.observability.topology.LinkObservatory`,
:func:`~repro.observability.export.machine_steps`).

Typical use::

    from repro.core.lattice_sort import ProductNetworkSorter
    from repro.observability import Tracer, chrome_trace_json
    from repro.graphs import path_graph

    tracer = Tracer()
    sorter = ProductNetworkSorter.for_factor(path_graph(3), r=3)
    sorter.sort_sequence(keys, tracer=tracer)
    assert tracer.count(kind="s2") == (3 - 1) ** 2        # Theorem 1, live
    open("sort.trace.json", "w").write(chrome_trace_json(tracer))

Passing ``tracer=None`` (the default everywhere) routes through the shared
:data:`~repro.observability.tracer.NULL_TRACER`, whose spans are one
preallocated no-op object — untraced runs pay essentially nothing.

On top of the metrics layer sit the SLO alerts (``docs/slo.md``):
:class:`~repro.observability.tsdb.TimeSeriesStore` samples every registry
series into ring buffers, and :class:`~repro.observability.slo.SLOEvaluator`
turns the samples into multi-window burn-rate alerts, served as
``/alerts.json`` by ``repro serve --slo`` and reported by
``repro loadgen --slo``.

The package surface is lazy: each public name is imported from its
submodule on first use, so importing one submodule — as the compiled kernel
does with :mod:`~repro.observability.cachestats` — loads neither the
exporters, the SLO stack nor the HTTP server.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .cachestats import CacheStats, all_cache_stats, publish_cache_metrics
    from .events import (
        CallbackSubscriber,
        EventBus,
        LedgerSubscriber,
        TraceEvent,
        phase_key,
        point_event,
    )
    from .heatmap import (
        render_imbalance_table,
        render_topology_heatmap,
        topology_html,
        topology_json,
        topology_svg,
    )
    from .export import (
        chrome_trace_json,
        machine_steps,
        phase_summary,
        spans_to_jsonl,
        steps_to_jsonl,
        to_chrome_trace,
        traffic_metrics,
    )
    from .httpexpo import MetricsServer, build_metrics_server
    from .kernelprof import (
        KernelProfiler,
        LayerProfile,
        RunProfile,
        profile_cell,
        render_profile,
    )
    from .metrics import (
        Counter,
        Gauge,
        Histogram,
        MetricsRegistry,
        MetricsSubscriber,
        quantile_from_buckets,
    )
    from .slo import (
        SEVERITIES,
        BurnPolicy,
        SLOEvaluator,
        SLOSpec,
        default_serve_slos,
    )
    from .tsdb import TimeSeriesStore
    from .topology import CongestionIndex, LinkObservatory
    from .tracer import NULL_TRACER, NullTracer, Span, Tracer, coerce_tracer, point_emitter

__all__ = [
    "TraceEvent",
    "EventBus",
    "CallbackSubscriber",
    "LedgerSubscriber",
    "point_event",
    "phase_key",
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "coerce_tracer",
    "point_emitter",
    "machine_steps",
    "spans_to_jsonl",
    "steps_to_jsonl",
    "to_chrome_trace",
    "chrome_trace_json",
    "phase_summary",
    "traffic_metrics",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSubscriber",
    "quantile_from_buckets",
    "CacheStats",
    "all_cache_stats",
    "publish_cache_metrics",
    "KernelProfiler",
    "LayerProfile",
    "RunProfile",
    "profile_cell",
    "render_profile",
    "MetricsServer",
    "build_metrics_server",
    "TimeSeriesStore",
    "SLOSpec",
    "SLOEvaluator",
    "BurnPolicy",
    "SEVERITIES",
    "default_serve_slos",
    "CongestionIndex",
    "LinkObservatory",
    "render_topology_heatmap",
    "render_imbalance_table",
    "topology_json",
    "topology_svg",
    "topology_html",
]

# public name -> the submodule that defines it; a new export is one entry here,
# plus its line in __all__ and its import under TYPE_CHECKING
_EXPORTS: dict[str, str] = {
    "TraceEvent": "events",
    "EventBus": "events",
    "CallbackSubscriber": "events",
    "LedgerSubscriber": "events",
    "point_event": "events",
    "phase_key": "events",
    "Span": "tracer",
    "Tracer": "tracer",
    "NullTracer": "tracer",
    "NULL_TRACER": "tracer",
    "coerce_tracer": "tracer",
    "point_emitter": "tracer",
    "machine_steps": "export",
    "spans_to_jsonl": "export",
    "steps_to_jsonl": "export",
    "to_chrome_trace": "export",
    "chrome_trace_json": "export",
    "phase_summary": "export",
    "traffic_metrics": "export",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "MetricsSubscriber": "metrics",
    "quantile_from_buckets": "metrics",
    "CacheStats": "cachestats",
    "all_cache_stats": "cachestats",
    "publish_cache_metrics": "cachestats",
    "KernelProfiler": "kernelprof",
    "LayerProfile": "kernelprof",
    "RunProfile": "kernelprof",
    "profile_cell": "kernelprof",
    "render_profile": "kernelprof",
    "MetricsServer": "httpexpo",
    "build_metrics_server": "httpexpo",
    "TimeSeriesStore": "tsdb",
    "SLOSpec": "slo",
    "SLOEvaluator": "slo",
    "BurnPolicy": "slo",
    "SEVERITIES": "slo",
    "default_serve_slos": "slo",
    "CongestionIndex": "topology",
    "LinkObservatory": "topology",
    "render_topology_heatmap": "heatmap",
    "render_imbalance_table": "heatmap",
    "topology_json": "heatmap",
    "topology_svg": "heatmap",
    "topology_html": "heatmap",
}

if not TYPE_CHECKING:

    def __getattr__(name: str) -> Any:
        module = _EXPORTS.get(name)
        if module is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(import_module(f".{module}", __name__), name)
        globals()[name] = value  # later lookups bypass this hook
        return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
