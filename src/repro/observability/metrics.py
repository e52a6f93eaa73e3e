"""Metrics registry: counters, gauges and histograms over the event bus.

Where the span tree (:mod:`repro.observability.tracer`) keeps the *shape* of
a run, this module turns a run into *tracked numbers*: a
:class:`MetricsRegistry` of named instruments that a
:class:`MetricsSubscriber` feeds from the same
:class:`~repro.observability.events.EventBus` every other consumer rides.

Three instrument types, mirroring the Prometheus data model:

:class:`Counter`
    monotonically increasing totals (spans seen, rounds charged,
    comparisons performed, machine super-steps executed);
:class:`Gauge`
    last-observed values (current utilisation, open span depth);
:class:`Histogram`
    bucketed distributions (pairs engaged per super-step, span wall time).

Every instrument supports label sets (``counter.labels(kind="s2")``), and
the registry exports two ways:

* :meth:`MetricsRegistry.expose_text` — Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` / sample lines), scrape-ready;
* :meth:`MetricsRegistry.snapshot` — a plain JSON-safe dict, the form the
  benchmark harness (:mod:`repro.observability.benchreg`) persists.

Attach to a run with::

    tracer = Tracer()
    registry = MetricsRegistry()
    tracer.bus.subscribe(MetricsSubscriber(registry))
    sorter.sort(keys, tracer=tracer)
    print(registry.expose_text())
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterator

from .events import TraceEvent

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSubscriber",
    "quantile_from_buckets",
]

Labels = tuple[tuple[str, str], ...]


def _labels_key(labels: dict[str, Any]) -> Labels:
    """Canonical, hashable form of a label set (sorted, stringified)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: Labels) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


class _Instrument:
    """Shared plumbing: name, help text and a per-label-set series map.

    Every mutation and every read of the series map happens under the
    instrument's re-entrant lock, so instruments can be updated from worker
    threads (or an asyncio loop) while a scrape thread walks the registry —
    the contract the live ``/metrics`` endpoint and the serving layer rely
    on.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not name or not name.replace("_", "a").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.RLock()
        self._series: dict[Labels, Any] = {}

    def labels(self, **labels: Any) -> Labels:
        """Canonicalise a label set, creating the series if new."""
        key = _labels_key(labels)
        with self._lock:
            if key not in self._series:
                self._series[key] = self._new_series()
        return key

    def _new_series(self) -> Any:  # pragma: no cover - overridden
        raise NotImplementedError

    def series(self) -> Iterator[tuple[Labels, Any]]:
        """Every (label set, value) pair, in insertion order (a snapshot:
        safe to iterate while other threads keep observing)."""
        with self._lock:
            return iter(list(self._series.items()))


class Counter(_Instrument):
    """A monotonically increasing total, per label set."""

    kind = "counter"

    def _new_series(self) -> float:
        return 0

    def inc(self, amount: float = 1, **labels: Any) -> None:
        """Add ``amount`` (must be >= 0) to the labelled series."""
        self.inc_at(_labels_key(labels), amount)

    def inc_at(self, key: Labels, amount: float = 1) -> None:
        """:meth:`inc` the series of a label set resolved once by :meth:`labels`."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        """Current total of the labelled series (0 if never incremented)."""
        with self._lock:
            return self._series.get(_labels_key(labels), 0)

    def count_exceptions(self, **labels: Any) -> "_ExceptionCounter":
        """Context manager counting exceptions raised inside the block.

        The exception propagates — this records, it does not swallow::

            with errors.count_exceptions(cell="path-n3-r3"):
                flush_batch()
        """
        return _ExceptionCounter(self, labels)


class _ExceptionCounter:
    """Increments a counter when the guarded block raises (and re-raises)."""

    __slots__ = ("_counter", "_labels")

    def __init__(self, counter: Counter, labels: dict[str, Any]) -> None:
        self._counter = counter
        self._labels = labels

    def __enter__(self) -> "_ExceptionCounter":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is not None:
            self._counter.inc(**self._labels)
        return False


class Gauge(_Instrument):
    """A point-in-time value that can move both ways, per label set."""

    kind = "gauge"

    def _new_series(self) -> float:
        return 0

    def set(self, value: float, **labels: Any) -> None:
        """Replace the labelled series' value."""
        with self._lock:
            self._series[self.labels(**labels)] = value

    def set_max(self, value: float, **labels: Any) -> None:
        """Raise the labelled series to ``value`` if it is below it.

        Atomic under the instrument lock — the peak-tracking idiom
        (queue-depth highwater marks) stays correct under concurrency.
        """
        with self._lock:
            key = self.labels(**labels)
            if value > self._series[key]:
                self._series[key] = value

    def inc(self, amount: float = 1, **labels: Any) -> None:
        with self._lock:
            key = self.labels(**labels)
            self._series[key] += amount

    def dec(self, amount: float = 1, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._series.get(_labels_key(labels), 0)


#: default histogram buckets: powers of two up to 4096 — right for the
#: pair-count and round-count scales the sorter produces
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096)


class _HistogramSeries:
    __slots__ = ("bucket_counts", "count", "total")

    def __init__(self, nbuckets: int) -> None:
        self.bucket_counts = [0] * (nbuckets + 1)  # +1 for +Inf
        self.count = 0
        self.total = 0.0


def quantile_from_buckets(
    bounds: tuple[float, ...], bucket_counts: list[int], q: float
) -> float:
    """Prometheus ``histogram_quantile`` over per-bucket observation counts.

    ``bounds`` are the ascending finite bucket upper bounds; ``bucket_counts``
    holds one (non-cumulative) count per bound, optionally followed by one
    ``+Inf`` overflow entry.  The quantile is linearly interpolated within
    the bucket it lands in, taking 0 as the lower edge of the first bucket —
    exactly what PromQL computes from ``_bucket`` series.  Returns NaN with
    no observations; a quantile landing in the overflow returns the largest
    finite bound (again matching Prometheus).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    total = sum(bucket_counts)
    if total == 0:
        return float("nan")
    target = q * total
    cumulative = 0.0
    lower = 0.0
    for bound, count in zip(bounds, bucket_counts):
        if count and cumulative + count >= target:
            return lower + (bound - lower) * (target - cumulative) / count
        cumulative += count
        lower = bound
    return float(bounds[-1])


class Histogram(_Instrument):
    """A bucketed distribution with cumulative Prometheus semantics."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help)
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("buckets must be a non-empty ascending sequence")
        self.buckets = tuple(buckets)

    def _new_series(self) -> _HistogramSeries:
        return _HistogramSeries(len(self.buckets))

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation in the labelled series."""
        self.observe_at(self.labels(**labels), value)

    def observe_at(self, key: Labels, value: float) -> None:
        """:meth:`observe` into the series of a label set resolved by :meth:`labels`."""
        with self._lock:
            series = self._series[key]
            series.count += 1
            series.total += value
            # first bound >= value; past the last bound (or NaN): +Inf
            index = bisect_left(self.buckets, value) if value <= self.buckets[-1] else -1
            series.bucket_counts[index] += 1

    def quantile(self, q: float, **labels: Any) -> float:
        """Approximate ``q``-quantile of the labelled series.

        Bucket-interpolated with :func:`quantile_from_buckets` — the same
        estimate PromQL's ``histogram_quantile`` derives from the exposed
        ``_bucket`` samples, so p50/p99 printed locally match what a scraper
        would chart.  NaN if the series has no observations.
        """
        with self._lock:
            series = self._series.get(_labels_key(labels))
            if series is None:
                return float("nan")
            return quantile_from_buckets(self.buckets, series.bucket_counts, q)

    def raw_samples(self) -> list[tuple[Labels, int, float, tuple[int, ...]]]:
        """Consistent raw samples of every series, for the tsdb sampler.

        Returns one ``(labels, count, sum, bucket_counts)`` tuple per series,
        where ``bucket_counts`` is the *non-cumulative* per-bound count vector
        (``+Inf`` overflow last).  The whole list is built under the
        instrument lock, so within each tuple ``sum(bucket_counts) == count``
        always holds — a sampler thread can never observe a torn histogram
        mid-``observe``.
        """
        with self._lock:
            return [
                (key, s.count, s.total, tuple(s.bucket_counts))
                for key, s in self._series.items()
            ]

    def snapshot_series(self, **labels: Any) -> dict[str, Any]:
        """Count / sum / per-bucket cumulative counts of one series."""
        with self._lock:
            series = self._series.get(_labels_key(labels))
            if series is None:
                return {"count": 0, "sum": 0.0, "buckets": {}}
            return self._series_dict(series)

    def _series_dict(self, series: _HistogramSeries) -> dict[str, Any]:
        # under the instrument lock: a scrape never reads a torn
        # (count, buckets) pair while another thread is mid-observe
        with self._lock:
            cumulative = 0
            buckets: dict[str, int] = {}
            for bound, n in zip(self.buckets, series.bucket_counts):
                cumulative += n
                buckets[str(bound)] = cumulative
            buckets["+Inf"] = cumulative + series.bucket_counts[-1]
            return {"count": series.count, "sum": series.total, "buckets": buckets}


class MetricsRegistry:
    """Namespace of instruments with idempotent creation and two exports.

    ``counter``/``gauge``/``histogram`` return the existing instrument when
    called again with the same name (so instrumentation sites don't need to
    coordinate), and raise if the name is already taken by a different
    instrument type.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, cls: type, name: str, help: str, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            instrument = cls(name, help, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def __iter__(self) -> Iterator[_Instrument]:
        with self._lock:
            return iter(list(self._instruments.values()))

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._instruments

    # -- exports --------------------------------------------------------
    def expose_text(self) -> str:
        """Prometheus text exposition format (one block per instrument).

        Safe to call from a scrape thread while instruments keep moving:
        iteration works over locked snapshots, so a concurrent observe can
        never tear a sample or crash the walk.
        """
        lines: list[str] = []
        for inst in self:
            if inst.help:
                lines.append(f"# HELP {inst.name} {inst.help}")
            lines.append(f"# TYPE {inst.name} {inst.kind}")
            if isinstance(inst, Histogram):
                for key, series in inst.series():
                    data = inst._series_dict(series)
                    for bound, cum in data["buckets"].items():
                        blabels = _format_labels(key + (("le", bound),))
                        lines.append(f"{inst.name}_bucket{blabels} {cum}")
                    lines.append(f"{inst.name}_sum{_format_labels(key)} {data['sum']:g}")
                    lines.append(f"{inst.name}_count{_format_labels(key)} {data['count']}")
            else:
                for key, value in inst.series():
                    lines.append(f"{inst.name}{_format_labels(key)} {value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, Any]:
        """JSON-safe dict: instrument -> type, help and per-series values."""
        out: dict[str, Any] = {}
        for inst in self:
            if isinstance(inst, Histogram):
                series = [
                    {"labels": dict(key), **inst._series_dict(s)}
                    for key, s in inst.series()
                ]
            else:
                series = [
                    {"labels": dict(key), "value": value} for key, value in inst.series()
                ]
            out[inst.name] = {"type": inst.kind, "help": inst.help, "series": series}
        return out


class MetricsSubscriber:
    """Feeds a :class:`MetricsRegistry` from the tracer's events on the
    unified event bus (``span_start`` / ``span_end`` / ``point``).  The
    instruments it maintains:

    ==============================  =========  =================================
    metric                          type       meaning
    ==============================  =========  =================================
    ``repro_spans_total``           counter    span_end events by name and kind
    ``repro_rounds_total``          counter    rounds charged, by charge kind
    ``repro_comparisons_total``     counter    comparisons, by charge kind
    ``repro_span_depth``            gauge      currently open spans
    ``repro_span_seconds``          histogram  span wall time (seconds)
    ``repro_points_total``          counter    point events by name
    ==============================  =========  =================================

    The machine's traffic instruments are a function of its schedule, not
    of a run: :func:`~repro.observability.export.traffic_metrics` adds them.
    """

    #: sub-second buckets for span wall time (simulation phases are fast)
    TIME_BUCKETS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        r = self.registry
        self._spans = r.counter("repro_spans_total", "phase spans closed, by name and charge kind")
        self._rounds = r.counter("repro_rounds_total", "synchronous rounds charged, by charge kind")
        self._comparisons = r.counter("repro_comparisons_total", "key comparisons, by charge kind")
        self._depth = r.gauge("repro_span_depth", "currently open spans")
        self._seconds = r.histogram(
            "repro_span_seconds", "span wall time in seconds", buckets=self.TIME_BUCKETS
        )
        self._points = r.counter("repro_points_total", "instantaneous point events, by name")
        self._open_starts: dict[int, float] = {}

    def on_event(self, event: TraceEvent) -> None:
        if event.kind == "span_start":
            self._depth.inc()
            if event.span_id is not None:
                self._open_starts[event.span_id] = event.time
        elif event.kind == "span_end":
            self._depth.dec()
            kind = str(event.attrs.get("kind", "")) or "structural"
            self._spans.inc(name=event.name, kind=kind)
            rounds = int(event.attrs.get("rounds", 0))
            if rounds:
                self._rounds.inc(rounds, kind=kind)
            comparisons = int(event.attrs.get("comparisons", 0))
            if comparisons:
                self._comparisons.inc(comparisons, kind=kind)
            start = self._open_starts.pop(event.span_id, None)
            if start is not None:
                self._seconds.observe(max(event.time - start, 0.0))
        elif event.kind == "point":
            self._points.inc(name=event.name)
