"""In-process time-series store: the sampled history behind the SLO alerts.

Every instrument in a :class:`~repro.observability.metrics.MetricsRegistry`
is point-in-time — a scrape shows cumulative totals with no history.  The
:class:`TimeSeriesStore` closes that gap without any external dependency: it
*samples* every registry series into per-series ring buffers at a fixed
interval (a background daemon thread in production, a deterministic
:meth:`TimeSeriesStore.tick` in tests) and answers the two PromQL-shaped
questions the SLO layer (:mod:`repro.observability.slo`) asks:

* :meth:`~TimeSeriesStore.increase` — counter growth over a trailing
  window, with counter-*reset* detection (a sampled value below its
  predecessor is treated as a restart, and the post-reset value counts in
  full, exactly like PromQL ``increase``);
* :meth:`~TimeSeriesStore.histogram_increase` — the histogram's count, sum
  and per-bucket *deltas* across the window (last sample minus the sample
  just before the window), from which a "fraction slower than X over the
  last 30s" SLI follows.

Label filtering is subset-match (``store.increase("repro_serve_requests_total",
5.0, cell="path(3)-n3-r3")`` sums every series whose labels contain that
pair), mirroring a PromQL selector plus ``sum``.

Histogram samples are taken with
:meth:`~repro.observability.metrics.Histogram.raw_samples`, which copies
``(count, sum, bucket_counts)`` under the instrument lock — each sampled
tuple satisfies ``sum(bucket_counts) == count``, the no-torn-read contract
``tests/test_metrics.py`` pins under concurrent load.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Callable

from .metrics import Counter, Gauge, Histogram, MetricsRegistry

__all__ = ["TimeSeriesStore"]

Labels = tuple[tuple[str, str], ...]

#: histogram sample: (time, count, sum, buckets); scalar samples are (time, value)
HistogramPoint = tuple[float, int, float, tuple[int, ...]]


def _labels_match(series_labels: Labels, want: dict[str, Any]) -> bool:
    """Subset match: every wanted pair must appear in the series labels."""
    if not want:
        return True
    have = dict(series_labels)
    return all(have.get(str(k)) == str(v) for k, v in want.items())


def _monotone_increase(values: list[float]) -> float:
    """Reset-aware total growth across consecutive counter samples."""
    total = 0.0
    prev: float | None = None
    for v in values:
        if prev is not None:
            total += v if v < prev else v - prev
        prev = v
    return total


class _Series:
    """One sampled series: identity, kind, bounds (histograms), ring buffer."""

    __slots__ = ("name", "labels", "kind", "bounds", "points")

    def __init__(
        self,
        name: str,
        labels: Labels,
        kind: str,
        capacity: int,
        bounds: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.kind = kind
        self.bounds = bounds
        self.points: deque[Any] = deque(maxlen=capacity)

    def window(self, start: float, now: float) -> tuple[Any | None, list[Any]]:
        """(last sample at or before ``start``, samples in ``(start, now]``)."""
        baseline: Any | None = None
        inside: list[Any] = []
        for point in self.points:
            t = point[0]
            if t > now:
                break
            if t <= start:
                baseline = point
            else:
                inside.append(point)
        return baseline, inside


class TimeSeriesStore:
    """Ring-buffered samples of every registry series; see the module doc.

    ``interval_s`` is the sampler cadence (both the thread's period and the
    nominal spacing :meth:`tick` callers should honour); ``capacity`` bounds
    per-series history (oldest samples fall off).  ``clock`` defaults to
    ``time.monotonic`` and is injectable for deterministic tests.

    ``on_tick`` callbacks (append to the list) run after every completed
    tick — manual or threaded — with the tick's timestamp; the serving stack
    uses this to evaluate SLO burn rates at sampling cadence.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        interval_s: float = 0.25,
        capacity: int = 1440,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if capacity < 2:
            raise ValueError("capacity must be >= 2 (queries need deltas)")
        self.registry = registry
        self.interval_s = interval_s
        self.capacity = capacity
        self.on_tick: list[Callable[[float], None]] = []
        self.ticks = 0
        self.last_tick: float | None = None
        self._clock = clock
        self._lock = threading.RLock()
        self._series: dict[tuple[str, Labels], _Series] = {}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    # -- sampling --------------------------------------------------------

    def _get_series(
        self, name: str, labels: Labels, kind: str, bounds: tuple[float, ...] | None = None
    ) -> _Series:
        key = (name, labels)
        series = self._series.get(key)
        if series is None:
            series = _Series(name, labels, kind, self.capacity, bounds)
            self._series[key] = series
        return series

    def tick(self, now: float | None = None) -> float:
        """Sample every registry series once; returns the tick timestamp.

        Safe to call from any thread; per-instrument snapshots are taken
        under the instrument's own lock (so histograms are never torn) and
        appended under the store lock.  ``now`` defaults to the injected
        clock — tests pass explicit timestamps for full determinism.
        """
        stamp = self._clock() if now is None else float(now)
        scalars: list[tuple[str, Labels, str, float]] = []
        hists: list[tuple[str, Labels, tuple[float, ...], HistogramPoint]] = []
        for inst in self.registry:
            if isinstance(inst, Histogram):
                for key, count, total, buckets in inst.raw_samples():
                    hists.append((inst.name, key, inst.buckets, (stamp, count, total, buckets)))
            elif isinstance(inst, (Counter, Gauge)):
                for key, value in inst.series():
                    scalars.append((inst.name, key, inst.kind, float(value)))
        with self._lock:
            for name, key, kind, value in scalars:
                self._get_series(name, key, kind).points.append((stamp, value))
            for name, key, bounds, point in hists:
                self._get_series(name, key, "histogram", bounds).points.append(point)
            self.ticks += 1
            self.last_tick = stamp
        for callback in list(self.on_tick):
            callback(stamp)
        return stamp

    def start(self) -> "TimeSeriesStore":
        """Start the background sampler thread (idempotent); returns self."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(self.interval_s):
                try:
                    self.tick()
                except Exception:  # never kill the sampler; next tick retries
                    pass

        self._thread = threading.Thread(target=_loop, name="repro-tsdb-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampler thread (if running) and join it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "TimeSeriesStore":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- selection -------------------------------------------------------

    def now(self) -> float:
        """The query reference time: last tick if any, else the clock."""
        with self._lock:
            if self.last_tick is not None:
                return self.last_tick
        return self._clock()

    def match(self, name: str, **labels: Any) -> list[_Series]:
        """Every sampled series for ``name`` whose labels contain ``labels``."""
        with self._lock:
            return [
                s
                for s in self._series.values()
                if s.name == name and _labels_match(s.labels, labels)
            ]

    # -- scalar queries --------------------------------------------------

    def increase(
        self, name: str, window_s: float, now: float | None = None, **labels: Any
    ) -> float:
        """Counter growth over the trailing window, reset-aware, summed.

        Per series: the sample just before the window is the baseline (a
        counter that existed before the window contributes only its growth
        *inside* it); consecutive samples are folded with reset detection
        (``v < prev`` ⇒ restart ⇒ add ``v`` in full).  Gauges work too —
        the result is then the net change, without reset folding guarantees.
        """
        with self._lock:
            now = self.now() if now is None else now
            start = now - window_s
            total = 0.0
            for s in self.match(name, **labels):
                if s.kind == "histogram":
                    continue
                baseline, inside = s.window(start, now)
                values = [p[1] for p in ([baseline] if baseline is not None else []) + inside]
                if len(values) >= 2:
                    total += _monotone_increase(values)
        return total

    # -- histogram queries -----------------------------------------------

    def histogram_increase(
        self, name: str, window_s: float, now: float | None = None, **labels: Any
    ) -> tuple[tuple[float, ...], int, float, list[int]] | None:
        """Windowed histogram delta: ``(bounds, count, sum, bucket_counts)``.

        Summed over matching series.  ``bucket_counts`` are non-cumulative
        per-bound deltas (``+Inf`` last), clamped at zero per series so a
        restart never goes negative; a series born inside the window counts
        from zero.  ``None`` when no matching histogram series has been
        sampled; ``ValueError`` when matching series disagree on bounds.
        """
        with self._lock:
            now = self.now() if now is None else now
            start = now - window_s
            bounds: tuple[float, ...] | None = None
            count_delta = 0
            sum_delta = 0.0
            bucket_deltas: list[int] | None = None
            for s in self.match(name, **labels):
                if s.kind != "histogram" or s.bounds is None:
                    continue
                if bounds is None:
                    bounds = s.bounds
                    bucket_deltas = [0] * (len(bounds) + 1)
                elif s.bounds != bounds:
                    raise ValueError(
                        f"histogram {name!r} series have mismatched buckets"
                    )
                baseline, inside = s.window(start, now)
                if not inside:
                    continue
                if baseline is None:
                    baseline = (start, 0, 0.0, (0,) * (len(bounds) + 1))
                last = inside[-1]
                count_delta += max(last[1] - baseline[1], 0)
                sum_delta += max(last[2] - baseline[2], 0.0)
                assert bucket_deltas is not None
                for i, (b0, b1) in enumerate(zip(baseline[3], last[3])):
                    bucket_deltas[i] += max(b1 - b0, 0)
            if bounds is None or bucket_deltas is None:
                return None
        return bounds, count_delta, sum_delta, bucket_deltas
