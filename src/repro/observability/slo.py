"""Declarative SLOs evaluated as multi-window burn-rate alerts.

An SLO here is "fraction of *good* events ≥ ``objective``" over a rolling
window, with two event-counting styles covering everything the serving layer
promises:

``counter_ratio``
    bad / total from two counters — availability (sheds over offered) and
    the deadline-miss ratio;
``histogram_threshold``
    bad = observations *above* ``threshold_s`` in a latency histogram — so
    "p99 request latency ≤ 250ms" becomes "≤ 1% of requests slower than
    250ms", a ratio SLI that burn-rate math applies to directly.  The
    threshold must sit on (or near) a bucket bound; it is snapped to the
    largest bound ≤ threshold.

Evaluation is the Google-SRE multi-window burn-rate scheme: with error
budget ``1 − objective``, the *burn rate* over a window is
``error_ratio / budget`` (1.0 = spending the budget exactly at the rate
that exhausts it at the window's horizon).  An alert severity fires only
when **both** its long and its short window exceed the policy's burn
threshold — the long window rejects blips, the short window makes the alert
*resolve* quickly once the incident ends.  Two policies per spec:

* **page** — fast windows, high burn (default 14.4× on 60s/5s);
* **warn** — slow windows, low burn (default 3× on 300s/30s).

:class:`SLOEvaluator` reads a
:class:`~repro.observability.metrics.MetricsRegistry` directly.  Each
:meth:`~SLOEvaluator.tick` samples one cumulative ``(t, bad, total)``
triple per spec — every series of the spec's metrics summed, an instrument
not registered yet counting as zero — and then evaluates: a window's error
ratio is Δbad / Δtotal against the last sample at or before the window's
start (or the oldest sample held).  The first tick, taken before any
traffic, reads zeros, so every event counts, whichever label set it lands
in.  Each spec drives an ok → warning → page state machine; every
transition appends to the alert history, is exposed in the
``/alerts.json`` snapshot, and — when a
:class:`~repro.observability.tracer.Tracer` is attached — emits a
``slo-firing`` / ``slo-resolved`` point event on the tracer bus, next to the
``serve-*`` events the service itself publishes.  :meth:`~SLOEvaluator.start`
runs the ticks on a daemon thread at :attr:`~SLOEvaluator.interval_s`.

:func:`default_serve_slos` declares the four serving objectives
(availability, p99 request latency, deadline misses, queue wait); pass
``window_scale`` to shrink the canonical windows for short runs (loadgen
scales them to the run duration so a 2-second burst still exercises the
alert math).
"""

from __future__ import annotations

import logging
import math
import threading
import time
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Iterable

from .metrics import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tracer import Tracer

__all__ = [
    "BurnPolicy",
    "SLOEvaluator",
    "SLOSpec",
    "SEVERITIES",
    "default_serve_slos",
]

#: alert severities, in escalation order
SEVERITIES = ("ok", "warning", "page")

_SEVERITY_RANK = {name: i for i, name in enumerate(SEVERITIES)}

#: transition events kept per spec (oldest dropped first)
MAX_EVENTS = 256

#: the sampler ticks this often per shortest burn window ...
TICKS_PER_WINDOW = 20
#: ... but never faster than this
MIN_INTERVAL_S = 0.005

#: one sample: (time, cumulative bad events, cumulative total events)
Sample = tuple[float, float, float]


@dataclass(frozen=True)
class BurnPolicy:
    """One severity's trigger: burn ≥ ``burn`` on *both* windows."""

    #: the long window (seconds) — rejects blips
    long_s: float
    #: the short window (seconds) — makes resolution fast
    short_s: float
    #: burn-rate threshold (multiples of budget-neutral spend)
    burn: float

    def __post_init__(self) -> None:
        # written so that NaN fails too: a NaN or infinite window leaves the
        # sampler without a cadence
        if not (0 < self.long_s < math.inf and 0 < self.short_s < math.inf):
            raise ValueError("burn windows must be positive and finite")
        if self.short_s > self.long_s:
            raise ValueError("short window must not exceed the long window")
        if not self.burn > 0:
            raise ValueError("burn threshold must be positive")

    def scaled(self, factor: float) -> "BurnPolicy":
        return replace(self, long_s=self.long_s * factor, short_s=self.short_s * factor)

    def to_json(self) -> dict[str, Any]:
        return {"long_s": self.long_s, "short_s": self.short_s, "burn": self.burn}


@dataclass(frozen=True)
class SLOSpec:
    """One declarative objective; see the module docstring for semantics."""

    name: str
    objective: float
    kind: str = "counter_ratio"
    description: str = ""
    #: counter_ratio: the bad-event and total-event counters
    bad_metric: str | None = None
    total_metric: str | None = None
    #: histogram_threshold: the latency histogram and the good/bad boundary
    metric: str | None = None
    threshold_s: float | None = None
    page: BurnPolicy = BurnPolicy(long_s=60.0, short_s=5.0, burn=14.4)
    warn: BurnPolicy = BurnPolicy(long_s=300.0, short_s=30.0, burn=3.0)

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be strictly between 0 and 1")
        if self.kind == "counter_ratio":
            if not self.bad_metric or not self.total_metric:
                raise ValueError("counter_ratio needs bad_metric and total_metric")
        elif self.kind == "histogram_threshold":
            if not self.metric or self.threshold_s is None:
                raise ValueError("histogram_threshold needs metric and threshold_s")
        else:
            raise ValueError(f"unknown SLI kind {self.kind!r}")

    @property
    def budget(self) -> float:
        """The error budget: the tolerated bad-event fraction."""
        return 1.0 - self.objective

    def scaled(self, factor: float) -> "SLOSpec":
        """The same objective with both policies' windows × ``factor``."""
        if factor == 1.0:
            return self
        return replace(self, page=self.page.scaled(factor), warn=self.warn.scaled(factor))

    def sample(self, instruments: dict[str, Any]) -> tuple[float, float]:
        """Cumulative ``(bad, total)`` events, summed over every series.

        ``instruments`` maps metric names to registry instruments; a name
        not registered yet counts as zero events.  A histogram is read
        through :meth:`~repro.observability.metrics.Histogram.raw_samples`,
        under its lock, so count and buckets come from the same moment; its
        bad events are the count minus the observations in buckets at or
        below the snapped threshold.
        """
        if self.kind == "counter_ratio":
            assert self.bad_metric is not None and self.total_metric is not None
            bad, total = instruments.get(self.bad_metric), instruments.get(self.total_metric)
            return _series_sum(bad), _series_sum(total)
        assert self.metric is not None and self.threshold_s is not None
        hist = instruments.get(self.metric)
        if not isinstance(hist, Histogram):
            return 0.0, 0.0
        # snap the threshold to the largest bound <= threshold_s
        snapped = self.threshold_s * (1.0 + 1e-9)
        good_buckets = sum(1 for bound in hist.buckets if bound <= snapped)
        count = good = 0
        for _key, series_count, _sum, buckets in hist.raw_samples():
            count += series_count
            good += sum(buckets[:good_buckets])
        return float(count - good), float(count)

    def to_json(self) -> dict[str, Any]:
        doc: dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "objective": self.objective,
            "budget": self.budget,
            "description": self.description,
            "page": self.page.to_json(),
            "warn": self.warn.to_json(),
        }
        if self.kind == "counter_ratio":
            doc["bad_metric"] = self.bad_metric
            doc["total_metric"] = self.total_metric
        else:
            doc["metric"] = self.metric
            doc["threshold_s"] = self.threshold_s
        return doc


def _series_sum(instrument: Any) -> float:
    """Every series of a counter summed; zero when it is not registered."""
    if instrument is None:
        return 0.0
    return float(sum(value for _key, value in instrument.series()))


def error_ratio(samples: Iterable[Sample], window_s: float, now: float) -> float | None:
    """Δbad / Δtotal over the trailing window; ``None`` with no events.

    The baseline is the last sample at or before ``now − window_s``, or the
    oldest sample held; the end is the last sample at or before ``now``.
    """
    start = now - window_s
    baseline: Sample | None = None
    last: Sample | None = None
    for point in samples:
        if point[0] > now:
            break
        if baseline is None or point[0] <= start:
            baseline = point
        last = point
    if baseline is None or last is None:
        return None
    total = last[2] - baseline[2]
    if total <= 0:
        return None
    return min(max((last[1] - baseline[1]) / total, 0.0), 1.0)


def _burns(spec: SLOSpec, samples: Iterable[Sample], now: float) -> dict[str, float | None]:
    """The four windows' burn rates (``None`` = no events in the window)."""
    burns: dict[str, float | None] = {}
    for key, window in (
        ("page_long", spec.page.long_s),
        ("page_short", spec.page.short_s),
        ("warn_long", spec.warn.long_s),
        ("warn_short", spec.warn.short_s),
    ):
        ratio = error_ratio(samples, window, now)
        burns[key] = None if ratio is None else ratio / spec.budget
    return burns


class _AlertState:
    """Mutable per-spec alert state inside the evaluator."""

    __slots__ = ("severity", "since", "events", "pages_fired", "samples", "burns")

    def __init__(self) -> None:
        self.severity = "ok"
        self.since: float | None = None
        self.events: list[dict[str, Any]] = []
        self.pages_fired = 0
        self.samples: deque[Sample] = deque()
        self.burns: dict[str, float | None] = dict.fromkeys(
            ("page_long", "page_short", "warn_long", "warn_short")
        )


class SLOEvaluator:
    """Samples the registry per spec and keeps the alert state machine.

    Thread-safe: the sampler thread (or a test) calls :meth:`tick` while
    scrape threads call :meth:`snapshot` for ``/alerts.json``.  ``clock``
    (``time.monotonic`` by default) stamps a tick taken without ``now``.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        specs: tuple[SLOSpec, ...] | list[SLOSpec] = (),
        tracer: "Tracer | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.registry = registry
        self.tracer = tracer
        self.ticks = 0
        self.last_tick: float | None = None
        self._clock = clock
        self._lock = threading.RLock()
        self._specs: list[SLOSpec] = []
        self._states: dict[str, _AlertState] = {}
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        for spec in specs:
            self.add(spec)

    def add(self, spec: SLOSpec) -> None:
        with self._lock:
            if any(s.name == spec.name for s in self._specs):
                raise ValueError(f"duplicate SLO name {spec.name!r}")
            self._specs.append(spec)
            self._states[spec.name] = _AlertState()

    @property
    def specs(self) -> tuple[SLOSpec, ...]:
        with self._lock:
            return tuple(self._specs)

    @property
    def interval_s(self) -> float:
        """Sampling cadence: the shortest burn window ÷ 20, never below 5 ms."""
        windows = [w for s in self.specs for w in (s.page.short_s, s.warn.short_s)]
        return max(min(windows, default=0.0) / TICKS_PER_WINDOW, MIN_INTERVAL_S)

    def samples(self, name: str) -> list[Sample]:
        """The ``(t, bad, total)`` samples held for one spec, oldest first."""
        with self._lock:
            return list(self._states[name].samples)

    # -- sampling and evaluation -----------------------------------------

    def tick(self, now: float | None = None) -> list[dict[str, Any]]:
        """Sample every spec once, then evaluate; returns the transitions.

        Each transition dict carries the spec name, ``from``/``to``
        severities, the burn rates that drove it, and ``kind`` —
        ``"firing"`` when escalating away from ok-ward, ``"resolved"`` when
        the new severity is ``ok``.  The same events go to the tracer bus as
        ``slo-firing`` / ``slo-resolved`` point events.  Samples no window
        can reach any more are dropped, keeping one baseline before the
        longest window.
        """
        stamp = self._clock() if now is None else float(now)
        instruments = {inst.name: inst for inst in self.registry}
        with self._lock:
            transitions: list[dict[str, Any]] = []
            for spec in self._specs:
                state = self._states[spec.name]
                samples = state.samples
                samples.append((stamp, *spec.sample(instruments)))
                horizon = stamp - max(spec.page.long_s, spec.warn.long_s)
                while len(samples) > 1 and samples[1][0] <= horizon:
                    samples.popleft()
                state.burns = _burns(spec, samples, stamp)
                event = self._step(spec, state, stamp)
                if event is not None:
                    transitions.append(event)
            self.ticks += 1
            self.last_tick = stamp
        if self.tracer is not None:
            for event in transitions:
                self.tracer.event(
                    f"slo-{event['kind']}",
                    kind="slo",
                    slo=event["slo"],
                    severity=event["to"],
                    previous=event["from"],
                )
        return transitions

    @staticmethod
    def _step(spec: SLOSpec, state: _AlertState, stamp: float) -> dict[str, Any] | None:
        """Move one spec's state machine to its current severity."""
        burns = state.burns

        def fires(policy: BurnPolicy, prefix: str) -> bool:
            lng, sht = burns[f"{prefix}_long"], burns[f"{prefix}_short"]
            return lng is not None and sht is not None and min(lng, sht) >= policy.burn

        if fires(spec.page, "page"):
            severity = "page"
        elif fires(spec.warn, "warn"):
            severity = "warning"
        else:
            severity = "ok"
        if severity == state.severity:
            return None
        event = {
            "slo": spec.name,
            "kind": "resolved" if severity == "ok" else "firing",
            "from": state.severity,
            "to": severity,
            "time": stamp,
            "burn": {k: v for k, v in burns.items() if v is not None},
        }
        state.events.append(event)
        del state.events[:-MAX_EVENTS]
        if _SEVERITY_RANK[severity] > _SEVERITY_RANK[state.severity]:
            state.since = stamp
        if severity == "page":
            state.pages_fired += 1
        if severity == "ok":
            state.since = None
        state.severity = severity
        return event

    def start(self) -> "SLOEvaluator":
        """Start the background sampler thread (idempotent); returns self."""
        if self._thread is not None and self._thread.is_alive():
            return self
        self._stop.clear()
        interval = self.interval_s

        def _loop() -> None:
            while not self._stop.wait(interval):
                try:
                    self.tick()
                except Exception:  # never kill the sampler; next tick retries
                    logging.getLogger(__name__).exception("SLO tick failed")

        self._thread = threading.Thread(target=_loop, name="repro-slo-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the sampler thread (if running) and join it."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "SLOEvaluator":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- reporting -------------------------------------------------------

    @property
    def page_alerts(self) -> int:
        """Total page-severity firings across all specs since construction."""
        with self._lock:
            return sum(state.pages_fired for state in self._states.values())

    @property
    def max_severity_seen(self) -> str:
        """The worst severity any spec has ever reached."""
        with self._lock:
            worst = 0
            for state in self._states.values():
                for event in state.events:
                    worst = max(worst, _SEVERITY_RANK[event["to"]])
        return SEVERITIES[worst]

    def snapshot(self) -> dict[str, Any]:
        """The ``/alerts.json`` document as of the last tick: specs, burns,
        alert history (``evaluated_at`` is ``None`` before the first tick)."""
        with self._lock:
            alerts: list[dict[str, Any]] = []
            for spec in self._specs:
                state = self._states[spec.name]
                alerts.append(
                    {
                        "spec": spec.to_json(),
                        "severity": state.severity,
                        "since": state.since,
                        "pages_fired": state.pages_fired,
                        "burn": dict(state.burns),
                        "events": list(state.events),
                    }
                )
            return {
                "evaluated_at": self.last_tick,
                "severities": list(SEVERITIES),
                "page_alerts": self.page_alerts,
                "max_severity_seen": self.max_severity_seen,
                "current_severity": SEVERITIES[
                    max((_SEVERITY_RANK[a["severity"]] for a in alerts), default=0)
                ],
                "alerts": alerts,
            }


def default_serve_slos(
    availability_objective: float = 0.999,
    latency_objective: float = 0.99,
    latency_threshold_s: float = 0.25,
    queue_wait_threshold_s: float = 0.1,
    deadline_objective: float = 0.999,
    window_scale: float = 1.0,
) -> tuple[SLOSpec, ...]:
    """The four serving objectives, windows scaled by ``window_scale``.

    * ``serve-availability`` — sheds over offered requests;
    * ``serve-request-p99`` — request latency above ``latency_threshold_s``;
    * ``serve-deadline-misses`` — completions past the configured deadline;
    * ``serve-queue-wait-p99`` — queue wait above ``queue_wait_threshold_s``.
    """
    specs = (
        SLOSpec(
            name="serve-availability",
            description="fraction of offered requests not shed by admission control",
            kind="counter_ratio",
            objective=availability_objective,
            bad_metric="repro_serve_rejections_total",
            total_metric="repro_serve_requests_total",
        ),
        SLOSpec(
            name="serve-request-p99",
            description=f"requests slower than {latency_threshold_s * 1e3:g}ms",
            kind="histogram_threshold",
            objective=latency_objective,
            metric="repro_serve_request_seconds",
            threshold_s=latency_threshold_s,
        ),
        SLOSpec(
            name="serve-deadline-misses",
            description="completions past the configured deadline",
            kind="counter_ratio",
            objective=deadline_objective,
            bad_metric="repro_serve_deadline_misses_total",
            total_metric="repro_serve_requests_total",
        ),
        SLOSpec(
            name="serve-queue-wait-p99",
            description=f"requests queued longer than {queue_wait_threshold_s * 1e3:g}ms",
            kind="histogram_threshold",
            objective=latency_objective,
            metric="repro_serve_queue_wait_seconds",
            threshold_s=queue_wait_threshold_s,
        ),
    )
    return tuple(spec.scaled(window_scale) for spec in specs)
