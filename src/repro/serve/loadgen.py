"""SLO-gated open-loop load generation against the sort service.

The generator models *arrivals*, not a closed request loop: every request's
send time is drawn up front from an arrival schedule (Poisson or bursty),
and requests fire at those offsets regardless of how fast earlier ones
complete.  That is the regime where micro-batching and admission control
actually matter — a closed loop self-throttles and can never observe queue
growth or shedding.

Each scenario is ``(cell, key mix, arrival schedule, rate, request count)``:

* **key mixes** — ``uniform`` random keys, ``duplicates`` (tiny alphabet,
  stresses tie handling), ``presorted`` (already in order) and
  ``adversarial`` (reverse sorted — the worst case for an oblivious
  network's data movement);
* **arrival schedules** — ``poisson`` (exponential gaps at ``rate`` req/s)
  and ``burst`` (alternating quiet / ``burst_factor``× rate windows).

Every response is verified bit-for-bit against the snake-order ground truth
(``np.sort`` permuted by :func:`~repro.schedule.ir.snake_order_nodes`); a
mismatch is a correctness failure, never a latency data point.  Results are
JSON-safe documents with structural counts (offered / completed / rejected /
mismatches / errors — gated at zero tolerance by benchreg's serving section)
plus informational latency percentiles and throughput.

Two observability layers ride along:

* **server-side latency** — in-process runs always report the service's own
  ``repro_serve_request_seconds`` / ``repro_serve_queue_wait_seconds``
  percentiles next to the client view, plus a ``consistent`` verdict:
  bucketing the client latencies into the *same*
  :data:`~repro.serve.service.REQUEST_TIME_BUCKETS` makes the two views
  directly comparable, and per-request dominance (a request's server
  latency can never exceed what its client measured) guarantees
  server p99 ≤ client p99 on a clean run;
* **SLO evaluation** (``slo=True`` / ``repro loadgen --slo``) — a
  :class:`~repro.observability.tsdb.TimeSeriesStore` sampler runs during
  the drive, an :class:`~repro.observability.slo.SLOEvaluator` with the
  default serving SLOs (windows scaled to the run duration) evaluates on
  every tick, and the final alert snapshot lands in the document's ``slo``
  section, whose worst severity and page-alert count benchreg's serving
  section gates (a page-severity alert during a clean run fails the
  candidate).  A per-flush penalty (``--flush-penalty``) with a small
  ``--max-queue-depth`` is the overload drill that pages instead
  (``docs/slo.md``).

Drive an in-process service (default) or a live HTTP endpoint via
``target=`` / ``repro loadgen --target URL`` (the CI serve-smoke path; with
``slo=True`` the target's own ``/alerts.json`` becomes the ``slo`` section).
"""

from __future__ import annotations

import asyncio
import json
import urllib.error
import urllib.request
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Awaitable, Callable

import numpy as np

from .service import REQUEST_TIME_BUCKETS, Rejected, ServiceConfig, SortService

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability.metrics import MetricsRegistry
    from ..observability.slo import SLOEvaluator
    from ..observability.tracer import Tracer
    from ..observability.tsdb import TimeSeriesStore

__all__ = [
    "ARRIVALS",
    "MIXES",
    "LoadScenario",
    "arrival_offsets",
    "make_keys",
    "run_loadgen",
]

MIXES = ("uniform", "duplicates", "presorted", "adversarial")
ARRIVALS = ("poisson", "burst")

#: key-space ceiling for the random mixes (int64 keys, comfortably clear of
#: any dtype edge the kernels might hide)
_KEY_HIGH = 2**31


@dataclass(frozen=True)
class LoadScenario:
    """One load-generation run: what to send, how fast, in what shape."""

    cell: str = "path-n3-r3"
    mix: str = "uniform"
    arrivals: str = "poisson"
    #: mean offered rate in requests/second
    rate: float = 2000.0
    requests: int = 200
    seed: int = 0
    #: burst schedule only: rate multiplier inside a burst window
    burst_factor: float = 8.0
    #: burst schedule only: requests per window before flipping quiet/burst
    burst_len: int = 16

    def __post_init__(self) -> None:
        if self.mix not in MIXES:
            raise ValueError(f"unknown key mix {self.mix!r}; choose from {MIXES}")
        if self.arrivals not in ARRIVALS:
            raise ValueError(f"unknown arrival schedule {self.arrivals!r}; choose from {ARRIVALS}")
        if self.rate <= 0:
            raise ValueError("rate must be positive")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        if self.burst_factor < 1:
            raise ValueError("burst_factor must be >= 1")
        if self.burst_len < 1:
            raise ValueError("burst_len must be >= 1")

    @property
    def key(self) -> str:
        """Stable identity used to pair scenarios across benchreg documents."""
        return f"{self.cell}/{self.mix}/{self.arrivals}"

    def to_json(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "cell": self.cell,
            "mix": self.mix,
            "arrivals": self.arrivals,
            "rate": self.rate,
            "requests": self.requests,
            "seed": self.seed,
            "burst_factor": self.burst_factor,
            "burst_len": self.burst_len,
        }


def make_keys(
    mix: str, rng: np.random.Generator, requests: int, width: int
) -> np.ndarray:
    """Draw a ``(requests, width)`` int64 key block for one mix."""
    if mix == "uniform":
        return rng.integers(0, _KEY_HIGH, size=(requests, width), dtype=np.int64)
    if mix == "duplicates":
        # alphabet of 4 symbols: ~width/4 copies of each key per request,
        # so nearly every comparator sees a tie
        return rng.integers(0, 4, size=(requests, width), dtype=np.int64)
    if mix == "presorted":
        base = rng.integers(0, _KEY_HIGH, size=(requests, width), dtype=np.int64)
        return np.sort(base, axis=1)
    if mix == "adversarial":
        base = rng.integers(0, _KEY_HIGH, size=(requests, width), dtype=np.int64)
        return np.ascontiguousarray(np.sort(base, axis=1)[:, ::-1])
    raise ValueError(f"unknown key mix {mix!r}; choose from {MIXES}")


def arrival_offsets(scenario: LoadScenario, rng: np.random.Generator) -> np.ndarray:
    """Per-request send offsets (seconds from t=0) for the scenario.

    ``poisson``: i.i.d. exponential gaps with mean ``1/rate``.  ``burst``:
    the same construction with the per-gap rate alternating every
    ``burst_len`` requests between a quiet rate and ``burst_factor``× the
    quiet rate, scaled so the *mean* offered rate stays ``rate`` — bursts
    probe queue growth without changing the average load.
    """
    if scenario.arrivals == "poisson":
        gaps = rng.exponential(1.0 / scenario.rate, size=scenario.requests)
    else:
        window = (np.arange(scenario.requests) // scenario.burst_len) % 2
        # solve quiet so that the alternating windows average to `rate`
        quiet = scenario.rate * 2.0 / (1.0 + scenario.burst_factor)
        per_request_rate = np.where(window == 1, quiet * scenario.burst_factor, quiet)
        gaps = rng.exponential(1.0, size=scenario.requests) / per_request_rate
    return np.cumsum(gaps)


def _ground_truth(cell_key: str, keys: np.ndarray) -> np.ndarray:
    """Snake-order expected outputs for a ``(requests, width)`` key block."""
    from ..observability.kernelprof import resolve_profile_cell
    from ..schedule import snake_order_nodes
    from ..staticcheck import emit_schedule

    cell = resolve_profile_cell(cell_key)
    dag = emit_schedule(cell.build_factor(), cell.r, backend=cell.backend)
    snake = snake_order_nodes(dag.n, dag.r)
    expected = np.empty_like(keys)
    expected[:, snake] = np.sort(keys, axis=1)
    return expected


def _percentiles(latencies_s: list[float]) -> dict[str, float] | None:
    if not latencies_s:
        return None
    arr = np.asarray(latencies_s) * 1e3
    return {
        "p50": float(np.percentile(arr, 50)),
        "p90": float(np.percentile(arr, 90)),
        "p99": float(np.percentile(arr, 99)),
        "max": float(arr.max()),
        "mean": float(arr.mean()),
    }


async def _drive(
    submit: Callable[[str, np.ndarray], Awaitable[np.ndarray]],
    scenario: LoadScenario,
    keys: np.ndarray,
    expected: np.ndarray,
    offsets: np.ndarray,
) -> dict[str, Any]:
    """Fire the open-loop arrival plan and tally outcomes."""
    loop = asyncio.get_running_loop()
    start = loop.time()
    counts = {"offered": scenario.requests, "completed": 0, "rejected": 0,
              "mismatches": 0, "errors": 0}
    latencies: list[float] = []

    async def one(i: int) -> None:
        delay = start + offsets[i] - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = loop.time()
        try:
            out = await submit(scenario.cell, keys[i])
        except Rejected:
            counts["rejected"] += 1
            return
        except Exception:
            counts["errors"] += 1
            return
        latencies.append(loop.time() - sent)
        if np.array_equal(np.asarray(out), expected[i]):
            counts["completed"] += 1
        else:
            counts["mismatches"] += 1

    await asyncio.gather(*(one(i) for i in range(scenario.requests)))
    duration = loop.time() - start
    return {
        "counts": counts,
        "latency_ms": _percentiles(latencies),
        "duration_s": duration,
        "offered_rps": scenario.requests / duration if duration > 0 else 0.0,
        "completed_rps": counts["completed"] / duration if duration > 0 else 0.0,
        # raw client latencies, popped by run_loadgen before the doc is
        # returned (used for the bucketed server-vs-client comparison)
        "_latencies_s": latencies,
    }


# ----------------------------------------------------------------------
# HTTP target mode (the CI serve-smoke path)
# ----------------------------------------------------------------------


def _http_sort(target: str, cell: str, row: np.ndarray, timeout: float) -> np.ndarray:
    payload = json.dumps({"cell": cell, "keys": row.tolist()}).encode()
    request = urllib.request.Request(
        target.rstrip("/") + "/sort",
        data=payload,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            doc = json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        if exc.code == 503:
            body = exc.read()
            try:
                reason = str(json.loads(body).get("reason", "unknown"))
            except (ValueError, AttributeError):
                reason = "unknown"
            raise Rejected(cell, reason) from None
        raise
    return np.asarray(doc["keys"], dtype=row.dtype)


def _fetch_queues(target: str, timeout: float) -> dict[str, Any] | None:
    try:
        with urllib.request.urlopen(target.rstrip("/") + "/queues.json", timeout=timeout) as resp:
            return dict(json.loads(resp.read()))
    except (urllib.error.URLError, ValueError):  # health table is best-effort
        return None


# ----------------------------------------------------------------------
# server-vs-client latency consistency
# ----------------------------------------------------------------------


def _bucketed_client_quantiles(latencies_s: list[float]) -> dict[str, float | None]:
    """Client latencies pushed through the server's own histogram buckets.

    Interpolated quantiles from identical buckets are order-preserving under
    per-request dominance, so this is the *fair* client-side number to hold
    ``repro_serve_request_seconds`` percentiles against — raw ``np.percentile``
    values would mix two different estimators.
    """
    from ..observability.metrics import Histogram

    hist = Histogram("loadgen_client_seconds", buckets=REQUEST_TIME_BUCKETS)
    for value in latencies_s:
        hist.observe(value)

    def q(quantile: float) -> float | None:
        value = hist.quantile(quantile)
        return None if value != value else value * 1e3

    return {"p50": q(0.50), "p99": q(0.99)}


def _server_latency_summary(
    registry: "MetricsRegistry",
    snapshot: dict[str, Any],
    latencies_s: list[float],
    errors: int,
    fresh_service: bool,
) -> dict[str, Any] | None:
    """The ``server_latency_ms`` document section (in-process runs).

    ``consistent`` is a tri-state: ``True``/``False`` when the comparison is
    meaningful (fresh registry — the histograms hold exactly this run — and
    zero errors, since an errored request is observed server-side but never
    produces a client latency), ``None`` otherwise.
    """
    if "repro_serve_request_seconds" not in registry:
        return None
    request_hist = registry.histogram("repro_serve_request_seconds")
    wait_hist = registry.histogram("repro_serve_queue_wait_seconds")
    cells = sorted(snapshot)
    if not cells:
        return None
    cell = max(cells, key=lambda c: snapshot[c].get("completed", 0))

    def q(hist: Any, quantile: float) -> float | None:
        value = hist.quantile(quantile, cell=cell)
        return None if value != value else value * 1e3

    client = _bucketed_client_quantiles(latencies_s)
    server_p99 = q(request_hist, 0.99)
    consistent: bool | None = None
    if fresh_service and errors == 0 and server_p99 is not None and client["p99"] is not None:
        consistent = bool(server_p99 <= client["p99"] + 1e-9)
    return {
        "cell": cell,
        "request": {"p50": q(request_hist, 0.50), "p99": server_p99},
        "queue_wait": {"p50": q(wait_hist, 0.50), "p99": q(wait_hist, 0.99)},
        "client_bucketed": client,
        "consistent": consistent,
    }


def _fetch_alerts(target: str, timeout: float) -> dict[str, Any] | None:
    try:
        with urllib.request.urlopen(target.rstrip("/") + "/alerts.json", timeout=timeout) as resp:
            return dict(json.loads(resp.read()))
    except (urllib.error.URLError, ValueError):  # SLO view is best-effort
        return None


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def run_loadgen(
    scenario: LoadScenario,
    config: ServiceConfig | None = None,
    registry: "MetricsRegistry | None" = None,
    tracer: "Tracer | None" = None,
    target: str | None = None,
    http_timeout: float = 30.0,
    slo: bool = False,
    slo_specs: "tuple[Any, ...] | None" = None,
    sample_interval_s: float = 0.02,
) -> dict[str, Any]:
    """Run one scenario to completion and return its result document.

    Without ``target`` an in-process :class:`SortService` is created (with
    ``config`` / ``registry`` / ``tracer`` passed through), prewarmed and
    drained before the document is built; the ``server_latency_ms`` section always compares
    the service's own latency histograms against the client view.  With
    ``target`` (an ``http://host:port`` base URL) requests POST to a live
    ``/sort`` endpoint instead, and the ``service`` section comes from its
    ``/queues.json``.  Either way every response is verified against
    snake-order ground truth and counted under zero-tolerance ``counts``.

    ``slo=True`` evaluates SLO burn rates during and after the run and adds
    the alert snapshot as the ``slo`` section.  In-process a tsdb sampler
    and an evaluator are built for the run (``slo_specs`` overrides the
    defaults; windows scale to the run duration).  Against a ``target``
    the server evaluates its own SLOs; its ``/alerts.json`` is fetched
    best-effort.
    """
    rng = np.random.default_rng(scenario.seed)
    offsets = arrival_offsets(scenario, rng)
    # key width comes from the resolved cell, not the caller
    from ..observability.kernelprof import resolve_profile_cell

    cell = resolve_profile_cell(scenario.cell)
    width = int(cell.n) ** int(cell.r)
    keys = make_keys(scenario.mix, rng, scenario.requests, width)
    expected = _ground_truth(scenario.cell, keys)

    doc: dict[str, Any] = {"scenario": scenario.to_json()}

    if target is not None:
        async def amain_http() -> dict[str, Any]:
            loop = asyncio.get_running_loop()

            async def submit(cell_key: str, row: np.ndarray) -> np.ndarray:
                return await loop.run_in_executor(
                    None, _http_sort, target, cell_key, row, http_timeout
                )

            return await _drive(submit, scenario, keys, expected, offsets)

        doc.update(asyncio.run(amain_http()))
        latencies = doc.pop("_latencies_s", [])
        doc["service"] = _fetch_queues(target, http_timeout)
        doc["config"] = None
        doc["server_latency_ms"] = _target_latency_summary(doc["service"], latencies)
        if slo:
            doc["slo"] = _fetch_alerts(target, http_timeout)
        return doc

    service_config = config if config is not None else ServiceConfig()
    fresh_service = registry is None
    from ..observability.metrics import MetricsRegistry

    metrics_registry = registry if registry is not None else MetricsRegistry()

    store: "TimeSeriesStore | None" = None
    slo_evaluator: "SLOEvaluator | None" = None
    if slo:
        from ..observability.slo import SLOEvaluator as _Evaluator
        from ..observability.slo import default_serve_slos
        from ..observability.tsdb import TimeSeriesStore as _Store

        # scale the sampler and the burn windows to the run: the page-long
        # window spans (roughly) the whole drive, the short windows a slice
        # of it, so a 2-second burst exercises the same alert math as an
        # hour of production traffic
        est_duration = float(offsets[-1]) + 0.5
        interval = max(min(sample_interval_s, est_duration / 40.0), 0.005)
        capacity = max(int(est_duration / interval) + 128, 256)
        store = _Store(metrics_registry, interval_s=interval, capacity=capacity)
        specs = slo_specs if slo_specs is not None else default_serve_slos(
            window_scale=est_duration / 60.0
        )
        slo_evaluator = _Evaluator(store, list(specs), tracer=tracer)
        store.on_tick.append(slo_evaluator.evaluate)

    async def amain() -> tuple[dict[str, Any], dict[str, Any]]:
        async with SortService(
            service_config, registry=metrics_registry, tracer=tracer
        ) as service:
            # the tier-up runs before the first arrival, not inside a request
            service.prewarm(scenario.cell)
            await asyncio.sleep(0)
            result = await _drive(service.submit, scenario, keys, expected, offsets)
            await service.drain()
            return result, service.queues_snapshot()

    if store is not None:
        store.tick()  # baseline sample before any traffic
        store.start()
    try:
        result, snapshot = asyncio.run(amain())
    finally:
        if store is not None:
            store.stop()
    if store is not None and slo_evaluator is not None:
        final = store.tick()  # end-of-run sample, evaluated by on_tick
        doc["slo"] = slo_evaluator.snapshot(final)
    doc.update(result)
    latencies = doc.pop("_latencies_s", [])
    doc["service"] = snapshot
    doc["config"] = service_config.to_json()
    doc["server_latency_ms"] = _server_latency_summary(
        metrics_registry, snapshot, latencies, result["counts"]["errors"], fresh_service
    )
    return doc


def _target_latency_summary(
    queues: dict[str, Any] | None, latencies_s: list[float]
) -> dict[str, Any] | None:
    """The ``server_latency_ms`` section for target mode (from /queues.json).

    The server-side numbers are cumulative over the target's lifetime (they
    may include earlier runs), so ``consistent`` stays ``None`` — the
    comparison is only exact in-process.
    """
    if not queues:
        return None
    cell = max(sorted(queues), key=lambda c: queues[c].get("completed", 0))
    q = queues[cell]
    return {
        "cell": cell,
        "request": {"p50": q.get("p50_ms"), "p99": q.get("p99_ms")},
        "queue_wait": {
            "p50": q.get("queue_wait_p50_ms"),
            "p99": q.get("queue_wait_p99_ms"),
        },
        "client_bucketed": _bucketed_client_quantiles(latencies_s),
        "consistent": None,
    }


def default_scenarios(seed: int = 0) -> tuple[LoadScenario, ...]:
    """The benchreg serving suite: small, fast, and deterministic in shape.

    Two cells × contrasting mixes and arrival schedules; rates are far below
    the compiled kernels' service capacity, so structural counts must come
    out clean (zero rejections, zero mismatches) on any healthy build.
    """
    return (
        LoadScenario(
            cell="path-n3-r3", mix="uniform", arrivals="poisson",
            rate=2000.0, requests=160, seed=seed,
        ),
        LoadScenario(
            cell="path-n3-r3", mix="adversarial", arrivals="burst",
            rate=1500.0, requests=120, seed=seed + 1,
        ),
        LoadScenario(
            cell="k2-n2-r4", mix="duplicates", arrivals="poisson",
            rate=2000.0, requests=160, seed=seed + 2,
        ),
    )


def run_suite(
    scenarios: tuple[LoadScenario, ...] | list[LoadScenario],
    config: ServiceConfig | None = None,
    registry: "MetricsRegistry | None" = None,
    seed_offset: int = 0,
) -> list[dict[str, Any]]:
    """Run several scenarios back to back (fresh service each), in order."""
    results = []
    for i, scenario in enumerate(scenarios):
        if seed_offset:
            scenario = replace(scenario, seed=scenario.seed + seed_offset)
        results.append(run_loadgen(scenario, config=config, registry=registry))
    return results
