"""The four workloads, each a function ``(seed, seconds, tracer, setups) -> Run``.

Every workload goes through the program's public API only, generates its
uniform int64 keys from the seed before the clock starts, checks every
output against :mod:`oracle`, and times set-up as the span from
``repro.schedule.clear_caches()`` until it is ready to serve.  Serving
workloads use ``ServiceConfig()`` with its defaults, so a change of the
batching policy is measured by unchanged benchmark code.

A traced run passes the installed :class:`spans.Tracer`; the workload then
also fills ``Run.layer`` with the per-layer metrics measured on it (see
README.md for the map).
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import itertools
import json
import threading
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns
from typing import Any, Callable, Iterator

import numpy as np

import oracle
from spans import REQUEST_ID, Tracer, coverage_s

#: the kernel cells: two lattice geometries of one factor and one other factor
CELLS = ("path-n3-r3", "k2-n2-r4", "path-n4-r3")
#: the cell every serving workload sorts on
SERVE_CELL = "path-n3-r3"
KERNEL_BATCH = 256
#: distinct key rows (or batches) generated per run and cycled through
POOL_ROWS = 1024
POOL_BATCHES = 4
STEADY_RATE = 1000.0
SATURATE_CALLERS = 256
#: how long a request may take before it counts as timed out
TIMEOUT_S = 30.0
#: serving workloads: seconds of interleaved kernel/floor calls after the load
FLOOR_PHASE_S = 1.0


@dataclass
class Run:
    """What one measured run of a workload produced."""

    setup_s: list[float]
    #: per operation: completion time, latency and keys (seconds, counts)
    t_end: np.ndarray
    latency: np.ndarray
    keys: np.ndarray
    start: float
    stop: float
    attempted: int
    failed: int
    #: keys/s over busy time (sum of latencies) instead of wall time
    busy: bool = False
    #: (kernel seconds, floor seconds) of interleaved calls on the same keys
    kernel_floor: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    layer: dict[str, float] = field(default_factory=dict)


def uniform_keys(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    info = np.iinfo(np.int64)
    return rng.integers(info.min, info.max, size=shape, dtype=np.int64, endpoint=True)


def _snake(cell: str) -> np.ndarray:
    from repro.observability.kernelprof import resolve_profile_cell

    spec = resolve_profile_cell(cell)
    return oracle.snake_nodes(spec.n, spec.r)


def kernel_vs_floor(
    kernel: Any, batch: np.ndarray, expected: np.ndarray, snake: np.ndarray, what: str
) -> tuple[float, float]:
    """Time one kernel call and then the floor on the same keys; check the output."""
    t0 = perf_counter_ns()
    out = kernel.run(batch)
    t1 = perf_counter_ns()
    oracle.floor_sort(batch, snake)
    t2 = perf_counter_ns()
    oracle.check(out, expected, what)
    return (t1 - t0) / 1e9, (t2 - t1) / 1e9


def _setup_span(tracer: Tracer | None) -> Any:
    return tracer.span("bench.setup") if tracer is not None else contextlib.nullcontext()


# ----------------------------------------------------------------------
# kernel-b256
# ----------------------------------------------------------------------


def bytes_per_call(kernel: Any, batch: int) -> int:
    """Bytes the kernel's NumPy passes read plus write, computed from its layers.

    Each pass counts every element it reads and every element it writes:
    the input copy 2N; per comparator pair two gathers, ``minimum``,
    ``maximum`` and two scatters, 14 elements; per block-sort element a
    gather, the sort and a scatter, 6, plus 2 per element of a row flipped
    descending.
    """
    elements = 2 * kernel.num_nodes
    for layer in kernel.layers:
        elements += 14 * int(layer.lo.size)
        for nodes, desc_rows in layer.block_groups:
            elements += 6 * int(nodes.size) + 2 * int(desc_rows.size) * int(nodes.shape[1])
    return elements * batch * np.dtype(np.int64).itemsize


def kernel_b256(seed: int, seconds: float, tracer: Tracer | None, setups: int) -> Run:
    import repro.schedule
    import repro.staticcheck
    from repro.observability.kernelprof import resolve_profile_cell

    specs = {cell: resolve_profile_cell(cell) for cell in CELLS}

    def setup() -> tuple[float, dict[str, Any]]:
        with _setup_span(tracer):
            t0 = perf_counter()
            repro.schedule.clear_caches()
            built = {}
            for cell, spec in specs.items():
                dag = repro.staticcheck.emit_schedule(spec.build_factor(), spec.r, backend="lattice")
                built[cell] = (dag, repro.schedule.compile_schedule(dag, optimize=True))
            return perf_counter() - t0, built

    setup_s = []
    for _ in range(setups):
        elapsed, built = setup()
        setup_s.append(elapsed)

    rng = np.random.default_rng(seed)
    snakes = {cell: _snake(cell) for cell in CELLS}
    pool = {}
    for cell, (dag, _) in built.items():
        batches = [uniform_keys(rng, (KERNEL_BATCH, dag.num_nodes)) for _ in range(POOL_BATCHES)]
        pool[cell] = [(b, oracle.floor_sort(b, snakes[cell])) for b in batches]

    t_end, latency, keys, pairs, which = [], [], [], [], []
    attempted = failed = 0
    start = perf_counter()
    deadline = start + seconds
    for i in itertools.count():
        if perf_counter() >= deadline:
            break
        c = i % len(CELLS)
        cell = CELLS[c]
        batch, expected = pool[cell][(i // len(CELLS)) % POOL_BATCHES]
        kernel = built[cell][1]
        attempted += 1
        try:
            pair = kernel_vs_floor(kernel, batch, expected, snakes[cell], f"{cell} kernel call {i}")
        except oracle.OracleMismatch:
            raise
        except Exception:  # an erroring call counts as failed; the run goes on
            failed += 1
            continue
        t_end.append(perf_counter())
        latency.append(pair[0])
        pairs.append(pair)
        keys.append(batch.size)
        which.append(c)
    run = Run(
        setup_s,
        np.array(t_end),
        np.array(latency),
        np.array(keys),
        start,
        perf_counter(),
        attempted,
        failed,
        busy=True,
        kernel_floor=np.array(pairs),
    )
    if tracer is not None:
        layer = run.layer
        layer["schedule.optimize.s"] = float(np.median(tracer.self_seconds("schedule.optimize")))
        layer["staticcheck.validate.s"] = float(np.median(tracer.seconds("staticcheck.validate")))
        layer["schedule.compiled.compile_s"] = float(
            np.median(tracer.self_seconds("schedule.compiled.compile"))
        )
        cell_of = np.array(which)
        for c, cell in enumerate(CELLS):
            kernel = built[cell][1]
            label = kernel.cell  # the program's name for the cell, tagged on its spans
            layer[f"schedule.emit.ops.{cell}"] = tracer.select("schedule.emit", label)[-1].n
            layer[f"schedule.optimize.ops.{cell}"] = tracer.select("schedule.optimize", label)[-1].n
            layer[f"schedule.compiled.layers.{cell}"] = kernel.num_layers
            layer[f"schedule.compiled.ops.{cell}"] = sum(lay.op_count for lay in kernel.layers)
            layer[f"schedule.compiled.run_us_p50.{cell}"] = 1e6 * float(
                np.median(tracer.seconds("schedule.compiled.run", label))
            )
            layer[f"floor.run_us_p50.{cell}"] = 1e6 * float(
                np.median(run.kernel_floor[cell_of == c, 1])
            )
            layer[f"schedule.compiled.bytes_per_call.{cell}"] = bytes_per_call(kernel, KERNEL_BATCH)
    return run


# ----------------------------------------------------------------------
# in-process serving: serve-steady and serve-saturate
# ----------------------------------------------------------------------


async def _service_setups(tracer: Tracer | None, setups: int) -> tuple[list[float], Any]:
    import repro.schedule
    from repro.serve import ServiceConfig, SortService

    setup_s, service = [], None
    for _ in range(setups):
        if service is not None:
            await service.aclose()
        with _setup_span(tracer):
            t0 = perf_counter()
            repro.schedule.clear_caches()
            service = SortService(ServiceConfig())
            service.prewarm(SERVE_CELL)
            setup_s.append(perf_counter() - t0)
    return setup_s, service


class _Requests:
    """Per-request bookkeeping of a serving workload over one key pool.

    Each response is compared with the oracle as it arrives, so memory
    does not grow with throughput; a mismatch is raised by :meth:`run`.
    """

    def __init__(self, seed: int) -> None:
        self.snake = _snake(SERVE_CELL)
        self.rows = uniform_keys(np.random.default_rng(seed), (POOL_ROWS, self.snake.size))
        self.expected = oracle.floor_sort(self.rows, self.snake)
        self.t_end: list[float] = []
        self.latency: list[float] = []
        self.wrong: list[tuple[int, np.ndarray]] = []

    def row(self, i: int) -> np.ndarray:
        return self.rows[i % POOL_ROWS]

    def done(self, i: int, out: np.ndarray, now: float, latency: float) -> None:
        if not np.array_equal(out, self.expected[i % POOL_ROWS]):
            self.wrong.append((i, out))
        self.t_end.append(now)
        self.latency.append(latency)

    def run(self, setup_s: list[float], start: float, stop: float, attempted: int) -> Run:
        for i, out in self.wrong[:1]:
            oracle.check(np.asarray(out), self.expected[i % POOL_ROWS], f"{SERVE_CELL} response {i}")
        t_end = np.array(self.t_end)
        return Run(
            setup_s,
            t_end,
            np.array(self.latency),
            np.full(t_end.size, self.snake.size),
            start,
            max(stop, float(t_end.max(initial=stop))),
            attempted,
            attempted - t_end.size,
        )

    def kernel_vs_floor(self, seconds: float) -> np.ndarray:
        """Interleaved kernel/floor calls at ``KERNEL_BATCH`` on the served cell."""
        import repro.schedule
        import repro.staticcheck
        from repro.observability.kernelprof import resolve_profile_cell

        spec = resolve_profile_cell(SERVE_CELL)
        dag = repro.staticcheck.emit_schedule(spec.build_factor(), spec.r, backend=spec.backend)
        kernel = repro.schedule.compile_schedule(dag)  # the serving default: not optimized
        batches = self.rows.reshape(-1, KERNEL_BATCH, self.snake.size)
        expected = self.expected.reshape(batches.shape)
        pairs = []
        deadline = perf_counter() + seconds
        while perf_counter() < deadline:
            k = len(pairs) % len(batches)
            pairs.append(kernel_vs_floor(kernel, batches[k], expected[k], self.snake, SERVE_CELL))
        return np.array(pairs)


def _submit_layer(tracer: Tracer) -> dict[str, float]:
    """Submit latency and the part of it not spent inside kernel calls."""
    submits = tracer.select("serve.service.submit")
    runs = sorted(tracer.select("schedule.compiled.run"), key=lambda s: s.start_ns)
    a = np.array([s.start_ns for s in submits]) / 1e9
    b = np.array([s.end_ns for s in submits]) / 1e9
    kernel = coverage_s(
        np.array([s.start_ns for s in runs]) / 1e9, np.array([s.end_ns for s in runs]) / 1e9, a, b
    )
    return {
        "serve.service.submit_ms_p50": 1e3 * float(np.median(b - a)),
        "serve.service.submit_ms_p99": 1e3 * float(np.quantile(b - a, 0.99)),
        "serve.service.self_ms_p50": 1e3 * float(np.median(b - a - kernel)),
    }


def serve_steady(seed: int, seconds: float, tracer: Tracer | None, setups: int) -> Run:
    """Open loop: Poisson arrivals at ``STEADY_RATE``, timed from each due time."""
    requests = _Requests(seed)
    gaps = np.random.default_rng(seed + 1).exponential(1 / STEADY_RATE, int(STEADY_RATE * seconds * 2) + 16)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < seconds]

    async def main() -> Run:
        setup_s, service = await _service_setups(tracer, setups)
        loop = asyncio.get_running_loop()
        lag = np.empty(offsets.size)

        async def one(i: int, due: float) -> None:
            REQUEST_ID.set(i)
            try:
                out = await service.submit(SERVE_CELL, requests.row(i))
            except Exception:  # rejected or errored: counted as attempted - completed
                return
            now = loop.time()
            requests.done(i, out, now, now - due)

        tasks = []
        start = loop.time() + 0.005
        for i, offset in enumerate(offsets):
            due = start + float(offset)
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            lag[i] = loop.time() - due
            tasks.append(loop.create_task(one(i, due)))
        stop = loop.time()
        _, pending = await asyncio.wait(tasks, timeout=TIMEOUT_S)
        for task in pending:
            task.cancel()
        await service.aclose()
        run = requests.run(setup_s, start, stop, len(tasks))
        if tracer is None:
            run.kernel_floor = requests.kernel_vs_floor(FLOOR_PHASE_S)
        else:
            run.layer.update(_submit_layer(tracer))
            run.layer["serve.service.loop_lag_ms_p99"] = 1e3 * float(np.quantile(lag, 0.99))
        return run

    return asyncio.run(main())


def serve_saturate(seed: int, seconds: float, tracer: Tracer | None, setups: int) -> Run:
    """Closed loop: ``SATURATE_CALLERS`` callers on one event loop."""
    requests = _Requests(seed)

    async def main() -> Run:
        setup_s, service = await _service_setups(tracer, setups)
        loop = asyncio.get_running_loop()
        ids = itertools.count()
        start = loop.time()
        stop = start + seconds

        async def caller() -> None:
            while loop.time() < stop:
                i = next(ids)
                REQUEST_ID.set(i)
                t0 = loop.time()
                try:
                    out = await service.submit(SERVE_CELL, requests.row(i))
                except Exception:  # rejected or errored: counted as attempted - completed
                    continue
                now = loop.time()
                requests.done(i, out, now, now - t0)

        if tracer is not None:
            tracer.metric_calls = tracer.metric_ns = 0
        callers = [loop.create_task(caller()) for _ in range(SATURATE_CALLERS)]
        _, pending = await asyncio.wait(callers, timeout=seconds + TIMEOUT_S)
        for task in pending:
            task.cancel()
        wall = loop.time() - start
        await service.aclose()
        run = requests.run(setup_s, start, stop, next(ids))
        if tracer is None:
            run.kernel_floor = requests.kernel_vs_floor(FLOOR_PHASE_S)
        else:
            runs = tracer.select("schedule.compiled.run")
            completed = max(run.t_end.size, 1)
            layer = run.layer
            layer["serve.service.flushes"] = len(runs)
            layer["serve.service.rows_per_flush"] = sum(s.n for s in runs) / max(len(runs), 1)
            layer["schedule.compiled.busy_share"] = sum(s.seconds for s in runs) / wall
            layer["observability.metrics.calls_per_request"] = tracer.metric_calls / completed
            layer["observability.metrics.us_per_request"] = tracer.metric_ns / 1e3 / completed
        return run

    return asyncio.run(main())


# ----------------------------------------------------------------------
# http-sort
# ----------------------------------------------------------------------


@contextlib.contextmanager
def _loop_thread() -> Iterator[asyncio.AbstractEventLoop]:
    """An event loop running in its own thread, stopped and joined on exit."""
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, name="perfbench-loop")
    thread.start()
    try:
        yield loop
    finally:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=TIMEOUT_S)
        loop.close()


def http_sort(seed: int, seconds: float, tracer: Tracer | None, setups: int) -> Run:
    """Closed loop over loopback HTTP: one client, a new connection per request."""
    import repro.schedule
    from repro.serve import ServiceConfig, SortService, build_sort_server

    requests = _Requests(seed)
    payloads = [json.dumps({"cell": SERVE_CELL, "keys": row.tolist()}).encode() for row in requests.rows]
    headers = {"Content-Type": "application/json"}

    async def prewarm(service: Any) -> None:
        service.prewarm(SERVE_CELL)

    def on_loop(loop: asyncio.AbstractEventLoop, coro: Any) -> Any:
        return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout=TIMEOUT_S)

    with _loop_thread() as loop:
        setup_s: list[float] = []
        server = service = None
        try:
            for _ in range(setups):
                if server is not None:
                    server.stop()
                    on_loop(loop, service.aclose())
                with _setup_span(tracer):
                    t0 = perf_counter()
                    repro.schedule.clear_caches()
                    service = SortService(ServiceConfig())
                    on_loop(loop, prewarm(service))
                    server = build_sort_server(service, loop).start()
                    setup_s.append(perf_counter() - t0)
            host, port = server.host, server.port
            request_bytes = 0
            start = perf_counter()
            deadline = start + seconds
            for i in itertools.count():
                if perf_counter() >= deadline:
                    break
                payload = payloads[i % POOL_ROWS]
                span = tracer.span("serve.frontend.request", rid=i) if tracer else contextlib.nullcontext()
                t0 = perf_counter()
                try:
                    with span:
                        conn = http.client.HTTPConnection(host, port, timeout=TIMEOUT_S)
                        try:
                            conn.request("POST", "/sort", body=payload, headers=headers)
                            resp = conn.getresponse()
                            body = resp.read()
                        finally:
                            conn.close()
                except (OSError, http.client.HTTPException):  # counted as failed
                    continue
                now = perf_counter()
                if resp.status == 200:
                    out = np.asarray(json.loads(body)["keys"], dtype=np.int64)
                    requests.done(i, out, now, now - t0)
                    request_bytes += len(payload) + len(body)
            attempted = i
            stop = perf_counter()
        finally:
            if server is not None:
                server.stop()
                on_loop(loop, service.aclose())

    run = requests.run(setup_s, start, stop, attempted)
    if tracer is None:
        run.kernel_floor = requests.kernel_vs_floor(FLOOR_PHASE_S)
    else:
        client = sorted(tracer.select("serve.frontend.request"), key=lambda s: s.start_ns)
        submits = sorted(tracer.select("serve.service.submit"), key=lambda s: s.start_ns)
        starts = np.array([s.start_ns for s in submits])
        overhead = []
        for req in client:
            # one connection at a time: the request's submit is the one inside it
            k = int(np.searchsorted(starts, req.start_ns))
            if k < len(submits) and submits[k].end_ns <= req.end_ns:
                overhead.append(req.seconds - submits[k].seconds)
        run.layer["serve.frontend.overhead_ms_p50"] = 1e3 * float(np.median(overhead))
        run.layer["serve.frontend.bytes_per_request"] = request_bytes / max(run.t_end.size, 1)
    return run


WORKLOADS: dict[str, Callable[[int, float, Tracer | None, int], Run]] = {
    "kernel-b256": kernel_b256,
    "serve-steady": serve_steady,
    "serve-saturate": serve_saturate,
    "http-sort": http_sort,
}
