"""Per-layer profiler for the compiled batch kernel — the hot path's x-ray.

:class:`~repro.schedule.compiled.CompiledSchedule` is the execution spine,
40–147× faster than the interpreted path, but the tracing stack only
instruments the interpreted backends.  This module closes that gap:

* :class:`KernelProfiler` executes a kernel's own lowered steps layer by
  layer, timing each layer with ``time.perf_counter_ns`` — split into the
  step's gather (``permute_ns``) and its in-place slab sorts, networks and
  comparators (``compute_ns``) — and recording each layer's **form** (its
  node-major or row-major layout and, per slab, whether it ran as a
  min/max network or a sort), per-layer op counts, **occupancy**
  (comparator-slot utilisation: key-endpoints-touched ÷ 2 ÷ ⌊N/2⌋ —
  exactly 1.0 when a layer engages every disjoint pair the network offers,
  the comparator-agglomeration ideal) and estimated bytes moved by the
  passes that form makes (see :func:`layer_moves`).  Results land in a
  :class:`RunProfile`, in a :class:`~repro.observability.metrics.MetricsRegistry`
  (``repro_compiled_run_seconds{cell}`` /
  ``repro_compiled_layer_seconds{cell}`` histograms with p50/p99 derivable
  from the buckets, ``repro_compiled_keys_total{cell}`` /
  ``repro_compiled_runs_total{cell}`` counters) and — when a tracer is
  attached — as ``compiled-run`` / ``kernel-layer`` spans on the event
  bus, so the Chrome-trace export renders compiled layers alongside
  interpreted phase spans.
* Installed process-wide (:meth:`KernelProfiler.install` or the context
  manager), the profiler intercepts every ``CompiledSchedule.run``; when no
  profiler is installed the kernel pays a single ``None`` check.
* :func:`profile_cell` sweeps a benchreg cell's kernel across batch sizes,
  verifying every profiled output against the snake-order ground truth and
  timing the *floor* (``np.sort`` plus the snake scatter) on the same keys;
  :func:`render_profile` prints the permute/compute split next to the floor
  and a per-layer table (occupancy in its ``occ%`` column), and
  :func:`profile_chrome_trace` exports the layer spans as Chrome
  trace-event JSON.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, ContextManager

import numpy as np

from ..schedule.compiled import (
    NETWORKS,
    CompiledSchedule,
    compile_schedule,
    get_profiler,
    set_profiler,
)
from ..schedule.ir import snake_order_nodes
from .metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tracer import Tracer

__all__ = [
    "KernelProfiler",
    "LayerProfile",
    "RUN_TIME_BUCKETS",
    "RunProfile",
    "layer_moves",
    "profile_cell",
    "profile_chrome_trace",
    "render_profile",
    "resolve_profile_cell",
]

#: fine-grained sub-second buckets for compiled-run / per-layer wall time —
#: a 1-2.5-5 ladder from 1µs to 1s, so p50/p99 interpolate meaningfully at
#: the tens-of-microseconds scale the kernel actually runs at
RUN_TIME_BUCKETS = (
    1e-6,
    2.5e-6,
    5e-6,
    1e-5,
    2.5e-5,
    5e-5,
    1e-4,
    2.5e-4,
    5e-4,
    1e-3,
    2.5e-3,
    5e-3,
    1e-2,
    2.5e-2,
    5e-2,
    0.1,
    0.25,
    0.5,
    1.0,
)


def layer_moves(step: Any, batch: int) -> int:
    """Keys one lowered layer reads plus writes over ``batch`` rows.

    Counts each NumPy pass of the layer's form at that batch size: the
    gather reads and writes every key, twice when it also transposes back
    to row-major; a compare-exchange (``minimum``, ``maximum``, then the
    copy of the minima) moves 8 keys per comparator; a sorted slab reads
    and writes each of its keys once; a network slab pays one
    compare-exchange per comparator of its network on every block.
    """
    num_nodes = int(step.perm.size)
    moves = (4 if step.source_node_major and not step.node_major else 2) * num_nodes
    start, mid, stop = step.comparators
    moves += 8 * (mid - start)
    for (first, last, width), form in zip(step.slabs, step.forms(batch)):
        if form == "network":
            comparators = sum(len(range(width)[lo]) for lo, _ in NETWORKS[width])
            moves += 8 * comparators * (last - first) // width
        else:
            moves += 2 * (last - first)
    return moves * batch


@dataclass(frozen=True)
class LayerProfile:
    """One kernel layer of one profiled run."""

    #: layer position in the kernel's execution order
    index: int
    #: two-key comparators executed by the layer
    comparators: int
    #: individual block sorts (rows across all equal-width groups)
    block_rows: int
    #: keys engaged by the layer (comparator endpoints + block-sort members)
    nodes_touched: int
    #: layer wall time, nanoseconds (``perf_counter_ns``)
    wall_ns: int
    #: the layer's gather into its layout, nanoseconds
    permute_ns: int
    #: the layer's in-place slab sorts, networks and comparators, nanoseconds
    compute_ns: int
    #: comparator-slot utilisation: ``nodes_touched / 2 / floor(N / 2)``
    occupancy: float
    #: estimated bytes the layer's passes read plus write, whole batch
    #: (:func:`layer_moves` times the key size)
    bytes_touched: int
    #: ``"node-major"`` or ``"row-major"``
    layout: str
    #: per block-sort slab: ``(width, blocks, "network" | "sort")``
    slabs: tuple[tuple[int, int, str], ...]

    @property
    def op_count(self) -> int:
        return self.comparators + self.block_rows

    @property
    def form(self) -> str:
        """Compact form label, e.g. ``node 4x4:network`` or ``row 3x9:sort``."""
        slabs = " ".join(f"{blocks}x{width}:{form}" for width, blocks, form in self.slabs)
        return f"{self.layout.split('-')[0]} {slabs or 'compare'}"

    def to_json(self) -> dict[str, Any]:
        return {
            "layer": self.index,
            "comparators": self.comparators,
            "block_rows": self.block_rows,
            "ops": self.op_count,
            "nodes_touched": self.nodes_touched,
            "wall_ns": self.wall_ns,
            "permute_ns": self.permute_ns,
            "compute_ns": self.compute_ns,
            "occupancy": self.occupancy,
            "bytes_touched": self.bytes_touched,
            "layout": self.layout,
            "slabs": [
                {"width": width, "blocks": blocks, "form": form}
                for width, blocks, form in self.slabs
            ],
            "form": self.form,
        }


@dataclass(frozen=True)
class RunProfile:
    """One profiled execution of a compiled kernel over one batch."""

    cell: str
    schedule_hash: str
    batch: int
    num_nodes: int
    wall_ns: int
    layers: tuple[LayerProfile, ...]
    #: the final gather from the last layout back to row-major node order
    restore_ns: int

    @property
    def keys(self) -> int:
        """Keys sorted by the run: batch rows × lattice width."""
        return self.batch * self.num_nodes

    @property
    def wall_s(self) -> float:
        return self.wall_ns / 1e9

    @property
    def keys_per_s(self) -> float:
        return self.keys / self.wall_s if self.wall_ns else float("inf")

    @property
    def op_count(self) -> int:
        return sum(layer.op_count for layer in self.layers)

    @property
    def mean_occupancy(self) -> float:
        if not self.layers:
            return 0.0
        return sum(layer.occupancy for layer in self.layers) / len(self.layers)

    @property
    def max_occupancy(self) -> float:
        return max((layer.occupancy for layer in self.layers), default=0.0)

    def to_json(self) -> dict[str, Any]:
        return {
            "cell": self.cell,
            "schedule_hash": self.schedule_hash,
            "batch": self.batch,
            "num_nodes": self.num_nodes,
            "keys": self.keys,
            "wall_ns": self.wall_ns,
            "restore_ns": self.restore_ns,
            "wall_s": self.wall_s,
            "keys_per_s": self.keys_per_s,
            "ops": self.op_count,
            "mean_occupancy": self.mean_occupancy,
            "max_occupancy": self.max_occupancy,
            "layers": [layer.to_json() for layer in self.layers],
        }


class KernelProfiler:
    """Times compiled-kernel runs layer by layer and feeds the telemetry.

    ``registry`` (default: a private one) receives the histogram/counter
    instruments listed in the module docstring; ``tracer`` (optional) gets a
    ``compiled-run`` span wrapping one ``kernel-layer`` span per layer, all
    with ``kind="kernel"``.  ``enabled=False`` makes an installed profiler
    invisible — ``CompiledSchedule.run`` checks it before dispatching to
    :meth:`profiled_run` — the knob the near-zero-overhead contract and its
    test lean on.

    Use directly (``out, profile = profiler.run(kernel, keys)``) or install
    process-wide so every ``CompiledSchedule.run`` is captured::

        with KernelProfiler(registry=registry) as profiler:
            sorter.sort_sequence(keys)          # compiled path now profiled
        print(profiler.last_profile.keys_per_s)
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: "Tracer | None" = None,
        enabled: bool = True,
        history: int = 256,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        self.enabled = enabled
        self.history: deque[RunProfile] = deque(maxlen=history)
        self._previous: "KernelProfiler | None" = None
        r = self.registry
        self._run_seconds = r.histogram(
            "repro_compiled_run_seconds",
            "end-to-end compiled-kernel run wall time, by cell",
            buckets=RUN_TIME_BUCKETS,
        )
        self._layer_seconds = r.histogram(
            "repro_compiled_layer_seconds",
            "per-layer compiled-kernel wall time, by cell",
            buckets=RUN_TIME_BUCKETS,
        )
        self._keys_total = r.counter(
            "repro_compiled_keys_total", "keys sorted by the compiled kernel, by cell"
        )
        self._runs_total = r.counter(
            "repro_compiled_runs_total", "profiled compiled-kernel runs, by cell"
        )

    @property
    def last_profile(self) -> RunProfile | None:
        """The most recent :class:`RunProfile`, if any run was profiled."""
        return self.history[-1] if self.history else None

    # -- capture --------------------------------------------------------

    def run(self, kernel: "CompiledSchedule", state: np.ndarray) -> tuple[np.ndarray, RunProfile]:
        """Execute ``kernel`` over ``state``, returning (output, profile).

        Drives the kernel's own steps — the executor :meth:`CompiledSchedule.run`
        uses — with a clock around each step's ``permute`` and ``compute``.
        """
        x, squeeze = kernel.rows(state)
        batch = x.shape[0]
        itemsize = int(x.itemsize)
        slots = max(kernel.num_nodes // 2, 1)
        tracer = self.tracer
        layers: list[LayerProfile] = []
        run_span: ContextManager[Any] = (
            tracer.span(
                "compiled-run",
                kind="kernel",
                cell=kernel.cell,
                batch=batch,
                layers=kernel.num_layers,
            )
            if tracer is not None
            else nullcontext()
        )
        t_run = time.perf_counter_ns()
        with run_span:
            for index, (layer, step) in enumerate(zip(kernel.layers, kernel.steps)):
                comparators = int(layer.lo.size)
                block_rows = sum(int(mat.shape[0]) for mat, _ in layer.block_groups)
                touched = 2 * comparators + sum(int(mat.size) for mat, _ in layer.block_groups)
                layer_span: ContextManager[Any] = (
                    tracer.span(
                        "kernel-layer",
                        kind="kernel",
                        cell=kernel.cell,
                        layer=index,
                        ops=comparators + block_rows,
                    )
                    if tracer is not None
                    else nullcontext()
                )
                with layer_span:
                    # Histogram.time() both feeds the per-layer histogram and
                    # hands back the raw nanoseconds for the LayerProfile —
                    # no hand-rolled perf_counter_ns delta at this site
                    with self._layer_seconds.time(cell=kernel.cell) as timer:
                        t0 = time.perf_counter_ns()
                        x = step.permute(x)
                        t1 = time.perf_counter_ns()
                        step.compute(x)
                        t2 = time.perf_counter_ns()
                    wall = timer.elapsed_ns
                layers.append(
                    LayerProfile(
                        index=index,
                        comparators=comparators,
                        block_rows=block_rows,
                        nodes_touched=touched,
                        wall_ns=wall,
                        permute_ns=t1 - t0,
                        compute_ns=t2 - t1,
                        occupancy=touched / 2 / slots,
                        bytes_touched=layer_moves(step, batch) * itemsize,
                        layout=step.layout,
                        slabs=tuple(
                            (width, (stop - start) // width, form)
                            for (start, stop, width), form in zip(step.slabs, step.forms(batch))
                        ),
                    )
                )
            t_restore = time.perf_counter_ns()
            out = kernel.finish(x, squeeze)
            restore_ns = time.perf_counter_ns() - t_restore
        wall_ns = time.perf_counter_ns() - t_run
        profile = RunProfile(
            cell=kernel.cell,
            schedule_hash=kernel.schedule_hash,
            batch=batch,
            num_nodes=kernel.num_nodes,
            wall_ns=wall_ns,
            layers=tuple(layers),
            restore_ns=restore_ns,
        )
        self._record(profile)
        return out, profile

    def profiled_run(self, kernel: "CompiledSchedule", state: np.ndarray) -> np.ndarray:
        """The hook ``CompiledSchedule.run`` dispatches to when installed."""
        out, _ = self.run(kernel, state)
        return out

    def _record(self, profile: RunProfile) -> None:
        # per-layer seconds were already observed live by Histogram.time()
        self._run_seconds.observe(profile.wall_s, cell=profile.cell)
        self._keys_total.inc(profile.keys, cell=profile.cell)
        self._runs_total.inc(cell=profile.cell)
        self.history.append(profile)

    # -- derived statistics ---------------------------------------------

    def run_quantile(self, q: float, cell: str) -> float:
        """Bucket-interpolated run-latency quantile for one cell."""
        return self._run_seconds.quantile(q, cell=cell)

    def percentiles(self, cell: str) -> dict[str, float]:
        """p50/p99 run latency, derived from the histogram buckets."""
        return {"p50": self.run_quantile(0.50, cell), "p99": self.run_quantile(0.99, cell)}

    # -- process-wide installation --------------------------------------

    def install(self) -> "KernelProfiler":
        """Route every ``CompiledSchedule.run`` through this profiler."""
        self._previous = set_profiler(self)
        return self

    def uninstall(self) -> None:
        """Remove this profiler, restoring whatever was installed before."""
        if get_profiler() is self:
            set_profiler(self._previous)
        self._previous = None

    def __enter__(self) -> "KernelProfiler":
        return self.install()

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# cell sweeps: the `repro profile` engine
# ----------------------------------------------------------------------


def resolve_profile_cell(key: str) -> Any:
    """Map a cell name to its benchreg :class:`WorkloadCell`.

    Accepts full benchreg keys (``path-n3-r3-lattice``) and bare geometry
    names (``path-n3-r3``, defaulting to the lattice cell — the kernel is
    the same artifact either way).
    """
    from .benchreg import DEFAULT_MATRIX

    wanted = {key, f"{key}-lattice"}
    for cell in DEFAULT_MATRIX:
        if cell.key in wanted:
            return cell
    names = ", ".join(sorted({c.key.rsplit("-", 1)[0] for c in DEFAULT_MATRIX}))
    raise ValueError(f"unknown profile cell {key!r}; known cells: {names}")


def profile_cell(
    key: str,
    batches: tuple[int, ...] = (1, 16, 256),
    runs: int = 5,
    seed: int = 0,
    profiler: KernelProfiler | None = None,
) -> dict[str, Any]:
    """Profile one benchreg cell's served kernel across a batch-size sweep.

    The kernel is :func:`~repro.schedule.compile_schedule`'s certified
    kernel; the document records the emitted and the executed schedule
    hashes, so the optimizer's share is attributable.

    The kernel is profiled ``runs`` times per batch size; every profiled
    output is checked against the snake-order ground truth, so reported
    numbers only ever describe correct executions.  Each profiled run is
    followed by one run of the floor — ``np.sort`` plus the snake scatter,
    the ground truth itself — on the same keys; ``floor_ratio`` divides the
    median profiled wall time by the median floor.  Per-layer detail and the
    permute/compute split come from each batch's fastest run (least
    scheduler noise); ``keys_per_s`` uses the median.  ``mean_occupancy``
    and ``max_occupancy`` summarise the last batch's layers.
    """
    from ..staticcheck import emit_schedule

    if runs < 1:
        raise ValueError("runs must be >= 1")
    if not batches or min(batches) < 1:
        raise ValueError(f"batches must be one or more sizes >= 1, got {list(batches)}")
    cell = resolve_profile_cell(key)
    dag = emit_schedule(cell.build_factor(), cell.r, backend=cell.backend)
    prof = profiler if profiler is not None else KernelProfiler()
    rng = np.random.default_rng(seed)
    snake = snake_order_nodes(dag.n, dag.r)
    kernel = compile_schedule(dag)
    doc: dict[str, Any] = {
        "cell": cell.key,
        "factor": dag.factor,
        "n": dag.n,
        "r": dag.r,
        "num_nodes": dag.num_nodes,
        "schedule_hash": dag.schedule_hash(),
        "optimized_schedule_hash": kernel.schedule_hash,
        "seed": seed,
        "runs": runs,
        "layers": kernel.num_layers,
        "ops": sum(layer.op_count for layer in kernel.layers),
        "batches": [],
    }
    for batch in batches:
        keys = rng.integers(0, 2**31, size=(int(batch), dag.num_nodes))
        kernel.run(keys)  # warm-up: first-touch allocations, caches
        profiles: list[RunProfile] = []
        floor_ns: list[int] = []
        out: np.ndarray | None = None
        expected: np.ndarray | None = None
        for _ in range(runs):
            out, profile = prof.run(kernel, keys)
            profiles.append(profile)
            t0 = time.perf_counter_ns()
            expected = np.empty_like(keys)
            expected[:, snake] = np.sort(keys, axis=1)
            floor_ns.append(time.perf_counter_ns() - t0)
        if not np.array_equal(out, expected):
            raise AssertionError(
                f"profiled kernel output diverged from snake ground truth on {cell.key}"
            )
        walls = np.array([p.wall_s for p in profiles])
        floors = np.array(floor_ns) / 1e9
        best = profiles[int(np.argmin(walls))]
        doc["batches"].append(
            {
                "batch": int(batch),
                "keys": best.keys,
                "wall_s": {
                    "min": float(walls.min()),
                    "p50": float(np.percentile(walls, 50)),
                    "max": float(walls.max()),
                },
                "floor_s": {"min": float(floors.min()), "p50": float(np.median(floors))},
                "floor_ratio": float(np.median(walls) / max(np.median(floors), 1e-9)),
                "permute_ns": best.restore_ns + sum(lay.permute_ns for lay in best.layers),
                "compute_ns": sum(lay.compute_ns for lay in best.layers),
                "keys_per_s": float(best.keys / np.percentile(walls, 50)),
                "per_layer": [layer.to_json() for layer in best.layers],
            }
        )
    doc["mean_occupancy"] = best.mean_occupancy
    doc["max_occupancy"] = best.max_occupancy
    return doc


def _layer_table(per_layer: list[dict[str, Any]]) -> list[str]:
    header = (
        f"  {'layer':>5} {'comps':>6} {'blocks':>6} {'ops':>5} "
        f"{'occ%':>6} {'wall µs':>8} {'perm µs':>8} {'comp µs':>8} {'est KiB':>8}  form"
    )
    lines = [header]
    for layer in per_layer:
        lines.append(
            f"  {layer['layer']:>5} {layer['comparators']:>6} {layer['block_rows']:>6} "
            f"{layer['ops']:>5} {layer['occupancy'] * 100:>6.1f} "
            f"{layer['wall_ns'] / 1e3:>8.1f} {layer['permute_ns'] / 1e3:>8.1f} "
            f"{layer['compute_ns'] / 1e3:>8.1f} {layer['bytes_touched'] / 1024:>8.1f}  "
            f"{layer['form']}"
        )
    return lines


def render_profile(doc: dict[str, Any]) -> str:
    """Human-readable sweep report: the batch sweep and a per-layer table."""
    lines = [
        f"kernel profile — {doc['cell']} (N={doc['num_nodes']}, "
        f"schedule {doc['schedule_hash'][:12]}, {doc['runs']} runs/point)",
        f"{doc['layers']} layers, {doc['ops']} ops, "
        f"mean occupancy {doc['mean_occupancy'] * 100:.1f}%",
        f"  {'batch':>7} {'keys':>9} {'p50 µs':>9} {'min µs':>9} {'permute µs':>10} "
        f"{'compute µs':>10} {'floor µs':>9} {'×floor':>7} {'keys/s':>13}",
    ]
    for point in doc["batches"]:
        wall = point["wall_s"]
        lines.append(
            f"  {point['batch']:>7} {point['keys']:>9} {wall['p50'] * 1e6:>9.1f} "
            f"{wall['min'] * 1e6:>9.1f} {point['permute_ns'] / 1e3:>10.1f} "
            f"{point['compute_ns'] / 1e3:>10.1f} {point['floor_s']['p50'] * 1e6:>9.1f} "
            f"{point['floor_ratio']:>7.1f} {point['keys_per_s']:>13,.0f}"
        )
    lines.append(f"per-layer detail (batch {doc['batches'][-1]['batch']}):")
    lines.extend(_layer_table(doc["batches"][-1]["per_layer"]))
    return "\n".join(lines)


def profile_chrome_trace(
    key: str, batch: int = 256, seed: int = 0, runs: int = 1
) -> str:
    """Chrome trace-event JSON of profiled runs of one cell's kernel."""
    from .export import chrome_trace_json
    from .tracer import Tracer

    tracer = Tracer()
    profiler = KernelProfiler(tracer=tracer)
    profile_cell(key, batches=(batch,), runs=runs, seed=seed, profiler=profiler)
    return chrome_trace_json(tracer)

