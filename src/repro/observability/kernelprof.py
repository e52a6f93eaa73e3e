"""Per-layer profiler for the compiled batch kernel — the hot path's x-ray.

:class:`~repro.schedule.compiled.CompiledSchedule` is the execution spine,
40–147× faster than the interpreted path, but the tracing stack only
instruments the interpreted backends.  This module closes that gap:

* :meth:`KernelProfiler.run` executes a kernel's own steps — ``rows``
  (which runs ``check_keys``), each layer's gather (``permute``) and its
  in-place slab sorts, networks and comparators (``compute``), then
  ``finish`` — with one ``time.perf_counter_ns`` stamp before and after
  each call and nothing else in between.  Everything else is built after
  the run, from the stamps: per-layer :class:`LayerProfile` facts (op
  counts, **occupancy** — key-endpoints-touched ÷ 2 ÷ ⌊N/2⌋, exactly 1.0
  when a layer engages every disjoint pair the network offers, the
  comparator-agglomeration ideal — the layer's node-major or row-major
  layout, each slab's form, and the bytes its passes move, see
  :func:`layer_moves`; built on a profiler's first run of each ``(kernel,
  batch)`` and reused), the ``repro_compiled_run_seconds{cell}`` /
  ``repro_compiled_layer_seconds{cell}`` histograms and the
  ``repro_compiled_keys_total{cell}`` counter of a
  :class:`~repro.observability.metrics.MetricsRegistry`, and — when a
  tracer is attached — ``compiled-run`` / ``kernel-layer`` spans at the
  stamped times, so the Chrome-trace export renders compiled layers
  alongside interpreted phase spans.  The stages of a
  :class:`RunProfile` sum to its wall time: ``rows_ns``, every layer's
  ``permute_ns + compute_ns``, ``restore_ns`` and the ``residual_ns``
  the loop spends between the stamped calls.
* :func:`profile_cell` sweeps a benchreg cell's kernel across batch sizes,
  checking every profiled output against the snake-order ground truth,
  timing the *floor* (``np.sort`` plus the snake scatter) on the same keys
  and an untimed ``kernel.run`` interleaved with each profiled run, and
  judges the profile ``consistent`` when its residual is small and the
  profiled run costs about what the untimed one does;
  :func:`render_profile` prints the permute/compute split next to the
  floor, the residual and the verdict, and a per-layer table (occupancy
  in its ``occ%`` column).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..schedule.compiled import NETWORKS, CompiledSchedule, compile_schedule
from ..schedule.ir import snake_order_nodes
from .metrics import Labels, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .tracer import Tracer

__all__ = [
    "KernelProfiler",
    "LayerProfile",
    "RUN_TIME_BUCKETS",
    "RunProfile",
    "layer_moves",
    "profile_cell",
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
    gather reads and writes every key (so does the copy an identity gather
    runs as), twice when it also transposes back to row-major; a
    compare-exchange (``minimum``, ``maximum``, then the copy of the
    minima) moves 8 keys per comparator; a sorted slab reads and writes
    each of its keys once; a network slab pays one compare-exchange per
    comparator of its network on every block.
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
    #: the layer's gather into its layout, nanoseconds (``perf_counter_ns``)
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
    def wall_ns(self) -> int:
        """The layer's wall time: its gather plus its compute, nanoseconds."""
        return self.permute_ns + self.compute_ns

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
    #: first stamp to last stamp, nanoseconds
    wall_ns: int
    #: ``kernel.rows``: the input's shape check and ``check_keys``
    rows_ns: int
    layers: tuple[LayerProfile, ...]
    #: the final gather from the last layout back to row-major node order
    restore_ns: int

    @property
    def residual_ns(self) -> int:
        """Wall time outside every stamped stage: the loop between the calls."""
        return (
            self.wall_ns
            - self.rows_ns
            - sum(layer.wall_ns for layer in self.layers)
            - self.restore_ns
        )

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
            "rows_ns": self.rows_ns,
            "restore_ns": self.restore_ns,
            "residual_ns": self.residual_ns,
            "wall_s": self.wall_s,
            "keys_per_s": self.keys_per_s,
            "ops": self.op_count,
            "mean_occupancy": self.mean_occupancy,
            "max_occupancy": self.max_occupancy,
            "layers": [layer.to_json() for layer in self.layers],
        }


class KernelProfiler:
    """Times compiled-kernel runs stage by stage and feeds the telemetry.

    ``registry`` (default: a private one) receives the instruments listed in
    the module docstring; ``tracer`` (optional) gets a ``compiled-run`` span
    wrapping one ``kernel-layer`` span per layer, all with
    ``kind="kernel"``.  ``last_profile`` is the most recent
    :class:`RunProfile`::

        out, profile = KernelProfiler(registry=registry).run(kernel, keys)
        print(profile.keys_per_s, profile.residual_ns)
    """

    def __init__(
        self, registry: MetricsRegistry | None = None, tracer: "Tracer | None" = None
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        #: the most recent profile, ``None`` until a run is profiled
        self.last_profile: RunProfile | None = None
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
        #: per ``(kernel, batch)``: :meth:`_layer_facts`
        self._facts: dict[tuple[CompiledSchedule, int], tuple[tuple[dict[str, Any], int], ...]] = {}
        #: per cell: its series of the three instruments, resolved once
        self._label_keys: dict[str, tuple[Labels, Labels, Labels]] = {}

    def run(self, kernel: "CompiledSchedule", state: np.ndarray) -> tuple[np.ndarray, RunProfile]:
        """Execute ``kernel`` over ``state``, returning (output, profile).

        Makes the calls :meth:`CompiledSchedule.run` makes, each between two
        ``perf_counter_ns`` stamps; the profile, the metrics and the spans
        are derived from the stamps once the output exists.
        """
        clock = time.perf_counter_ns
        stamps: list[int] = []
        mark = stamps.append
        mark(clock())
        x, squeeze = kernel.rows(state)
        mark(clock())
        for step in kernel.steps:
            mark(clock())
            x = step.permute(x)
            mark(clock())
            step.compute(x)
            mark(clock())
        mark(clock())
        out = kernel.finish(x, squeeze)
        mark(clock())

        batch = 1 if squeeze else out.shape[0]
        itemsize = int(out.itemsize)
        layers = tuple(
            LayerProfile(
                permute_ns=stamps[3 + 3 * index] - stamps[2 + 3 * index],
                compute_ns=stamps[4 + 3 * index] - stamps[3 + 3 * index],
                bytes_touched=moves * itemsize,
                **facts,
            )
            for index, (facts, moves) in enumerate(self._layer_facts(kernel, batch))
        )
        profile = RunProfile(
            cell=kernel.cell,
            schedule_hash=kernel.schedule_hash,
            batch=batch,
            num_nodes=kernel.num_nodes,
            wall_ns=stamps[-1] - stamps[0],
            rows_ns=stamps[1] - stamps[0],
            layers=layers,
            restore_ns=stamps[-1] - stamps[-2],
        )
        self._record(profile, stamps)
        return out, profile

    def _layer_facts(
        self, kernel: "CompiledSchedule", batch: int
    ) -> tuple[tuple[dict[str, Any], int], ...]:
        """Per layer, the :class:`LayerProfile` fields no stamp changes, and
        :func:`layer_moves`; built on the first run of ``(kernel, batch)``."""
        facts = self._facts.get((kernel, batch))
        if facts is None:
            slots = max(kernel.num_nodes // 2, 1)
            built = []
            for index, (layer, step) in enumerate(zip(kernel.layers, kernel.steps)):
                comparators = int(layer.lo.size)
                touched = 2 * comparators + sum(int(mat.size) for mat, _ in layer.block_groups)
                fields = {
                    "index": index,
                    "comparators": comparators,
                    "block_rows": sum(int(mat.shape[0]) for mat, _ in layer.block_groups),
                    "nodes_touched": touched,
                    "occupancy": touched / 2 / slots,
                    "layout": step.layout,
                    "slabs": tuple(
                        (width, (stop - start) // width, form)
                        for (start, stop, width), form in zip(step.slabs, step.forms(batch))
                    ),
                }
                built.append((fields, layer_moves(step, batch)))
            facts = self._facts[(kernel, batch)] = tuple(built)
        return facts

    def _record(self, profile: RunProfile, stamps: list[int]) -> None:
        cell = profile.cell
        keys = self._label_keys.get(cell)
        if keys is None:
            keys = self._label_keys[cell] = tuple(
                instrument.labels(cell=cell)
                for instrument in (self._run_seconds, self._layer_seconds, self._keys_total)
            )
        run_key, layer_key, keys_key = keys
        self._run_seconds.observe_at(run_key, profile.wall_s)
        for layer in profile.layers:
            self._layer_seconds.observe_at(layer_key, layer.wall_ns / 1e9)
        self._keys_total.inc_at(keys_key, profile.keys)
        tracer = self.tracer
        if tracer is not None:
            # perf_counter_ns and the tracer's perf_counter share one clock
            with tracer.span(
                "compiled-run",
                kind="kernel",
                cell=cell,
                batch=profile.batch,
                layers=len(profile.layers),
            ).at(stamps[0] / 1e9, stamps[-1] / 1e9):
                for layer in profile.layers:
                    start = stamps[2 + 3 * layer.index]
                    with tracer.span(
                        "kernel-layer",
                        kind="kernel",
                        cell=cell,
                        layer=layer.index,
                        ops=layer.op_count,
                    ).at(start / 1e9, (start + layer.wall_ns) / 1e9):
                        pass
        self.last_profile = profile


# ----------------------------------------------------------------------
# cell sweeps: the `repro profile` engine
# ----------------------------------------------------------------------


def resolve_profile_cell(key: str) -> Any:
    """Map a cell name to its benchreg :class:`WorkloadCell`.

    Accepts full benchreg keys (``path-n3-r3-lattice``) and bare geometry
    names (``path-n3-r3``): a bare name resolves to its lattice cell when
    there is one, else to its only cell (``k2-n2-r3`` is machine-only).
    """
    from .benchreg import DEFAULT_MATRIX

    by_key = {cell.key: cell for cell in DEFAULT_MATRIX}
    bare = [cell for cell in DEFAULT_MATRIX if cell.key.rsplit("-", 1)[0] == key]
    cell = by_key.get(key) or by_key.get(f"{key}-lattice")
    if cell is None and len(bare) == 1:
        cell = bare[0]
    if cell is None:
        names = ", ".join(sorted({c.key.rsplit("-", 1)[0] for c in DEFAULT_MATRIX}))
        raise ValueError(f"unknown profile cell {key!r}; known cells: {names}")
    return cell


#: the self-check's bounds: a profile is ``consistent`` when the fastest
#: run's residual is at most this share of its wall time ...
RESIDUAL_SHARE_MAX = 0.10
#: ... and the median profiled run at most this multiple of the median
#: untimed ``kernel.run`` interleaved with it
OVERHEAD_MAX = 1.15


def profile_cell(
    key: str,
    batches: tuple[int, ...] = (1, 16, 256),
    runs: int = 11,
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
    followed by one untimed ``kernel.run`` (``bare_s``), timed from outside,
    and one run of the floor — ``np.sort`` plus the snake scatter, the
    ground truth itself — on the same keys; ``floor_ratio`` divides the
    median profiled wall time by the median floor and ``overhead`` by the
    median untimed run.  Per-layer detail, the permute/compute split and
    the residual come from each batch's fastest run (least scheduler
    noise); ``keys_per_s`` uses the median.  A point is ``consistent`` when
    that run's residual is at most :data:`RESIDUAL_SHARE_MAX` of its wall
    time and ``overhead`` at most :data:`OVERHEAD_MAX`; the default of 11
    pairs keeps one slow sample from moving either median far, which five
    did not at batch 1.
    ``mean_occupancy`` and ``max_occupancy`` summarise the last batch's
    layers.
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
    clock = time.perf_counter_ns
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
        bare_ns: list[int] = []
        floor_ns: list[int] = []
        for _ in range(runs):
            out, profile = prof.run(kernel, keys)
            profiles.append(profile)
            t0 = clock()
            kernel.run(keys)
            t1 = clock()
            expected = np.empty_like(keys)
            expected[:, snake] = np.sort(keys, axis=1)
            floor_ns.append(clock() - t1)
            bare_ns.append(t1 - t0)
            if not np.array_equal(out, expected):
                raise AssertionError(
                    f"profiled kernel output diverged from snake ground truth on {cell.key}"
                )
        walls = np.array([p.wall_s for p in profiles])
        bares = np.array(bare_ns) / 1e9
        floors = np.array(floor_ns) / 1e9
        best = profiles[int(np.argmin(walls))]
        overhead = float(np.median(walls) / max(np.median(bares), 1e-9))
        doc["batches"].append(
            {
                "batch": int(batch),
                "keys": best.keys,
                "wall_s": {
                    "min": float(walls.min()),
                    "p50": float(np.median(walls)),
                    "max": float(walls.max()),
                },
                "bare_s": {"min": float(bares.min()), "p50": float(np.median(bares))},
                "floor_s": {"min": float(floors.min()), "p50": float(np.median(floors))},
                "floor_ratio": float(np.median(walls) / max(np.median(floors), 1e-9)),
                "overhead": overhead,
                "wall_ns": best.wall_ns,
                "rows_ns": best.rows_ns,
                "permute_ns": best.restore_ns + sum(lay.permute_ns for lay in best.layers),
                "compute_ns": sum(lay.compute_ns for lay in best.layers),
                "restore_ns": best.restore_ns,
                "residual_ns": best.residual_ns,
                "consistent": best.residual_ns <= RESIDUAL_SHARE_MAX * best.wall_ns
                and overhead <= OVERHEAD_MAX,
                "keys_per_s": float(best.keys / np.median(walls)),
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
        f"  {'batch':>7} {'keys':>9} {'p50 µs':>9} {'min µs':>9} {'rows µs':>8} "
        f"{'permute µs':>10} {'compute µs':>10} {'resid%':>6} {'×bare':>6} {'floor µs':>9} "
        f"{'×floor':>7} {'keys/s':>13}  check",
    ]
    for point in doc["batches"]:
        wall = point["wall_s"]
        lines.append(
            f"  {point['batch']:>7} {point['keys']:>9} {wall['p50'] * 1e6:>9.1f} "
            f"{wall['min'] * 1e6:>9.1f} {point['rows_ns'] / 1e3:>8.1f} "
            f"{point['permute_ns'] / 1e3:>10.1f} "
            f"{point['compute_ns'] / 1e3:>10.1f} "
            f"{point['residual_ns'] / max(point['wall_ns'], 1) * 100:>6.1f} "
            f"{point['overhead']:>6.2f} {point['floor_s']['p50'] * 1e6:>9.1f} "
            f"{point['floor_ratio']:>7.1f} {point['keys_per_s']:>13,.0f}  "
            f"{'consistent' if point['consistent'] else 'INCONSISTENT'}"
        )
    lines.append(
        f"min = rows + permute + compute + residual (the fastest run); consistent: "
        f"resid% <= {RESIDUAL_SHARE_MAX:.0%} and p50 <= {OVERHEAD_MAX}× an untimed "
        f"run (×bare)"
    )
    lines.append(f"per-layer detail (batch {doc['batches'][-1]['batch']}):")
    lines.extend(_layer_table(doc["batches"][-1]["per_layer"]))
    return "\n".join(lines)
