"""Compiled execution of the Schedule IR: packed layers, whole-batch passes.

The emitted :class:`~repro.schedule.ir.ComparatorDAG` orders operations by
*charged phase*; within a phase the operations are simultaneous, and across
phases an operation only truly depends on earlier operations touching the
same nodes.  :func:`compile_schedule` exploits this: an ASAP (as soon as
possible) scan assigns every comparator and block sort the earliest layer
after its last same-node predecessor, packing independent operations — even
from different phases — into maximal parallel layers (:class:`ScheduleLayer`,
the IR-level description of a layer).  Every operation lands one layer past
the deepest of its own nodes, so no two operations of a layer share a node.

The same pass lowers every layer to a :class:`LoweredLayer`, which runs over
a whole ``(batch, N**r)`` key array as one ``np.take`` along the node axis
followed by in-place compute on contiguous column spans.  Each layer owns a
column *layout*:

* its block-sort groups first, one ``(blocks, width)`` slab per width, every
  row in local snake order — a descending row stored reversed, so one
  ascending in-place ``sort`` serves both directions;
* then the comparators' ``lo`` nodes, then their ``hi`` nodes — one
  ``minimum``/``maximum`` over two adjacent slices;
* then every node the layer does not touch.

A layer's gather permutation is the composition of the previous layout with
its own, so the previous layer's scatter, the descending flip and this
layer's gather are a single ``take``; the first ``take`` is also the input
copy, and one final ``take`` restores flat node order.  A kernel of ``L``
layers therefore moves the keys ``L + 1`` times and never fancy-indexes.

This kernel is the only compiled executor: single lattices, batches and the
served queues all run it, and :func:`repro.schedule.ir.replay` stays the
independent reference it is checked against.

Kernels are cached by ``(hash, optimize)``, where ``hash`` is the canonical
SHA-256 schedule hash of the DAG handed in (see
:meth:`ComparatorDAG.schedule_hash`): two cells with byte-identical
schedules — however they were emitted — share one compiled artifact.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any

import numpy as np

from ..observability.cachestats import CacheStats
from .ir import ComparatorDAG

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability.kernelprof import KernelProfiler

__all__ = [
    "CompiledSchedule",
    "LoweredLayer",
    "ScheduleLayer",
    "clear_kernel_cache",
    "compile_schedule",
    "get_profiler",
    "reject_nan",
    "set_profiler",
]


def reject_nan(keys: np.ndarray, cell: str) -> None:
    """Raise ``ValueError`` when float ``keys`` for ``cell`` hold a NaN.

    NaN has no place in a total order: ``minimum``/``maximum`` propagate it
    while ``sort`` puts it last, so a network would duplicate it and drop a
    real key.  Non-float keys pay one dtype test.
    """
    if keys.dtype.kind == "f" and np.isnan(keys).any():
        raise ValueError(f"cell {cell} cannot sort NaN keys: they are unordered")


@dataclass(frozen=True)
class ScheduleLayer:
    """One packed parallel layer: disjoint comparators and block sorts."""

    #: comparator endpoints (minimum side), fancy-index ready
    lo: np.ndarray
    #: comparator endpoints (maximum side)
    hi: np.ndarray
    #: equal-width block-sort groups: (nodes matrix ``(blocks, width)`` in
    #: local snake order, indices of rows sorted descending)
    block_groups: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def op_count(self) -> int:
        return int(self.lo.size) + sum(mat.shape[0] for mat, _ in self.block_groups)


@dataclass(frozen=True)
class LoweredLayer:
    """One layer as the kernel executes it: a gather, then in-place compute."""

    #: column ``c`` of this layer's layout is column ``perm[c]`` of the
    #: previous layout (of the input, for the first layer)
    perm: np.ndarray
    #: block-sort slabs ``(start, stop, width)``: columns ``start:stop`` hold
    #: rows of ``width`` keys, each sorted ascending in place
    slabs: tuple[tuple[int, int, int], ...]
    #: comparator columns ``(start, mid, stop)``: ``lo`` keys in
    #: ``start:mid``, ``hi`` keys in ``mid:stop`` (empty when ``start == mid``)
    comparators: tuple[int, int, int]

    def permute(self, x: np.ndarray) -> np.ndarray:
        """Gather ``(batch, N)`` keys from the previous layout into this one."""
        return np.take(x, self.perm, axis=1)

    def compute(self, x: np.ndarray) -> None:
        """Sort the slabs and exchange the comparator pairs, in place."""
        batch = x.shape[0]
        for start, stop, width in self.slabs:
            # a view: the column span is contiguous within each batch row
            x[:, start:stop].reshape(batch, (stop - start) // width, width).sort(axis=-1)
        start, mid, stop = self.comparators
        if mid > start:
            lo = x[:, start:mid]
            hi = x[:, mid:stop]
            low = np.minimum(lo, hi)
            np.maximum(lo, hi, out=hi)
            lo[...] = low


class CompiledSchedule:
    """An executable layering of one :class:`ComparatorDAG`.

    The ASAP re-layering described in the module docstring: ``layers``
    describes the layers, ``steps`` is their lowering (one per layer) and
    ``final_perm`` the ``take`` that returns the last layout to node order.
    """

    def __init__(
        self,
        dag: ComparatorDAG,
        schedule_hash: str | None = None,
        source_hash: str | None = None,
    ) -> None:
        self.num_nodes = dag.num_nodes
        # the canonical SHA-256 is expensive enough to compute exactly once:
        # compile_schedule passes the hash it already derived the cache key from
        self.schedule_hash = schedule_hash if schedule_hash is not None else dag.schedule_hash()
        #: hash of the schedule this kernel was derived *from* — differs from
        #: ``schedule_hash`` only for optimizer-produced kernels, where it
        #: names the original emitted schedule
        self.source_hash = source_hash if source_hash is not None else self.schedule_hash
        #: benchreg-style label for profiler metrics (family-n-r, no backend:
        #: the kernel is backend-agnostic once emitted)
        self.cell = f"{dag.factor}-n{dag.n}-r{dag.r}"
        depth = [0] * dag.num_nodes
        # layer index -> its comparators' lo nodes, their hi nodes, and its
        # block sorts by width: {width: [(row in local snake order, descending)]}
        lows: defaultdict[int, list[int]] = defaultdict(list)
        highs: defaultdict[int, list[int]] = defaultdict(list)
        blocks: defaultdict[int, defaultdict[int, list[tuple[tuple[int, ...], bool]]]]
        blocks = defaultdict(lambda: defaultdict(list))
        for rd in dag.rounds:
            for op in rd.comparators:
                lo, hi = op.lo, op.hi
                layer = max(depth[lo], depth[hi]) + 1
                depth[lo] = depth[hi] = layer
                lows[layer].append(lo)
                highs[layer].append(hi)
            for blk in rd.block_sorts:
                nodes = blk.nodes
                layer = max(map(depth.__getitem__, nodes)) + 1
                for i in nodes:
                    depth[i] = layer
                blocks[layer][len(nodes)].append((nodes, blk.descending))

        layers: list[ScheduleLayer] = []
        steps: list[LoweredLayer] = []
        columns = np.arange(dag.num_nodes, dtype=np.intp)
        # column of every node in the previous layout (the input: node order)
        position = columns
        for layer in sorted(set(lows) | set(blocks)):
            groups = []
            slabs = []
            touched: list[int] = []  # nodes in this layer's column order
            for width, entries in blocks.get(layer, {}).items():
                start = len(touched)
                rows = []
                desc_rows = []
                for i, (row, descending) in enumerate(entries):
                    rows.append(row)
                    if descending:
                        desc_rows.append(i)
                        touched.extend(reversed(row))
                    else:
                        touched.extend(row)
                slabs.append((start, len(touched), width))
                groups.append(
                    (np.asarray(rows, dtype=np.intp), np.asarray(desc_rows, dtype=np.intp))
                )
            mid = len(touched)
            touched += lows.get(layer, ())
            split = len(touched)
            touched += highs.get(layer, ())
            stop = len(touched)
            if stop < dag.num_nodes:
                engaged = set(touched)
                touched += [node for node in range(dag.num_nodes) if node not in engaged]
            layout = np.asarray(touched, dtype=np.intp)  # the node each column holds
            layers.append(
                ScheduleLayer(
                    lo=layout[mid:split], hi=layout[split:stop], block_groups=tuple(groups)
                )
            )
            steps.append(
                LoweredLayer(
                    perm=position[layout], slabs=tuple(slabs), comparators=(mid, split, stop)
                )
            )
            position = np.empty_like(columns)
            position[layout] = columns
        self.layers: tuple[ScheduleLayer, ...] = tuple(layers)
        self.steps: tuple[LoweredLayer, ...] = tuple(steps)
        self.final_perm = position

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def rows(self, state: Any) -> tuple[np.ndarray, bool]:
        """Validate ``state`` as a ``(batch, num_nodes)`` view (no copy).

        Returns the view and whether ``state`` was a single 1-D key vector.
        Float keys containing NaN raise ``ValueError`` (see :func:`reject_nan`).
        """
        arr = np.asarray(state)
        squeeze = arr.ndim == 1
        x = arr[np.newaxis, :] if squeeze else arr
        if x.ndim != 2 or x.shape[1] != self.num_nodes:
            raise ValueError(
                f"state must have {self.num_nodes} keys per row, got {np.shape(state)}"
            )
        reject_nan(x, self.cell)
        return x, squeeze

    def finish(self, x: np.ndarray, squeeze: bool) -> np.ndarray:
        """Take the last layout back to node order, as a fresh array."""
        return np.take(x[0] if squeeze else x, self.final_perm, axis=-1)

    def run(self, state: np.ndarray) -> np.ndarray:
        """Execute the schedule over a key vector or a whole batch.

        ``state`` has shape ``(num_nodes,)`` or ``(batch, num_nodes)``,
        indexed by flat node id; returns a fresh array of the same shape and
        dtype, leaving ``state`` untouched.  Semantically identical to
        :func:`repro.schedule.ir.replay` — the property tests pin that
        equivalence — just fewer, wider passes.

        When a :class:`~repro.observability.kernelprof.KernelProfiler` is
        installed (see :func:`set_profiler`) and enabled, the run is timed
        layer by layer over the same steps; otherwise the only overhead is
        one ``None`` check.
        """
        profiler = _PROFILER
        if profiler is not None and profiler.enabled:
            return profiler.profiled_run(self, state)
        x, squeeze = self.rows(state)
        for step in self.steps:
            x = step.permute(x)
            step.compute(x)
        return self.finish(x, squeeze)

    __call__ = run

    def describe(self) -> str:
        ops = sum(layer.op_count for layer in self.layers)
        return (
            f"compiled schedule {self.schedule_hash[:12]}: {self.num_layers} packed "
            f"layers, {ops} operations over {self.num_nodes} nodes"
        )


_KERNEL_LOCK = threading.Lock()
_KERNELS: dict[tuple[str, bool], CompiledSchedule] = {}

#: hit/miss/compile-time accounting for the kernel cache (see
#: :mod:`repro.observability.cachestats`)
KERNEL_CACHE_STATS = CacheStats("compiled-kernels", size_fn=lambda: len(_KERNELS))

#: process-wide profiler hook; ``None`` (the default) keeps :meth:`run` on
#: the zero-instrumentation fast path
_PROFILER: "KernelProfiler | None" = None


def set_profiler(profiler: "KernelProfiler | None") -> "KernelProfiler | None":
    """Install (``None``: remove) the process-wide kernel profiler.

    Returns the previously installed profiler so callers can restore it —
    :class:`~repro.observability.kernelprof.KernelProfiler` does exactly
    that when used as a context manager.
    """
    global _PROFILER
    previous = _PROFILER
    _PROFILER = profiler
    return previous


def get_profiler() -> "KernelProfiler | None":
    """The currently installed process-wide kernel profiler, if any."""
    return _PROFILER


def compile_schedule(dag: ComparatorDAG, optimize: bool = False) -> CompiledSchedule:
    """Compile (or fetch from the hash-keyed cache) a DAG's batch kernel.

    ``optimize=True`` first runs the certified optimizer pipeline
    (:func:`repro.schedule.optimize.optimize_schedule`, itself memoised by
    the original hash) and compiles the validated optimized schedule; the
    kernel then carries both hashes — ``source_hash`` names the original
    emitted schedule (also the cache key), ``schedule_hash`` the optimized
    one actually executed.  A failed certificate or validation falls back
    to compiling the unoptimized schedule.
    """
    schedule_hash = dag.schedule_hash()
    key = (schedule_hash, optimize)
    with _KERNEL_LOCK:
        kernel = _KERNELS.get(key)
    if kernel is not None:
        KERNEL_CACHE_STATS.record_hit()
        return kernel
    # build outside the lock (compilation is pure); a racing thread may
    # build the same kernel, in which case setdefault keeps the first one
    t0 = perf_counter()
    target, target_hash = dag, schedule_hash
    if optimize:
        from .optimize import optimize_schedule

        result = optimize_schedule(dag)
        target, target_hash = result.optimized, result.optimized_hash
    built = CompiledSchedule(target, schedule_hash=target_hash, source_hash=schedule_hash)
    KERNEL_CACHE_STATS.record_miss(perf_counter() - t0)
    with _KERNEL_LOCK:
        return _KERNELS.setdefault(key, built)


def clear_kernel_cache() -> None:
    """Drop every compiled kernel and reset its cache statistics."""
    with _KERNEL_LOCK:
        _KERNELS.clear()
    KERNEL_CACHE_STATS.reset()

