"""Compiled execution of the Schedule IR: packed layers, whole-batch passes.

The emitted :class:`~repro.schedule.ir.ComparatorDAG` orders operations by
*charged phase*; within a phase the operations are simultaneous, and across
phases an operation only truly depends on earlier operations touching the
same nodes.  :func:`compile_schedule` exploits this: an ASAP (as soon as
possible) scan (:func:`~repro.schedule.ir.pack_rounds`) assigns every
comparator and block sort the earliest layer after its last same-node
predecessor, packing independent operations — even from different phases —
into maximal parallel layers (:class:`ScheduleLayer`, the IR-level
description of a layer).  Every operation lands one layer past the deepest
of its own nodes, so no two operations of a layer share a node.

The same pass lowers every layer to a :class:`LoweredLayer`: one gather,
then in-place compute on contiguous spans.  After the compute the layer's
keys sit in its *layout*, which orders them as

* its block-sort groups first, one slab per width, every block in local
  snake order — a descending block stored reversed, so one ascending
  sort serves both directions;
* then the comparators' ``lo`` nodes, then their ``hi`` nodes — one
  ``minimum``/``maximum`` over two adjacent spans;
* then every node the layer does not touch.

A layer stores its keys in one of two forms:

* **node-major** ``(N, batch)`` when every slab is 2, 3 or 4 wide
  (comparator-only layers included).  A slab is *position-major*: position
  ``p`` of every block is one contiguous run of ``blocks * batch`` keys.
  On every call each slab picks its form from its lane count
  ``blocks * batch`` alone: at least :data:`NETWORK_MIN_LANES` runs the
  slab as a min/max network over whole runs (:data:`NETWORKS`: 1/3/5
  comparators for widths 2/3/4), fewer sorts the lanes with one ``sort``
  along the position axis;
* **row-major** ``(batch, N)`` otherwise: the wide slabs (widths 9 and 16,
  and the optimizer's 18- and 32-wide Lemma-1 windows) keep one in-place
  ``sort`` of ``(blocks, width)`` rows per batch row, which ``np.sort``
  runs faster than any network.

A layer's gather composes the previous layout with its own, so the
previous layer's scatter, the descending flip, this layer's gather and any
switch between the two forms are a single pass — a row gather of the
node-major view; only a switch back to row-major adds a transpose.  A sort
does not care in which order its keys arrive, so a row-major slab gathers
each block's keys in the order they sit in the previous layout: its
``perm`` differs from its layout there, and only the layout is composed
with the next layer.  The first gather is also the input copy.  On the
row-major lattice cells, whose initial blocks are contiguous node ranges,
it is the identity and runs as a C-ordered copy.  One final gather
restores row-major node order.  The lowering checks once that every
layout, and so every gather, permutes ``range(N)``; the row-major gathers
then run ``np.take(..., mode="wrap")`` without NumPy's per-element bounds
check.
``docs/schedule-ir.md`` records the measurements behind both forms, the
threshold and the gathers.

This kernel is the only compiled executor: single lattices, batches and the
served queues all run it, and :func:`repro.schedule.ir.replay` stays the
independent reference it is checked against.  Its keys must be totally
ordered (:func:`check_keys`): a network's ``minimum``/``maximum`` would
duplicate an unordered key where ``sort`` moves it last.

:func:`compile_schedule` lowers the certified optimizer's output (the DAG
handed in when a certificate fails) and caches it by the canonical SHA-256
hash of that DAG alone (see :meth:`ComparatorDAG.schedule_hash`): two cells
with byte-identical schedules share one compiled artifact.
``CompiledSchedule(dag)`` is the raw kernel, uncached.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Any

import numpy as np

from ..observability.cachestats import CacheStats
from .ir import ComparatorDAG, output_order, pack_rounds

__all__ = [
    "CompiledSchedule",
    "KeyDomainError",
    "LoweredLayer",
    "NETWORKS",
    "NETWORK_MIN_LANES",
    "ScheduleLayer",
    "check_keys",
    "check_unmasked",
    "clear_kernel_cache",
    "compile_schedule",
]


class KeyDomainError(ValueError):
    """Keys outside the kernel's key domain: not totally ordered under ``<``."""

    def __init__(self, cell: str, message: str) -> None:
        super().__init__(message)
        self.cell = cell


def check_keys(keys: np.ndarray, cell: str) -> None:
    """Raise :class:`KeyDomainError` unless ``keys`` are totally ordered.

    The key domain is an allowlist: bool, signed and unsigned integers, and
    floats without NaN (``±inf`` and ``-0.0`` are ordered; the sign of a
    zero is not preserved).  Everything else is refused — NaN, because
    ``minimum``/``maximum`` propagate it while ``sort`` puts it last, so a
    network would duplicate it and drop a real key; datetime64 and
    timedelta64, whose NaT is unordered in the same way (sort their
    ``int64`` view instead); complex, object, string and structured keys,
    which either hold NaN or cannot go through ``minimum``/``maximum``.
    Integer and bool keys pay one dtype test.
    """
    kind = keys.dtype.kind
    if kind in "biu":
        return
    if kind != "f":
        raise KeyDomainError(
            cell,
            f"cell {cell} cannot sort {keys.dtype} keys: only bool, integer "
            f"and NaN-free float keys are totally ordered",
        )
    if np.isnan(keys).any():
        raise KeyDomainError(cell, f"cell {cell} cannot sort NaN keys: they are unordered")


def check_unmasked(keys: Any, cell: str) -> None:
    """Raise :class:`KeyDomainError` if ``keys`` is a masked array with a masked entry.

    ``np.asarray`` drops the mask, so the hidden keys would be sorted into
    the answer.  ``numpy.ma`` is read only once something has imported it
    (no masked array exists before that), so other callers do not pay its
    import.
    """
    ma = sys.modules.get("numpy.ma")
    if ma is not None and isinstance(keys, ma.MaskedArray) and ma.is_masked(keys):
        raise KeyDomainError(cell, f"cell {cell} cannot sort masked keys: the mask would be lost")


#: fewest lanes (``blocks * batch``) at which a narrow slab runs as a network
#: instead of one ``sort``; measured in ``docs/schedule-ir.md``
NETWORK_MIN_LANES = 256
#: per width, the stages of an optimal sorting network over a position-major
#: slab's ``(width, lanes)`` view: one ``(lo rows, hi rows)`` slice pair per
#: stage, whose comparators are disjoint (1, 3 and 5 comparators for widths
#: 2, 3 and 4).  A layer is node-major when every slab width has a network;
#: wider slabs run row-major sorts.
NETWORKS: dict[int, tuple[tuple[slice, slice], ...]] = {
    2: ((slice(0, 1), slice(1, 2)),),
    3: ((slice(0, 1), slice(2, 3)), (slice(0, 1), slice(1, 2)), (slice(1, 2), slice(2, 3))),
    4: ((slice(0, 4, 2), slice(1, 4, 2)), (slice(0, 2), slice(2, 4)), (slice(1, 2), slice(2, 3))),
}


def _exchange(lo: np.ndarray, hi: np.ndarray) -> None:
    """Compare-exchange two equal-shape views in place: ``lo`` gets the minima."""
    low = np.minimum(lo, hi)
    np.maximum(lo, hi, out=hi)
    lo[...] = low


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

    #: the gather, checked at lowering to permute ``range(N)``: key ``c`` is
    #: read from key ``perm[c]`` of the previous layout (of the input, for
    #: the first layer).  It lists a row-major slab's blocks in source
    #: order; their sort leaves the keys in the layout's order
    perm: np.ndarray
    #: block-sort slabs ``(start, stop, width)``: keys ``start:stop`` hold
    #: blocks of ``width`` keys, position-major when ``node_major``, else one
    #: block after another
    slabs: tuple[tuple[int, int, int], ...]
    #: comparator keys ``(start, mid, stop)``: ``lo`` keys in ``start:mid``,
    #: ``hi`` keys in ``mid:stop`` (empty when ``start == mid``)
    comparators: tuple[int, int, int]
    #: keys stored ``(N, batch)``; else ``(batch, N)``
    node_major: bool
    #: the previous layout (the input's, for the first layer) is node-major
    source_node_major: bool
    #: ``perm`` is the identity between two row-major layouts: the gather is
    #: a C-ordered copy
    copies: bool

    @property
    def layout(self) -> str:
        return "node-major" if self.node_major else "row-major"

    def forms(self, batch: int) -> tuple[str, ...]:
        """Each slab's form at ``batch`` rows: ``"network"`` or ``"sort"``."""
        return tuple(
            "network"
            if self.node_major and (stop - start) // width * batch >= NETWORK_MIN_LANES
            else "sort"
            for start, stop, width in self.slabs
        )

    def permute(self, x: np.ndarray) -> np.ndarray:
        """Gather keys from the previous layout into this one, switching form."""
        if self.node_major:
            # the row gather of a row-major batch's transposed view is also
            # the switch to node-major: one pass
            return (x if self.source_node_major else x.T)[self.perm]
        if self.source_node_major:
            return np.ascontiguousarray(x[self.perm].T)
        if self.copies:
            return x.copy()
        # ``perm`` was checked at lowering: no per-element bounds check
        return np.take(x, self.perm, axis=1, mode="wrap")

    def compute(self, x: np.ndarray) -> None:
        """Sort the slabs and exchange the comparator pairs, in place.

        Each node-major slab picks its form as :meth:`forms` reports it.
        """
        start, mid, stop = self.comparators
        if not self.node_major:
            batch = x.shape[0]
            for first, last, width in self.slabs:
                # a view: the span is contiguous within each batch row
                x[:, first:last].reshape(batch, (last - first) // width, width).sort(axis=-1)
            if mid > start:
                _exchange(x[:, start:mid], x[:, mid:stop])
            return
        batch = x.shape[1]
        for first, last, width in self.slabs:
            lanes = (last - first) // width * batch
            # position p of every block is row p: a view
            slab = x[first:last].reshape(width, lanes)
            if lanes >= NETWORK_MIN_LANES:
                for lo, hi in NETWORKS[width]:
                    _exchange(slab[lo], slab[hi])
            else:
                slab.sort(axis=0)
        if mid > start:
            _exchange(x[start:mid], x[mid:stop])


class CompiledSchedule:
    """An executable layering of one :class:`ComparatorDAG`.

    The ASAP re-layering described in the module docstring: ``layers``
    describes the layers, ``steps`` is their lowering (one per layer) and
    ``final_perm`` the gather that returns the last layout to row-major
    node order.
    """

    def __init__(self, dag: ComparatorDAG, source: ComparatorDAG | None = None) -> None:
        self.num_nodes = dag.num_nodes
        #: the schedule this kernel executes
        self.dag = dag
        #: the emitted schedule a certified kernel was optimized from; ``None``
        #: for a raw kernel, which executes the DAG it was built from
        self.source = source
        #: benchreg-style label for profiler metrics (family-n-r, no backend:
        #: the kernel is backend-agnostic once emitted)
        self.cell = f"{dag.factor}-n{dag.n}-r{dag.r}"
        steps: list[LoweredLayer] = []
        columns = np.arange(dag.num_nodes, dtype=np.intp)
        # compared as bytes: cheaper than np.array_equal on a small cell
        identity = columns.tobytes()
        once = np.bincount(columns).tobytes()  # a layout's counts: each node once
        # where every node sits in the previous layout (the input: node order)
        position = columns
        node_major = False  # the input is a row-major batch
        layers: list[ScheduleLayer] = []
        for lo, hi, blocks in pack_rounds(dag.rounds, dag.num_nodes):
            groups = tuple((nodes, desc.nonzero()[0]) for nodes, desc in blocks)
            layers.append(ScheduleLayer(lo, hi, groups))
            source_node_major = node_major
            node_major = all(nodes.shape[1] in NETWORKS for nodes, _ in blocks)
            slabs = []
            runs = []  # this layer's layout, in pieces
            start = 0
            for (nodes, descending), (_, flipped) in zip(blocks, groups):
                stored = output_order(nodes, descending) if flipped.size else nodes
                # node-major slabs are position-major: position p of every
                # block, then position p + 1
                runs.append(stored.ravel("F") if node_major else stored.ravel())
                slabs.append((start, start + nodes.size, nodes.shape[1]))
                start += nodes.size
            mid, split = start, start + lo.size
            stop = split + hi.size
            if lo.size:  # concatenating empty arrays is not free
                runs += (lo, hi)
            layout = np.concatenate(runs, dtype=np.intp)  # the node each key holds
            if stop < dag.num_nodes:
                touched = np.zeros(dag.num_nodes, dtype=bool)  # np.ones: a slower wrapper
                touched[layout] = True
                layout = np.concatenate((layout, (~touched).nonzero()[0]))
            # every layout must permute the nodes: then every gather (one
            # layout read through the previous one) and the restore permute
            # the keys, and the row-major ones may skip NumPy's bounds check.
            # A node engaged twice lengthens a partial layout; a full one
            # shows it in its counts, which also grow past a node out of range
            if layout.size != dag.num_nodes or (
                stop == dag.num_nodes and np.bincount(layout).tobytes() != once
            ):
                raise ValueError(f"cell {self.cell}: layer {len(steps)} engages a node twice")
            perm = position[layout]
            copies = False
            if not node_major:
                # a sort ignores the order its keys arrive in: read each
                # block's keys in the order they sit in the previous layout
                for first, last, width in slabs:
                    perm[first:last].reshape(-1, width).sort()
                copies = not source_node_major and perm.tobytes() == identity
            steps.append(
                LoweredLayer(
                    perm=perm,
                    slabs=tuple(slabs),
                    comparators=(mid, split, stop),
                    node_major=node_major,
                    source_node_major=source_node_major,
                    copies=copies,
                )
            )
            position = np.empty(dag.num_nodes, dtype=np.intp)
            position[layout] = columns
        #: the packed layers, described
        self.layers: tuple[ScheduleLayer, ...] = tuple(layers)
        self.steps: tuple[LoweredLayer, ...] = tuple(steps)
        #: the last gather, back to row-major node order, reads this layout
        self.final_perm = position
        #: the last layer is node-major (the restore also transposes)
        self.ends_node_major = node_major

    @property
    def num_layers(self) -> int:
        return len(self.steps)

    @property
    def certified(self) -> bool:
        return self.source is not None

    @property
    def schedule_hash(self) -> str:
        """The executed schedule's hash, derived on first use."""
        return self.dag.schedule_hash()

    @property
    def source_hash(self) -> str:
        """The hash of the DAG the kernel was compiled from (the cache key)."""
        return (self.source or self.dag).schedule_hash()

    def rows(self, state: Any) -> tuple[np.ndarray, bool]:
        """Validate ``state`` as a ``(batch, num_nodes)`` view (no copy).

        Returns the view and whether ``state`` was a single 1-D key vector.
        Keys outside the key domain raise :class:`KeyDomainError` (see
        :func:`check_keys` and :func:`check_unmasked`).
        """
        check_unmasked(state, self.cell)
        arr = np.asarray(state)
        squeeze = arr.ndim == 1
        x = arr[np.newaxis, :] if squeeze else arr
        if x.ndim != 2 or x.shape[1] != self.num_nodes:
            raise ValueError(
                f"state must have {self.num_nodes} keys per row, got {np.shape(state)}"
            )
        check_keys(x, self.cell)
        return x, squeeze

    def finish(self, x: np.ndarray, squeeze: bool) -> np.ndarray:
        """Gather the last layout back to row-major node order, as a fresh array."""
        if self.ends_node_major:
            out = np.ascontiguousarray(x[self.final_perm].T)
            return out[0] if squeeze else out
        return np.take(x[0] if squeeze else x, self.final_perm, axis=-1, mode="wrap")

    def run(self, state: np.ndarray) -> np.ndarray:
        """Execute the schedule over a key vector or a whole batch.

        ``state`` has shape ``(num_nodes,)`` or ``(batch, num_nodes)``,
        indexed by flat node id; returns a fresh array of the same shape and
        dtype, leaving ``state`` untouched.  Semantically identical to
        :func:`repro.schedule.ir.replay` — the property tests pin that
        equivalence — just fewer, wider passes.
        :meth:`repro.observability.kernelprof.KernelProfiler.run` makes the
        same calls with a clock stamp around each.
        """
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
_KERNELS: dict[str, CompiledSchedule] = {}

#: hit/miss/compile-time accounting for the kernel cache (see
#: :mod:`repro.observability.cachestats`)
KERNEL_CACHE_STATS = CacheStats("compiled-kernels", size_fn=lambda: len(_KERNELS))

def compile_schedule(dag: ComparatorDAG, *, optimize: bool = True) -> CompiledSchedule:
    """Compile (or fetch from the hash-keyed cache) a DAG's certified kernel.

    Runs the certified optimizer pipeline
    (:func:`repro.schedule.optimize.optimize_schedule`, itself memoised by
    the source hash) and compiles the validated optimized schedule.  A
    failed certificate or validation falls back to the raw kernel of
    ``dag``.  ``optimize`` accepts only ``True``, for callers written when
    it was a choice.
    """
    if optimize is not True:
        raise TypeError(f"optimize={optimize!r}: the raw kernel is CompiledSchedule(dag)")
    source_hash = dag.schedule_hash()
    with _KERNEL_LOCK:
        kernel = _KERNELS.get(source_hash)
    if kernel is not None:
        KERNEL_CACHE_STATS.record_hit()
        return kernel
    # build outside the lock (compilation is pure); a racing thread may
    # build the same kernel, in which case setdefault keeps the first one
    t0 = perf_counter()
    from .optimize import optimize_schedule

    result = optimize_schedule(dag)
    built = CompiledSchedule(result.optimized, source=None if result.fell_back else dag)
    KERNEL_CACHE_STATS.record_miss(perf_counter() - t0)
    with _KERNEL_LOCK:
        return _KERNELS.setdefault(source_hash, built)


def clear_kernel_cache() -> None:
    """Drop every compiled kernel and reset its cache statistics."""
    with _KERNEL_LOCK:
        _KERNELS.clear()
    KERNEL_CACHE_STATS.reset()

