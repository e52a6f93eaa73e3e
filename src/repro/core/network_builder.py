"""Comparator networks from the multiway merge (paper §3.2's remark).

§3.2: "if we are interested in building a sorting network, we can implement
subnetworks based on recursively updating N ..." — the merge of §3.1 is an
oblivious compare-exchange procedure, so it *is* a comparator network once
the free redistribution steps (1 and 3) are compiled away into wire
bookkeeping.  That network is already written down once, as the emitted
lattice schedule (:func:`repro.schedule.emit.emit_lattice_schedule`); this
module *lowers* it to wires:

* :func:`multiway_merge_network` — a network merging ``n`` sorted sequences
  of ``n**(k-1)`` keys laid out concatenated on the wires (the schedule's
  top merge, relabelled);
* :func:`multiway_sort_network` — the full §3.3 sorter for ``n**r`` wires;
* both return a :class:`WireNetwork`: parallel *layers* of disjoint
  comparators plus the output order (which wires hold the sorted sequence:
  snake order), with :meth:`WireNetwork.normalized` relabelling wires so
  the output is in natural order — a standard sorting network comparable,
  comparator for comparator, with Batcher's constructions in
  :mod:`repro.baselines.batcher`.

Steps 1 and 3 contribute **zero comparators** — the network-construction
face of the paper's observation that they are free on product networks.
Each comparator round of the schedule (Step 4's two odd-even block
transpositions) is one layer.  Each block-sort round becomes the base
network along every block's node row, reversed when the block sorts
descending; the blocks of a round sit on disjoint wires, so their layers
are zipped together, keeping the depth at the parallel-time value rather
than the sum.

Every block sort covers ``n**2`` wires with a pluggable primitive network:
odd-even transposition (any width; ``L`` layers) or Batcher's odd-even
merge sort (power-of-two widths; ``lg L (lg L + 1)/2`` layers) — choosing
the latter recovers, for ``n = 2``, networks with Batcher-like depth, which
is the §5.3 "Batcher is a special case" statement at the network level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from ..schedule import ComparatorDAG, SchedulePhase, emit_lattice_schedule, snake_order_nodes

__all__ = [
    "WireNetwork",
    "multiway_merge_network",
    "multiway_sort_network",
    "transposition_base",
    "batcher_base",
    "auto_base",
]

#: one comparator: (lo_wire, hi_wire) — min ends on lo_wire
Comparator = tuple[int, int]
#: a layer: disjoint comparators executing in parallel
Layer = list[Comparator]
#: a base sorter: given wire ids in ascending target order, produce layers
BaseSorter = Callable[[Sequence[int]], list[Layer]]


@dataclass(frozen=True)
class WireNetwork:
    """Layers of comparators plus the output order.

    After running :attr:`layers` on any input, reading the wires in
    :attr:`order` yields the keys sorted ascending.
    """

    width: int
    layers: tuple[tuple[Comparator, ...], ...]
    order: tuple[int, ...]

    @property
    def depth(self) -> int:
        """Number of parallel layers."""
        return len(self.layers)

    @property
    def size(self) -> int:
        """Total comparator count."""
        return sum(len(layer) for layer in self.layers)

    def apply(self, keys: Sequence[Any]) -> list[Any]:
        """Run the network; return the keys read in output order (sorted)."""
        if len(keys) != self.width:
            raise ValueError(f"expected {self.width} keys, got {len(keys)}")
        wires = list(keys)
        for layer in self.layers:
            for lo, hi in layer:
                if wires[hi] < wires[lo]:
                    wires[lo], wires[hi] = wires[hi], wires[lo]
        return [wires[w] for w in self.order]

    def normalized(self) -> "WireNetwork":
        """Relabel wires so the output order is ``0..width-1``.

        The relabelled network is a *standard* sorting network: wire ``p``
        ends up holding the ``p``-th smallest input.
        """
        rho = [0] * self.width
        for p, w in enumerate(self.order):
            rho[w] = p
        layers = tuple(
            tuple((rho[lo], rho[hi]) for lo, hi in layer) for layer in self.layers
        )
        return WireNetwork(width=self.width, layers=layers, order=tuple(range(self.width)))

    def validate_layers(self) -> None:
        """Raise if any layer reuses a wire (layers must be parallel)."""
        for i, layer in enumerate(self.layers):
            touched = [w for comp in layer for w in comp]
            if len(touched) != len(set(touched)):
                raise ValueError(f"layer {i} reuses a wire")


# ----------------------------------------------------------------------
# base sorters for n^2 wires
# ----------------------------------------------------------------------
def transposition_base(wires: Sequence[int]) -> list[Layer]:
    """Odd-even transposition network along the given wire order
    (``len(wires)`` layers; works for any width)."""
    length = len(wires)
    layers: list[Layer] = []
    for t in range(length):
        layer = [
            (wires[i], wires[i + 1]) for i in range(t % 2, length - 1, 2)
        ]
        if layer:
            layers.append(layer)
    return layers


def batcher_base(wires: Sequence[int]) -> list[Layer]:
    """Batcher odd-even merge sort over the given wires (power-of-two width,
    ``lg L (lg L + 1)/2`` layers)."""
    from ..baselines.batcher import odd_even_merge_sort_network

    length = len(wires)
    if length & (length - 1):
        raise ValueError(f"batcher base needs a power-of-two width, got {length}")
    return [
        [(wires[i], wires[j]) for i, j in stage]
        for stage in odd_even_merge_sort_network(length)
    ]


def auto_base(wires: Sequence[int]) -> list[Layer]:
    """Batcher when the width is a power of two, transposition otherwise."""
    length = len(wires)
    if length >= 2 and not (length & (length - 1)):
        return batcher_base(wires)
    return transposition_base(wires)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def _zip_layers(groups: list[list[Layer]]) -> list[Layer]:
    """Merge parallel computations on disjoint wires layer-by-layer."""
    depth = max((len(g) for g in groups), default=0)
    out: list[Layer] = []
    for t in range(depth):
        layer: Layer = []
        for g in groups:
            if t < len(g):
                layer.extend(g[t])
        if layer:
            out.append(layer)
    return out


def _lower(phases: list[SchedulePhase], dag: ComparatorDAG, base: BaseSorter) -> list[Layer]:
    """Lower DAG phases to comparator layers on wires named by node id.

    Each comparator round becomes one layer; each block sort becomes
    ``base`` along its node row (reversed when descending), the block sorts
    of one round zipped into shared layers."""
    layers: list[Layer] = []
    for phase in phases:
        for rd in dag.phase_rounds(phase.index):
            if rd.lo.size:
                layers.append(list(zip(rd.lo.tolist(), rd.hi.tolist())))
            layers += _zip_layers(
                [
                    base(row[::-1] if desc else row)
                    for nodes, descending in rd.blocks
                    for row, desc in zip(nodes.tolist(), descending.tolist())
                ]
            )
    return layers


def _network(width: int, layers: list[Layer], order: Iterable[int]) -> WireNetwork:
    net = WireNetwork(
        width=width,
        layers=tuple(tuple(layer) for layer in layers),
        order=tuple(int(w) for w in order),
    )
    net.validate_layers()
    return net


def _schedule(n: int, r: int) -> ComparatorDAG:
    """The emitted lattice schedule of ``PG_r`` over ``n``-node factors
    (the comparators do not depend on the factor's edges)."""
    from ..graphs.library import path_graph

    return emit_lattice_schedule(path_graph(n), r, 1, 1)


def multiway_merge_network(n: int, k: int, base: BaseSorter = auto_base) -> WireNetwork:
    """Network merging ``n`` sorted runs of ``n**(k-1)`` keys (``k >= 3``).

    Input layout: run ``u`` occupies wires ``[u*n**(k-1), (u+1)*n**(k-1))``,
    each sorted ascending by wire index.  The network is the top merge of
    the emitted ``PG_k`` schedule, with run ``u``'s wire ``p`` on node
    ``u*n**(k-1) + snake_order_nodes(n, k-1)[p]``.
    """
    if n < 2 or k < 3:
        raise ValueError("need n >= 2 and k >= 3 (below that, sort directly — §3.2)")
    dag = _schedule(n, k)
    m = n ** (k - 1)
    wire_of = np.empty(n * m, dtype=np.int64)
    for u in range(n):
        wire_of[u * m + snake_order_nodes(n, k - 1)] = np.arange(u * m, (u + 1) * m)
    top = ("sort", f"merge[d{k}]")
    layers = _lower([p for p in dag.phases if p.path[:2] == top], dag, base)
    relabelled = [[(int(wire_of[lo]), int(wire_of[hi])) for lo, hi in layer] for layer in layers]
    return _network(n * m, relabelled, wire_of[snake_order_nodes(n, k)])


def multiway_sort_network(n: int, r: int, base: BaseSorter = auto_base) -> WireNetwork:
    """Full §3.3 sorting network for ``n**r`` wires (``r >= 2``).

    The lowered emitted ``PG_r`` schedule on wires named by node id: the
    initial ``n**2``-wire block sorts, then one merge level per dimension
    ``3..r`` (merges of one level run on disjoint wires, hence in parallel
    layers).  The output reads in snake order.
    """
    if n < 2 or r < 2:
        raise ValueError("need n >= 2 and r >= 2")
    dag = _schedule(n, r)
    return _network(n**r, _lower(list(dag.phases), dag, base), snake_order_nodes(n, r))
