"""Bulk regime: many keys per node (the setting of the paper's refs [1], [5]).

The paper's machine model holds exactly one key per node, and notes that
Columnsort-family algorithms "behave nicely when the number of keys is
large compared with the number of processors".  This module extends the
multiway-merge sorter to that regime the way practical systems do:

* every node holds a **sorted run** of ``c`` keys;
* a compare-exchange between two nodes becomes a **merge-split**: the nodes
  exchange runs, the low side keeps the ``c`` smallest of the union, the
  high side the ``c`` largest (cost: ``c`` link-words, i.e. ``c`` rounds in
  the one-word-per-link model);
* the assumed two-dimensional sorter becomes its bulk analogue: fully sort
  the ``c * N**2`` keys of a block and deal them back as runs;
* everything else — snake order over nodes, merge Steps 1-4 — is unchanged.

Since the schedule refactor the lifting is literal: the bulk sorter
**interprets the same emitted** :class:`~repro.schedule.ir.ComparatorDAG`
as the one-key backends, per geometry cell from the same cache, with each
comparator executed as a merge-split and each block sort as a bulk block
sort dealing runs back along the block's local snake order (reversed when
descending — the run-level image of an anti-snake block sort).

Correctness is Knuth's classic lifting: an *oblivious* compare-exchange
schedule stays a sorting algorithm when compare-exchange is replaced by
merge-split over pre-sorted runs (think of a run of 0-1 keys as its zero
count; merge-split acts on zero counts exactly like min/max).  The emitted
IR is oblivious by construction, so the lifting applies verbatim.

Cost: every one-key round becomes a ``c``-word round, so the modelled total
is ``c * S_r(N)`` rounds for ``c * N**r`` keys — **rounds per key
independent of c** while the network stays fixed.  Compared with growing a
one-key network to ``N**r' = c * N**r`` nodes: the bigger machine finishes
in fewer raw rounds (it has ``c`` times the processors) but spends strictly
more processor-rounds per key (``S_r < S_r'``), so the bulk machine is the
more *efficient* design — the quantitative version of the paper's remark
that multiway algorithms "behave nicely when the number of keys is large
compared with the number of processors".  :func:`bulk_multiway_merge_sort`
measures the data path and reports both numbers; the bench turns them into
the efficiency table.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

from ..analysis.complexity import sort_rounds
from ..core.sorting import required_order
from ..schedule import ComparatorDAG, emit_lattice_schedule, snake_order_nodes
from ..schedule.ir import output_order

__all__ = ["BulkSortStats", "bulk_multiway_merge_sort"]


@dataclass(frozen=True)
class BulkSortStats:
    """Cost profile of a bulk sort of ``c * n**r`` keys on ``n**r`` nodes."""

    n: int
    r: int
    keys_per_node: int
    total_keys: int
    #: merge-split exchanges actually performed by the schedule
    split_exchanges: int
    #: modelled rounds on the grid instantiation: c x one-key S_r(N)
    modelled_rounds: int
    #: one-key network with one node per key (when c*n**r is a power of n):
    #: its Theorem 1 rounds, for the amortisation comparison
    one_key_equivalent_rounds: int | None


def _grid_schedule(n: int, r: int) -> tuple[ComparatorDAG, int, int]:
    """The reference grid cell's emitted IR plus its (S2, R) constants.

    Uses the hypercube instantiation for ``n = 2`` and the path-graph grid
    otherwise — the same cells the benchreg matrix pins, so the bulk sorter
    shares their cached schedules.  (The op structure of the lattice IR
    depends only on ``(n, r)``; the factor fixes the per-call charges.)
    """
    from ..graphs.library import k2, path_graph
    from ..sorters2d.analytic import sorter_for_factor
    from ..sorters2d.base import PublishedRoutingModel

    if n == 2:
        factor, s2, routing = k2(), 3, 1
    else:
        factor = path_graph(n)
        s2 = sorter_for_factor(factor).rounds(n)
        routing = PublishedRoutingModel(factor).rounds(n)
    return emit_lattice_schedule(factor, r, s2, routing), s2, routing


def _interpret_bulk(dag: ComparatorDAG, runs: list[list[Any]], c: int) -> int:
    """Execute the one-key IR over sorted runs; returns the merge-split count.

    Comparators become merge-splits (low node keeps the ``c`` smallest of
    the union); block sorts fully sort the block's ``c * N**2`` keys and
    deal them back as runs along the recorded local snake order (reversed
    for descending block sorts).
    """
    splits = 0
    for rd in dag.rounds:
        for lo, hi in zip(rd.lo.tolist(), rd.hi.tolist()):
            merged = sorted(runs[lo] + runs[hi])
            runs[lo], runs[hi] = merged[:c], merged[c:]
            splits += 1
        for nodes, descending in rd.blocks:
            for block in output_order(nodes, descending).tolist():
                merged = sorted(key for node in block for key in runs[node])
                for j, node in enumerate(block):
                    runs[node] = merged[j * c : (j + 1) * c]
    return splits


def bulk_multiway_merge_sort(
    keys: Sequence[Any],
    n: int,
    keys_per_node: int,
) -> tuple[list[Any], BulkSortStats]:
    """Sort ``keys_per_node * n**r`` keys, ``keys_per_node`` per node.

    Returns the globally sorted key list (read node runs in snake order)
    and the cost profile.
    """
    c = keys_per_node
    if c < 1:
        raise ValueError("keys_per_node must be >= 1")
    if len(keys) % c != 0:
        raise ValueError("key count must be divisible by keys_per_node")
    num_nodes = len(keys) // c
    r = required_order(num_nodes, n)
    if r < 2:
        raise ValueError("need n**r nodes with r >= 2")

    dag, s2, routing = _grid_schedule(n, r)

    # local pre-sort: each node sorts its own run (no communication), then
    # the one-key schedule runs verbatim with merge-split semantics
    runs = [sorted(keys[i * c : (i + 1) * c]) for i in range(num_nodes)]
    splits = _interpret_bulk(dag, runs, c)

    out: list[Any] = []
    for node in snake_order_nodes(n, r):
        out.extend(runs[node])

    one_key_rounds = sort_rounds(r, s2, routing)

    # the one-key network holding the same key count, when it exists
    one_key_equivalent: int | None = None
    t, rp = len(keys), 0
    while t % n == 0:
        t //= n
        rp += 1
    if t == 1 and rp >= 2:
        one_key_equivalent = sort_rounds(rp, s2, routing)

    stats = BulkSortStats(
        n=n,
        r=r,
        keys_per_node=c,
        total_keys=len(keys),
        split_exchanges=splits,
        modelled_rounds=c * one_key_rounds,
        one_key_equivalent_rounds=one_key_equivalent,
    )
    return out, stats
