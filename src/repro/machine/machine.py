"""A synchronous product-network multiprocessor, simulated (paper §4 model).

Each node of ``PG_r`` holds exactly one key.  In one synchronous round every
node may participate in at most one compare-exchange with a partner in a
common factor subgraph — a single link traversal when the partners are
adjacent, a permutation-routing episode (cost measured by
:mod:`repro.machine.routing`) when they are not.  "During the sorting
algorithm, each processor needs enough memory to hold at most two values
being compared" (§4); the machine enforces the one-key-per-node invariant
and validates that every requested operation is actually realisable on the
network's links.

This simulator is deliberately *slow but exact*: it exists to certify that
every data movement performed by the faster NumPy lattice implementation is
legal on the physical topology, and to measure true round counts including
routing congestion.  Benchmarks at scale use the lattice implementation;
cross-checks at small ``N, r`` use this one.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import zip_longest
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from ..graphs.product import ProductGraph
from .routing import StepRouting, route_partial_permutation

if TYPE_CHECKING:
    from ..schedule.ir import ComparatorDAG

__all__ = ["NetworkMachine", "TrafficRound", "machine_traffic", "measure_step"]

Label = tuple[int, ...]


def measure_step(
    network: ProductGraph, pairs: list[tuple[Label, Label]]
) -> tuple[list[tuple[int, int]], int, StepRouting | None]:
    """Validate one compare-exchange super-step and measure its cost.

    Returns the pairs as flat node indices, the rounds the step is charged
    and, when it routed, its :class:`~repro.machine.routing.StepRouting`
    (``None`` when every pair is a network edge).  See
    :meth:`NetworkMachine.compare_exchange` for the rules; the schedule
    emitter charges transposition rounds with this same function.
    """
    seen: set[int] = set()
    flat: list[tuple[int, int]] = []
    # (dimension index, frozen rest-of-label) -> list of (sym_a, sym_b)
    by_subgraph: dict[tuple[int, Label], list[tuple[int, int]]] = defaultdict(list)
    all_adjacent = True
    for lo, hi in pairs:
        ia, ib = network.flat_index(lo), network.flat_index(hi)
        if ia == ib or ia in seen or ib in seen:
            raise ValueError(f"pairs must be disjoint; offending pair {lo}, {hi}")
        seen.add(ia)
        seen.add(ib)
        flat.append((ia, ib))
        diff = [i for i, (a, b) in enumerate(zip(lo, hi)) if a != b]
        if len(diff) != 1:
            raise ValueError(
                f"compare-exchange partners must share a G subgraph "
                f"(differ in exactly one position): {lo} vs {hi}"
            )
        d = diff[0]
        by_subgraph[(d, lo[:d] + lo[d + 1 :])].append((lo[d], hi[d]))
        if not network.factor.has_edge(lo[d], hi[d]):
            all_adjacent = False
    if all_adjacent:
        return flat, 1, None

    # route every subgraph's simultaneous two-way exchange; the subgraphs are
    # link-disjoint, so the step's cost is the worst makespan and the routed
    # paths can be reported side by side
    cost = 0
    full_paths: list[tuple[Label, ...]] = []
    occupancy: list[int] = []
    for (d, rest), items in by_subgraph.items():
        destinations: dict[int, int] = {}
        for sa, sb in items:
            destinations[sa] = sb
            destinations[sb] = sa
        res = route_partial_permutation(network.factor, destinations)
        cost = max(cost, res.makespan)
        for sym_path in res.paths.values():
            full_paths.append(tuple(rest[:d] + (sym,) + rest[d:] for sym in sym_path))
        occupancy = [max(t) for t in zip_longest(occupancy, res.round_occupancy, fillvalue=0)]
    return flat, cost, StepRouting(
        paths=tuple(full_paths),
        makespan=cost,
        round_occupancy=tuple(occupancy),
        peak_buffer_depth=max(occupancy, default=0),
    )


class TrafficRound(NamedTuple):
    """One compare-exchange super-step of an emitted machine schedule."""

    #: index of the :class:`~repro.schedule.ir.SchedulePhase` the round charges
    phase: int
    #: ``(lo, hi)`` flat node indices, in the round's comparator order
    pairs: list[tuple[int, int]]
    #: rounds the step is charged (>1 only when it routed)
    charge: int
    #: the routed paths and buffers, ``None`` when every pair is a network edge
    routes: StepRouting | None


def machine_traffic(dag: ComparatorDAG, network: ProductGraph) -> Iterator[TrafficRound]:
    """The traffic of a machine schedule on ``network``, round by round.

    The schedule is oblivious, so which wires each super-step uses and what
    it costs follow from the DAG alone: every round with comparators is
    measured once by :func:`measure_step`, without a key, in execution
    order.  Rounds without comparators (vacuous transpositions) are not
    super-steps and yield nothing, as on the machine.
    """
    labels = [network.label_of(i) for i in range(network.num_nodes)]
    for rd in dag.rounds:
        if rd.comparator_count:
            pairs = [(labels[a], labels[b]) for a, b in zip(rd.lo.tolist(), rd.hi.tolist())]
            yield TrafficRound(rd.phase, *measure_step(network, pairs))


class NetworkMachine:
    """State and operation log of one simulated product-network machine.

    Parameters
    ----------
    network:
        The :class:`ProductGraph` being simulated.
    keys:
        Initial key of every node, as a flat array in the node's
        :meth:`ProductGraph.flat_index` order (C order of the key lattice).
    """

    def __init__(self, network: ProductGraph, keys) -> None:
        self.network = network
        keys = np.asarray(keys)
        if keys.shape != (network.num_nodes,):
            raise ValueError(
                f"need one key per node: expected shape ({network.num_nodes},), got {keys.shape}"
            )
        self.keys = keys.copy()
        #: synchronous rounds elapsed (compare-exchange + routing)
        self.rounds = 0
        #: total key comparisons performed
        self.comparisons = 0
        #: number of compare-exchange super-steps issued
        self.operations = 0

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def lattice(self) -> np.ndarray:
        """Current keys as an ``(N,)*r`` lattice indexed by node label."""
        return self.keys.reshape(self.network.shape)

    def key_at(self, label: Label):
        """Key currently held by the node with the given label."""
        return self.keys[self.network.flat_index(label)]

    # ------------------------------------------------------------------
    # the one communication primitive
    # ------------------------------------------------------------------
    def compare_exchange(self, pairs: list[tuple[Label, Label]]) -> int:
        """One parallel compare-exchange super-step.

        ``pairs`` lists ``(lo_label, hi_label)`` node pairs; after the step
        the ``lo`` node of each pair holds the smaller key and the ``hi``
        node the larger.  All pairs execute simultaneously.  Validation
        enforces the §4 model:

        * pairs are disjoint (a node compares at most once per step), and
        * the two nodes of a pair differ in exactly one symbol position —
          i.e. they lie in a common ``G`` subgraph, the only place the
          algorithm ever compares.

        The charged cost is 1 round when every pair is a network edge;
        otherwise the pairs are grouped by the ``G`` subgraph they live in,
        each subgraph's simultaneous two-way key exchange is routed by
        :func:`repro.machine.routing.route_partial_permutation`, and the step
        costs the worst subgraph's makespan (all subgraphs route concurrently
        — they are link-disjoint by construction).  What a step carried on
        which wires is read off the schedule by :func:`machine_traffic`.

        Returns the rounds charged (also accumulated on :attr:`rounds`).
        """
        if not pairs:
            return 0
        flat, cost, _ = measure_step(self.network, pairs)
        for ia, ib in flat:
            a, b = self.keys[ia], self.keys[ib]
            if b < a:
                self.keys[ia], self.keys[ib] = b, a
        self.comparisons += len(pairs)
        self.rounds += cost
        self.operations += 1
        return cost

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkMachine({self.network!r}, rounds={self.rounds}, "
            f"comparisons={self.comparisons})"
        )
