"""Traffic statistics of a machine schedule.

Answers the network-architecture questions the cost ledger abstracts away:
which dimensions carry the sorting traffic, how evenly the links are used,
and how much of the machine's parallelism the algorithm actually exploits.
The schedule is oblivious, so the answer is a reduction of its static
traffic pass (:func:`~repro.machine.machine.machine_traffic`):

>>> dag = MachineSorter(network).schedule()                          # doctest: +SKIP
>>> traffic_stats(machine_traffic(dag, network), network).dimension_ops  # doctest: +SKIP

Findings this surfaces (see ``benchmarks/bench_traffic.py``): the
multiway-merge sort touches dimension 1 far more than the others (all the
2-D base sorts live on dimensions {1, 2}), and the per-step parallelism
tracks the phase structure — base sorts use ~half the nodes per round,
block transpositions all of them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable

from ..graphs.product import ProductGraph
from .machine import TrafficRound

__all__ = ["TrafficStats", "traffic_stats"]


@dataclass(frozen=True)
class TrafficStats:
    """Aggregated traffic of one machine schedule."""

    #: compare-exchange super-steps observed
    operations: int
    #: total pairwise compare-exchanges
    pair_count: int
    #: pairs per paper-dimension (1 = rightmost symbol position)
    dimension_ops: dict[int, int]
    #: how many distinct factor-subgraph "lanes" each dimension used
    dimension_lanes: dict[int, int]
    #: mean pairs per super-step (parallelism actually exploited)
    mean_parallelism: float
    #: fraction of nodes busy in the busiest single super-step
    peak_node_utilisation: float
    #: adjacent pairs vs routed pairs (non-adjacent compare partners)
    adjacent_pairs: int
    routed_pairs: int
    #: directed link traversals of routed steps (sum of actual path hops)
    routed_link_traversals: int = 0
    #: total directed link traversals of the run: two per pair of a purely
    #: adjacent step (the two-way key exchange) plus the routed steps' actual
    #: path hops — the total the topology observatory's wires sum to
    link_traversals: int = 0
    #: deepest intermediate-node buffer any routed step needed
    peak_buffer_depth: int = 0


def traffic_stats(traffic: Iterable[TrafficRound], network: ProductGraph) -> TrafficStats:
    """Aggregate a traffic pass over ``network`` into :class:`TrafficStats`."""
    dimension_ops: Counter = Counter()
    lanes: dict[int, set] = {}
    pairs_per_step: list[int] = []
    adjacent = routed = routed_hops = link_traversals = peak_depth = 0
    for step in traffic:
        if step.routes is not None:
            routed_hops += step.routes.link_traversals
            link_traversals += step.routes.link_traversals
            peak_depth = max(peak_depth, step.routes.peak_buffer_depth)
        else:
            link_traversals += 2 * len(step.pairs)
        pairs_per_step.append(len(step.pairs))
        for a, b in step.pairs:
            lo, hi = network.label_of(a), network.label_of(b)
            idx = next(i for i, (x, y) in enumerate(zip(lo, hi)) if x != y)
            dimension = network.r - idx
            dimension_ops[dimension] += 1
            lanes.setdefault(dimension, set()).add(lo[:idx] + lo[idx + 1 :])
            if network.factor.has_edge(lo[idx], hi[idx]):
                adjacent += 1
            else:
                routed += 1
    operations = len(pairs_per_step)
    pair_count = sum(pairs_per_step)
    return TrafficStats(
        operations=operations,
        pair_count=pair_count,
        dimension_ops=dict(dimension_ops),
        dimension_lanes={d: len(s) for d, s in lanes.items()},
        mean_parallelism=pair_count / operations if operations else 0.0,
        peak_node_utilisation=2 * max(pairs_per_step, default=0) / network.num_nodes,
        adjacent_pairs=adjacent,
        routed_pairs=routed,
        routed_link_traversals=routed_hops,
        link_traversals=link_traversals,
        peak_buffer_depth=peak_depth,
    )
