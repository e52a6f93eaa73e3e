"""The simulated synchronous multiprocessor substrate (paper §4 model).

* :mod:`repro.machine.machine` — :class:`NetworkMachine`: one key per node,
  validated parallel compare-exchange as the sole communication primitive;
  :func:`machine_traffic` reads a schedule's per-round traffic off its DAG;
* :mod:`repro.machine.routing` — store-and-forward permutation routing in
  factor graphs with measured makespans and the paper's published ``R(N)``
  bounds;
* :mod:`repro.machine.primitives` — snake-order listings and odd-even
  transposition sorting on the machine;
* :mod:`repro.machine.metrics` — the ``S_2``/``R`` cost ledger matching the
  accounting of §4.1.
"""

from .collectives import (
    and_reduce_check_rounds,
    broadcast_rounds,
    factor_tree_depth,
    reduce_rounds,
    simulate_reduce,
)
from .machine import NetworkMachine, TrafficRound, machine_traffic
from .metrics import CostLedger, PhaseRecord
from .primitives import (
    odd_even_transposition_rounds,
    odd_even_transposition_sort,
    product_snake_labels,
    subgraph_snake_labels,
)
from .stats import TrafficStats, traffic_stats
from .routing import (
    RoutingResult,
    exchange_rounds,
    published_routing_bound,
    route_partial_permutation,
)

__all__ = [
    "NetworkMachine",
    "TrafficRound",
    "machine_traffic",
    "and_reduce_check_rounds",
    "broadcast_rounds",
    "factor_tree_depth",
    "reduce_rounds",
    "simulate_reduce",
    "CostLedger",
    "PhaseRecord",
    "TrafficStats",
    "traffic_stats",
    "RoutingResult",
    "exchange_rounds",
    "published_routing_bound",
    "route_partial_permutation",
    "odd_even_transposition_rounds",
    "odd_even_transposition_sort",
    "product_snake_labels",
    "subgraph_snake_labels",
]
