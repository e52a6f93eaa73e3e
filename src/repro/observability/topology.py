"""The topology observatory: what every wire of ``PG_r`` carries.

The span tree knows *which phase ran when* and the cost ledger *how many
rounds it took* — but neither answers the network-architecture question
underneath the paper's §4 cost model: **which links** carry the traffic,
how evenly, and how deep the store-and-forward buffers get.  The schedule
is oblivious, so the answer is a function of the emitted machine DAG:
:class:`LinkObservatory` reduces its static traffic pass
(:func:`~repro.machine.machine.machine_traffic`).  Each super-step
contributes its directed-link traversals — two per pair for an adjacent
step (the two-way key exchange), the actual per-packet route hops
(``StepRouting.paths``) for a routed step — to a global edge histogram
*and* to its phase's histogram.  A round's phase key is
:func:`~repro.observability.events.phase_key` of its phase's leaf: the name
and ``dim`` of the span a traced run charges it to, the same normalisation
``phase_summary`` uses, so the tables join.

On top of the raw counts the observatory computes congestion and
load-imbalance indices (:class:`CongestionIndex`) globally, per paper
dimension and per phase: max/mean directed-edge load over the *physical*
wires (idle wires count — imbalance is relative to the hardware), a Gini
coefficient of the load distribution, and the peak intermediate-node buffer
depth — the empirical check of routing.py's "buffers stay tiny" claim.

Invariants tests pin (and :mod:`~repro.observability.benchreg` snapshots
with zero tolerance):

* ``total_traversals`` equals :class:`~repro.machine.stats.TrafficStats`'s
  pair-derived ``link_traversals`` exactly;
* the per-phase edge histograms sum to the global histogram;
* ``peak_buffer_depth <= 3`` for canonically-labelled factors (dilation-3
  linear embeddings).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..graphs.product import ProductGraph
from .events import phase_key

if TYPE_CHECKING:
    from ..machine.machine import TrafficRound
    from ..schedule.ir import ComparatorDAG

__all__ = ["CongestionIndex", "LinkObservatory"]

Edge = tuple[int, int]  # directed (flat source, flat target)


def gini(values: list[int], population: int) -> float:
    """Gini coefficient of ``values`` padded with zeros to ``population``.

    ``population`` is the number of wires that *could* have carried load;
    idle wires drive the coefficient up, exactly as they should — a single
    hot link in an otherwise idle network is maximal imbalance (→ 1), a
    perfectly uniform load is perfect balance (→ 0).
    """
    if population <= 0:
        return 0.0
    total = sum(values)
    if total == 0:
        return 0.0
    ordered = sorted(values)
    zeros = population - len(ordered)
    # Σ rank·x over the ascending padded vector; the zero pad contributes 0
    weighted = sum((zeros + i + 1) * x for i, x in enumerate(ordered))
    return 2.0 * weighted / (population * total) - (population + 1) / population


@dataclass(frozen=True)
class CongestionIndex:
    """Load-imbalance summary of one scope (whole network, dimension, phase)."""

    #: directed wires in scope (the physical capacity basis)
    directed_edges: int
    #: wires that carried at least one traversal
    used_edges: int
    #: total directed-link traversals
    total_traversals: int
    #: busiest single wire
    max_load: int
    #: traversals / directed_edges (idle wires included)
    mean_load: float
    #: Gini coefficient of the per-wire load distribution (0 = uniform)
    gini: float
    #: deepest intermediate-node buffer observed in scope
    peak_buffer_depth: int

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe form (what benchmark snapshots persist)."""
        return {
            "directed_edges": self.directed_edges,
            "used_edges": self.used_edges,
            "total_traversals": self.total_traversals,
            "max_load": self.max_load,
            "mean_load": self.mean_load,
            "gini": self.gini,
            "peak_buffer_depth": self.peak_buffer_depth,
        }


class LinkObservatory:
    """Per-link traffic of one machine schedule.

    Parameters
    ----------
    network:
        the :class:`~repro.graphs.product.ProductGraph` the schedule runs
        on — supplies the structural wire counts every index is normalised
        by.
    dag:
        the emitted machine schedule; its phases name the per-phase keys.
    """

    def __init__(self, network: ProductGraph, dag: ComparatorDAG) -> None:
        from ..machine.machine import machine_traffic  # importing this module loads no machine

        self.network = network
        #: directed edge -> traversal count, whole run
        self._edge_loads: Counter = Counter()
        #: phase key -> directed edge -> traversal count
        self._phase_edge_loads: dict[str, Counter] = {}
        #: phase key -> deepest buffer any of its routed steps needed
        self._phase_buffer_depth: dict[str, int] = {}
        #: flat node index -> super-steps in which the node did work
        self._node_busy: Counter = Counter()
        #: per-round buffered-packet maxima, concatenated across routed steps
        self._occupancy: list[int] = []
        self._steps = 0
        self._routed_steps = 0
        keys = [phase_key(phase.leaf, phase.dim) for phase in dag.phases]
        for step in machine_traffic(dag, network):
            self._observe_step(keys[step.phase], step)

    def _observe_step(self, phase: str, step: TrafficRound) -> None:
        per_phase = self._phase_edge_loads.setdefault(phase, Counter())
        self._steps += 1
        busy: set[int] = set()
        if step.routes is None:
            # purely adjacent step: each pair exchanges keys both ways
            for a, b in step.pairs:
                busy.add(a)
                busy.add(b)
                for edge in ((a, b), (b, a)):
                    self._edge_loads[edge] += 1
                    per_phase[edge] += 1
        else:
            # routed step: charge the wires the packets actually rode;
            # relaying intermediates did work too, so they count as busy
            self._routed_steps += 1
            flat = self.network.flat_index
            for path in step.routes.paths:
                flats = [flat(label) for label in path]
                busy.update(flats)
                for a, b in zip(flats, flats[1:]):
                    self._edge_loads[(a, b)] += 1
                    per_phase[(a, b)] += 1
            self._occupancy.extend(step.routes.round_occupancy)
            depth = step.routes.peak_buffer_depth
            if depth > self._phase_buffer_depth.get(phase, 0):
                self._phase_buffer_depth[phase] = depth
        for node in busy:
            self._node_busy[node] += 1

    # ------------------------------------------------------------------
    # raw views
    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        """Machine super-steps observed."""
        return self._steps

    @property
    def routed_steps(self) -> int:
        """Super-steps that needed permutation routing."""
        return self._routed_steps

    @property
    def total_traversals(self) -> int:
        """Directed-link traversals of the whole run."""
        return sum(self._edge_loads.values())

    @property
    def peak_buffer_depth(self) -> int:
        """Deepest intermediate-node buffer any routed step needed."""
        return max(self._occupancy, default=0)

    def edge_loads(self) -> dict[Edge, int]:
        """Directed edge -> traversal count (used wires only)."""
        return dict(self._edge_loads)

    def phase_edge_loads(self) -> dict[str, dict[Edge, int]]:
        """Phase key -> its edge histogram (sums to :meth:`edge_loads`)."""
        return {k: dict(v) for k, v in self._phase_edge_loads.items()}

    def round_occupancy(self) -> tuple[int, ...]:
        """Per-round buffered-packet maxima across all routed steps."""
        return tuple(self._occupancy)

    def edge_dimension(self, edge: Edge) -> int:
        """Paper dimension (1 = rightmost symbol position) of a wire."""
        x = self.network.label_of(edge[0])
        y = self.network.label_of(edge[1])
        dim = self.network.differing_dimension(x, y)
        if dim is None:
            raise ValueError(f"{edge} does not lie in a single dimension")
        return dim

    # ------------------------------------------------------------------
    # node utilisation
    # ------------------------------------------------------------------
    def node_busy_steps(self) -> dict[int, int]:
        """Flat node index -> super-steps in which the node did work."""
        return dict(self._node_busy)

    def node_utilisation(self) -> dict[str, float]:
        """Busy/idle summary over all nodes and super-steps."""
        nodes = self.network.num_nodes
        if not nodes or not self._steps:
            return {"mean_busy_fraction": 0.0, "min_busy_fraction": 0.0,
                    "max_busy_fraction": 0.0, "idle_nodes": nodes}
        fractions = [self._node_busy.get(i, 0) / self._steps for i in range(nodes)]
        return {
            "mean_busy_fraction": sum(fractions) / nodes,
            "min_busy_fraction": min(fractions),
            "max_busy_fraction": max(fractions),
            "idle_nodes": sum(1 for f in fractions if f == 0.0),
        }

    # ------------------------------------------------------------------
    # congestion / imbalance indices
    # ------------------------------------------------------------------
    def _index(self, loads: Counter | dict[Edge, int], directed_edges: int,
               buffer_depth: int) -> CongestionIndex:
        values = list(loads.values())
        total = sum(values)
        return CongestionIndex(
            directed_edges=directed_edges,
            used_edges=sum(1 for v in values if v),
            total_traversals=total,
            max_load=max(values, default=0),
            mean_load=total / directed_edges if directed_edges else 0.0,
            gini=gini(values, directed_edges),
            peak_buffer_depth=buffer_depth,
        )

    def congestion(self) -> CongestionIndex:
        """Whole-network index over all ``2·|E(PG_r)|`` directed wires."""
        return self._index(self._edge_loads, 2 * self.network.num_edges,
                           self.peak_buffer_depth)

    def dimension_indices(self) -> dict[int, CongestionIndex]:
        """Per paper-dimension index (every dimension, loaded or not).

        Buffer depth cannot be split by dimension after the fact (occupancy
        is a per-round scalar), so each dimension reports the global peak.
        """
        per_dim: dict[int, Counter] = {d: Counter() for d in range(1, self.network.r + 1)}
        for edge, load in self._edge_loads.items():
            per_dim[self.edge_dimension(edge)][edge] += load
        # each dimension owns one copy of G per setting of the other symbols
        wires = 2 * len(self.network.factor.edges) * self.network.n ** (self.network.r - 1)
        peak = self.peak_buffer_depth
        return {d: self._index(loads, wires, peak) for d, loads in per_dim.items()}

    def phase_indices(self) -> dict[str, CongestionIndex]:
        """Per-phase index, keyed by :func:`phase_key`, in first-seen order."""
        wires = 2 * self.network.num_edges
        return {
            phase: self._index(loads, wires, self._phase_buffer_depth.get(phase, 0))
            for phase, loads in self._phase_edge_loads.items()
        }

    def phase_dimension_traversals(self) -> dict[str, dict[int, int]]:
        """Phase key -> paper dimension -> traversals (the heatmap matrix)."""
        out: dict[str, dict[int, int]] = {}
        for phase, loads in self._phase_edge_loads.items():
            row: dict[int, int] = {}
            for edge, load in loads.items():
                d = self.edge_dimension(edge)
                row[d] = row.get(d, 0) + load
            out[phase] = row
        return out

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """JSON-safe summary — the ``topology`` block benchreg persists.

        Scalar totals here are *structural* (the schedule is oblivious), so
        the regression harness holds them to zero tolerance.
        """
        util = self.node_utilisation()
        return {
            "steps": self._steps,
            "routed_steps": self._routed_steps,
            **self.congestion().as_dict(),
            "node_mean_busy_fraction": util["mean_busy_fraction"],
            "node_idle": util["idle_nodes"],
            "per_dimension": {
                str(d): idx.as_dict() for d, idx in sorted(self.dimension_indices().items())
            },
            "per_phase": {
                phase: idx.as_dict() for phase, idx in self.phase_indices().items()
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LinkObservatory({self.network!r}, steps={self._steps}, "
            f"traversals={self.total_traversals})"
        )
