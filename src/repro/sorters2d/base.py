"""Interfaces for two-dimensional sorters — the paper's ``S_2(N)`` black box.

Section 3.2 of the paper: the multiway merge cannot make progress on
``N x N`` inputs, so the algorithm assumes "a special sorting algorithm
designed for the two-dimensional version of the product network".  Its cost
``S_2(N)`` is the single biggest lever on the final running time (Theorem 1:
``S_r = (r-1)^2 S_2 + (r-1)(r-2) R``), and §5 instantiates it per network.

Two kinds of objects model this black box:

:class:`TwoDimSorterModel`
    a *cost model* used by the fast NumPy lattice backend: the data result of
    any correct 2D sorter is the same (the block's keys in snake order), so
    the lattice backend sorts blocks with NumPy and charges
    ``model.rounds(n)`` per invocation.  The §5 catalog lives in
    :mod:`repro.sorters2d.analytic`.

:class:`ExecutableTwoDimSorter`
    a real algorithm issuing compare-exchange steps on a
    :class:`~repro.machine.machine.NetworkMachine`; its cost is whatever the
    machine measures.  Implementations: odd-even snake transposition (works
    on any factor), shearsort (any factor, fewer rounds), and the 3-step
    hypercube sorter of §5.3.

:class:`RoutingModel`
    the companion black box ``R(N)``: rounds charged for one odd-even
    block-transposition step (a permutation routing within factor
    subgraphs, §4 Step 4).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

from ..graphs.base import FactorGraph
from ..graphs.product import ProductGraph, SubgraphView
from ..machine.machine import NetworkMachine
from ..machine.routing import exchange_rounds, published_routing_bound, route_partial_permutation
from ..orders.gray import gray_rank

__all__ = [
    "TwoDimSorterModel",
    "AnalyticSorterModel",
    "ExecutableTwoDimSorter",
    "SorterTemplate",
    "RoutingModel",
    "PublishedRoutingModel",
    "AdjacentStepRoutingModel",
    "ConstantRoutingModel",
    "MeasuredExecutableModel",
]


class TwoDimSorterModel(ABC):
    """Cost model for sorting the ``N**2`` keys of a ``PG_2`` subgraph.

    Implementations must expose a ``name`` attribute for reports.
    """

    @abstractmethod
    def rounds(self, n: int) -> int:
        """Parallel rounds one ``PG_2`` sort costs on an ``N``-node factor."""


@dataclass(frozen=True)
class AnalyticSorterModel(TwoDimSorterModel):
    """A named closed-form ``S_2(N)`` (one row of the §5 catalog)."""

    name: str
    formula: Callable[[int], int]
    #: citation string for reports ("Schnorr-Shamir 3N + o(N)", ...)
    reference: str = ""

    def rounds(self, n: int) -> int:
        value = self.formula(n)
        if value < 0:
            raise ValueError(f"negative S2 cost from model {self.name} at n={n}")
        return int(value)


class ExecutableTwoDimSorter(ABC):
    """A real compare-exchange algorithm sorting ``PG_2`` subgraphs.

    The primitive operation is :meth:`sort_batch`: sort *many node-disjoint*
    ``PG_2`` subgraphs **simultaneously**, each toward its own direction.
    Batching matters for cost fidelity — a parallel machine sorts all the
    blocks of one merge level in the same rounds, so implementations must
    interleave their compare-exchange phases across the whole batch rather
    than run blocks one after another.

    Each block must end up sorted along its *local snake order* —
    nondecreasing where ``descending`` is false, nonincreasing where true
    (Step 4's alternating directions).  Returns the machine rounds charged.
    The machine backend runs one block in each direction
    (:meth:`template`) and replays those rounds over every block of every
    batch, so a sorter must be oblivious (the same pairs for any keys), and
    a descending block must run the ascending pairs with ``lo`` and ``hi``
    swapped.  Implementations should set a ``name`` for reports.
    """

    name = "executable"

    @abstractmethod
    def sort_batch(
        self,
        machine: NetworkMachine,
        views: list[SubgraphView],
        descending: list[bool],
    ) -> int:
        """Sort every view simultaneously; return rounds charged."""

    def sort(self, machine: NetworkMachine, view: SubgraphView, descending: bool = False) -> int:
        """Single-block convenience wrapper around :meth:`sort_batch`."""
        return self.sort_batch(machine, [view], [descending])

    def max_rounds(self, n: int) -> int | None:
        """Optional a-priori round bound (``None`` = unknown)."""
        return None

    def template(self, factor: FactorGraph) -> "SorterTemplate":
        """This sorter's rounds on one ``PG_2`` block of ``factor``, recorded
        once per factor (:meth:`SorterTemplate.record`)."""
        templates = self.__dict__.setdefault("_templates", {})
        if factor not in templates:
            templates[factor] = SorterTemplate.record(factor, self)
        return templates[factor]


class _LoggingMachine(NetworkMachine):
    """A machine that keeps each super-step's pairs and charged rounds."""

    def __init__(self, network: ProductGraph, keys) -> None:
        super().__init__(network, keys)
        self.steps: list = []

    def compare_exchange(self, pairs: list) -> int:
        cost = super().compare_exchange(pairs)
        if pairs:
            self.steps.append((pairs, cost))
        return cost


@dataclass(frozen=True)
class SorterTemplate:
    """An executable sorter's rounds on one ascending ``PG_2`` block.

    ``pairs[i]`` lists round ``i``'s ``(lo, hi)`` compare-exchanges as local
    snake positions of the block; ``charges[i]`` is the rounds the machine
    measured for it.  A descending block runs the same pairs with ``lo`` and
    ``hi`` swapped, at the same cost, and a round costs a whole batch of
    blocks what it costs one: routing cost depends only on the symbol pairs
    inside each factor subgraph, and every factor subgraph of a batch lies
    in one block.  So the template is the sorter on every batch of every
    geometry over this factor.
    """

    pairs: tuple[tuple[tuple[int, int], ...], ...]
    charges: tuple[int, ...]

    @property
    def rounds(self) -> int:
        """Rounds one block sort is charged."""
        return sum(self.charges)

    @classmethod
    def record(cls, factor: FactorGraph, sorter: ExecutableTwoDimSorter) -> "SorterTemplate":
        """Run ``sorter`` on one ``PG_2`` block of zero keys in each direction."""
        net = ProductGraph(factor, 2)

        def run(descending: bool) -> list:
            machine = _LoggingMachine(net, [0] * net.num_nodes)
            sorter.sort(machine, net.subgraph((), ()), descending)
            return [
                (tuple((gray_rank(a, net.n), gray_rank(b, net.n)) for a, b in pairs), cost)
                for pairs, cost in machine.steps
            ]

        ascending = run(False)
        if run(True) != [(tuple((b, a) for a, b in pairs), c) for pairs, c in ascending]:
            raise ValueError(
                f"sorter {sorter.name!r}: a descending block must run the ascending "
                "rounds with lo and hi swapped"
            )
        return cls(tuple(pairs for pairs, _ in ascending), tuple(c for _, c in ascending))


@dataclass(frozen=True)
class MeasuredExecutableModel(TwoDimSorterModel):
    """Adapter: use an executable sorter's *measured* cost as the lattice
    backend's ``S_2(N)`` charge: the rounds its template
    (:meth:`ExecutableTwoDimSorter.template`) is charged on the factor.
    The sorters are oblivious, so the keys do not change the count.
    """

    name: str
    factor: FactorGraph
    sorter: "ExecutableTwoDimSorter"

    def rounds(self, n: int) -> int:
        if n != self.factor.n:
            raise ValueError(f"model measured for N={self.factor.n}, asked for N={n}")
        return self.sorter.template(self.factor).rounds


class RoutingModel(ABC):
    """Cost model for one odd-even block-transposition step, ``R(N)``.

    Implementations must expose a ``name`` attribute for reports.
    """

    @abstractmethod
    def rounds(self, n: int) -> int:
        """Rounds charged for one transposition step on an ``N``-node factor."""


@dataclass(frozen=True)
class PublishedRoutingModel(RoutingModel):
    """The paper's conservative accounting: every transposition step costs a
    full permutation routing ``R(N)``.

    Uses the closed forms the paper quotes (path ``N-1``, cycle ``N/2``,
    complete graphs ``1``); for other factors, measures the store-and-forward
    makespan of the label-reversal permutation (a consistently heavy load)
    as a stand-in.  §4 adopts exactly this pessimism: "to cover the most
    general case ... we will assume that G is not Hamiltonian".
    """

    factor: FactorGraph
    name: str = "published-R(N)"

    def rounds(self, n: int) -> int:
        if n != self.factor.n:
            raise ValueError(f"model built for N={self.factor.n}, asked for N={n}")
        bound = published_routing_bound(self.factor)
        if bound is not None:
            return bound
        reversal = {u: n - 1 - u for u in range(n)}
        return route_partial_permutation(self.factor, reversal).makespan


@dataclass(frozen=True)
class AdjacentStepRoutingModel(RoutingModel):
    """What a transposition step *actually* costs on this labelling.

    A Step-4 transposition only ever exchanges keys between factor labels
    ``d`` and ``d+1`` (consecutive Gray group labels differ by one in one
    symbol).  For Hamiltonian labellings that is one round; otherwise it is
    the measured makespan of simultaneously exchanging all the even (or odd)
    consecutive-label pairs.  Comparing this model against
    :class:`PublishedRoutingModel` quantifies the "constant factor" remark
    at the end of §4.
    """

    factor: FactorGraph
    name: str = "adjacent-step-R"

    def rounds(self, n: int) -> int:
        if n != self.factor.n:
            raise ValueError(f"model built for N={self.factor.n}, asked for N={n}")
        worst = 0
        for parity in (0, 1):
            pairs = [(d, d + 1) for d in range(parity, n - 1, 2)]
            if pairs:
                worst = max(worst, exchange_rounds(self.factor, pairs))
        return max(1, worst)


@dataclass(frozen=True)
class ConstantRoutingModel(RoutingModel):
    """Fixed ``R`` — e.g. the hypercube's ``R(2) = 1`` (§5.3)."""

    value: int
    name: str = "constant-R"

    def rounds(self, n: int) -> int:
        if self.value < 0:
            raise ValueError("routing cost must be nonnegative")
        return self.value
