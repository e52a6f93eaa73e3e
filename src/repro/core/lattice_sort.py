"""Network implementation of the sorting algorithm on NumPy lattices (§4).

This is the production backend: the key lattice ``A`` (shape ``(N,)*r``,
``A[x_r, ..., x_1]`` = key at that node) *is* the machine state, and every
step of the paper's algorithm becomes an array operation with a cost charged
to a :class:`~repro.machine.metrics.CostLedger` in the paper's accounting:

* **Step 1** (distribute) and **Step 3** (interleave) are identity
  operations: the Gray-code structure of the snake order means the
  subsequences ``B_{u,v}`` already sit snake-ordered on the
  ``[u,v]PG^{k,1}`` subgraphs and the interleaved ``D`` is just the snake
  reading of the whole lattice.  No data moves, nothing is charged — the
  paper's central structural observation, reproduced literally.
* **Step 2** recurses into the ``N`` subgraphs ``[v]PG^1_{k-1}``
  (``A[..., v]``); all ``N`` run in parallel on a real machine, so the data
  transformation is applied to every ``v`` but the cost is charged once.
* **Step 4** sorts the dimension-{1,2} ``PG_2`` blocks in alternating local
  snake directions (even/odd by group-label Hamming weight = Gray rank
  parity), runs two odd-even block transposition steps (elementwise min/max
  toward the snake-predecessor block — same-node correspondence, a
  single-``G``-subgraph exchange), and re-sorts the blocks.  Charges
  ``2 S_2 + 2 R`` per merge level, exactly Lemma 3's recurrence.

None of these steps is hand-written here: they are the phases of the
network's emitted :class:`~repro.schedule.ir.ComparatorDAG`
(:meth:`ProductNetworkSorter.schedule`, the transcription of §3.1–3.3 in
:func:`repro.schedule.emit.emit_lattice_schedule`).  Untraced sorts run its
certified compiled kernel (:func:`repro.schedule.compiled.compile_schedule`)
— the one batch workloads and the sort service use, one cached kernel per
geometry cell.  Traced sorts and :meth:`ProductNetworkSorter.merge_sorted_subgraphs`
interpret it phase by phase through the span program
(:mod:`repro.schedule.program`), publishing the span tree and intermediate
lattice states as they go.  Either way the ledger is charged from the
emitted phase list.

Because the driver only pays for what it executes, the measured ledger
reproduces Lemma 3 and Theorem 1 *structurally*: ``(r-1)**2`` two-dimensional
sorts and ``(r-1)(r-2)`` routings for a full sort, with total rounds
``(r-1)^2 S_2(N) + (r-1)(r-2) R(N)``.  Tests assert this equality and the
fine-grained machine backend cross-validates the data movement.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..graphs.base import FactorGraph
from ..graphs.product import ProductGraph
from ..machine.metrics import CostLedger
from ..observability import NullTracer, Tracer, coerce_tracer, point_emitter
from ..orders.snake import lattice_to_sequence, sequence_to_lattice
from ..schedule import (
    ComparatorDAG,
    SchedulePhase,
    SpanInstr,
    apply_round,
    charge_phase,
    compile_schedule,
    emit_lattice_schedule,
    interpret,
    lattice_program,
)
from ..sorters2d.analytic import sorter_for_factor
from ..sorters2d.base import PublishedRoutingModel, RoutingModel, TwoDimSorterModel
from .multiway_merge import TracerLike

__all__ = ["ProductNetworkSorter", "SortOutcome"]


class SortOutcome(tuple):
    """``(lattice, ledger)`` with named access, returned by the sorter."""

    __slots__ = ()

    def __new__(cls, lattice: np.ndarray, ledger: CostLedger):
        return super().__new__(cls, (lattice, ledger))

    @property
    def lattice(self) -> np.ndarray:
        return self[0]

    @property
    def ledger(self) -> CostLedger:
        return self[1]


class ProductNetworkSorter:
    """Sorts key lattices on a product network per §4, with cost accounting.

    Parameters
    ----------
    network:
        the target :class:`ProductGraph` (``r >= 2``; §3.3's algorithm
        starts from two-dimensional blocks).
    sorter2d:
        the ``S_2(N)`` cost model; defaults to the §5-appropriate choice for
        the factor (:func:`repro.sorters2d.analytic.sorter_for_factor`).
    routing:
        the ``R(N)`` cost model; defaults to the paper's conservative
        full-permutation accounting
        (:class:`~repro.sorters2d.base.PublishedRoutingModel`).
    keep_log:
        whether ledgers retain the per-phase record list.
    """

    def __init__(
        self,
        network: ProductGraph,
        sorter2d: TwoDimSorterModel | None = None,
        routing: RoutingModel | None = None,
        keep_log: bool = True,
    ) -> None:
        if network.r < 2:
            raise ValueError("the algorithm needs r >= 2 (§3.3 sorts N**r keys, r >= 2)")
        self.network = network
        self.sorter2d = sorter2d if sorter2d is not None else sorter_for_factor(network.factor)
        self.routing = routing if routing is not None else PublishedRoutingModel(network.factor)
        self.keep_log = keep_log

    @classmethod
    def for_factor(
        cls,
        factor: FactorGraph,
        r: int,
        sorter2d: TwoDimSorterModel | None = None,
        routing: RoutingModel | None = None,
        keep_log: bool = True,
        **kwargs,
    ) -> "ProductNetworkSorter":
        """Build the sorter for the r-dimensional product of a factor.

        Extra keyword arguments are forwarded to the constructor (so
        subclasses like the adaptive sorter can add knobs)."""
        return cls(ProductGraph(factor, r), sorter2d, routing, keep_log, **kwargs)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Factor size ``N``."""
        return self.network.factor.n

    @property
    def r(self) -> int:
        """Number of dimensions."""
        return self.network.r

    def schedule(self) -> ComparatorDAG:
        """The network's emitted Schedule IR under this sorter's cost models.

        Cached per ``(factor, n, r, S_2, R)`` cell; the artifact every sort
        runs, compiled when untraced and interpreted when traced."""
        return emit_lattice_schedule(
            self.network.factor,
            self.r,
            self.sorter2d.rounds(self.n),
            self.routing.rounds(self.n),
        )

    def sort_lattice(self, lattice: np.ndarray, tracer: TracerLike = None) -> SortOutcome:
        """Sort a key lattice into snake order (§3.3 driver).

        Returns a fresh sorted lattice plus the cost ledger; the input is
        not modified.  Untraced runs run the emitted schedule's compiled
        kernel (:meth:`schedule`).  When a ``tracer`` is given, the schedule
        is interpreted phase by phase instead and the run is recorded as a
        span tree following the *parallel-time* accounting (spans wrap
        exactly the charged phases), so a full sort contains ``(r-1)**2``
        spans of kind ``s2`` and ``(r-1)(r-2)`` of kind ``routing`` —
        Theorem 1 read off telemetry.  A tracer whose bus has subscribers
        additionally receives the intermediate lattice states
        (``initial_sorted``, ``merge3_after_step2``, ...) as ``point``
        events.  Output and ledger are identical either way.
        """
        a = self._fresh_lattice(lattice)
        tracer = coerce_tracer(tracer)
        dag = self.schedule()
        ledger = CostLedger(keep_log=self.keep_log)
        if tracer.disabled:
            out = compile_schedule(dag).run(a.reshape(-1))
            for phase in dag.phases:
                charge_phase(ledger, phase, "lattice")
            return SortOutcome(out.reshape(self.network.shape), ledger)
        n, r = self.n, self.r
        with tracer.span(
            "sort", backend="lattice", factor=self.network.factor.name, n=n, r=r, keys=a.size
        ):
            self._interpret(a, dag.phases, ledger, tracer)
        return SortOutcome(a, ledger)

    def sort_sequence(self, keys, tracer: TracerLike = None) -> SortOutcome:
        """Sort a flat key array given in node (flat-index) order."""
        keys = np.asarray(keys)
        if keys.ndim != 1 or keys.size != self.network.num_nodes:
            raise ValueError(
                f"expected {self.network.num_nodes} keys, got shape {keys.shape}"
            )
        return self.sort_lattice(keys.reshape(self.network.shape), tracer=tracer)

    def merge_sorted_subgraphs(self, lattice: np.ndarray, tracer: TracerLike = None) -> SortOutcome:
        """Run one top-level multiway merge (Lemma 3's ``M_r``).

        Requires every ``[u]PG^r_{r-1}`` slice (``lattice[u]``) to already be
        snake-sorted; merges them into a fully snake-sorted lattice by
        running the schedule's phases under ``sort / merge[dr]``.
        Used by the Lemma 3 benchmark and the worked example of Figs. 12-15.
        """
        a = self._merge_input(lattice)
        ledger = CostLedger(keep_log=self.keep_log)
        self._interpret(a, self._merge_phases(), ledger, coerce_tracer(tracer))
        return SortOutcome(a, ledger)

    def _merge_phases(self) -> list[SchedulePhase]:
        """The phases of the top-level merge: those under
        ``("sort", "merge[dr]")``.  At ``r = 2`` the merge is Lemma 3's
        ``M_2 = S_2``: the lone block sort, named as the merge base."""
        dag = self.schedule()
        top = ("sort", f"merge[d{self.r}]")
        phases = [phase for phase in dag.phases if phase.path[:2] == top]
        return phases or [dataclasses.replace(dag.phases[0], path=("sort", "merge-base[d2]"))]

    def sorted_reference(self, lattice: np.ndarray) -> np.ndarray:
        """The lattice's keys placed in perfect snake order (ground truth)."""
        return sequence_to_lattice(np.sort(np.asarray(lattice), axis=None), self.n, self.r)

    # ------------------------------------------------------------------
    # interpretation of the emitted schedule
    # ------------------------------------------------------------------
    def _fresh_lattice(self, lattice: np.ndarray) -> np.ndarray:
        """A private copy of ``lattice``, checked against the network's shape."""
        a = np.array(lattice, copy=True)
        if a.shape != self.network.shape:
            raise ValueError(f"lattice shape {a.shape} != network shape {self.network.shape}")
        return a

    def _merge_input(self, lattice: np.ndarray) -> np.ndarray:
        """A private copy of ``lattice`` whose ``N`` slices are snake-sorted."""
        a = self._fresh_lattice(lattice)
        for u in range(self.n):
            seq = lattice_to_sequence(np.ascontiguousarray(a[u]))
            if np.any(seq[:-1] > seq[1:]):
                raise ValueError(f"input subgraph [{u}]PG_{self.r - 1} is not snake-sorted")
        return a

    def _run_phase(self, a: np.ndarray, phase: SchedulePhase) -> int:
        """Run one phase's rounds on the lattice ``a``, in place."""
        state = a.reshape(1, -1)
        for rd in self.schedule().phase_rounds(phase.index):
            apply_round(state, rd)
        return phase.charged_rounds

    def _interpret(
        self,
        a: np.ndarray,
        phases: list[SchedulePhase],
        ledger: CostLedger,
        tracer: Tracer | NullTracer,
    ) -> None:
        """Run ``phases`` on ``a`` through the lattice span program."""
        emit = point_emitter(tracer)
        n = self.n

        def point(instr: SpanInstr) -> None:
            dim = instr.attrs["dim"]  # the first PG_dim subgraph, as a lattice
            emit(instr.name, a.reshape(-1)[: n**dim].reshape((n,) * dim).copy())

        interpret(
            lattice_program(phases, n, self.r),
            phases,
            tracer,
            ledger,
            "lattice",
            lambda phase: self._run_phase(a, phase),
            point if emit is not None else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProductNetworkSorter({self.network!r}, S2={self.sorter2d.name}, "
            f"R={self.routing.name})"
        )
