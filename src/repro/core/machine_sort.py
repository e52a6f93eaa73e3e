"""Fine-grained backend: the emitted schedule executed compare-exchange by
compare-exchange on the simulated machine.

Where the lattice backend (:mod:`repro.core.lattice_sort`) moves data with
NumPy and charges *modelled* costs, this backend issues every individual
compare-exchange through :class:`~repro.machine.machine.NetworkMachine`,
which validates that each one is realisable on the network's links and
measures its true cost (including routed exchanges on non-Hamiltonian
labellings).  It is the ground truth the fast backend is cross-checked
against, and the honest answer to "how many rounds does this *actually*
take on factor G with labelling L and executable sorter S".

The backend runs the machine schedule :func:`repro.schedule.emit.emit_machine_schedule`
emits: the lattice schedule lowered to compare-exchange rounds, each block
sort replaced by the executable sorter's round template (recorded once per
factor graph and sorter on one ``PG_2`` block of zero keys) and each
transposition charged by the machine's routing cost.  :meth:`MachineSorter.sort`
interprets it on a machine holding the real keys: the span program derived
from the phase paths (:func:`repro.schedule.program.machine_program`) opens
the spans, each charged phase's rounds are issued as ``compare_exchange``
super-steps (re-measuring, and asserting, the emitted costs), and the ledger
is charged from the phase identity.  A tracer sees the §3.3 recursion's
span tree, with every subgraph of a level batched into the same rounds as
on real hardware.  Which wires each round uses is a property of the
schedule, not of the run: :func:`repro.machine.machine.machine_traffic`
reads it off the DAG for the topology and traffic telemetry.

Consequently the ledger shows the same ``(r-1)**2`` / ``(r-1)(r-2)`` call
structure as Theorem 1, with measured (not modelled) round counts — now by
construction, because both backends execute the same emitted artifact.
"""

from __future__ import annotations

from ..graphs.base import FactorGraph
from ..graphs.product import ProductGraph
from ..machine.machine import NetworkMachine
from ..machine.metrics import CostLedger
from ..observability import Tracer, coerce_tracer
from ..schedule import (
    ComparatorDAG,
    SchedulePhase,
    emit_machine_schedule,
    interpret,
    machine_program,
)
from ..sorters2d.base import ExecutableTwoDimSorter
from ..sorters2d.hypercube2d import HypercubeThreeStepSorter
from ..sorters2d.shearsort import ShearSorter

__all__ = ["MachineSorter"]

Label = tuple[int, ...]


class MachineSorter:
    """Sorts on the fine-grained machine with an executable 2D sorter.

    Parameters
    ----------
    network:
        target :class:`ProductGraph`, ``r >= 2``.
    sorter:
        the executable two-dimensional sorter; defaults to the §5.3
        three-step sorter for ``N = 2`` and shearsort otherwise (both work
        on every factor; pass
        :class:`~repro.sorters2d.oddeven_snake.OddEvenSnakeSorter` for the
        fully generic reference).
    """

    def __init__(self, network: ProductGraph, sorter: ExecutableTwoDimSorter | None = None):
        if network.r < 2:
            raise ValueError("the algorithm needs r >= 2 (§3.3)")
        self.network = network
        if sorter is None:
            sorter = HypercubeThreeStepSorter() if network.factor.n == 2 else ShearSorter()
        self.sorter = sorter
        self._labels: list[Label] | None = None

    @classmethod
    def for_factor(cls, factor: FactorGraph, r: int, sorter: ExecutableTwoDimSorter | None = None):
        """Build the sorter for the r-dimensional product of a factor."""
        return cls(ProductGraph(factor, r), sorter)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.network.factor.n

    @property
    def r(self) -> int:
        return self.network.r

    def schedule(self) -> ComparatorDAG:
        """The emitted :class:`~repro.schedule.ir.ComparatorDAG` (cached per
        factor graph, ``r`` and sorter template)."""
        return emit_machine_schedule(self)

    def sort(self, keys, tracer: Tracer | None = None) -> tuple[NetworkMachine, CostLedger]:
        """Sort flat ``keys`` (node flat-index order) into snake order.

        Interprets the emitted schedule: returns the machine (holding the
        sorted keys — read them with ``machine.lattice()``) and the measured
        cost ledger.

        When a ``tracer`` is given, the run is recorded as a span tree of
        the charged phases with *measured* rounds and comparisons per span
        (Theorem 1's ``(r-1)**2`` / ``(r-1)(r-2)`` call structure, from
        telemetry).
        """
        dag = self.schedule()
        machine = NetworkMachine(self.network, keys)
        ledger = CostLedger()
        tracer = coerce_tracer(tracer)
        if self._labels is None:
            self._labels = [self.network.label_of(i) for i in range(self.network.num_nodes)]
        labels = self._labels

        def run_phase(phase: SchedulePhase) -> int:
            """Issue the phase's rounds as super-steps, re-measuring their costs."""
            measured = 0
            for rd in dag.phase_rounds(phase.index):
                lows, highs = ([labels[i] for i in a.tolist()] for a in (rd.lo, rd.hi))
                cost = machine.compare_exchange(list(zip(lows, highs)))
                assert cost == rd.charge, (
                    f"interpreted round cost {cost} != emitted charge {rd.charge}"
                )
                measured += cost
            assert measured == phase.charged_rounds
            return measured

        with tracer.span(
            "sort",
            backend="machine",
            factor=self.network.factor.name,
            sorter=self.sorter.name,
            n=self.n,
            r=self.r,
            keys=machine.keys.size,
        ):
            interpret(machine_program(dag), dag.phases, tracer, ledger, "machine", run_phase)
        assert machine.rounds == ledger.total_rounds == dag.depth, (
            "every round must be attributed"
        )
        return machine, ledger

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MachineSorter({self.network!r}, sorter={self.sorter.name})"
