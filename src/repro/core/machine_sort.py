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

Since the schedule refactor the backend is split in two:

* **planning** (:meth:`MachineSorter._plan`) — the §3.3 recursion,
  breadth-first over every subgraph of a level so disjoint subgraphs overlap
  in time exactly as on real hardware.  The recursion is key-independent;
  :func:`repro.schedule.emit.emit_machine_schedule` drives it once per
  geometry against a zero-key machine and records the resulting
  :class:`~repro.schedule.ir.ComparatorDAG` plus its span program.
* **interpretation** (:meth:`MachineSorter.sort`) — replays the emitted
  program on a machine holding the real keys: spans open with their recorded
  attributes, each charged phase's IR rounds are issued as
  ``compare_exchange`` super-steps (re-measuring, and asserting, the planned
  costs), and the ledger is charged from the phase identity.  Telemetry
  consumers — tracer, timeline, traffic recorders, the conformance checker —
  observe a stream indistinguishable from the historical recursive driver.

Consequently the ledger shows the same ``(r-1)**2`` / ``(r-1)(r-2)`` call
structure as Theorem 1, with measured (not modelled) round counts — now by
construction, because both backends execute the same emitted artifact.
"""

from __future__ import annotations

from ..graphs.base import FactorGraph
from ..graphs.product import ProductGraph, SubgraphView
from ..machine.machine import NetworkMachine
from ..machine.metrics import CostLedger
from ..observability import NULL_TRACER, MachineTimeline, Tracer, coerce_tracer
from ..orders.gray import gray_unrank
from ..schedule import EmittedMachineSchedule, SchedulePhase, emit_machine_schedule, interpret
from ..sorters2d.base import ExecutableTwoDimSorter
from ..sorters2d.hypercube2d import HypercubeThreeStepSorter
from ..sorters2d.shearsort import ShearSorter

__all__ = ["MachineSorter"]

Label = tuple[int, ...]


def _kept_positions(view: SubgraphView) -> list[int]:
    """Original paper-positions (ascending) still free in the view."""
    erased = set(view.positions)
    return [p for p in range(1, view.parent.r + 1) if p not in erased]


def _fix_reduced_position(view: SubgraphView, reduced_position: int, value: int) -> SubgraphView:
    """Erase one more dimension: the view's own position ``reduced_position``."""
    kept = _kept_positions(view)
    original = kept[reduced_position - 1]
    return view.parent.subgraph(view.positions + (original,), view.values + (value,))


def _fix_reduced_prefix(view: SubgraphView, prefix: tuple[int, ...]) -> SubgraphView:
    """Fix the view's reduced positions ``k, k-1, ..., 3`` to ``prefix``
    (``prefix[0]`` is the value at the view's highest position)."""
    kept = _kept_positions(view)
    k = view.reduced_order
    positions = tuple(kept[k - 1 - i] for i in range(len(prefix)))  # positions k, k-1, ...
    return view.parent.subgraph(view.positions + positions, view.values + tuple(prefix))


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

    def emitted_schedule(self) -> EmittedMachineSchedule:
        """The geometry's emitted IR + span program (cached per cell)."""
        return emit_machine_schedule(self)

    def schedule(self):
        """The emitted :class:`~repro.schedule.ir.ComparatorDAG`."""
        return self.emitted_schedule().dag

    def sort(
        self,
        keys,
        tracer: Tracer | None = None,
        timeline: MachineTimeline | None = None,
    ) -> tuple[NetworkMachine, CostLedger]:
        """Sort flat ``keys`` (node flat-index order) into snake order.

        Interprets the emitted schedule: returns the machine (holding the
        sorted keys — read them with ``machine.lattice()``) and the measured
        cost ledger.

        When a ``tracer`` is given, the run is recorded as a span tree of
        the charged phases with *measured* rounds and comparisons per span
        (Theorem 1's ``(r-1)**2`` / ``(r-1)(r-2)`` call structure, from
        telemetry).  When a ``timeline`` is given it is attached to the
        machine and receives every compare-exchange super-step.
        """
        emitted = self.emitted_schedule()
        dag = emitted.dag
        machine = NetworkMachine(self.network, keys)
        if timeline is not None:
            machine.timeline = timeline
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
                    f"interpreted round cost {cost} != planned charge {rd.charge}"
                )
                measured += cost
            assert measured == phase.charged_rounds
            return measured

        # span_end attrs recorded at emission carry the full merged dict
        # (static geometry + planned costs); the per-round assert above
        # guarantees they match this run
        interpret(emitted.program, dag.phases, tracer, ledger, "machine", run_phase)
        assert machine.rounds == ledger.total_rounds == dag.depth, (
            "every round must be attributed"
        )
        return machine, ledger

    # ------------------------------------------------------------------
    # planning: the §3.3 recursion, run once per geometry by the emitter
    # ------------------------------------------------------------------
    def _plan(self, machine: NetworkMachine, tracer: Tracer) -> CostLedger:
        """Drive the recursive algorithm on ``machine`` (the emission run).

        Called by :func:`repro.schedule.emit.emit_machine_schedule` with a
        zero-key planning machine and a bus-connected tracer; the recorder on
        that bus assembles the IR from the resulting event stream.
        """
        ledger = CostLedger()
        root = self.network.subgraph((), ())

        with tracer.span(
            "sort",
            backend="machine",
            factor=self.network.factor.name,
            sorter=self.sorter.name,
            n=self.n,
            r=self.r,
            keys=machine.keys.size,
        ):
            # initial parallel sort of every dimension-{1,2} PG_2 block
            blocks = self._pg2_blocks(root)
            with tracer.span("initial-block-sorts", kind="s2", dim=2) as sp:
                before = machine.comparisons
                rounds = self.sorter.sort_batch(machine, blocks, [False] * len(blocks))
                if not tracer.disabled:
                    sp.set(
                        rounds=rounds,
                        blocks=len(blocks),
                        comparisons=machine.comparisons - before,
                    )
            ledger.charge_s2(rounds, detail="initial PG2 block sorts")

            # merge rounds j = 3..r, all PG_j subgraphs of a round in lockstep
            for j in range(3, self.r + 1):
                self._merge_batch(machine, self._level_views(j), ledger, tracer)

        assert machine.rounds == ledger.total_rounds, "every round must be attributed"
        return ledger

    def _level_views(self, j: int) -> list[SubgraphView]:
        """All ``PG_j`` subgraphs at dimensions ``1..j`` (positions
        ``j+1..r`` fixed to every prefix)."""
        n, r = self.n, self.r
        if j == r:
            return [self.network.subgraph((), ())]
        fixed_positions = tuple(range(r, j, -1))  # r, r-1, ..., j+1
        views = []
        from itertools import product as iproduct

        for values in iproduct(range(n), repeat=r - j):
            views.append(self.network.subgraph(fixed_positions, values))
        return views

    def _pg2_blocks(self, view: SubgraphView) -> list[SubgraphView]:
        """The view's dimension-{1,2} ``PG_2`` blocks, ordered by group
        snake rank (Gray rank of the group label)."""
        k = view.reduced_order
        n = self.n
        if k == 2:
            return [view]
        ranked = []
        for z in range(n ** (k - 2)):
            prefix = gray_unrank(z, n, k - 2)
            ranked.append(_fix_reduced_prefix(view, prefix))
        return ranked

    def _merge_batch(
        self,
        machine: NetworkMachine,
        views: list[SubgraphView],
        ledger: CostLedger,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        """Multiway-merge every view in the batch, in parallel lockstep."""
        k = views[0].reduced_order
        n = self.n
        if any(v.reduced_order != k for v in views):
            raise ValueError("batch must be level-homogeneous")
        if k == 2:
            with tracer.span("merge-base", kind="s2", dim=2) as sp:
                before = machine.comparisons
                rounds = self.sorter.sort_batch(machine, views, [False] * len(views))
                if not tracer.disabled:
                    sp.set(
                        rounds=rounds,
                        blocks=len(views),
                        comparisons=machine.comparisons - before,
                    )
            ledger.charge_s2(rounds, detail="merge base (k=2) PG2 sorts")
            return

        with tracer.span("merge", dim=k, subgraphs=len(views)):
            # Steps 1 & 3: free.  Step 2: recurse into every [v]PG^1_{k-1} of
            # every view — one combined batch, so parallel time is counted
            # once.
            with tracer.span("distribute", kind="free", dim=k, rounds=0):
                pass
            with tracer.span("column-merges", dim=k):
                subviews = [
                    _fix_reduced_position(view, 1, v) for view in views for v in range(n)
                ]
                self._merge_batch(machine, subviews, ledger, tracer)
            with tracer.span("interleave", kind="free", dim=k, rounds=0):
                pass

            # Step 4 on all views simultaneously
            self._step4_batch(machine, views, ledger, k, tracer)

    def _step4_batch(
        self,
        machine: NetworkMachine,
        views: list[SubgraphView],
        ledger: CostLedger,
        k: int,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        n = self.n
        per_view_blocks = [self._pg2_blocks(view) for view in views]
        directions = [bool(z % 2) for z in range(n ** (k - 2))]

        def sort_all(detail: str, span_name: str) -> None:
            batch: list[SubgraphView] = []
            desc: list[bool] = []
            for blocks in per_view_blocks:
                batch.extend(blocks)
                desc.extend(directions)
            with tracer.span(span_name, kind="s2", dim=k) as sp:
                before = machine.comparisons
                rounds = self.sorter.sort_batch(machine, batch, desc)
                if not tracer.disabled:
                    sp.set(
                        rounds=rounds,
                        blocks=len(batch),
                        comparisons=machine.comparisons - before,
                    )
            ledger.charge_s2(rounds, detail=detail)

        with tracer.span("cleanup", dim=k):
            # 4a: alternating-direction block sorts (even group rank first)
            sort_all(f"step4 block sorts (k={k})", "block-sorts")

            # 4b: two odd-even block-transposition steps; minima to
            # predecessor.
            nblocks = n ** (k - 2)
            for parity in (0, 1):
                pairs: list[tuple[Label, Label]] = []
                for blocks in per_view_blocks:
                    for z in range(parity, nblocks - 1, 2):
                        lo_view, hi_view = blocks[z], blocks[z + 1]
                        for y2 in range(n):
                            for y1 in range(n):
                                pairs.append(
                                    (lo_view.full_label((y2, y1)), hi_view.full_label((y2, y1)))
                                )
                with tracer.span("transposition", kind="routing", dim=k, parity=parity) as sp:
                    rounds = machine.compare_exchange(pairs) if pairs else 0
                    if not tracer.disabled:
                        sp.set(rounds=rounds, pairs=len(pairs))
                ledger.charge_routing(
                    rounds, detail=f"step4 transposition parity {parity} (k={k})"
                )

            # 4c: final alternating block sorts
            sort_all(f"step4 final block sorts (k={k})", "final-block-sorts")

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MachineSorter({self.network!r}, sorter={self.sorter.name})"
