"""Adaptive variant: skip Step 4 when the interleave is already clean.

An engineering extension of the paper's algorithm (not claimed by the
paper).  Lemma 1 guarantees the dirty area after Step 3 is *at most* N² —
but for benign inputs it is often zero and the entire Step 4 (2 S₂ + 2 R
rounds per merge level) is wasted work.  The benign class is
**low-cardinality data**: when few distinct keys spread across many nodes,
the column counts of Step 1 balance exactly and the interleave lands
sorted.  Measured on 3^4 keys: all-equal and block-aligned inputs skip
every Step 4 (42 vs 126 rounds), random 0-1 keys skip up to 2 of 3 levels depending on the draw, and
full-entropy random keys skip none (paying only the check overhead) — see
``benchmarks/bench_adaptive.py``.  Sorting by flags, enum tags or bucket
ids is exactly this regime.

Detecting cleanliness is cheap on the network: every node compares its key
with its snake-successor's — one parallel compare round — followed by an
AND-reduction over a spanning tree; we charge a configurable
``check_rounds`` for the pair.  The skip decision must be **level
consistent**: all the merges of one level run in parallel, so Step 4 is
skipped only when *every* subgraph of the level came out clean (a single
dirty subgraph makes the whole level wait anyway — and the AND-reduction
naturally computes exactly this global predicate).  The emitted schedule
already has that structure: sibling subgraphs of a level share each phase.
So the adaptive sorter runs the same phases as the plain one
(:meth:`~repro.core.lattice_sort.ProductNetworkSorter.schedule`), and before
each merge instance's four ``cleanup[dk]`` phases it charges the check and
skips them when every stacked view reads sorted in snake order.

Worst case: ``check_rounds`` extra per level.  Best case (fully clean
levels): ``2 S₂ + 2 R - check_rounds`` saved per level.  The ablation
benchmark quantifies the trade on sorted, nearly-sorted and random inputs.
"""

from __future__ import annotations

import numpy as np

from ..machine.metrics import CostLedger
from ..observability import coerce_tracer, point_emitter
from ..schedule import SchedulePhase, charge_phase, snake_order_nodes, step4_point
from ..schedule.ir import output_order
from .lattice_sort import ProductNetworkSorter, SortOutcome
from .multiway_merge import Emit, TracerLike

__all__ = ["AdaptiveProductNetworkSorter"]


class AdaptiveProductNetworkSorter(ProductNetworkSorter):
    """Lattice sorter with a level-consistent clean-check before Step 4.

    Parameters (beyond :class:`ProductNetworkSorter`)
    -------------------------------------------------
    check_rounds:
        rounds charged per cleanliness check (snake-neighbour compare plus
        AND reduction).  Default 2 — one compare round plus one pipelined
        reduction round, an explicit (optimistic) model.

    After each sort, :attr:`steps4_skipped` / :attr:`steps4_executed` count
    the level-batched Step 4 decisions.
    """

    def __init__(self, *args, check_rounds: int = 2, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if check_rounds < 0:
            raise ValueError("check_rounds must be nonnegative")
        self.check_rounds = check_rounds
        self.steps4_skipped = 0
        self.steps4_executed = 0

    # ------------------------------------------------------------------
    def sort_lattice(self, lattice: np.ndarray, tracer: TracerLike = None) -> SortOutcome:
        # the adaptive variant may skip Step 4s, so its span tree does NOT
        # reproduce Theorem 1's counts; tagged with its own backend name
        tracer = coerce_tracer(tracer)
        emit = point_emitter(tracer)
        a = self._fresh_lattice(lattice)
        ledger = CostLedger(keep_log=self.keep_log)
        phases = self.schedule().phases
        n, r = self.n, self.r
        self.steps4_skipped = self.steps4_executed = 0
        with tracer.span(
            "sort", backend="lattice-adaptive", factor=self.network.factor.name, n=n, r=r
        ):
            with tracer.span("initial-block-sorts", kind="s2") as sp:
                self._run_phases(a, phases[:1], ledger)
                sp.set(rounds=phases[0].charged_rounds)
            if emit is not None:
                emit("initial_sorted", a.copy())
            for j in range(3, r + 1):
                with tracer.span("merge-round", dim=j, groups=n ** (r - j)):
                    round_j = [p for p in phases if p.path[1] == f"merge[d{j}]"]
                    self._run_phases(a, round_j, ledger, emit if j == r else None)
                if emit is not None:
                    emit(f"after_merge_round_{j}", a.copy())
        return SortOutcome(a, ledger)

    def merge_sorted_subgraphs(self, lattice: np.ndarray, tracer: TracerLike = None) -> SortOutcome:
        a = self._merge_input(lattice)
        ledger = CostLedger(keep_log=self.keep_log)
        self.steps4_skipped = self.steps4_executed = 0
        self._run_phases(a, self._merge_phases(), ledger, point_emitter(coerce_tracer(tracer)))
        return SortOutcome(a, ledger)

    # ------------------------------------------------------------------
    def _run_phases(
        self, a: np.ndarray, phases: list[SchedulePhase], ledger: CostLedger, emit: Emit = None
    ) -> None:
        """Run ``phases`` on ``a``; each merge instance's four cleanup phases
        run only if one of its stacked views reads unsorted.  ``emit``
        publishes the top merge's states (it is passed only when that merge
        spans the whole lattice)."""
        skip_until = 0
        for i, phase in enumerate(phases):
            k = phase.dim
            # the top merge's cleanup: ("sort", "merge[dk]", "cleanup[dk]", leaf)
            top = emit if phase.path[2:3] == (f"cleanup[d{k}]",) else None
            if phase.leaf == "block-sorts":  # the merge instance's Step 4 begins
                if top is not None:
                    top(f"merge{k}_after_step2", a.copy())
                ledger.charge_routing(self.check_rounds, detail=f"adaptive clean check (k={k})")
                if self._views_clean(a, phase):
                    self.steps4_skipped += 1
                    skip_until = i + 4
                    if top is not None:
                        top(f"merge{k}_step4_skipped", a.copy())
                else:
                    self.steps4_executed += 1
            if i >= skip_until:
                self._run_phase(a, phase)
                charge_phase(ledger, phase, "lattice-adaptive")
                if top is not None:
                    top(step4_point(phase), a.copy())

    def _views_clean(self, a: np.ndarray, block_sorts: SchedulePhase) -> bool:
        """Whether every ``PG_k`` view a cleanup's block sorts cover reads
        sorted in snake order: its blocks (listed in lex order) in group-rank
        order, each along its own snake direction."""
        ((nodes, descending),) = self.schedule().phase_rounds(block_sorts.index)[0].blocks
        n, k = self.n, block_sorts.dim
        by_rank = snake_order_nodes(n, k - 2)  # a view's blocks, by group rank
        views = output_order(nodes, descending).reshape(-1, n ** (k - 2), n * n)[:, by_rank]
        return bool(np.all(np.diff(a.reshape(-1)[views.reshape(len(views), -1)], axis=1) >= 0))
