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

Since the schedule refactor the recursion above is primarily the *traced*
executor.  The untraced path runs the network's emitted
:class:`~repro.schedule.ir.ComparatorDAG` instead
(:meth:`ProductNetworkSorter.schedule` →
:func:`repro.schedule.compiled.compile_schedule`): the same certified
kernel batch workloads and the sort service use, one cached kernel per
geometry cell, with the ledger synthesized from the emitted phase list.

Because the driver only pays for what it executes, the measured ledger
reproduces Lemma 3 and Theorem 1 *structurally*: ``(r-1)**2`` two-dimensional
sorts and ``(r-1)(r-2)`` routings for a full sort, with total rounds
``(r-1)^2 S_2(N) + (r-1)(r-2) R(N)``.  Tests assert this equality and the
fine-grained machine backend cross-validates the data movement.
"""

from __future__ import annotations

import numpy as np

from ..graphs.base import FactorGraph
from ..graphs.product import ProductGraph
from ..machine.metrics import CostLedger
from ..observability import NULL_TRACER, Tracer, coerce_tracer, point_emitter
from ..orders.gray import rank_lattice
from ..orders.snake import lattice_to_sequence, sequence_to_lattice
from ..schedule import ComparatorDAG, compile_schedule, emit_lattice_schedule, phase_detail
from ..sorters2d.analytic import sorter_for_factor
from ..sorters2d.base import PublishedRoutingModel, RoutingModel, TwoDimSorterModel
from .multiway_merge import Emit, TracerLike

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
        self._rank2 = rank_lattice(network.factor.n, 2)

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

        Cached per ``(factor, n, r, S_2, R)`` cell; the artifact every
        untraced sort interprets and the compiled batch kernel packs."""
        return emit_lattice_schedule(
            self.network.factor,
            self.r,
            self.sorter2d.rounds(self.n),
            self.routing.rounds(self.n),
        )

    def sort_lattice(self, lattice: np.ndarray, tracer: TracerLike = None) -> SortOutcome:
        """Sort a key lattice into snake order (§3.3 driver).

        Returns a fresh sorted lattice plus the cost ledger; the input is
        not modified.  When a ``tracer`` is given, the run is recorded as a
        span tree following the *parallel-time* accounting (spans wrap
        exactly the charged phases), so a full sort contains ``(r-1)**2``
        spans of kind ``s2`` and ``(r-1)(r-2)`` of kind ``routing`` —
        Theorem 1 read off telemetry.  A tracer whose bus has subscribers
        additionally receives the intermediate lattice states
        (``initial_sorted``, ``merge3_after_step2``, ...) as ``point``
        events.

        Untraced runs skip the recursion entirely and interpret the emitted
        schedule (:meth:`schedule`) — identical output and ledger, one
        cached plan per geometry.
        """
        a = np.array(lattice, copy=True)
        if a.shape != self.network.shape:
            raise ValueError(f"lattice shape {a.shape} != network shape {self.network.shape}")
        tracer = coerce_tracer(tracer)
        if tracer.disabled and self._uses_stock_schedule():
            return self._sort_via_schedule(a)
        emit = point_emitter(tracer)
        ledger = CostLedger(keep_log=self.keep_log)
        n, r = self.n, self.r

        with tracer.span(
            "sort", backend="lattice", factor=self.network.factor.name, n=n, r=r, keys=a.size
        ):
            # initial round: sort every dimension-{1,2} PG_2 block, ascending
            # in its local snake order; all blocks in parallel -> one S_2.
            with tracer.span("initial-block-sorts", kind="s2", dim=2) as sp:
                blocks = a.reshape(-1, n, n)
                for g in range(blocks.shape[0]):
                    self._sort2_data(blocks[g], descending=False)
                ledger.charge_s2(self.sorter2d.rounds(n), detail="initial PG2 block sorts")
                if not tracer.disabled:
                    sp.set(rounds=self.sorter2d.rounds(n), blocks=blocks.shape[0])
            if emit is not None:
                emit("initial_sorted", a.copy())

            # merge rounds j = 3..r: one multiway merge inside every PG_j
            # subgraph; subgraphs run in parallel -> charge the first only.
            for j in range(3, r + 1):
                sub = a.reshape((-1,) + (n,) * j)
                for s in range(sub.shape[0]):
                    self._merge(
                        sub[s],
                        ledger,
                        charge=(s == 0),
                        tracer=tracer if s == 0 else NULL_TRACER,
                        emit=emit if s == 0 else None,
                    )
                if emit is not None:
                    emit(f"after_merge_round_{j}", a.copy())
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
        snake-sorted; merges them into a fully snake-sorted lattice.  Used by
        the Lemma 3 benchmark and the worked example of Figs. 12-15.
        """
        a = np.array(lattice, copy=True)
        if a.shape != self.network.shape:
            raise ValueError(f"lattice shape {a.shape} != network shape {self.network.shape}")
        for u in range(self.n):
            seq = lattice_to_sequence(a[u])
            if np.any(seq[:-1] > seq[1:]):
                raise ValueError(f"input subgraph [{u}]PG_{self.r - 1} is not snake-sorted")
        ledger = CostLedger(keep_log=self.keep_log)
        tracer = coerce_tracer(tracer)
        self._merge(a, ledger, charge=True, tracer=tracer, emit=point_emitter(tracer))
        return SortOutcome(a, ledger)

    def sorted_reference(self, lattice: np.ndarray) -> np.ndarray:
        """The lattice's keys placed in perfect snake order (ground truth)."""
        return sequence_to_lattice(np.sort(np.asarray(lattice), axis=None), self.n, self.r)

    # ------------------------------------------------------------------
    # schedule interpretation (the untraced path)
    # ------------------------------------------------------------------
    def _uses_stock_schedule(self) -> bool:
        """Whether this sorter's data movement is the stock recursion.

        Subclasses overriding any movement method (the mutation harness's
        sabotaged sorters, experiments) must keep executing through the
        recursion — the emitted schedule describes only the unmodified
        algorithm."""
        cls = type(self)
        return (
            cls._merge is ProductNetworkSorter._merge
            and cls._step4 is ProductNetworkSorter._step4
            and cls._sort2_data is ProductNetworkSorter._sort2_data
        )

    def _sort_via_schedule(self, a: np.ndarray) -> SortOutcome:
        """Run the emitted IR through its compiled kernel; synthesize the
        ledger from the phase list (phase order == the recursion's charge
        order)."""
        dag = self.schedule()
        out = compile_schedule(dag).run(a.reshape(-1))
        ledger = CostLedger(keep_log=self.keep_log)
        for phase in dag.phases:
            detail = phase_detail(phase, "lattice")
            if phase.kind == "s2":
                ledger.charge_s2(phase.charged_rounds, detail=detail)
            else:
                ledger.charge_routing(phase.charged_rounds, detail=detail)
        return SortOutcome(out.reshape(self.network.shape), ledger)

    # ------------------------------------------------------------------
    # the merge (§3.1 steps on the lattice)
    # ------------------------------------------------------------------
    def _merge(
        self,
        a: np.ndarray,
        ledger: CostLedger,
        charge: bool,
        tracer: Tracer = NULL_TRACER,
        emit: Emit = None,
    ) -> None:
        """Merge the ``N`` snake-sorted ``[u]PG_{k-1}`` slices of ``a``."""
        k = a.ndim
        n = self.n
        if k == 2:
            # base case: one PG_2 sort (M_2 = S_2)
            if tracer.disabled:
                self._sort2_data(a, descending=False)
            else:
                with tracer.span(
                    "merge-base", kind="s2", dim=2, rounds=self.sorter2d.rounds(n)
                ):
                    self._sort2_data(a, descending=False)
            if charge:
                ledger.charge_s2(self.sorter2d.rounds(n), detail="merge base (k=2) PG2 sort")
            return

        with tracer.span("merge", dim=k):
            # Step 1: free — B_{u,v} already snake-sorted on [u,v]PG^{k,1}.
            with tracer.span("distribute", kind="free", dim=k, rounds=0):
                pass
            # Step 2: recursively merge column v inside [v]PG^1_{k-1}; the N
            # subgraphs are disjoint and run in parallel -> charge one.
            with tracer.span("column-merges", dim=k):
                for v in range(n):
                    self._merge(
                        a[..., v],
                        ledger,
                        charge=charge and v == 0,
                        tracer=tracer if v == 0 else NULL_TRACER,
                    )
            if emit is not None:
                emit(f"merge{k}_after_step2", a.copy())
            # Step 3: free — D is the snake reading of the whole lattice.
            with tracer.span("interleave", kind="free", dim=k, rounds=0):
                pass
            if emit is not None:
                emit(f"merge{k}_after_step3", a.copy())

            self._step4(a, ledger, charge, tracer, emit)

    def _step4(
        self,
        a: np.ndarray,
        ledger: CostLedger,
        charge: bool,
        tracer: Tracer = NULL_TRACER,
        emit: Emit = None,
    ) -> None:
        """Clean-up: alternating block sorts, two block transpositions,
        alternating block sorts (2 S_2 + 2 R).

        Batched: one ``np.sort`` call per block-sort phase and one
        elementwise min/max per transposition, over a contiguous copy of the
        dimension-{1,2} blocks in prefix-lex order (``a`` may be a recursion
        view, so the result is written back at the end).  ``emit`` receives
        the lattice after every sub-step.
        """
        k = a.ndim
        n = self.n
        buf = np.ascontiguousarray(a)
        nblocks = buf.size // (n * n)
        flat = buf.reshape(nblocks, n * n)
        if k > 2:
            granks = np.asarray(rank_lattice(n, k - 2)).ravel()
        else:  # pragma: no cover - _merge handles k == 2 before calling here
            granks = np.zeros(1, dtype=np.int64)
        order = np.argsort(granks)  # order[z] = lex index of the block of group rank z
        descending = (granks % 2).astype(bool)
        rank2_flat = np.asarray(self._rank2).ravel()

        def sort_blocks(detail: str, span_name: str) -> None:
            with tracer.span(span_name, kind="s2", dim=k) as sp:
                seq = np.sort(flat, axis=1)
                seq[descending] = seq[descending, ::-1]
                flat[:] = seq[:, rank2_flat]
                if not tracer.disabled:
                    sp.set(rounds=self.sorter2d.rounds(n), blocks=nblocks)
            if charge:
                ledger.charge_s2(self.sorter2d.rounds(n), detail=detail)

        with tracer.span("cleanup", dim=k):
            # 4a: alternating-direction block sorts (even rank ascending)
            sort_blocks(f"step4 block sorts (k={k})", "block-sorts")
            if emit is not None:
                emit(f"merge{k}_step4_sorted", buf.reshape(a.shape).copy())

            # 4b: two odd-even transposition steps between snake-consecutive
            # blocks; minima migrate to the predecessor (lower-rank) block.
            for parity in (0, 1):
                with tracer.span("transposition", kind="routing", dim=k, parity=parity) as sp:
                    zs = np.arange(parity, nblocks - 1, 2)
                    if zs.size:
                        lo_idx, hi_idx = order[zs], order[zs + 1]
                        lo, hi = flat[lo_idx], flat[hi_idx]
                        flat[lo_idx] = np.minimum(lo, hi)
                        flat[hi_idx] = np.maximum(lo, hi)
                    if not tracer.disabled:
                        sp.set(rounds=self.routing.rounds(n))
                if charge:
                    ledger.charge_routing(
                        self.routing.rounds(n),
                        detail=f"step4 transposition parity {parity} (k={k})",
                    )
                if emit is not None:
                    emit(f"merge{k}_step4_transposition{parity}", buf.reshape(a.shape).copy())

            # 4c: final alternating block sorts
            sort_blocks(f"step4 final block sorts (k={k})", "final-block-sorts")
            if emit is not None:
                emit(f"merge{k}_step4_final", buf.reshape(a.shape).copy())

        if buf is not a:
            a[...] = buf.reshape(a.shape)

    # ------------------------------------------------------------------
    def _sort2_data(self, block: np.ndarray, descending: bool) -> None:
        """Place a ``PG_2`` block's keys in (anti-)snake order, in place.

        The data result of any correct two-dimensional sorter; its cost is
        charged separately through the ``S_2`` model.
        """
        seq = np.sort(block, axis=None)
        if descending:
            seq = seq[::-1]
        block[...] = seq[self._rank2]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ProductNetworkSorter({self.network!r}, S2={self.sorter2d.name}, "
            f"R={self.routing.name})"
        )
