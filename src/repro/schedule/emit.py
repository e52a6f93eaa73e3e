"""Schedule emission: the §3.1/§3.3 recursion producing IR, not key moves.

This is the single execution engine the tentpole refactor converges on.  The
recursive multiway-merge algorithm runs exactly once per geometry and *emits*
a :class:`~repro.schedule.ir.ComparatorDAG`; every executor then interprets
that artifact.  Two emitters cover the two op vocabularies:

* :func:`emit_lattice_schedule` — a keyless structural recursion over the
  *node-id lattice* (``np.arange(N**r)`` reshaped to the network shape).
  Because an id-lattice view's elements literally are flat node indices, the
  recursion that used to shuffle keys now writes down which nodes each block
  sort and transposition engages, as index arrays.  Phases are keyed by span
  path and sibling subgraphs of a level share phases, mirroring the
  charge-once-per-level accounting, so the recursion stacks the siblings on
  a leading axis and writes each phase once; one lattice phase = one
  :class:`ScheduleRound`.
* :func:`emit_machine_schedule` — a *lowering* of the lattice schedule to
  the machine vocabulary, where block sorts are individual compare-exchange
  super-steps with measured routed costs.  Step 4 is "any ``S_2`` inside
  each ``PG_2``, plus two transpositions" (§4), so every lattice block sort
  becomes the executable 2-D sorter's round template, recorded once on one
  ``PG_2`` block of zero keys, and every transposition one round charged by
  the machine's own cost function.  The phase paths are the lattice's; the
  machine's span program is derived from them when a run is traced
  (:func:`repro.schedule.program.machine_program`).

Both emitters memoise per geometry cell: the lattice cache keys on
``(factor, n, r, S2 rounds, R rounds)`` (charges depend on the cost models),
the machine cache on ``(factor graph, r, sorter template)``, the factor
graph by value (size, edge set and name) and the template by its pairs and
charges.  Downstream, compiled batch kernels are additionally cached by the
DAG's canonical SHA-256 hash — see
:mod:`repro.schedule.compiled`.
"""

from __future__ import annotations

import dataclasses
import threading
from time import perf_counter
from typing import TYPE_CHECKING, Any

import numpy as np

from ..observability.cachestats import CacheStats
from ..orders.gray import rank_lattice
from .ir import BlockGroups, ComparatorDAG, SchedulePhase, ScheduleRound, snake_order_nodes

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.machine_sort import MachineSorter
    from ..graphs.base import FactorGraph
    from ..sorters2d.base import SorterTemplate

__all__ = [
    "emit_lattice_schedule",
    "emit_machine_schedule",
    "clear_emission_caches",
]

#: one lock covers both emission caches (they are touched together only by
#: :func:`clear_emission_caches`, and contention is negligible)
_EMIT_LOCK = threading.Lock()


# ----------------------------------------------------------------------
# lattice emitter: keyless structural recursion over the id lattice
# ----------------------------------------------------------------------

_LATTICE_CACHE: dict[tuple[str, int, int, int, int], ComparatorDAG] = {}

LATTICE_CACHE_STATS = CacheStats("lattice-emission", size_fn=lambda: len(_LATTICE_CACHE))


def emit_lattice_schedule(
    factor: "FactorGraph", r: int, s2_rounds: int, routing_rounds: int
) -> ComparatorDAG:
    """Emit the lattice backend's schedule for ``PG(factor, r)``.

    ``s2_rounds`` / ``routing_rounds`` are the configured cost models'
    per-call charges (``S_2(N)`` and ``R(N)``); they parameterise the phases'
    ``charged_rounds`` but not the operation structure.

    The recursion is batched: all subgraphs one level deep are stacked on a
    leading axis, so each phase is written once, for every sibling at once,
    in the order the one-subgraph-at-a-time recursion visits them.
    """
    if r < 2:
        raise ValueError("the algorithm needs r >= 2 (§3.3)")
    n = int(factor.n)
    key = (factor.name, n, r, int(s2_rounds), int(routing_rounds))
    with _EMIT_LOCK:
        cached = _LATTICE_CACHE.get(key)
    if cached is not None:
        LATTICE_CACHE_STATS.record_hit()
        return cached
    t_build = perf_counter()

    snake2 = snake_order_nodes(n, 2)
    phases: list[SchedulePhase] = []
    rounds: list[ScheduleRound] = []

    def add(path: tuple[str, ...], kind: str, dim: int, charge: int, **ops: Any) -> None:
        """One phase and its one round."""
        index = len(phases)
        phases.append(SchedulePhase(index, path, kind, dim, charge))
        rounds.append(ScheduleRound(index, index, charge, **ops))

    def snake_blocks(a: np.ndarray, descending: np.ndarray | bool) -> BlockGroups:
        """Every ``PG_2`` block of ``a`` (its last two axes), in local snake order."""
        return ((a.reshape(-1, n * n)[:, snake2], descending),)

    def step4(a: np.ndarray, k: int, path: tuple[str, ...]) -> None:
        """Clean-up of every stacked ``PG_k`` in ``a``: ``(B, Z, N**2)`` blocks."""
        blocks = a.reshape(len(a), -1, n * n)
        granks = np.asarray(rank_lattice(n, k - 2)).ravel()
        rank_order = np.argsort(granks)
        descending = np.tile(granks % 2 == 1, len(a))
        add((*path, f"block-sorts[d{k}]"), "s2", k, s2_rounds, blocks=snake_blocks(a, descending))
        for parity in (0, 1):
            z = np.arange(parity, len(granks) - 1, 2)
            add(
                (*path, f"transposition[d{k},p{parity}]"), "routing", k, routing_rounds,
                lo=blocks[:, rank_order[z]].ravel(), hi=blocks[:, rank_order[z + 1]].ravel(),
            )
        add((*path, f"final-block-sorts[d{k}]"), "s2", k, s2_rounds,
            blocks=snake_blocks(a, descending))

    def merge(a: np.ndarray, path: tuple[str, ...]) -> None:
        """Merge every stacked ``PG_k`` in ``a`` (shape ``(B,) + (N,) * k``)."""
        k = a.ndim - 1
        parent = path[-1]
        if parent.startswith("merge[d"):
            path = (*path, f"column-merges[d{parent[len('merge[d'):-1]}]")
        if k == 2:
            add((*path, "merge-base[d2]"), "s2", 2, s2_rounds, blocks=snake_blocks(a, False))
            return
        path = (*path, f"merge[d{k}]")
        # column v of every subgraph, stacked: the recursion's visiting order
        merge(np.moveaxis(a, -1, 1).reshape((-1,) + (n,) * (k - 1)), path)
        step4(a, k, (*path, f"cleanup[d{k}]"))

    ids = np.arange(n**r, dtype=np.int32)
    # initial round: every dimension-{1,2} PG_2 block, ascending; one phase.
    add(("sort", "initial-block-sorts[d2]"), "s2", 2, s2_rounds, blocks=snake_blocks(ids, False))
    # merge rounds j = 3..r: sibling subgraphs share the level's phases.
    for j in range(3, r + 1):
        merge(ids.reshape((-1,) + (n,) * j), ("sort",))

    dag = ComparatorDAG(
        backend="lattice",
        factor=factor.name,
        n=n,
        r=r,
        num_nodes=n**r,
        phases=tuple(phases),
        rounds=tuple(rounds),
        meta={"emitted": True, "s2_rounds": int(s2_rounds),
              "routing_rounds": int(routing_rounds)},
    )
    LATTICE_CACHE_STATS.record_miss(perf_counter() - t_build)
    with _EMIT_LOCK:
        return _LATTICE_CACHE.setdefault(key, dag)


# ----------------------------------------------------------------------
# machine emitter: the lattice schedule lowered to compare-exchanges
# ----------------------------------------------------------------------

_MACHINE_CACHE: dict[tuple["FactorGraph", int, "SorterTemplate"], ComparatorDAG] = {}

MACHINE_CACHE_STATS = CacheStats("machine-emission", size_fn=lambda: len(_MACHINE_CACHE))


def emit_machine_schedule(sorter: "MachineSorter") -> ComparatorDAG:
    """Emit the machine backend's schedule by lowering the lattice schedule.

    Every block sort becomes the executable 2-D sorter's template rounds
    (:class:`~repro.sorters2d.base.SorterTemplate`) over the blocks of the
    phase, ``lo`` and ``hi`` swapped on descending blocks; every
    transposition becomes one round charged what the machine measures for
    its pairs, and no round when it has none.  Within a round the blocks
    follow group snake rank in each subgraph, the order a parallel machine
    issues them in.  The phases keep the lattice paths and are charged the
    rounds they hold.
    """
    from ..machine.machine import measure_step

    network = sorter.network
    factor, n, r = network.factor, network.factor.n, network.r
    template = sorter.sorter.template(factor)
    # the factor graph itself (size, edge set and name): two labellings of
    # one topology share a name but route differently; and the template, not
    # the sorter's name, which two sorters may share
    key = (factor, r, template)
    with _EMIT_LOCK:
        cached = _MACHINE_CACHE.get(key)
    if cached is not None:
        MACHINE_CACHE_STATS.record_hit()
        return cached
    t_build = perf_counter()

    lattice = emit_lattice_schedule(factor, r, 1, 1)
    steps = [(np.array(pairs).T, charge) for pairs, charge in zip(template.pairs, template.charges)]
    phases: list[SchedulePhase] = []
    rounds: list[ScheduleRound] = []
    for phase, lattice_round in zip(lattice.phases, lattice.rounds):
        ops: list[tuple[int, np.ndarray, np.ndarray]] = []  # (charge, lo, hi) per round
        if phase.kind == "s2":
            ((nodes, descending),) = lattice_round.blocks
            k = r if phase.leaf == "initial-block-sorts" else phase.dim
            if k > 2:  # the blocks of each subgraph by group snake rank
                order = snake_order_nodes(n, k - 2)
                nodes = nodes.reshape(-1, len(order), n * n)[:, order].reshape(-1, n * n)
                descending = descending.reshape(-1, len(order))[:, order].ravel()
            flip = descending[:, None]
            for (lo, hi), charge in steps:
                lo, hi = nodes[:, lo], nodes[:, hi]
                ops.append((charge, np.where(flip, hi, lo).ravel(), np.where(flip, lo, hi).ravel()))
        elif lattice_round.lo.size:
            pairs = zip(lattice_round.lo.tolist(), lattice_round.hi.tolist())
            labelled = [(network.label_of(a), network.label_of(b)) for a, b in pairs]
            ops.append((measure_step(network, labelled)[1], lattice_round.lo, lattice_round.hi))
        phases.append(dataclasses.replace(phase, charged_rounds=sum(op[0] for op in ops)))
        start = len(rounds)
        rounds.extend(ScheduleRound(start + i, phase.index, *op) for i, op in enumerate(ops))

    dag = dataclasses.replace(
        lattice, backend="machine", phases=tuple(phases), rounds=tuple(rounds),
        meta={"emitted": True},
    )
    MACHINE_CACHE_STATS.record_miss(perf_counter() - t_build)
    with _EMIT_LOCK:
        return _MACHINE_CACHE.setdefault(key, dag)


def clear_emission_caches() -> None:
    """Drop every emitted schedule and reset both caches' statistics."""
    with _EMIT_LOCK:
        _LATTICE_CACHE.clear()
        _MACHINE_CACHE.clear()
    LATTICE_CACHE_STATS.reset()
    MACHINE_CACHE_STATS.reset()
