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
* :func:`emit_machine_schedule` — the machine vocabulary expands block sorts
  into individual compare-exchange super-steps and measures routed costs, so
  emission drives the fine-grained recursion once against a *planning
  machine* (a :class:`~repro.machine.machine.NetworkMachine` loaded with
  zero keys — every cost and pair list is key-independent) while a bus
  recorder assembles the DAG plus a :class:`SpanInstr` program.  The program
  replays the exact span tree (names, static attributes, ledger charges) so
  interpreted runs remain indistinguishable from the historical driver to
  the conformance checker and the topology observatory.

Both emitters memoise per geometry cell: the lattice cache keys on
``(factor, n, r, S2 rounds, R rounds)`` (charges depend on the cost models),
the machine cache on ``(factor graph, r, sorter)``, the factor graph by
value (size, edge set and name).  Downstream, compiled batch
kernels are additionally cached by the DAG's canonical SHA-256 hash — see
:mod:`repro.schedule.compiled`.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Any

import numpy as np

from ..observability.cachestats import CacheStats
from ..orders.gray import rank_lattice
from .ir import BlockGroups, ComparatorDAG, SchedulePhase, ScheduleRound, snake_order_nodes
from .program import SpanInstr

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.machine_sort import MachineSorter
    from ..graphs.base import FactorGraph
    from ..graphs.product import ProductGraph
    from ..observability.events import TraceEvent

__all__ = [
    "emit_lattice_schedule",
    "emit_machine_schedule",
    "clear_emission_caches",
    "EmittedMachineSchedule",
    "span_path_entry",
]

#: one lock covers both emission caches (they are touched together only by
#: :func:`clear_emission_caches`, and contention is negligible)
_EMIT_LOCK = threading.Lock()


def span_path_entry(name: str, attrs: dict[str, Any]) -> str:
    """Canonical path element for a span: name plus dimension and parity.

    Extends :func:`repro.observability.events.phase_key` with the
    transposition parity, so the two transpositions of one cleanup are
    distinct phases (they are separate routing calls in Lemma 3)."""
    dim = attrs.get("dim")
    if dim is None:
        return name
    parity = attrs.get("parity")
    if parity is None:
        return f"{name}[d{dim}]"
    return f"{name}[d{dim},p{parity}]"


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
# machine emitter: plan the fine-grained recursion on zero keys
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EmittedMachineSchedule:
    """The machine backend's emitted artifact: IR plus its span program."""

    dag: ComparatorDAG
    program: tuple[SpanInstr, ...]


class _MachineEmitRecorder:
    """Event-bus subscriber assembling the DAG and span program.

    Subscribes to the bus a :class:`~repro.observability.tracer.Tracer` and
    :class:`~repro.observability.timeline.MachineTimeline` publish to; every
    ``machine_step`` becomes one :class:`ScheduleRound` attributed to the
    innermost open charged (``s2``/``routing``) span.
    """

    def __init__(self, network: "ProductGraph") -> None:
        self.network = network
        self.phases: list[SchedulePhase] = []
        self.program: list[SpanInstr] = []
        self.rounds: list[ScheduleRound] = []
        self._path: list[str] = []
        self._charged: list[int] = []
        self._span_phase: dict[int | None, int] = {}

    def on_event(self, event: "TraceEvent") -> None:
        if event.kind == "span_start":
            attrs = dict(event.attrs)
            self._path.append(span_path_entry(event.name, attrs))
            phase: int | None = None
            kind = attrs.get("kind")
            if kind in ("s2", "routing"):
                phase = len(self.phases)
                self.phases.append(
                    SchedulePhase(phase, tuple(self._path), str(kind), attrs.get("dim"), 0)
                )
                self._charged.append(phase)
                self._span_phase[event.span_id] = phase
            self.program.append(SpanInstr("open", event.name, attrs, phase))
        elif event.kind == "span_end":
            idx = self._span_phase.pop(event.span_id, None)
            if idx is not None:
                self.phases[idx] = dataclasses.replace(
                    self.phases[idx], charged_rounds=int(event.attrs.get("rounds", 0))
                )
                self._charged.pop()
            if self._path:
                self._path.pop()
            self.program.append(SpanInstr("close", event.name, dict(event.attrs), idx))
        elif event.kind == "machine_step":
            if not self._charged:
                raise RuntimeError("machine step observed outside any charged phase span")
            labels = np.asarray(event.attrs["pairs"], dtype=np.int64).reshape(-1, self.network.r)
            flat = np.ravel_multi_index(tuple(labels.T), self.network.shape).reshape(-1, 2)
            charge = int(event.attrs["rounds"])
            index = len(self.rounds)
            self.rounds.append(
                ScheduleRound(index, self._charged[-1], charge, flat[:, 0], flat[:, 1])
            )

    def emitted(self) -> EmittedMachineSchedule:
        dag = ComparatorDAG(
            backend="machine",
            factor=self.network.factor.name,
            n=self.network.factor.n,
            r=self.network.r,
            num_nodes=self.network.num_nodes,
            phases=tuple(self.phases),
            rounds=tuple(self.rounds),
            meta={"emitted": True},
        )
        return EmittedMachineSchedule(dag=dag, program=tuple(self.program))


_MACHINE_CACHE: dict[tuple["FactorGraph", int, str], EmittedMachineSchedule] = {}

MACHINE_CACHE_STATS = CacheStats("machine-emission", size_fn=lambda: len(_MACHINE_CACHE))


def emit_machine_schedule(sorter: "MachineSorter") -> EmittedMachineSchedule:
    """Emit the machine backend's schedule by planning one keyless run.

    Drives the sorter's recursion against a planning machine holding all-zero
    keys — every pair list, batching decision and routed cost depends only on
    the geometry, so the recorded schedule is the schedule of *every* run.
    """
    from ..machine.machine import NetworkMachine
    from ..observability import EventBus, MachineTimeline, Tracer

    network = sorter.network
    # the factor graph itself (size, edge set and name): two labellings of
    # one topology share a name but route differently
    key = (network.factor, network.r, sorter.sorter.name)
    with _EMIT_LOCK:
        cached = _MACHINE_CACHE.get(key)
    if cached is not None:
        MACHINE_CACHE_STATS.record_hit()
        return cached
    t_build = perf_counter()

    bus = EventBus()
    recorder = bus.subscribe(_MachineEmitRecorder(network))
    machine = NetworkMachine(network, np.zeros(network.num_nodes, dtype=np.int64))
    machine.timeline = MachineTimeline(network, bus=bus)
    ledger = sorter._plan(machine, Tracer(bus))
    emitted = recorder.emitted()
    assert machine.rounds == ledger.total_rounds == emitted.dag.depth, (
        "emission must attribute every planned round"
    )
    MACHINE_CACHE_STATS.record_miss(perf_counter() - t_build)
    with _EMIT_LOCK:
        return _MACHINE_CACHE.setdefault(key, emitted)


def clear_emission_caches() -> None:
    """Drop every emitted schedule and reset both caches' statistics."""
    with _EMIT_LOCK:
        _LATTICE_CACHE.clear()
        _MACHINE_CACHE.clear()
    LATTICE_CACHE_STATS.reset()
    MACHINE_CACHE_STATS.reset()
