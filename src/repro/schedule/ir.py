"""The Schedule IR: the static comparator DAG every executor interprets.

The paper's algorithm is *data-oblivious* (§3.1, §4): which node pairs are
compared, in which direction, in which round, depends only on the geometry
``(G, N, r)`` — never on the keys.  That is exactly what makes the zero-one
principle (Lemmas 1-2) applicable and the step counts of Lemma 3/Theorem 1
well-defined.  This module gives that schedule a first-class representation.
The emitters in :mod:`repro.schedule.emit` produce it *without running on
keys*, and every executor — :func:`replay` (the reference semantics), the
lattice backend's vectorised interpreter, the compiled batch kernel of
:mod:`repro.schedule.compiled`, and the fine-grained machine — interprets
the same artifact:

* a :class:`ComparatorOp` is one compare-exchange between two nodes — the
  minimum ends up on ``lo``, the maximum on ``hi`` — recorded with the paper
  dimension the pair lies in;
* a :class:`BlockSortOp` is one atomic ``PG_2`` block sort: the block's
  ``N**2`` keys are placed (anti-)snake-ascending along the block's local
  snake order (the lattice backend's primitive; the machine backend expands
  these into individual comparators);
* a :class:`ScheduleRound` is one synchronous parallel step: every operation
  in a round engages disjoint node sets (or the schedule has a race);
* a :class:`SchedulePhase` is one *charged* phase of the paper's accounting
  (an ``S_2`` call or a routing call), identified by its span path — e.g.
  ``("sort", "merge[d3]", "cleanup[d3]", "transposition[d3,p0]")`` — exactly
  the phase attribution the observability layer uses;
* a :class:`ComparatorDAG` is the whole schedule: phases + rounds + geometry,
  with a canonical content hash used to certify obliviousness (emitting and
  recording a run must reproduce the identical DAG) and to key the compiled
  kernel cache.

:func:`replay` applies a DAG to key vectors directly — the semantics every
lint (zero-one certification, dead-comparator detection) simulates against.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Iterator

import numpy as np

from ..orders.gray import rank_lattice

__all__ = [
    "ComparatorOp",
    "BlockSortOp",
    "ScheduleRound",
    "SchedulePhase",
    "ComparatorDAG",
    "replay",
    "snake_order_nodes",
    "phase_detail",
]


@dataclass(frozen=True)
class ComparatorOp:
    """One compare-exchange: min of the two keys to ``lo``, max to ``hi``."""

    #: flat index of the node receiving the minimum
    lo: int
    #: flat index of the node receiving the maximum
    hi: int


@dataclass(frozen=True)
class BlockSortOp:
    """One atomic ``PG_2`` block sort.

    ``nodes`` lists the block's flat node indices in the block's *local snake
    order*; after the operation the block's keys sit ascending along that
    order (descending when ``descending``).
    """

    nodes: tuple[int, ...]
    descending: bool


@dataclass(frozen=True)
class SchedulePhase:
    """One charged phase of the paper's parallel-time accounting."""

    #: position in the phase sequence (also the index rounds refer to)
    index: int
    #: span path from the root, e.g. ``("sort", "merge[d3]", "cleanup[d3]",
    #: "transposition[d3,p0]")`` — shared vocabulary with the tracer
    path: tuple[str, ...]
    #: charge category: ``"s2"`` or ``"routing"``
    kind: str
    #: paper dimension attribute of the charged span
    dim: int | None
    #: synchronous rounds the phase was charged in total
    charged_rounds: int

    @property
    def leaf(self) -> str:
        """Base name of the innermost path element (``"transposition"``)."""
        last = self.path[-1]
        cut = last.find("[")
        return last if cut < 0 else last[:cut]

    @property
    def parity(self) -> int | None:
        """Transposition parity parsed from the leaf (``None`` otherwise)."""
        last = self.path[-1]
        cut = last.find(",p")
        return int(last[cut + 2 : -1]) if cut >= 0 and last.endswith("]") else None

    @property
    def merge_depth(self) -> int:
        """How many ``merge[dk]`` levels enclose this phase."""
        return sum(1 for part in self.path if part.startswith("merge["))

    def merge_prefixes(self) -> Iterator[tuple[tuple[str, ...], int]]:
        """Yield ``(path_prefix, k)`` for every enclosing merge instance."""
        for i, part in enumerate(self.path):
            if part.startswith("merge[d") and part.endswith("]"):
                yield self.path[: i + 1], int(part[len("merge[d") : -1])


@dataclass(frozen=True)
class ScheduleRound:
    """One synchronous parallel step of the schedule."""

    #: position in global execution order
    index: int
    #: index into :attr:`ComparatorDAG.phases`
    phase: int
    #: synchronous rounds this step was charged (>1 when routed)
    charge: int
    comparators: tuple[ComparatorOp, ...] = ()
    block_sorts: tuple[BlockSortOp, ...] = ()

    def touched_nodes(self) -> Iterator[int]:
        """Every flat node index the round engages (with multiplicity)."""
        for op in self.comparators:
            yield op.lo
            yield op.hi
        for blk in self.block_sorts:
            yield from blk.nodes


@dataclass(frozen=True)
class ComparatorDAG:
    """A full static compare-exchange/routing schedule for one geometry."""

    backend: str
    factor: str
    n: int
    r: int
    num_nodes: int
    phases: tuple[SchedulePhase, ...]
    rounds: tuple[ScheduleRound, ...]
    #: free-form extraction metadata (excluded from the canonical hash)
    meta: dict[str, Any] = field(default_factory=dict, compare=False)

    # -- summary ---------------------------------------------------------
    @property
    def comparator_count(self) -> int:
        return sum(len(rd.comparators) for rd in self.rounds)

    @property
    def block_sort_count(self) -> int:
        return sum(len(rd.block_sorts) for rd in self.rounds)

    @property
    def depth(self) -> int:
        """Total charged synchronous rounds (the paper's parallel time)."""
        return sum(rd.charge for rd in self.rounds)

    def iter_comparators(self) -> Iterator[tuple[ScheduleRound, ComparatorOp]]:
        for rd in self.rounds:
            for op in rd.comparators:
                yield rd, op

    def phase_rounds(self, phase_index: int) -> list[ScheduleRound]:
        return [rd for rd in self.rounds if rd.phase == phase_index]

    # -- canonical form --------------------------------------------------
    def canonical(self) -> dict[str, Any]:
        """JSON-safe canonical form: geometry + the exact schedule.

        Operations within a round are sorted (they are simultaneous), round
        and phase order is preserved (it is execution order).
        """
        return {
            "backend": self.backend,
            "factor": self.factor,
            "n": self.n,
            "r": self.r,
            "num_nodes": self.num_nodes,
            "phases": [
                {
                    "path": list(p.path),
                    "kind": p.kind,
                    "dim": p.dim,
                    "charged_rounds": p.charged_rounds,
                }
                for p in self.phases
            ],
            "rounds": [
                {
                    "phase": rd.phase,
                    "charge": rd.charge,
                    "comparators": sorted((op.lo, op.hi) for op in rd.comparators),
                    "block_sorts": sorted(
                        (list(blk.nodes), blk.descending) for blk in rd.block_sorts
                    ),
                }
                for rd in self.rounds
            ],
        }

    def schedule_hash(self) -> str:
        """SHA-256 over the canonical form — the obliviousness certificate.

        Emitting the schedule and recording a live run of the same configured
        sort must produce the same hash regardless of the key values.
        Memoised per instance: the DAG is immutable.
        """
        if "_schedule_hash" not in self.__dict__:
            blob = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
            object.__setattr__(self, "_schedule_hash", hashlib.sha256(blob.encode()).hexdigest())
        return self.__dict__["_schedule_hash"]

    def describe(self) -> str:
        return (
            f"{self.backend}/{self.factor} n={self.n} r={self.r}: "
            f"{len(self.phases)} phases, {len(self.rounds)} rounds, "
            f"{self.comparator_count} comparators, "
            f"{self.block_sort_count} block sorts, depth {self.depth}"
        )


def phase_detail(phase: SchedulePhase, backend: str) -> str:
    """The ledger detail string a backend charges for one IR phase.

    Both network backends derive their :class:`~repro.machine.metrics.CostLedger`
    entries from the emitted phase identity through this single vocabulary, so
    the interpreted runs stay label-compatible with the historical drivers.
    """
    leaf = phase.leaf
    if leaf == "initial-block-sorts":
        return "initial PG2 block sorts"
    if leaf == "merge-base":
        # historical wording: the machine driver batched all merges of a level
        return "merge base (k=2) PG2 sorts" if backend == "machine" else "merge base (k=2) PG2 sort"
    k = phase.dim
    if leaf == "block-sorts":
        return f"step4 block sorts (k={k})"
    if leaf == "final-block-sorts":
        return f"step4 final block sorts (k={k})"
    if leaf == "transposition":
        return f"step4 transposition parity {phase.parity} (k={k})"
    return leaf


# ----------------------------------------------------------------------
# replay: the DAG's operational semantics
# ----------------------------------------------------------------------

@lru_cache(maxsize=64)
def snake_order_nodes(n: int, r: int) -> np.ndarray:
    """Flat node indices of ``PG_r`` listed in snake (Gray) order.

    ``snake_order_nodes(n, r)[p]`` is the flat index of the node holding
    sorted position ``p``; reading a key lattice at these indices yields the
    snake sequence.
    """
    ranks = np.asarray(rank_lattice(n, r)).ravel()
    out = np.argsort(ranks)
    out.setflags(write=False)
    return out


def _round_index_arrays(
    rd: ScheduleRound,
) -> tuple[np.ndarray, np.ndarray, list[tuple[np.ndarray, bool]]]:
    lo = np.fromiter((op.lo for op in rd.comparators), dtype=np.intp, count=len(rd.comparators))
    hi = np.fromiter((op.hi for op in rd.comparators), dtype=np.intp, count=len(rd.comparators))
    blocks = [(np.asarray(blk.nodes, dtype=np.intp), blk.descending) for blk in rd.block_sorts]
    return lo, hi, blocks


def replay(dag: ComparatorDAG, state: np.ndarray) -> np.ndarray:
    """Apply the schedule to key vectors without touching either backend.

    ``state`` is one key vector of shape ``(num_nodes,)`` or a batch of shape
    ``(S, num_nodes)``, indexed by flat node id.  Returns a fresh array of
    the same shape holding the keys after the full schedule ran.  This is the
    semantics every lint simulates: comparators place min on ``lo``/max on
    ``hi``; block sorts place a block's keys ascending (or descending) along
    the recorded local snake order.
    """
    arr = np.array(state, copy=True)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[1] != dag.num_nodes:
        raise ValueError(f"state must have {dag.num_nodes} keys per row, got {arr.shape}")
    for rd in dag.rounds:
        lo_idx, hi_idx, blocks = _round_index_arrays(rd)
        if lo_idx.size:
            lo = arr[:, lo_idx]
            hi = arr[:, hi_idx]
            arr[:, lo_idx] = np.minimum(lo, hi)
            arr[:, hi_idx] = np.maximum(lo, hi)
        for nodes, descending in blocks:
            sub = np.sort(arr[:, nodes], axis=1)
            if descending:
                sub = sub[:, ::-1]
            arr[:, nodes] = sub
    return arr[0] if squeeze else arr
