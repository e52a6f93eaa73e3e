"""The Schedule IR: the static comparator network every executor interprets.

The paper's algorithm is *data-oblivious* (§3.1, §4): which node pairs are
compared, in which direction, in which round, depends only on the geometry
``(G, N, r)`` — never on the keys — and §3.2's merge *is* a comparator
network.  This module gives that schedule a first-class, columnar
representation and is the one module that knows its op format.  The
emitters of :mod:`repro.schedule.emit` produce it *without running on
keys*; :func:`replay` (the reference semantics), the compiled kernel of
:mod:`repro.schedule.compiled` and the fine-grained machine interpret it:

* a :class:`ScheduleRound` is one synchronous parallel step, as index
  arrays: comparator ``k`` puts the minimum on node ``lo[k]`` and the
  maximum on ``hi[k]``; the ``PG_2`` block sorts are one ``(blocks, width)``
  node matrix per width, each row a block in its *local snake order*, plus
  a ``descending`` mask.  Ops are numbered within the round: comparators by
  position, block sorts by row across the width groups in order;
* a :class:`SchedulePhase` is one *charged* phase of the paper's accounting
  (an ``S_2`` call or a routing call), identified by its span path — e.g.
  ``("sort", "merge[d3]", "cleanup[d3]", "transposition[d3,p0]")``;
* a :class:`ComparatorDAG` is the whole schedule: phases + rounds + geometry,
  with a canonical content hash that certifies obliviousness and keys the
  compiled-kernel cache.

:func:`pack_rounds` is the as-soon-as-possible layering the optimizer's
re-packing and the compiled kernel share.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Iterable, Iterator

import numpy as np

from ..orders.gray import rank_lattice

__all__ = [
    "BlockGroups",
    "apply_round",
    "ScheduleRound",
    "SchedulePhase",
    "ComparatorDAG",
    "output_order",
    "pack_rounds",
    "replay",
    "snake_order_nodes",
    "phase_detail",
]

#: one ``(nodes, descending)`` pair per block-sort width: a ``(blocks, width)``
#: int32 node matrix in local snake order and a ``(blocks,)`` bool mask
BlockGroups = tuple[tuple[np.ndarray, np.ndarray], ...]

_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _json_rows(templates: list[str], rows: np.ndarray) -> str:
    """The JSON list of integer ``rows``, row ``k`` formatted by the
    %-template ``templates[k]`` (one C-level pass: several times faster
    than encoding a list of lists)."""
    return "[" + ",".join(templates) % tuple(rows.ravel().tolist()) + "]"


def _frozen(values: Any, dtype: type, ndim: int) -> np.ndarray:
    """``values`` as a read-only C-ordered array (a view: the caller's array stays writable)."""
    arr = np.ascontiguousarray(values, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.view()
        arr.setflags(write=False)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d index array, got shape {arr.shape}")
    return arr


_NO_OPS = _frozen((), np.int32, 1)


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


@dataclass(frozen=True, eq=False)
class ScheduleRound:
    """One synchronous parallel step of the schedule, as index arrays.

    Built from arrays or lists (stored int32 and read-only).  Width groups
    given twice are merged in order and empty ones dropped, so a round holds
    at most one group per width.
    """

    #: position in global execution order
    index: int
    #: index into :attr:`ComparatorDAG.phases`
    phase: int
    #: synchronous rounds this step was charged (>1 when routed)
    charge: int
    #: comparator ``k`` puts the minimum on node ``lo[k]``
    lo: np.ndarray = field(default_factory=lambda: _NO_OPS)
    #: ... and the maximum on node ``hi[k]``
    hi: np.ndarray = field(default_factory=lambda: _NO_OPS)
    #: the block sorts, one ``(nodes, descending)`` group per width
    blocks: BlockGroups = ()
    #: no node is engaged twice: the round has no race
    disjoint: bool = field(init=False)

    def __post_init__(self) -> None:
        lo, hi = _frozen(self.lo, np.int32, 1), _frozen(self.hi, np.int32, 1)
        if lo.shape != hi.shape:
            raise ValueError(f"lo and hi differ in length: {lo.size} vs {hi.size}")
        groups: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        for nodes, descending in self.blocks:
            mat = _frozen(nodes, np.int32, 2)
            if len(mat):
                mask = np.asarray(descending, dtype=bool)
                if mask.shape != mat.shape[:1]:  # one direction for every block
                    mask = np.full(len(mat), mask)
                mask = _frozen(mask, bool, 1)
                groups.setdefault(mat.shape[1], []).append((mat, mask))
        blocks = [
            parts[0] if len(parts) == 1 else (
                _frozen(np.concatenate([m for m, _ in parts]), np.int32, 2),
                _frozen(np.concatenate([d for _, d in parts]), bool, 1),
            )
            for parts in groups.values()
        ]
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "blocks", tuple(blocks))
        touched = self.touched_nodes()
        object.__setattr__(self, "disjoint", np.count_nonzero(np.bincount(touched)) == touched.size)

    @property
    def comparator_count(self) -> int:
        return int(self.lo.size)

    @property
    def block_sort_count(self) -> int:
        return sum(len(nodes) for nodes, _ in self.blocks)

    @property
    def op_count(self) -> int:
        return self.comparator_count + self.block_sort_count

    def touched_nodes(self) -> np.ndarray:
        """Every node the round engages, with multiplicity."""
        return np.concatenate((self.lo, self.hi, *[nodes.ravel() for nodes, _ in self.blocks]))

    def block_sort(self, i: int) -> tuple[np.ndarray, bool]:
        """Block sort ``i`` (numbered across the width groups): its nodes and direction."""
        for nodes, descending in self.blocks:
            if i < len(nodes):
                return nodes[i], bool(descending[i])
            i -= len(nodes)
        raise IndexError("block sort index out of range")

    def without(
        self, comparators: Iterable[int] = (), block_sorts: Iterable[int] = ()
    ) -> "ScheduleRound":
        """The round minus the numbered comparators and block sorts."""
        lo, hi, blocks = self.lo, self.hi, self.blocks
        comparators, block_sorts = list(comparators), list(block_sorts)
        if comparators:
            keep = np.ones(len(lo), dtype=bool)
            keep[comparators] = False
            lo, hi = lo[keep], hi[keep]
        if block_sorts:
            keep = np.ones(self.block_sort_count, dtype=bool)
            keep[block_sorts] = False
            cuts = np.cumsum([0] + [len(nodes) for nodes, _ in blocks]).tolist()
            blocks = tuple(
                (nodes[keep[a:b]], descending[keep[a:b]])
                for (nodes, descending), a, b in zip(blocks, cuts, cuts[1:])
            )
        return ScheduleRound(self.index, self.phase, self.charge, lo, hi, blocks)

    def canonical(self) -> str:
        """The round's canonical JSON: keys sorted, no whitespace, and its
        comparators and block sorts sorted (they are simultaneous)."""
        pairs = blocks = "[]"
        if self.lo.size:
            order = np.lexsort((self.hi, self.lo))
            pairs = _json_rows(["[%d,%d]"] * len(order), np.stack((self.lo, self.hi), 1)[order])
        if len(self.blocks) > 1:  # widths mixed: sort the rows as lists
            blocks = _JSON(sorted(
                (row, d)
                for nodes, descending in self.blocks
                for row, d in zip(nodes.tolist(), descending.tolist())
            ))
        elif self.blocks:
            ((nodes, descending),) = self.blocks
            order = np.lexsort((descending, *nodes.T[::-1]))
            row = "[[" + ",".join(["%d"] * nodes.shape[1]) + "],{}]"
            templates = (row.format("false"), row.format("true"))
            blocks = _json_rows([templates[d] for d in descending[order].tolist()], nodes[order])
        return (
            f'{{"block_sorts":{blocks},"charge":{int(self.charge)},'
            f'"comparators":{pairs},"phase":{int(self.phase)}}}'
        )


@dataclass(frozen=True, eq=False)
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
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # a round's index is not in the canonical form, so a misnumbered DAG
        # would hash like the right one and break the optimizer's lookups
        for i, rd in enumerate(self.rounds):
            if rd.index != i:
                raise ValueError(f"round {i} is numbered {rd.index}: number rounds by position")
            if not 0 <= rd.phase < len(self.phases):
                raise ValueError(
                    f"round {i} names phase {rd.phase}, but the DAG has {len(self.phases)} phases"
                )

    # -- summary ---------------------------------------------------------
    @property
    def comparator_count(self) -> int:
        return sum(rd.comparator_count for rd in self.rounds)

    @property
    def block_sort_count(self) -> int:
        return sum(rd.block_sort_count for rd in self.rounds)

    @property
    def depth(self) -> int:
        """Total charged synchronous rounds (the paper's parallel time)."""
        return sum(rd.charge for rd in self.rounds)

    def phase_rounds(self, phase_index: int) -> list[ScheduleRound]:
        return [rd for rd in self.rounds if rd.phase == phase_index]

    # -- canonical form --------------------------------------------------
    def canonical(self) -> Iterator[str]:
        """The canonical JSON text, chunk by chunk: geometry + the exact schedule.

        Keys sorted, no whitespace; operations within a round are sorted
        (they are simultaneous), round and phase order is preserved (it is
        execution order).  One chunk per round, so a large schedule is
        never serialised whole.
        """
        head = _JSON(
            {
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
            }
        )
        # "rounds" sorts after every other key
        yield head[:-1] + ',"rounds":['
        for i, rd in enumerate(self.rounds):
            yield ("," if i else "") + rd.canonical()
        yield "]}"

    def schedule_hash(self) -> str:
        """SHA-256 over the canonical form — the obliviousness certificate.

        Emitting the schedule and recording a live run of the same configured
        sort must produce the same hash regardless of the key values.
        Memoised per instance: the DAG is immutable.
        """
        if "_schedule_hash" not in self.__dict__:
            digest = hashlib.sha256()
            for chunk in self.canonical():
                digest.update(chunk.encode())
            object.__setattr__(self, "_schedule_hash", digest.hexdigest())
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
        # historical wording: only the one-merge-at-a-time lattice driver
        # named a single sort; the level-batched drivers named them all
        return "merge base (k=2) PG2 sort" if backend == "lattice" else "merge base (k=2) PG2 sorts"
    k = phase.dim
    if leaf == "block-sorts":
        return f"step4 block sorts (k={k})"
    if leaf == "final-block-sorts":
        return f"step4 final block sorts (k={k})"
    if leaf == "transposition":
        return f"step4 transposition parity {phase.parity} (k={k})"
    return leaf


# ----------------------------------------------------------------------
# layering and replay: the DAG's operational semantics
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


def output_order(nodes: np.ndarray, descending: np.ndarray) -> np.ndarray:
    """Each block's nodes in ascending output order: a descending row reversed."""
    return np.where(descending[:, None], nodes[:, ::-1], nodes)


def pack_rounds(
    rounds: Iterable[ScheduleRound], num_nodes: int
) -> list[tuple[np.ndarray, np.ndarray, BlockGroups]]:
    """As-soon-as-possible layering: each op goes one layer past the deepest
    earlier op sharing a node with it.

    Returns the layers in order, each as ``(lo, hi, blocks)`` in the round
    format; ops keep their relative order within a layer, and width groups
    follow the order widths first appear in.  A round with a race is
    layered op by op (comparators first), so an op follows the earlier ops
    of its own round that share a node.
    """
    depth = np.zeros(num_nodes, dtype=np.int64)
    # per layer and width (``None``: the comparators' ``(lo, hi)``): the
    # layer's pieces of that group, in op order
    layers: list[dict[int | None, list[tuple[np.ndarray, np.ndarray]]]] = []

    def place(width: int | None, layer: np.ndarray, *columns: np.ndarray) -> None:
        """File one op group under its layers, in op order."""
        values = sorted(set(layer.tolist()))
        if len(values) == 1:
            parts = [(values[0], columns)]
        else:  # a boolean mask per layer keeps the op order
            masks = [(v, layer == v) for v in values]
            parts = [(v, tuple(column[mask] for column in columns)) for v, mask in masks]
        for value, part in parts:
            while len(layers) < value:
                layers.append({})
            layers[value - 1].setdefault(width, []).append(part)

    for rd in rounds:
        if rd.comparator_count:
            if rd.disjoint:
                # int32 indices cost a conversion on every fancy index: convert once
                lo, hi = rd.lo.astype(np.intp), rd.hi.astype(np.intp)
                layer = np.maximum(depth[lo], depth[hi])
                layer += 1
                depth[lo] = layer
                depth[hi] = layer
            else:
                layer = np.empty(rd.comparator_count, dtype=np.int64)
                for k, (a, b) in enumerate(zip(rd.lo.tolist(), rd.hi.tolist())):
                    layer[k] = depth[a] = depth[b] = max(depth[a], depth[b]) + 1
            place(None, layer, rd.lo, rd.hi)
        for nodes, descending in rd.blocks:
            if rd.disjoint:
                rows = nodes.astype(np.intp)
                layer = np.maximum.reduce(depth[rows], axis=1)  # skips ndarray.max's wrapper
                layer += 1
                depth[rows] = layer[:, None]
            else:
                layer = np.empty(len(nodes), dtype=np.int64)
                for k, row in enumerate(nodes):
                    layer[k] = depth[row] = depth[row].max() + 1
            place(nodes.shape[1], layer, nodes, descending)

    def joined(parts: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
        if len(parts) == 1:
            return parts[0]
        return np.concatenate([a for a, _ in parts]), np.concatenate([b for _, b in parts])

    return [
        (*joined(groups.pop(None, [(_NO_OPS, _NO_OPS)])), tuple(map(joined, groups.values())))
        for groups in layers
    ]


def replay(dag: ComparatorDAG, state: np.ndarray) -> np.ndarray:
    """Apply the schedule to key vectors without touching either backend.

    ``state`` is one key vector of shape ``(num_nodes,)`` or a batch of shape
    ``(S, num_nodes)``, indexed by flat node id.  Returns a fresh array of
    the same shape holding the keys after the full schedule ran.  This is the
    semantics every lint simulates: comparators place min on ``lo``/max on
    ``hi``; block sorts place a block's keys ascending (or descending) along
    the recorded local snake order, one block after another when the round
    has a race.
    """
    arr = np.array(state, copy=True)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2 or arr.shape[1] != dag.num_nodes:
        raise ValueError(f"state must have {dag.num_nodes} keys per row, got {arr.shape}")
    for rd in dag.rounds:
        apply_round(arr, rd)
    return arr[0] if squeeze else arr


def apply_round(arr: np.ndarray, rd: ScheduleRound) -> None:
    """Run one round on a ``(S, num_nodes)`` key batch, in place: the step
    :func:`replay` and the traced interpreters share."""
    if rd.lo.size:
        lo = arr[:, rd.lo]
        hi = arr[:, rd.hi]
        arr[:, rd.lo] = np.minimum(lo, hi)
        arr[:, rd.hi] = np.maximum(lo, hi)
    for nodes, descending in rd.blocks:
        order = output_order(nodes, descending)
        if rd.disjoint:
            arr[:, order] = np.sort(arr[:, nodes], axis=-1)
        else:
            for row in order:
                arr[:, row] = np.sort(arr[:, row], axis=-1)
