"""Standalone 0-1 activity dataflow analysis over a :class:`ComparatorDAG`.

This is the reusable core behind the zero-one lint's dead-comparator
advisories (see :func:`repro.staticcheck.lints.lint_zero_one`) and the
optimizer's dead-op elimination pass (:mod:`repro.schedule.optimize`): it
simulates the schedule over the complete 0-1 input space and records, per
operation, whether the operation ever moved a key.

The soundness argument is the zero-one principle's threshold projection
(Lemma 2): if a comparator exchanges two keys ``a > b`` on *any* real input,
project the input through the threshold ``t`` with ``b < t <= a``.  Min/max
commute with monotone projections, so the projected 0-1 input reaches the
comparator's round with the same inversion and the comparator exchanges
there too.  Contrapositively, an operation that never moves a key on any
certified 0-1 input is inert on **every** input — deleting it cannot change
the computed function.  The analysis therefore only reports dead sets when
it also certified sortedness over the same state space (``certified``);
an unverifiable schedule yields no dead sets at all.

Two state spaces are supported, mirroring the zero-one lint exactly:

* **exhaustive** — all ``2**num_nodes`` inputs for small networks;
* **factored** — the initial block-sort prefix is simulated per
  node-disjoint ``PG_2`` block over all ``2**(N**2)`` inputs, after which a
  sorted 0-1 block is characterised by its zero count alone, so the suffix
  runs over all ``(N**2+1)**blocks`` reachable states.

:func:`zero_one_space` builds either space for both this analysis and the
zero-one lint, **node-major and packed**: ``(num_nodes, ceil(S/64))`` uint64,
one row per node, column ``j`` in bit ``j % 8`` of byte ``j // 8`` and padding
bits 0, so one AND/OR applies a comparator to 64 inputs.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..baselines.batcher import odd_even_merge_sort_network
from .ir import ComparatorDAG, ScheduleRound, output_order, snake_order_nodes

__all__ = [
    "MAX_EXHAUSTIVE_NODES",
    "MAX_STATES",
    "ActivityTracker",
    "ZeroOneActivity",
    "ZeroOneSpace",
    "analyze_zero_one_activity",
    "apply_zero_one_round",
    "compare_exchange",
    "exhaustive_zero_one_states",
    "pack",
    "unpack",
    "unsorted_columns",
    "zero_one_space",
]

#: the 0-1 certification budgets: exhaustive up to this many nodes, at most this many states
MAX_EXHAUSTIVE_NODES = 16
MAX_STATES = 700_000


class ActivityTracker:
    """Tracks which operations ever moved a key during 0-1 simulation.

    Keys are ``(round_index, op_index)`` pairs, numbering the round's
    comparators and block sorts respectively (see
    :mod:`repro.schedule.ir`); a value of ``True`` means the
    operation exchanged/permuted keys on at least one simulated input.
    Only moves are stored: a refused 0-1 space builds no per-op table.
    """

    __slots__ = ("_rounds", "comparators", "block_sorts")

    def __init__(self, rounds: Iterable[ScheduleRound]) -> None:
        self._rounds = rounds
        self.comparators: defaultdict[tuple[int, int], bool] = defaultdict(bool)
        self.block_sorts: defaultdict[tuple[int, int], bool] = defaultdict(bool)

    def dead(self) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """``(dead_comparators, dead_block_sorts)`` as sorted key lists."""
        rounds = sorted(self._rounds, key=lambda rd: rd.index)
        cmp = [(rd.index, i) for rd in rounds for i in range(rd.comparator_count)]
        blk = [(rd.index, i) for rd in rounds for i in range(rd.block_sort_count)]
        return (
            [key for key in cmp if not self.comparators.get(key)],
            [key for key in blk if not self.block_sorts.get(key)],
        )


def pack(bits: np.ndarray) -> np.ndarray:
    """Pack ``(rows, S)`` 0-1 values into ``(rows, ceil(S/64))`` uint64 rows."""
    octets = np.packbits(bits, axis=-1, bitorder="little")
    return np.pad(octets, ((0, 0), (0, -octets.shape[-1] % 8))).view(np.uint64)


def unpack(states: np.ndarray, columns: int | None = None) -> np.ndarray:
    """The first ``columns`` (default all) 0-1 values, uint8, of each packed row."""
    return np.unpackbits(states.view(np.uint8), axis=-1, count=columns, bitorder="little")


def compare_exchange(states: np.ndarray, lo: int, hi: int) -> bool:
    """Min/max (AND/OR) two packed node rows in place; True if some ``lo`` bit exceeded ``hi``."""
    a, b = states[lo], states[hi]
    moved = a & ~b
    if not moved.any():
        return False
    a ^= moved
    b |= moved
    return True


def _sort_blocks(states: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Sort node-disjoint same-width blocks at once; ``positions[k]`` lists
    block ``k``'s nodes in ascending output order.  Returns which blocks
    changed, that is, were unsorted."""
    changed = unsorted_columns(states, positions.T).any(axis=-1)
    if changed.any():
        # Batcher's odd-even merge sort of AND/OR, minus the comparators that
        # reach a padding wire (it holds the maximum); each freed lo row buffers the next min
        rows = list(states[positions.T])
        spare = np.empty_like(rows[0])
        for stage in odd_even_merge_sort_network(1 << (len(rows) - 1).bit_length()):
            for lo, hi in (pair for pair in stage if pair[1] < len(rows)):
                np.bitwise_and(rows[lo], rows[hi], out=spare)
                np.bitwise_or(rows[lo], rows[hi], out=rows[hi])
                rows[lo], spare = spare, rows[lo]
        for position, row in zip(positions.T, rows):
            states[position] = row
    return changed


def apply_zero_one_round(
    states: np.ndarray,
    rd: ScheduleRound,
    activity: ActivityTracker | None,
    offset: int = 0,
    cmp_filter: set[int] | None = None,
    blk_filter: set[int] | None = None,
) -> None:
    """Apply one round to packed node-major 0-1 states, recording op activity.

    A comparator is an AND/OR of two node rows; a block sort is Batcher's
    odd-even merge network of AND/OR.  When no two of the round's ops share
    a node, all comparators run at once and same-width blocks are sorted
    together; otherwise each op is applied alone, in op order.

    ``offset`` plus the filters support block-local simulation: node indices
    are shifted by ``-offset`` and only the comparator/block-sort positions in
    the respective filter (when given) are applied.
    """
    picked = np.array(
        sorted(range(rd.comparator_count) if cmp_filter is None else cmp_filter), dtype=np.intp
    )
    if picked.size:
        # intp indices: an int32 index costs a conversion on every fancy index
        lo = rd.lo.astype(np.intp)[picked] - offset
        hi = rd.hi.astype(np.intp)[picked] - offset
        if rd.disjoint:
            a, b = states[lo], states[hi]
            states[lo], states[hi] = a & b, a | b
            moved = (a & ~b).any(axis=1)
        else:
            moved = np.array([compare_exchange(states, x, y) for x, y in zip(lo, hi)], dtype=bool)
        for i in picked[moved].tolist() if activity is not None else ():
            activity.comparators[(rd.index, i)] = True
    first = 0  # the group's first block-sort number
    for nodes, descending in rd.blocks:
        rows = np.array(sorted(
            range(len(nodes)) if blk_filter is None
            else (i - first for i in blk_filter if 0 <= i - first < len(nodes))
        ), dtype=np.intp)
        order = output_order(nodes, descending).astype(np.intp)[rows] - offset
        # the group's blocks at once, or each alone in op order (a race)
        parts = [slice(None)] if rd.disjoint else [slice(k, k + 1) for k in range(len(rows))]
        for part in parts if len(rows) else ():
            changed = _sort_blocks(states, order[part])
            for i in (rows[part][changed] + first).tolist() if activity is not None else ():
                activity.block_sorts[(rd.index, i)] = True
        first += len(nodes)


def unsorted_columns(states: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Packed row of the columns of ``states`` not sorted along the node
    ``order`` (a one directly before a zero); a position-major ``order``
    matrix of blocks gives one row per block."""
    pairs = states[order[1:]]
    np.invert(pairs, out=pairs)
    pairs &= states[order[:-1]]
    return np.bitwise_or.reduce(pairs, axis=0)


def exhaustive_zero_one_states(num_nodes: int) -> np.ndarray:
    """All ``2**num_nodes`` 0-1 assignments, packed: row ``k`` holds bit ``k``
    of each column index.  Built from byte patterns, so the layout does not
    depend on the host's byte order."""
    columns = 1 << num_nodes
    octets = np.zeros((num_nodes, -(-columns // 64) * 8), dtype=np.uint8)
    used = octets[:, : max(columns // 8, 1)]
    for k in range(num_nodes):
        if k < 3:
            used[k] = (0xAA, 0xCC, 0xF0)[k]
        else:
            used[k].reshape(-1, 2, 1 << (k - 3))[:, 1] = 0xFF
    used &= (1 << min(columns, 8)) - 1  # padding bits of a sub-byte space
    return octets.view(np.uint64)


@dataclass
class ZeroOneActivity:
    """Outcome of one activity analysis over one DAG."""

    #: ``"exhaustive"`` or ``"factored"`` (``"unverifiable"`` on failure)
    mode: str
    #: number of simulated full-width states (factored: suffix states)
    states: int
    #: the analysis also certified sortedness over its whole state space —
    #: the precondition for the dead sets to be trustworthy
    certified: bool
    #: why certification failed, when it did
    reason: str | None
    tracker: ActivityTracker
    #: extra counters (e.g. per-block prefix states in factored mode)
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def dead_comparators(self) -> list[tuple[int, int]]:
        """Provably inert comparators — empty unless ``certified``."""
        return self.tracker.dead()[0] if self.certified else []

    @property
    def dead_block_sorts(self) -> list[tuple[int, int]]:
        """Provably redundant block sorts — empty unless ``certified``."""
        return self.tracker.dead()[1] if self.certified else []


@dataclass
class ZeroOneSpace:
    """A packed node-major 0-1 state space and the rounds left to simulate.

    ``refusal`` says why no space could be built (the zero-one lint appends
    ``refusal_note``); ``prefix_failure`` names a factored prefix that leaves
    a ``PG_2`` block unsorted.
    """

    mode: str
    num_nodes: int
    rounds: list[ScheduleRound] = field(default_factory=list)
    states: np.ndarray | None = None
    #: ``S``, the number of simulated inputs (the packed rows hold padding)
    columns: int = 0
    #: factored: column ``j`` starts from the per-block zero counts
    #: ``np.unravel_index(j, count_shape)``, laid out along each block's snake
    count_shape: tuple[int, ...] = ()
    block_snake_pos: np.ndarray | None = None
    prefix_block_states: int = 0
    prefix_failure: str | None = None
    refusal: str | None = None
    refusal_note: str = ""
    refusal_round: int | None = None

    def input_of(self, col: int) -> list[int]:
        """The 0-1 state that simulation column ``col`` started from."""
        if self.mode == "exhaustive":
            return _bits(col, self.num_nodes)
        assert self.block_snake_pos is not None
        counts = np.unravel_index(col, self.count_shape)
        return [int(p >= c) for c in counts for p in self.block_snake_pos]


def _bits(col: int, width: int) -> list[int]:
    return [(col >> k) & 1 for k in range(width)]


def zero_one_space(
    dag: ComparatorDAG,
    tracker: ActivityTracker,
    max_exhaustive_nodes: int = MAX_EXHAUSTIVE_NODES,
    max_states: int = MAX_STATES,
) -> ZeroOneSpace:
    """Build the exhaustive or factored 0-1 state space of ``dag``.

    Factored mode simulates the initial block-sort prefix here, per
    node-disjoint ``PG_2`` block over all ``2**(N**2)`` inputs (recording
    activity in ``tracker``), then seeds one column per combination of
    per-block zero counts for the suffix.  A block whose prefix is a single
    ascending sort of the block in local snake order needs no simulation:
    it is recorded live and sorted outright.  The suffix budget and the
    per-block prefix budget (``2**(N**2)`` states) are both checked against
    ``max_states`` before any state is allocated.
    """
    n, r, num_nodes = dag.n, dag.r, dag.num_nodes
    if num_nodes <= max_exhaustive_nodes:
        states = exhaustive_zero_one_states(num_nodes)
        return ZeroOneSpace("exhaustive", num_nodes, list(dag.rounds), states, 1 << num_nodes)
    space = ZeroOneSpace("factored", num_nodes)

    def refuse(reason: str, note: str, round_index: int | None = None) -> ZeroOneSpace:
        space.refusal, space.refusal_note, space.refusal_round = reason, note, round_index
        return space

    if r < 3:
        return refuse(
            f"cannot factor an r={r} schedule and {num_nodes} nodes exceed "
            f"the exhaustive budget",
            "unverifiable",
        )
    prefix = [rd for rd in dag.rounds if dag.phases[rd.phase].leaf == "initial-block-sorts"]
    suffix = [rd for rd in dag.rounds if dag.phases[rd.phase].leaf != "initial-block-sorts"]
    if prefix and suffix and max(rd.index for rd in prefix) > min(rd.index for rd in suffix):
        return refuse(
            "initial block-sort rounds interleave with later phases",
            "cannot factor the 0-1 space",
        )

    # prefix ops must stay inside one block each (blocks are the contiguous
    # flat ranges sharing the label prefix (x_r..x_3))
    bs = n * n
    nblocks = num_nodes // bs
    per_block_ops: list[dict[int, tuple[set[int], set[int]]]] = [{} for _ in range(nblocks)]
    for rd in prefix:
        crossing = np.flatnonzero(rd.lo // bs != rd.hi // bs)
        if crossing.size:
            k = crossing[0]
            return refuse(
                f"prefix round {rd.index}: comparator crosses PG_2 blocks "
                f"({rd.lo[k]}, {rd.hi[k]})",
                "cannot factor",
                rd.index,
            )
        owners = [(nodes // bs).tolist() for nodes, _ in rd.blocks]
        if any(len(set(row)) != 1 for rows in owners for row in rows):
            return refuse(
                f"prefix round {rd.index}: block sort crosses PG_2 blocks",
                "cannot factor",
                rd.index,
            )
        owned = ((rd.lo // bs).tolist(), [row[0] for rows in owners for row in rows])
        for kind, blocks in enumerate(owned):  # comparators, then block sorts
            for i, b in enumerate(blocks):
                per_block_ops[b].setdefault(rd.index, (set(), set()))[kind].add(i)

    # both budgets before any state is allocated: the suffix space (a power when
    # too long to print, like the 16-cube's 5^16384) and a simulated prefix block
    space.prefix_block_states = (1 << bs) * nblocks
    total = (bs + 1) ** nblocks
    if total > max_states:
        return refuse(
            f"suffix state space (N^2+1)^blocks = "
            f"{total if total < 10**18 else f'{bs + 1}^{nblocks}'} exceeds the "
            f"certification budget {max_states}",
            "unverifiable",
        )

    # verify the prefix sorts each block, exhaustively over the block —
    # unless the prefix is one ascending sort of exactly the block's nodes
    # in local snake order (every lattice cell): that sorts the block and
    # moves a key on some 0-1 input, so it is live with no simulation
    snake2 = snake_order_nodes(n, 2)
    rounds_by_index = {rd.index: rd for rd in prefix}
    block_states: np.ndarray | None = None
    for b in range(nblocks):
        if len(per_block_ops[b]) == 1:
            ((index, (cmp_set, blk_set)),) = per_block_ops[b].items()
            if not cmp_set and len(blk_set) == 1:
                (i,) = blk_set
                nodes, descending = rounds_by_index[index].block_sort(i)
                if not descending and np.array_equal(nodes, b * bs + snake2):
                    tracker.block_sorts[(index, i)] = True
                    continue
        if block_states is None:
            if 1 << bs > max_states:
                return refuse(
                    f"prefix state space 2^(N^2) = {1 << bs} per PG_2 block exceeds "
                    f"the certification budget {max_states}",
                    "unverifiable",
                )
            block_states = exhaustive_zero_one_states(bs)
        states = block_states.copy()
        for rd in prefix:
            if rd.index in per_block_ops[b]:
                cmp_set, blk_set = per_block_ops[b][rd.index]
                apply_zero_one_round(states, rd, tracker, b * bs, cmp_set, blk_set)
        unsorted = unpack(unsorted_columns(states, snake2), 1 << bs)
        if unsorted.any():
            space.prefix_failure = (
                f"prefix leaves PG_2 block {b} unsorted for 0-1 input "
                f"{_bits(int(np.argmax(unsorted)), bs)}"
            )
            break

    # suffix: every combination of per-block zero counts
    space.count_shape = (bs + 1,) * nblocks
    space.block_snake_pos = np.empty(bs, dtype=np.int16)
    space.block_snake_pos[snake2] = np.arange(bs)
    counts = np.indices(space.count_shape, dtype=np.min_scalar_type(bs)).reshape(nblocks, -1)
    space.states = np.empty((num_nodes, -(-total // 64)), dtype=np.uint64)
    for b in range(nblocks):
        space.states[b * bs : (b + 1) * bs] = pack(space.block_snake_pos[:, None] >= counts[b])
    space.columns = total
    space.rounds = suffix
    return space


def analyze_zero_one_activity(
    dag: ComparatorDAG,
    max_exhaustive_nodes: int = MAX_EXHAUSTIVE_NODES,
    max_states: int = MAX_STATES,
) -> ZeroOneActivity:
    """Simulate the full 0-1 space, certify sortedness, record op activity."""
    tracker = ActivityTracker(dag.rounds)
    space = zero_one_space(dag, tracker, max_exhaustive_nodes, max_states)
    if space.refusal is not None:
        return ZeroOneActivity(
            mode="unverifiable", states=0, certified=False, reason=space.refusal, tracker=tracker
        )
    assert space.states is not None
    ok = space.prefix_failure is None
    if ok:
        for rd in space.rounds:
            apply_zero_one_round(space.states, rd, tracker)
        ok = not unsorted_columns(space.states, snake_order_nodes(dag.n, dag.r)).any()
    factored = space.mode == "factored"
    unsorted = "a reachable 0-1 state" if factored else "a 0-1 input"
    return ZeroOneActivity(
        mode=space.mode,
        states=space.columns,
        certified=ok,
        reason=None if ok else f"{unsorted} leaves the snake sequence unsorted",
        tracker=tracker,
        stats={"prefix_block_states": space.prefix_block_states} if factored else {},
    )
