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
zero-one lint, **node-major**: ``(num_nodes, S)`` int8 with one contiguous
row per node and one column per input.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .ir import ComparatorDAG, ScheduleRound, snake_order_nodes

__all__ = [
    "ActivityTracker",
    "ZeroOneActivity",
    "ZeroOneSpace",
    "analyze_zero_one_activity",
    "apply_zero_one_round",
    "compare_exchange",
    "count_dtype",
    "exhaustive_zero_one_states",
    "sorted_columns",
    "zero_one_space",
]


class ActivityTracker:
    """Tracks which operations ever moved a key during 0-1 simulation.

    Keys are ``(round_index, op_index)`` pairs into the round's comparator
    and block-sort tuples respectively; a value of ``True`` means the
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
        cmp = [(rd.index, i) for rd in rounds for i in range(len(rd.comparators))]
        blk = [(rd.index, i) for rd in rounds for i in range(len(rd.block_sorts))]
        return (
            [key for key in cmp if not self.comparators.get(key)],
            [key for key in blk if not self.block_sorts.get(key)],
        )


def compare_exchange(states: np.ndarray, lo: int, hi: int) -> bool:
    """Min/max two node rows in place; True if some ``lo`` value exceeded ``hi``."""
    a, b = states[lo], states[hi]
    if not (a > b).any():
        return False
    low = np.minimum(a, b)
    np.maximum(a, b, out=b)
    a[...] = low
    return True


def apply_zero_one_round(
    states: np.ndarray,
    rd: ScheduleRound,
    activity: ActivityTracker | None,
    offset: int = 0,
    cmp_filter: set[int] | None = None,
    blk_filter: set[int] | None = None,
) -> None:
    """Apply one round to node-major 0-1 states, recording op activity.

    A block sort is an ``N**2``-sorter: on 0-1 keys its output depends only
    on the block's count of ones, so each output row is one compare of its
    position against that count.

    ``offset`` plus the filters support block-local simulation: node indices
    are shifted by ``-offset`` and only the comparator/block-sort positions in
    the respective filter (when given) are applied.
    """
    for i, op in enumerate(rd.comparators):
        if cmp_filter is not None and i not in cmp_filter:
            continue
        if compare_exchange(states, op.lo - offset, op.hi - offset) and activity is not None:
            activity.comparators[(rd.index, i)] = True
    for i, blk in enumerate(rd.block_sorts):
        if blk_filter is not None and i not in blk_filter:
            continue
        nodes = np.asarray(blk.nodes, dtype=np.intp) - offset
        block = states[nodes]
        dtype = count_dtype(len(nodes))
        ones = block.sum(axis=0, dtype=dtype)
        # position p of the sorted block holds a one iff p is past the
        # zeros (ascending) or among the leading ones (descending)
        rank = np.arange(len(nodes), dtype=dtype)
        if not blk.descending:
            rank = rank[::-1]
        target = (ones > rank[:, None]).view(np.int8)
        if activity is not None and (block != target).any():
            activity.block_sorts[(rd.index, i)] = True
        states[nodes] = target


def sorted_columns(states: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Which columns of node-major 0-1 ``states`` are sorted along the node
    ``order``, compared row by row: a reordered copy of the whole space
    would double the peak memory."""
    ok = np.ones(states.shape[1], dtype=bool)
    for a, b in zip(order[:-1], order[1:]):
        ok &= states[a] <= states[b]
    return ok


def exhaustive_zero_one_states(num_nodes: int) -> np.ndarray:
    """All ``2**num_nodes`` 0-1 assignments, node-major ``(num_nodes, S)``
    int8: row ``k`` holds bit ``k`` of each column index."""
    states = np.zeros((num_nodes, 1 << num_nodes), dtype=np.int8)
    for k in range(num_nodes):
        states[k].reshape(-1, 2, 1 << k)[:, 1] = 1
    return states


def count_dtype(limit: int) -> type[np.signedinteger]:
    """Signed dtype for counts up to ``limit``: int8 when it fits (fastest sums)."""
    return np.int8 if limit < 128 else np.int64


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
    """A node-major 0-1 state space and the rounds left to simulate on it.

    ``refusal`` says why no space could be built (the zero-one lint appends
    ``refusal_note``); ``prefix_failure`` names a factored prefix that leaves
    a ``PG_2`` block unsorted.
    """

    mode: str
    num_nodes: int
    rounds: list[ScheduleRound] = field(default_factory=list)
    states: np.ndarray | None = None
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
    max_exhaustive_nodes: int = 16,
    max_states: int = 700_000,
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
        return ZeroOneSpace(
            "exhaustive", num_nodes, list(dag.rounds), exhaustive_zero_one_states(num_nodes)
        )
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
        for i, op in enumerate(rd.comparators):
            if op.lo // bs != op.hi // bs:
                return refuse(
                    f"prefix round {rd.index}: comparator crosses PG_2 blocks "
                    f"({op.lo}, {op.hi})",
                    "cannot factor",
                    rd.index,
                )
            per_block_ops[op.lo // bs].setdefault(rd.index, (set(), set()))[0].add(i)
        for i, blk in enumerate(rd.block_sorts):
            owners = {node // bs for node in blk.nodes}
            if len(owners) != 1:
                return refuse(
                    f"prefix round {rd.index}: block sort crosses PG_2 blocks",
                    "cannot factor",
                    rd.index,
                )
            per_block_ops[owners.pop()].setdefault(rd.index, (set(), set()))[1].add(i)

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
                blk = rounds_by_index[index].block_sorts[i]
                if not blk.descending and blk.nodes == tuple((b * bs + snake2).tolist()):
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
        sorted_cols = sorted_columns(states, snake2)
        if not sorted_cols.all():
            space.prefix_failure = (
                f"prefix leaves PG_2 block {b} unsorted for 0-1 input "
                f"{_bits(int(np.argmax(~sorted_cols)), bs)}"
            )
            break

    # suffix: every combination of per-block zero counts
    space.count_shape = (bs + 1,) * nblocks
    space.block_snake_pos = np.empty(bs, dtype=np.int16)
    space.block_snake_pos[snake2] = np.arange(bs)
    counts = np.indices(space.count_shape, dtype=np.int16).reshape(nblocks, -1)
    space.states = np.empty((num_nodes, total), dtype=np.int8)
    for b in range(nblocks):
        space.states[b * bs : (b + 1) * bs] = space.block_snake_pos[:, None] >= counts[b]
    space.rounds = suffix
    return space


def analyze_zero_one_activity(
    dag: ComparatorDAG,
    max_exhaustive_nodes: int = 16,
    max_states: int = 700_000,
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
        ok = bool(sorted_columns(space.states, snake_order_nodes(dag.n, dag.r)).all())
    factored = space.mode == "factored"
    unsorted = "a reachable 0-1 state" if factored else "a 0-1 input"
    return ZeroOneActivity(
        mode=space.mode,
        states=int(space.states.shape[1]),
        certified=ok,
        reason=None if ok else f"{unsorted} leaves the snake sequence unsorted",
        tracker=tracker,
        stats={"prefix_block_states": space.prefix_block_states} if factored else {},
    )
