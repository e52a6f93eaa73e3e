"""Certified optimization passes over the Schedule IR.

The pipeline rewrites an emitted :class:`ComparatorDAG` into a cheaper but
provably equivalent schedule.  Four passes run in order:

1. **Lemma-1 windows** (:func:`lemma1_windows`) — each lattice clean-up
   (block sorts, two odd-even transpositions between snake-adjacent ``PG_2``
   blocks, block sorts again) becomes two passes of ``2 N**2``-wide sorts
   along each chain of blocks: windows ``(c0, c1), (c2, c3), …`` in the
   block-sorts round, ``(c1, c2), (c3, c4), …`` in the final one.  On 0-1
   inputs Lemma 1 bounds the dirty area after the interleave by ``N**2``,
   so it lies within two adjacent blocks, and one of the two passes sorts
   them.  A window is not a §4 ``PG_2`` operation, so this pass runs only
   when no network asks for a link-legal schedule, and only where the block
   width has no node-major network (:data:`~repro.schedule.compiled.NETWORKS`).
   Its proof is the 0-1 certification of the rewritten DAG: the dead-op
   pass's analysis and the translation validator.
2. **dead-op elimination** (:func:`eliminate_dead_ops`) — the standalone 0-1
   activity analysis (:mod:`repro.schedule.activity`) marks every comparator
   and block sort that never moves a key on any certified 0-1 input; by the
   zero-one principle's threshold argument those operations are inert on
   *every* input, so deleting them preserves the computed function exactly.
   The pass only fires when the analysis also certified sortedness over its
   whole state space.
3. **agglomeration** (:func:`agglomerate_chains`) — comparator chains that
   span one complete ``PG_2`` block inside a single phase are collapsed into
   one block-sort super-op (Schiller's agglomeration law): the
   compiled kernel executes the super-op as one vectorised ``np.sort`` slab
   instead of a round-by-round transposition network.  The replacement's
   orientation is the unique topological order of the chain's ``lo -> hi``
   constraints; components whose restricted 0-1 simulation provably sorts
   are certified locally, the rest (merge networks, which only sort
   *reachable* inputs) defer to the translation validator.
4. **depth re-packing** (:func:`repack_rounds`) — ASAP layer scheduling
   within each phase under a dependency-graph interference check: an op is
   hoisted to the earliest round after the last op sharing a node with it.
   The pass proves itself by checking that every node sees exactly the same
   operation sequence before and after, and it conserves the per-phase
   charge sum, so the paper's depth accounting (``S_r(N)``, Lemma 3) is
   untouched while the physical round/layer count shrinks.

Every pass emits an :class:`OptimizationCertificate`.  A failed certificate
aborts the pipeline; :func:`optimize_schedule` then falls back to the
unoptimized schedule (``fell_back=True``).  Otherwise the pipeline runs
the translation validator
(:func:`repro.staticcheck.validate.validate_translation`), which proves
``optimized == original`` as functions — 0-1 certification of the optimized
DAG, the races/links/depth lints, and an obliviousness replay
cross-check — and likewise falls back when validation fails.

Results are memoised by the original schedule hash and whether a network
was given (see ``optimizer_cache_stats`` under
:func:`repro.schedule.cache_stats`).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from ..observability.cachestats import CacheStats
from ..orders.gray import gray_sequence
from .activity import MAX_EXHAUSTIVE_NODES, MAX_STATES, analyze_zero_one_activity
from .activity import compare_exchange, exhaustive_zero_one_states, unsorted_columns
from .compiled import NETWORKS
from .ir import BlockGroups, ComparatorDAG, ScheduleRound, output_order, pack_rounds

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..graphs.product import ProductGraph
    from ..staticcheck.validate import TranslationValidation

__all__ = [
    "PASS_NAMES",
    "OptimizationCertificate",
    "OptimizationResult",
    "agglomerate_chains",
    "clear_optimizer_cache",
    "eliminate_dead_ops",
    "lemma1_windows",
    "optimize_schedule",
    "repack_rounds",
]

#: the optimization passes, in pipeline order
PASS_NAMES = ("lemma1-windows", "dead-op-elimination", "agglomeration", "depth-repacking")


@dataclass(frozen=True)
class OptimizationCertificate:
    """One pass's self-certification: what it removed and why that is sound."""

    pass_name: str
    ok: bool
    #: one-line summary of the proof obligation this pass discharged (or,
    #: on failure, why it refused to fire)
    evidence: str
    comparators_removed: int = 0
    block_sorts_removed: int = 0
    super_ops_added: int = 0
    rounds_removed: int = 0
    stats: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> dict[str, Any]:
        return {
            "pass": self.pass_name,
            "ok": self.ok,
            "evidence": self.evidence,
            "comparators_removed": self.comparators_removed,
            "block_sorts_removed": self.block_sorts_removed,
            "super_ops_added": self.super_ops_added,
            "rounds_removed": self.rounds_removed,
            "stats": dict(self.stats),
        }

    def describe(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        return (
            f"{self.pass_name}: {verdict} (-{self.comparators_removed} cmp, "
            f"-{self.block_sorts_removed} blk, +{self.super_ops_added} super, "
            f"-{self.rounds_removed} rounds) — {self.evidence}"
        )


#: one optimization pass: the rewritten DAG and its certificate
_Pass = Callable[[ComparatorDAG], tuple[ComparatorDAG, OptimizationCertificate]]


def _rebuild(dag: ComparatorDAG, rounds: list[ScheduleRound], pass_name: str) -> ComparatorDAG:
    """New DAG with the same phases and the given rounds, renumbered, stamping
    the pass into the metadata."""
    meta = dict(dag.meta)
    passes = list(meta.get("optimizer_passes", ()))
    passes.append(pass_name)
    meta["optimizer_passes"] = passes
    return ComparatorDAG(
        backend=dag.backend,
        factor=dag.factor,
        n=dag.n,
        r=dag.r,
        num_nodes=dag.num_nodes,
        phases=dag.phases,
        rounds=tuple(
            rd if rd.index == i else dataclasses.replace(rd, index=i)
            for i, rd in enumerate(rounds)
        ),
        meta=meta,
    )


# ----------------------------------------------------------------------
# pass 1: Lemma-1 windowed clean-up
# ----------------------------------------------------------------------

#: the leaves of one clean-up's phases, in emission order
_CLEANUP_LEAVES = ("block-sorts", "transposition", "transposition", "final-block-sorts")


def _cleanups(dag: ComparatorDAG) -> Iterator[tuple[ScheduleRound, ...]]:
    """Each clean-up's rounds ``(block sorts, transposition, transposition,
    final block sorts)``, where every phase holds one round and both block
    sort rounds are the same one group of ``PG_2`` blocks."""
    by_phase: dict[int, list[ScheduleRound]] = {}
    for rd in dag.rounds:
        by_phase.setdefault(rd.phase, []).append(rd)
    for p in dag.phases:
        group = dag.phases[p.index : p.index + 4]
        if tuple(q.leaf for q in group) != _CLEANUP_LEAVES or any(
            q.path[:-1] != p.path[:-1] for q in group
        ):
            continue
        rounds = [by_phase.get(q.index, []) for q in group]
        if any(len(rds) != 1 for rds in rounds):
            continue
        sorts, t0, t1, final = (rds[0] for rds in rounds)
        if sorts.comparator_count or final.comparator_count or t0.blocks or t1.blocks:
            continue
        if len(sorts.blocks) != 1 or len(final.blocks) != 1:
            continue
        (nodes, descending), (final_nodes, final_descending) = sorts.blocks[0], final.blocks[0]
        if (
            nodes.shape[1] == dag.n * dag.n
            and np.array_equal(nodes, final_nodes)
            and np.array_equal(descending, final_descending)
        ):
            yield sorts, t0, t1, final


def _block_chains(
    sorts: ScheduleRound, transpositions: tuple[ScheduleRound, ...], num_nodes: int
) -> np.ndarray | None:
    """The clean-up's blocks as a ``(chains, blocks)`` matrix of row numbers
    of ``sorts``, each chain ordered lo-block -> hi-block along the
    transposition pairs; ``None`` unless the pairs link the blocks into
    equal-length chains."""
    ((nodes, _),) = sorts.blocks
    owner = np.full(num_nodes, -1, dtype=np.intp)
    owner[nodes] = np.arange(len(nodes))[:, None]
    lo = owner[np.concatenate([rd.lo for rd in transpositions])]
    hi = owner[np.concatenate([rd.hi for rd in transpositions])]
    if (lo < 0).any() or (hi < 0).any() or (lo == hi).any():
        return None
    succ = np.full(len(nodes), -1, dtype=np.intp)
    pred = succ.copy()
    succ[lo], pred[hi] = hi, lo
    # one successor and one predecessor per block
    if not (np.array_equal(succ[lo], hi) and np.array_equal(pred[hi], lo)):
        return None
    chain = [np.flatnonzero(pred < 0)]
    while len(chain) < len(nodes) and (succ[chain[-1]] >= 0).all():
        chain.append(succ[chain[-1]])
    chains = np.stack(chain, axis=1)
    # every block once (a cycle has no head), every chain ending together
    if chains.size != len(nodes) or (succ[chain[-1]] >= 0).any():
        return None
    return chains


def _windows(blocks: np.ndarray, first: int) -> BlockGroups:
    """Block-sort groups over ``(chains, blocks, N**2)`` output-order rows:
    blocks ``first, first + 1`` of each chain as one ascending window, then
    ``first + 2, first + 3`` and so on; pass A (``first == 0``) also sorts
    an odd last block alone."""
    z, width = blocks.shape[1], blocks.shape[2]
    stop = first + (z - first) // 2 * 2
    pairs = np.concatenate((blocks[:, first:stop:2], blocks[:, first + 1 : stop : 2]), axis=-1)
    rows = [pairs.reshape(-1, 2 * width)]
    if first == 0 and z % 2:
        rows.append(blocks[:, -1])
    return tuple((nodes, np.zeros(len(nodes), dtype=bool)) for nodes in rows)


def lemma1_windows(dag: ComparatorDAG) -> tuple[ComparatorDAG, OptimizationCertificate]:
    """Clean each merge in two passes of ``2 N**2``-wide sorts (Lemma 1).

    A clean-up qualifies when its four phases each hold one round, its
    block sorts are one group of ``PG_2`` blocks, and the final block sorts
    repeat them.  Nothing qualifies when the block width has a node-major
    network (:data:`~repro.schedule.compiled.NETWORKS`): the kernel already
    runs those blocks faster than any row-major window sort.  Each chain's
    block order ``c0, c1, …`` comes from its transposition pairs, lo-block
    -> hi-block, never from row order: at ``r >= 4`` a clean-up lists its
    blocks in label order, not snake order.  Pass A replaces the block
    sorts with windows ``(c0, c1), (c2, c3), …`` (an odd last block alone),
    pass B the final block sorts with ``(c1, c2), (c3, c4), …``; each window
    sorts the two blocks' output-order rows ascending.  Each transposition
    phase keeps one empty round with its charge, so the phase structure and
    ``S_r(N)`` are untouched.  Soundness rests on the 0-1 certification of
    the result (Lemma 1 bounds the dirty area by ``N**2``), which the
    dead-op pass and the translation validator redo.
    """
    width = dag.n * dag.n
    rewritten: dict[int, ScheduleRound] = {}
    removed_cmp = removed_blk = windows = cleanups = 0
    candidates = () if width in NETWORKS else _cleanups(dag)
    for sorts, t0, t1, final in candidates:
        chains = _block_chains(sorts, (t0, t1), dag.num_nodes)
        if chains is None:
            continue
        ((nodes, descending),) = sorts.blocks
        blocks = output_order(nodes, descending)[chains]
        for rd, ops in ((sorts, _windows(blocks, 0)), (final, _windows(blocks, 1))):
            rewritten[rd.index] = ScheduleRound(rd.index, rd.phase, rd.charge, blocks=ops)
            windows += sum(len(rows) for rows, _ in ops)
        for rd in (t0, t1):
            rewritten[rd.index] = ScheduleRound(rd.index, rd.phase, rd.charge)
        removed_cmp += t0.comparator_count + t1.comparator_count
        removed_blk += 2 * len(nodes)
        cleanups += 1
    out = dag
    if rewritten:
        out = _rebuild(dag, [rewritten.get(rd.index, rd) for rd in dag.rounds], "lemma1-windows")
    evidence = (
        f"{cleanups} clean-ups rewritten as two passes of 2N^2 windows along their "
        f"transposition chains (Lemma 1: dirty area <= N^2; proved by the 0-1 "
        f"certification of the result)"
        if width not in NETWORKS
        else f"block width {width} runs as a node-major network: clean-ups kept"
    )
    return out, OptimizationCertificate(
        pass_name="lemma1-windows",
        ok=True,
        evidence=evidence,
        comparators_removed=removed_cmp,
        block_sorts_removed=removed_blk,
        super_ops_added=windows,
        stats={"cleanups": cleanups},
    )


# ----------------------------------------------------------------------
# pass 2: dead-op elimination
# ----------------------------------------------------------------------

def eliminate_dead_ops(
    dag: ComparatorDAG,
    max_exhaustive_nodes: int = MAX_EXHAUSTIVE_NODES,
    max_states: int = MAX_STATES,
) -> tuple[ComparatorDAG, OptimizationCertificate]:
    """Delete every operation the 0-1 activity analysis proves inert."""
    analysis = analyze_zero_one_activity(
        dag, max_exhaustive_nodes=max_exhaustive_nodes, max_states=max_states
    )
    if not analysis.certified:
        return dag, OptimizationCertificate(
            pass_name="dead-op-elimination",
            ok=False,
            evidence=f"0-1 activity analysis could not certify the schedule: "
            f"{analysis.reason}",
            stats={"mode": analysis.mode},
        )
    dead_cmp, dead_blk = analysis.dead_comparators, analysis.dead_block_sorts
    dead: dict[int, tuple[list[int], list[int]]] = {}
    for kind, keys in enumerate((dead_cmp, dead_blk)):
        for rd_index, i in keys:
            dead.setdefault(rd_index, ([], []))[kind].append(i)
    rounds = [rd.without(*dead[rd.index]) if rd.index in dead else rd for rd in dag.rounds]
    out = _rebuild(dag, rounds, "dead-op-elimination") if dead else dag
    return out, OptimizationCertificate(
        pass_name="dead-op-elimination",
        ok=True,
        evidence=f"{analysis.mode} 0-1 activity over {analysis.states} states "
        f"certified sorting; removed ops never move a key on any input "
        f"(threshold argument)",
        comparators_removed=len(dead_cmp),
        block_sorts_removed=len(dead_blk),
        stats={"mode": analysis.mode, "states": analysis.states},
    )


# ----------------------------------------------------------------------
# pass 3: agglomeration into n-sorter super-ops
# ----------------------------------------------------------------------

#: one chain comparator: ``(round index, op index, lo, hi)``
_Member = tuple[int, int, int, int]


def _chain_orientation(nodes: list[int], members: list[_Member]) -> list[int] | None:
    """Unique topological order of the chain's ``lo -> hi`` constraints,
    or ``None`` when the constraints don't induce a total order."""
    succ: dict[int, set[int]] = {x: set() for x in nodes}
    indeg: dict[int, int] = {x: 0 for x in nodes}
    for _, _, lo, hi in members:
        if hi not in succ[lo]:
            succ[lo].add(hi)
            indeg[hi] += 1
    order: list[int] = []
    avail = [x for x in nodes if indeg[x] == 0]
    while avail:
        if len(avail) != 1:
            return None
        x = avail.pop()
        order.append(x)
        for y in sorted(succ[x]):
            indeg[y] -= 1
            if indeg[y] == 0:
                avail.append(y)
    return order if len(order) == len(nodes) else None


def _chain_sorts(order: list[int], members: list[_Member]) -> bool:
    """Does the chain, alone, sort every 0-1 input into ``order``?"""
    pos = {x: i for i, x in enumerate(order)}
    states = exhaustive_zero_one_states(len(order))
    for _, _, lo, hi in members:
        compare_exchange(states, pos[lo], pos[hi])
    return not unsorted_columns(states, np.arange(len(order))).any()


def agglomerate_chains(dag: ComparatorDAG) -> tuple[ComparatorDAG, OptimizationCertificate]:
    """Collapse per-phase ``PG_2`` comparator chains into block-sort super-ops.

    A chain qualifies when its comparators are the *only* operations of the
    phase touching its nodes (connected-component closure), it spans at
    least two rounds, its node set is one complete ``PG_2`` block (``n**2``
    nodes varying in exactly two label positions), and the ``lo -> hi``
    constraints order that block along its canonical snake (or the exact
    reverse, giving a descending super-op).  The replacement — one full
    ``np.sort`` over the block — is at least as strong as the chain; chains
    that provably sort all ``2**(n**2)`` 0-1 inputs are certified locally,
    merge chains (which only sort the inputs that can reach them) defer to
    the translation validator.
    """
    n, r = dag.n, dag.r
    labels = np.array(np.unravel_index(np.arange(dag.num_nodes), (n,) * r)).T
    expected_snake2 = gray_sequence(n, 2)
    dropped: dict[int, list[int]] = {}
    added: dict[int, list[tuple[list[int], bool]]] = {}
    removed_cmp = 0
    super_ops = 0
    proved = deferred = 0
    components: list[dict[str, Any]] = []
    for p in dag.phases:
        phase_rounds = dag.phase_rounds(p.index)
        if len(phase_rounds) < 2 or any(rd.blocks for rd in phase_rounds):
            continue
        # union-find over the nodes the phase's comparators touch
        parent: dict[int, int] = {}

        def find(x: int) -> int:
            while parent.setdefault(x, x) != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        members_all: list[_Member] = [
            (rd.index, i, lo, hi)
            for rd in phase_rounds
            for i, (lo, hi) in enumerate(zip(rd.lo.tolist(), rd.hi.tolist()))
        ]
        for _, _, lo, hi in members_all:
            ra, rb = find(lo), find(hi)
            if ra != rb:
                parent[ra] = rb
        chains: dict[int, list[_Member]] = {}
        for member in members_all:
            chains.setdefault(find(member[2]), []).append(member)
        for members in chains.values():
            nodes = sorted({x for _, _, lo, hi in members for x in (lo, hi)})
            spanned = {rd_index for rd_index, _, _, _ in members}
            if len(nodes) != n * n or len(spanned) < 2:
                continue
            labs = labels[nodes]
            varying = np.nonzero(labs.max(axis=0) != labs.min(axis=0))[0]
            if varying.size != 2:
                continue
            order = _chain_orientation(nodes, members)
            if order is None:
                continue
            reduced = [tuple(int(s) for s in labels[x][varying]) for x in order]
            if reduced == expected_snake2:
                block, descending = order, False
            elif reduced == expected_snake2[::-1]:
                block, descending = order[::-1], True
            else:
                continue
            locally_proved = _chain_sorts(order, members)
            proved += locally_proved
            deferred += not locally_proved
            for rd_index, i, _, _ in members:
                dropped.setdefault(rd_index, []).append(i)
            added.setdefault(min(spanned), []).append((block, descending))
            removed_cmp += len(members)
            super_ops += 1
            components.append(
                {
                    "phase": p.index,
                    "nodes": len(nodes),
                    "comparators": len(members),
                    "rounds": len(spanned),
                    "descending": descending,
                    "locally_proved": locally_proved,
                }
            )
    rounds = [
        dataclasses.replace(
            rd.without(dropped[rd.index]),
            blocks=rd.blocks + tuple(([block], [d]) for block, d in added.get(rd.index, ())),
        )
        if rd.index in dropped
        else rd
        for rd in dag.rounds
    ]
    out = _rebuild(dag, rounds, "agglomeration") if super_ops else dag
    return out, OptimizationCertificate(
        pass_name="agglomeration",
        ok=True,
        evidence=f"{super_ops} PG_2 chains collapsed into snake-ordered super-ops "
        f"({proved} proved sorting locally, {deferred} deferred to the "
        f"translation validator)",
        comparators_removed=removed_cmp,
        super_ops_added=super_ops,
        stats={"locally_proved": proved, "deferred": deferred, "components": components},
    )


# ----------------------------------------------------------------------
# pass 4: depth re-packing
# ----------------------------------------------------------------------

def _node_sequences(dag: ComparatorDAG) -> dict[int, list[tuple[Any, ...]]]:
    """Per node, the exact sequence of operations touching it, in execution
    order.  Two DAGs with identical per-node sequences compute the same
    function (every op's operands arrive from the same producers)."""
    seq: dict[int, list[tuple[Any, ...]]] = {}
    for rd in dag.rounds:
        for lo, hi in zip(rd.lo.tolist(), rd.hi.tolist()):
            for x in (lo, hi):
                seq.setdefault(x, []).append(("cmp", lo, hi))
        for nodes, descending in rd.blocks:
            for row, d in zip(nodes.tolist(), descending.tolist()):
                for x in row:
                    seq.setdefault(x, []).append(("blk", row, d))
    return seq


def repack_rounds(dag: ComparatorDAG) -> tuple[ComparatorDAG, OptimizationCertificate]:
    """ASAP layer scheduling within each phase.

    Each operation moves to the earliest round of its phase that is after
    every earlier operation sharing a node with it (the interference check,
    :func:`~repro.schedule.ir.pack_rounds`), so conflicting operations keep
    their relative order and node-disjoint ones merge into one synchronous
    round.  Rounds emptied by earlier passes disappear.  The per-phase
    charge sum is conserved — the last packed round absorbs the freed
    charge — so the paper's depth accounting (phase ``charged_rounds``,
    ``S_r(N)``) is unchanged.
    """
    before = _node_sequences(dag)
    rounds: list[ScheduleRound] = []
    removed = 0
    for p in dag.phases:
        phase_rounds = dag.phase_rounds(p.index)
        if not phase_rounds:
            continue
        charged = sum(rd.charge for rd in phase_rounds)
        # a phase whose every op was optimized away (or that emitted none)
        # keeps one empty round, so it retains its charge
        layers = pack_rounds(phase_rounds, dag.num_nodes) or [((), (), ())]
        removed += len(phase_rounds) - len(layers)
        for li, (lo, hi, blocks) in enumerate(layers):
            charge = 1 if li < len(layers) - 1 else charged - (len(layers) - 1)
            rounds.append(ScheduleRound(len(rounds), p.index, charge, lo, hi, blocks))
    out = _rebuild(dag, rounds, "depth-repacking")

    # self-certification: identical per-node op sequences and conserved
    # per-phase charges prove the re-packing is a pure re-layering
    ok = _node_sequences(out) == before
    charges_ok = all(
        sum(rd.charge for rd in out.phase_rounds(p.index)) == p.charged_rounds
        for p in out.phases
        if dag.phase_rounds(p.index)
    )
    races_ok = all(rd.disjoint for rd in out.rounds)
    if not (ok and charges_ok and races_ok):  # pragma: no cover - defensive
        return dag, OptimizationCertificate(
            pass_name="depth-repacking",
            ok=False,
            evidence="re-packing altered a per-node op sequence, a phase charge "
            "sum, or packed two ops of one node into one round",
        )
    return out, OptimizationCertificate(
        pass_name="depth-repacking",
        ok=True,
        evidence=f"per-node op sequences identical over {len(before)} nodes, "
        f"per-phase charge sums conserved, packed rounds race-free",
        rounds_removed=removed,
        stats={"rounds_before": len(dag.rounds), "rounds_after": len(out.rounds)},
    )


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------

@dataclass
class OptimizationResult:
    """The pipeline's outcome: both DAGs, per-pass certificates, validation."""

    original: ComparatorDAG
    optimized: ComparatorDAG
    certificates: tuple[OptimizationCertificate, ...]
    #: the translation validation; ``None`` only when a pass certificate failed
    validation: "TranslationValidation | None"
    fell_back: bool

    @property
    def ok(self) -> bool:
        if self.fell_back:
            return False
        if self.validation is not None and not self.validation.ok:
            return False
        return all(cert.ok for cert in self.certificates)

    @property
    def original_hash(self) -> str:
        return self.original.schedule_hash()

    @property
    def optimized_hash(self) -> str:
        return self.optimized.schedule_hash()

    @property
    def comparators_removed(self) -> int:
        return self.original.comparator_count - self.optimized.comparator_count

    @property
    def block_sorts_removed(self) -> int:
        """Net change; negative when agglomeration added super-ops."""
        return self.original.block_sort_count - self.optimized.block_sort_count

    @property
    def rounds_removed(self) -> int:
        return len(self.original.rounds) - len(self.optimized.rounds)

    def to_json(self) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "ok": self.ok,
            "fell_back": self.fell_back,
            "original_hash": self.original_hash,
            "optimized_hash": self.optimized_hash,
            "comparators_removed": self.comparators_removed,
            "block_sorts_removed": self.block_sorts_removed,
            "rounds_removed": self.rounds_removed,
            "certificates": [cert.to_json() for cert in self.certificates],
        }
        if self.validation is not None:
            payload["validation"] = self.validation.to_json()
        return payload

    def describe(self) -> str:
        lines = [
            f"optimize {self.original.backend}/{self.original.factor} "
            f"n={self.original.n} r={self.original.r}: "
            f"{'fell back to the unoptimized schedule' if self.fell_back else 'ok'}"
        ]
        for cert in self.certificates:
            lines.append(f"  {cert.describe()}")
        if self.validation is not None:
            lines.append(f"  {self.validation.describe()}")
        return "\n".join(lines)


_RESULTS: dict[tuple[str, bool], OptimizationResult] = {}
_RESULTS_LOCK = threading.Lock()
OPTIMIZER_CACHE_STATS = CacheStats("optimized-schedules", size_fn=lambda: len(_RESULTS))


def clear_optimizer_cache() -> None:
    """Drop every memoised optimization result and reset its statistics."""
    with _RESULTS_LOCK:
        _RESULTS.clear()
    OPTIMIZER_CACHE_STATS.reset()


def optimize_schedule(
    dag: ComparatorDAG,
    network: "ProductGraph | None" = None,
    s2_model_rounds: int | None = None,
    routing_model_rounds: int | None = None,
    seed: int = 0,
) -> OptimizationResult:
    """Run the full pass pipeline with per-pass certificates and fallback.

    ``network`` (optional) asks for a network-legal schedule: the Lemma-1
    windows pass, whose windows are not §4 ``PG_2`` operations, is skipped
    and the validator adds its links lint.  Without one, the pipeline
    optimizes for the compiled kernel, and the validator still proves
    equivalence (0-1 certification + replay) and race/depth legality.
    Results are cached by the original schedule hash and whether a network
    was given.
    """
    key = (dag.schedule_hash(), network is not None)
    with _RESULTS_LOCK:
        cached = _RESULTS.get(key)
    if cached is not None:
        OPTIMIZER_CACHE_STATS.record_hit()
        return cached
    t0 = time.perf_counter()
    result = _optimize_uncached(
        dag,
        network=network,
        s2_model_rounds=s2_model_rounds,
        routing_model_rounds=routing_model_rounds,
        seed=seed,
    )
    OPTIMIZER_CACHE_STATS.record_miss(time.perf_counter() - t0)
    with _RESULTS_LOCK:
        _RESULTS.setdefault(key, result)
    return result


def _optimize_uncached(
    dag: ComparatorDAG,
    network: "ProductGraph | None",
    s2_model_rounds: int | None,
    routing_model_rounds: int | None,
    seed: int,
) -> OptimizationResult:
    certificates: list[OptimizationCertificate] = []
    current = dag
    passes: tuple[_Pass, ...] = (eliminate_dead_ops, agglomerate_chains, repack_rounds)
    if network is None:  # no link-legal schedule asked for: windows may run
        passes = (lemma1_windows, *passes)
    for pass_fn in passes:
        current, cert = pass_fn(current)
        certificates.append(cert)
        if not cert.ok:
            return OptimizationResult(
                original=dag,
                optimized=dag,
                certificates=tuple(certificates),
                validation=None,
                fell_back=True,
            )
    # deferred import: staticcheck depends on repro.schedule at module
    # level, so the reverse edge must stay function-local
    from ..staticcheck.validate import validate_translation

    validation = validate_translation(
        dag,
        current,
        network=network,
        s2_model_rounds=s2_model_rounds,
        routing_model_rounds=routing_model_rounds,
        seed=seed,
    )
    if not validation.ok:
        return OptimizationResult(
            original=dag,
            optimized=dag,
            certificates=tuple(certificates),
            validation=validation,
            fell_back=True,
        )
    return OptimizationResult(
        original=dag,
        optimized=current,
        certificates=tuple(certificates),
        validation=validation,
        fell_back=False,
    )
