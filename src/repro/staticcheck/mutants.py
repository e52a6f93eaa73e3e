"""Seeded fault injection: prove the lints have teeth.

Each :class:`Mutant` applies one deliberate fault class to an extracted
:class:`~repro.schedule.ir.ComparatorDAG` and declares which lint must
catch it:

``drop_cleanup_sort``
    Remove the final clean-up block-sort phase of the outermost merge.  The
    two transposition passes leave blocks internally disordered for some 0-1
    input, so **zero-one** certification must fail (it is exactly the step
    Lemma 1's clean-up argument needs).
``skip_transposition``
    Remove one live odd-even transposition phase.  Besides breaking sorting
    for most geometries, this always breaks the Lemma 3 / Theorem 1 call
    structure — the **depth** lint is the reliable detector (on degenerate
    cells the skipped pass may have had nothing to exchange, so zero-one
    alone could legitimately stay green).
``swap_direction``
    Reverse the direction of one live transposition comparator (max now
    lands on the lower-ranked block).  The pair still lies inside one factor
    subgraph and the round structure is untouched, so only **zero-one**
    semantics can expose it.
``double_book``
    Duplicate an existing comparator inside its round.  The pair is
    link-legal and min/max idempotent — semantically invisible — but a node
    now engages two operations in one synchronous round, which the
    **races** lint must reject (one key per node per round, §4).

The classes are chosen to be pairwise distinguishable: each one is invisible
to at least one lint that catches another, so a checker passing the whole
harness demonstrably needs all of its lints.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..graphs.base import FactorGraph
from ..graphs.product import ProductGraph
from ..schedule.ir import ComparatorDAG, SchedulePhase, ScheduleRound
from .extract import emit_schedule
from .lints import LINT_NAMES, VerificationReport, verify_dag

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .validate import TranslationValidation

__all__ = [
    "Mutant",
    "MutantOutcome",
    "MUTANTS",
    "OPTIMIZER_FAULTS",
    "OptimizerFault",
    "OptimizerFaultOutcome",
    "apply_mutant",
    "run_mutant_harness",
    "run_optimizer_fault_harness",
]


@dataclass(frozen=True)
class Mutant:
    """One seeded fault class and the lint that must catch it."""

    name: str
    description: str
    expected_lint: str
    apply: Callable[[ComparatorDAG], ComparatorDAG]


def _rebuild(
    dag: ComparatorDAG,
    phases: list[SchedulePhase],
    rounds: list[ScheduleRound],
    mutant: str,
) -> ComparatorDAG:
    """Reindex phases/rounds and stamp the mutant name into the metadata."""
    phase_map = {p.index: i for i, p in enumerate(phases)}
    new_phases = tuple(
        SchedulePhase(
            index=i,
            path=p.path,
            kind=p.kind,
            dim=p.dim,
            charged_rounds=p.charged_rounds,
        )
        for i, p in enumerate(phases)
    )
    new_rounds = tuple(
        replace(rd, index=i, phase=phase_map[rd.phase]) for i, rd in enumerate(rounds)
    )
    meta = dict(dag.meta)
    meta["mutant"] = mutant
    return ComparatorDAG(
        backend=dag.backend,
        factor=dag.factor,
        n=dag.n,
        r=dag.r,
        num_nodes=dag.num_nodes,
        phases=new_phases,
        rounds=new_rounds,
        meta=meta,
    )


def _live_routing_phases(dag: ComparatorDAG) -> list[SchedulePhase]:
    return [
        p
        for p in dag.phases
        if p.kind == "routing"
        and any(rd.comparator_count for rd in dag.phase_rounds(p.index))
    ]


def _drop_phase(dag: ComparatorDAG, phase: SchedulePhase, mutant: str) -> ComparatorDAG:
    phases = [p for p in dag.phases if p.index != phase.index]
    rounds = [rd for rd in dag.rounds if rd.phase != phase.index]
    return _rebuild(dag, phases, rounds, mutant)


def _mutate_drop_cleanup_sort(dag: ComparatorDAG) -> ComparatorDAG:
    targets = [p for p in dag.phases if p.leaf == "final-block-sorts"]
    if not targets:
        raise ValueError("schedule has no clean-up block sorts to drop (r < 3)")
    return _drop_phase(dag, targets[-1], "drop_cleanup_sort")


def _mutate_skip_transposition(dag: ComparatorDAG) -> ComparatorDAG:
    live = _live_routing_phases(dag)
    if not live:
        raise ValueError("schedule has no live transposition to skip (r < 3)")
    return _drop_phase(dag, live[0], "skip_transposition")


def _mutate_swap_direction(dag: ComparatorDAG) -> ComparatorDAG:
    live = _live_routing_phases(dag)
    if not live:
        raise ValueError("schedule has no transposition comparator to swap (r < 3)")
    target = live[0].index
    rounds = list(dag.rounds)
    for i, rd in enumerate(rounds):
        if rd.phase == target and rd.comparator_count:
            lo, hi = rd.lo.copy(), rd.hi.copy()
            lo[0], hi[0] = rd.hi[0], rd.lo[0]
            rounds[i] = replace(rd, lo=lo, hi=hi)
            break
    return _rebuild(dag, list(dag.phases), rounds, "swap_direction")


def _mutate_double_book(dag: ComparatorDAG) -> ComparatorDAG:
    rounds = list(dag.rounds)
    for i, rd in enumerate(rounds):
        if rd.comparator_count:
            rounds[i] = replace(rd, lo=np.append(rd.lo, rd.lo[0]), hi=np.append(rd.hi, rd.hi[0]))
            return _rebuild(dag, list(dag.phases), rounds, "double_book")
    raise ValueError("schedule has no comparator round to double-book")


#: the four seeded fault classes, in canonical order
MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        "drop_cleanup_sort",
        "remove the outermost merge's final clean-up block-sort phase",
        "zero-one",
        _mutate_drop_cleanup_sort,
    ),
    Mutant(
        "skip_transposition",
        "remove one live odd-even transposition phase",
        "depth",
        _mutate_skip_transposition,
    ),
    Mutant(
        "swap_direction",
        "reverse the direction of one live transposition comparator",
        "zero-one",
        _mutate_swap_direction,
    ),
    Mutant(
        "double_book",
        "duplicate a comparator so a node engages twice in one round",
        "races",
        _mutate_double_book,
    ),
)


def apply_mutant(dag: ComparatorDAG, name: str) -> ComparatorDAG:
    """Apply the named fault class to a DAG."""
    for mutant in MUTANTS:
        if mutant.name == name:
            return mutant.apply(dag)
    raise ValueError(f"unknown mutant {name!r} (expected one of "
                     f"{[m.name for m in MUTANTS]})")


@dataclass
class MutantOutcome:
    """Result of pushing one mutated schedule through the verifier."""

    mutant: str
    expected_lint: str
    failed_lints: list[str]
    report: VerificationReport = field(repr=False)

    @property
    def caught(self) -> bool:
        """The mutation was detected *by the lint that owns its fault class*."""
        return self.expected_lint in self.failed_lints

    def describe(self) -> str:
        if self.caught:
            return (
                f"{self.mutant}: CAUGHT by {self.expected_lint} "
                f"(verify exit 1; all failed lints: {', '.join(self.failed_lints)})"
            )
        return (
            f"{self.mutant}: ESCAPED — expected {self.expected_lint}, "
            f"failed lints: {', '.join(self.failed_lints) or 'none'}"
        )


def run_mutant_harness(
    factor: FactorGraph,
    r: int,
    backend: str = "machine",
    seed: int = 0,
    lints: tuple[str, ...] = LINT_NAMES,
) -> list[MutantOutcome]:
    """Emit the real schedule, seed each fault class, verify each mutant.

    Every outcome carries the full :class:`VerificationReport` of the mutated
    DAG; the harness passes only when all four mutants are caught by their
    corresponding lint.  ``seed`` is kept for CLI stability; emission is
    keyless, so the base DAG never depends on it.
    """
    del seed  # emitted schedules are a function of (G, N, r) alone
    base = emit_schedule(factor, r, backend=backend)
    network = ProductGraph(factor, r)
    outcomes = []
    for mutant in MUTANTS:
        mutated = mutant.apply(base)
        report = verify_dag(mutated, network=network, lints=lints)
        outcomes.append(
            MutantOutcome(
                mutant=mutant.name,
                expected_lint=mutant.expected_lint,
                failed_lints=report.failed_lints,
                report=report,
            )
        )
    return outcomes


# ----------------------------------------------------------------------
# seeded optimizer faults (translation-validation teeth)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizerFault:
    """One deliberately broken "optimization" and the validator check that
    must reject it.

    Unlike :class:`Mutant` (which corrupts an *emitted* schedule to prove
    the lints have teeth), an optimizer fault corrupts the *optimized*
    schedule the real pipeline produced — simulating an unsound optimizer —
    and the translation validator must refuse the translation (exit 1).
    ``apply`` raises :class:`ValueError` on a schedule that has nothing of
    its kind to break.
    """

    name: str
    description: str
    #: the validator check that must fail (see TranslationValidation.checks)
    expected_check: str
    apply: Callable[[ComparatorDAG], ComparatorDAG]


def _fault_delete_live_comparator(dag: ComparatorDAG) -> ComparatorDAG:
    """Drop the schedule's final live operation.

    After dead-op elimination every remaining op moves a key on some 0-1
    input; with nothing downstream to repair the miss, the 0-1 equivalence
    certification must fail.
    """
    rounds = list(dag.rounds)
    for i in range(len(rounds) - 1, -1, -1):
        rd = rounds[i]
        if rd.op_count:
            rounds[i] = (
                rd.without(comparators=[rd.comparator_count - 1])
                if rd.comparator_count
                else rd.without(block_sorts=[rd.block_sort_count - 1])
            )
            return _rebuild(dag, list(dag.phases), rounds, "delete_live_comparator")
    raise ValueError("optimized schedule has no operation to delete")


def _fault_overpack_rounds(dag: ComparatorDAG) -> ComparatorDAG:
    """Pack two dependent rounds into one synchronous round.

    The merged rounds share at least one node, so a node now engages two
    operations in one round — an interference-check violation the
    validator's races lint must reject.
    """
    rounds = list(dag.rounds)
    for i in range(len(rounds) - 1):
        a, b = rounds[i], rounds[i + 1]
        if np.intersect1d(a.touched_nodes(), b.touched_nodes()).size:
            rounds[i] = ScheduleRound(
                a.index, a.phase, a.charge + b.charge,
                np.concatenate([a.lo, b.lo]), np.concatenate([a.hi, b.hi]), a.blocks + b.blocks,
            )
            del rounds[i + 1]
            return _rebuild(dag, list(dag.phases), rounds, "overpack_rounds")
    raise ValueError("optimized schedule has no dependent adjacent rounds to overpack")


def _fault_split_window(dag: ComparatorDAG) -> ComparatorDAG:
    """Split the schedule's last Lemma-1 window back into its two blocks.

    Each block is still sorted, but no key crosses between them any more,
    so a 0-1 input whose dirty area straddles the two blocks stays
    unsorted: the 0-1 equivalence certification must fail.
    """
    width = 2 * dag.n * dag.n
    rounds = list(dag.rounds)
    for i in range(len(rounds) - 1, -1, -1):
        rd = rounds[i]
        first = 0  # the group's first block-sort number
        for nodes, descending in rd.blocks:
            first += len(nodes)
            if nodes.shape[1] == width:
                rest = rd.without(block_sorts=[first - 1])
                halves = (nodes[-1].reshape(2, -1), descending[-1:].repeat(2))
                rounds[i] = replace(rest, blocks=rest.blocks + (halves,))
                return _rebuild(dag, list(dag.phases), rounds, "split_window")
    raise ValueError("optimized schedule has no Lemma-1 window to split")


#: the seeded optimizer fault classes, in canonical order
OPTIMIZER_FAULTS: tuple[OptimizerFault, ...] = (
    OptimizerFault(
        "delete_live_comparator",
        "delete the final live operation from the optimized schedule",
        "zero-one",
        _fault_delete_live_comparator,
    ),
    OptimizerFault(
        "overpack_rounds",
        "pack two dependent rounds into one synchronous round",
        "races",
        _fault_overpack_rounds,
    ),
    OptimizerFault(
        "split_window",
        "split the last Lemma-1 window back into its two blocks",
        "zero-one",
        _fault_split_window,
    ),
)


@dataclass
class OptimizerFaultOutcome:
    """Result of pushing one faulty optimization through the validator."""

    fault: str
    expected_check: str
    failed_checks: list[str]
    validation: "TranslationValidation" = field(repr=False)
    #: which optimized schedule was faulted: ``"network"`` (network-legal,
    #: validated with the links lint) or ``"kernel"`` (what
    #: :func:`~repro.schedule.compile_schedule` serves, validated without one)
    target: str

    @property
    def caught(self) -> bool:
        """Rejected (exit 1) *by the check that owns the fault class*."""
        return self.validation.exit_code == 1 and self.expected_check in self.failed_checks

    def describe(self) -> str:
        if self.caught:
            return (
                f"{self.target} {self.fault}: CAUGHT by {self.expected_check} "
                f"(validator exit 1; all failed checks: "
                f"{', '.join(self.failed_checks)})"
            )
        return (
            f"{self.target} {self.fault}: ESCAPED — expected {self.expected_check}, "
            f"failed checks: {', '.join(self.failed_checks) or 'none'} "
            f"(validator exit {self.validation.exit_code})"
        )


def run_optimizer_fault_harness(
    factor: FactorGraph,
    r: int,
    backend: str = "machine",
    seed: int = 0,
) -> list[OptimizerFaultOutcome]:
    """Optimize the real schedule, seed each fault into the *optimized* DAG,
    and require the translation validator to reject every one.

    Both optimized schedules are faulted: the network-legal one, validated
    with the network, and the compiled kernel's, validated without one as
    :func:`~repro.schedule.compile_schedule` validates it.  A fault with
    nothing to break in a schedule (``split_window`` where no window was
    written) is not run on it.
    """
    from ..schedule.optimize import optimize_schedule
    from .validate import validate_translation

    base = emit_schedule(factor, r, backend=backend)
    network = ProductGraph(factor, r)
    outcomes = []
    for target, net in (("network", network), ("kernel", None)):
        optimized = optimize_schedule(base, network=net, seed=seed).optimized
        for fault in OPTIMIZER_FAULTS:
            try:
                faulty = fault.apply(optimized)
            except ValueError:
                continue
            validation = validate_translation(base, faulty, network=net, seed=seed)
            outcomes.append(
                OptimizerFaultOutcome(
                    fault=fault.name,
                    expected_check=fault.expected_check,
                    failed_checks=validation.failed_checks,
                    validation=validation,
                    target=target,
                )
            )
    return outcomes
