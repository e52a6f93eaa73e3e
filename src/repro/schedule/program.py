"""Span programs: the one interpreter traced runs walk an emitted DAG with.

A *span program* is a flat list of :class:`SpanInstr`: open and close the
spans of the paper's recursion, run each charged phase of the
:class:`~repro.schedule.ir.ComparatorDAG` inside its span, and mark the
sites where intermediate lattice states are published.  :func:`interpret`
runs one on either network backend; only running a phase differs.  Both
backends' programs come from the phase paths alone, by one tree walk
(:func:`span_program`) given the backend's span attributes
(:func:`lattice_program`, :func:`machine_program`), built on each run
rather than during emission.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .ir import ComparatorDAG, SchedulePhase, phase_detail

__all__ = [
    "SpanInstr",
    "charge_phase",
    "interpret",
    "lattice_program",
    "machine_program",
    "span_program",
    "step4_point",
]


@dataclass(frozen=True)
class SpanInstr:
    """One instruction: ``op`` is ``"open"``, ``"close"`` or ``"point"``.

    ``attrs`` are the span's attributes on ``open`` and those set when it
    ends on ``close``.  ``phase`` indexes the phase list the program was
    built from: that phase runs while the span is open and is charged when
    it closes.  A ``point`` publishes the first ``PG_j`` subgraph (in flat
    node order), ``j = attrs["dim"]``.
    """

    op: str
    name: str
    attrs: dict[str, Any]
    phase: int | None


def charge_phase(
    ledger: Any, phase: SchedulePhase, backend: str, rounds: int | None = None
) -> None:
    """Charge one phase (``rounds`` defaults to its emitted charge) to a ledger."""
    charge = ledger.charge_s2 if phase.kind == "s2" else ledger.charge_routing
    charge(phase.charged_rounds if rounds is None else rounds, detail=phase_detail(phase, backend))


def interpret(
    program: Sequence[SpanInstr],
    phases: Sequence[SchedulePhase],
    tracer: Any,
    ledger: Any,
    backend: str,
    run_phase: Callable[[SchedulePhase], int],
    point: Callable[[SpanInstr], None] | None = None,
) -> None:
    """Run a span program on ``tracer``: ``run_phase(phase)`` runs a phase and
    returns the rounds it took; ``point`` receives the point instructions."""
    stack: list[tuple[Any, int | None]] = []
    for instr in program:
        if instr.op == "open":
            span = tracer.span(instr.name, **instr.attrs)
            span.__enter__()
            stack.append((span, None if instr.phase is None else run_phase(phases[instr.phase])))
        elif instr.op == "close":
            span, rounds = stack.pop()
            span.set(**instr.attrs)
            span.__exit__(None, None, None)
            if instr.phase is not None:
                charge_phase(ledger, phases[instr.phase], backend, rounds)
        elif point is not None:
            point(instr)


def step4_point(phase: SchedulePhase) -> str:
    """The state a top merge publishes after a cleanup phase
    (``merge3_step4_sorted``, ``merge3_step4_transposition0``, ...)."""
    step = {"block-sorts": "sorted", "final-block-sorts": "final"}.get(phase.leaf)
    return f"merge{phase.dim}_step4_" + (step or f"transposition{phase.parity}")


def _entry(element: str) -> tuple[str, int, int | None]:
    """``"transposition[d3,p0]"`` -> ``("transposition", 3, 0)``."""
    name, _, rest = element.partition("[d")
    dim, _, parity = rest.rstrip("]").partition(",p")
    return name, int(dim), int(parity) if parity else None


#: a backend's span attributes: ``(name, base attrs, phase)`` -> the attrs a
#: span opens and closes with; ``phase`` is ``None`` on structural spans,
#: whose base is ``{"dim": k}``, and a charged span's base is its kind, dim
#: and parity
SpanAttrs = Callable[[str, dict[str, Any], "SchedulePhase | None"], tuple[dict, dict]]


def span_program(
    phases: Sequence[SchedulePhase], r: int, attrs: SpanAttrs, points: bool = False
) -> list[SpanInstr]:
    """The span program for ``phases`` of a ``PG_r`` schedule, below the root
    ``sort`` span.

    Path elements become the structural spans, with the free Step-1/Step-3
    spans (``distribute``, ``interleave``) around each ``column-merges``.
    With ``points``, the merge at the top of each round publishes its states
    after Steps 2, 3 and each Step-4 phase; a full sort (``phases`` starting
    with the initial block sorts, not one merge's phases) also publishes
    ``initial_sorted`` and the lattice after each round.
    """
    program: list[SpanInstr] = []
    stack: list[str] = []  # the open path elements below the root

    def emit(op: str, name: str, attrs: dict[str, Any], phase: int | None = None) -> None:
        program.append(SpanInstr(op, name, attrs, phase))

    def free(name: str, dim: int) -> None:
        emit("open", name, {"kind": "free", "dim": dim, "rounds": 0})
        emit("close", name, {})

    def close_to(depth: int) -> None:
        while len(stack) > depth:
            name, dim, _ = _entry(stack.pop())
            emit("close", name, {})
            if name == "column-merges":  # Step 2 done; Step 3 is free
                top = points and len(stack) == 1
                if top:
                    emit("point", f"merge{dim}_after_step2", {"dim": dim})
                free("interleave", dim)
                if top:
                    emit("point", f"merge{dim}_after_step3", {"dim": dim})
            elif (points and name == "merge" and not stack
                  and phases[0].leaf == "initial-block-sorts"):
                emit("point", f"after_merge_round_{dim}", {"dim": r})

    for index, phase in enumerate(phases):
        *parents, leaf = phase.path[1:]
        common = 0
        while common < min(len(stack), len(parents)) and stack[common] == parents[common]:
            common += 1
        close_to(common)
        for element in parents[common:]:
            name, dim, _ = _entry(element)
            if name == "column-merges":  # Step 1 is free
                free("distribute", dim)
            opened, _ = attrs(name, {"dim": dim}, None)
            emit("open", name, opened)
            stack.append(element)

        name, dim, parity = _entry(leaf)
        base: dict[str, Any] = {"kind": phase.kind, "dim": dim}
        if parity is not None:
            base["parity"] = parity
        opened, done = attrs(name, base, phase)
        emit("open", name, opened, index)
        emit("close", name, done, index)
        if not points:
            continue
        if name == "initial-block-sorts":
            emit("point", "initial_sorted", {"dim": r})
        elif len(stack) == 2 and stack[1].startswith("cleanup["):
            emit("point", step4_point(phase), {"dim": dim})
    close_to(0)
    return program


def lattice_program(phases: Sequence[SchedulePhase], n: int, r: int) -> list[SpanInstr]:
    """The lattice backend's span program (:func:`span_program`, with points):
    charged spans close with their modelled rounds, and block sorts with
    the blocks of one subgraph (the merge base reports both on opening)."""

    def attrs(name: str, base: dict[str, Any], phase: SchedulePhase | None):
        if phase is None:
            return base, {}
        done: dict[str, Any] = {"rounds": phase.charged_rounds}
        if name == "merge-base":
            return {**base, **done}, {}
        if phase.parity is None:
            done["blocks"] = n ** ((r if name == "initial-block-sorts" else base["dim"]) - 2)
        return base, done

    return span_program(phases, r, attrs, points=True)


def machine_program(dag: ComparatorDAG) -> list[SpanInstr]:
    """The machine backend's span program (:func:`span_program`, no points),
    read off the lowered rounds: ``merge`` spans carry their ``subgraphs``,
    block sorts close with their rounds, blocks (every ``PG_2`` block of the
    network) and comparisons, and transpositions with their rounds and
    pairs."""
    n, r = dag.n, dag.r
    pairs = [0] * len(dag.phases)
    for rd in dag.rounds:
        pairs[rd.phase] += rd.comparator_count

    def attrs(name: str, base: dict[str, Any], phase: SchedulePhase | None):
        if phase is None:
            return ({**base, "subgraphs": n ** (r - base["dim"])} if name == "merge" else base), {}
        count = pairs[phase.index]
        if phase.kind == "routing":
            return base, {"rounds": phase.charged_rounds, "pairs": count}
        return base, {"rounds": phase.charged_rounds, "blocks": n ** (r - 2), "comparisons": count}

    return span_program(dag.phases, r, attrs)
