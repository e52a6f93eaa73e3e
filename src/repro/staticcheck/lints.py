"""Static lints over a :class:`~repro.schedule.ir.ComparatorDAG`.

Every lint verifies the *schedule*, not a run of the sorter:

* :func:`lint_races` — synchronous-round race detector: no node may appear
  in two operations of one round (§4's one-compare-per-node-per-round
  machine model, the same invariant ``NetworkMachine`` enforces at runtime);
* :func:`lint_links` — link legality: every comparator pair differs in
  exactly one symbol position (the §4 single-``G``-subgraph routing claim),
  and every block-sort op covers exactly one full dimension-pair ``PG_2``
  subgraph traversed in its canonical snake order;
* :func:`lint_depth` — conformance against the closed forms: ``(r-1)**2``
  ``S_2`` phases and ``(r-1)(r-2)`` routing phases (Theorem 1), per-merge
  call structure ``2(k-2)+1`` / ``2(k-2)`` (Lemma 3), uniform unit costs,
  and the exact total ``S_r(N)``; the benchmark harness's per-cell
  conformance verdict is this lint's;
* :func:`lint_zero_one` — zero-one certification (Lemma 2): simulate the
  schedule over 0-1 inputs and require every output snake-sorted.  Small
  networks are exhausted (all ``2**(N**r)`` inputs); larger ones use a sound
  factorisation: the initial block-sort prefix is verified per ``PG_2``
  block (blocks are node-disjoint, each checked over all ``2**(N**2)``
  inputs), after which a sorted 0-1 block is fully described by its zero
  count, so the remaining schedule is verified over all
  ``(N**2+1)**(#blocks)`` reachable states.  A Lemma-1 dirty-area checkpoint
  at every top-level clean-up entry fails fast: when a state's unsorted
  window already exceeds what the remaining rounds can possibly move
  (sum of per-round maximum snake displacements), the schedule is doomed
  and simulation stops.  The same pass records which operations never moved
  a key on any certified input — provably dead comparators (a comparator
  inert on every 0-1 input is inert on every input, by the zero-one
  principle's threshold argument).

:func:`verify_dag` bundles the lints into one report with an exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..analysis.complexity import (
    merge_routing_calls,
    merge_s2_calls,
    sort_routing_calls,
    sort_rounds,
    sort_s2_calls,
)
from ..graphs.product import ProductGraph
from ..orders.gray import gray_sequence, rank_lattice
from ..schedule.activity import (
    MAX_EXHAUSTIVE_NODES,
    MAX_STATES,
    ActivityTracker,
    apply_zero_one_round,
    unpack,
    unsorted_columns,
    zero_one_space,
)
from ..schedule.ir import ComparatorDAG, ScheduleRound, snake_order_nodes

__all__ = [
    "LintFinding",
    "LintResult",
    "VerificationReport",
    "lint_races",
    "lint_links",
    "lint_depth",
    "lint_zero_one",
    "verify_dag",
    "LINT_NAMES",
]

#: the runnable lints, in canonical order
LINT_NAMES = ("races", "links", "zero-one", "depth")


@dataclass(frozen=True)
class LintFinding:
    """One problem (or advisory note) a lint raised."""

    lint: str
    message: str
    #: advisory findings inform but do not fail the lint
    advisory: bool = False
    phase: int | None = None
    round_index: int | None = None


@dataclass
class LintResult:
    """Outcome of one lint over one DAG."""

    lint: str
    ok: bool
    findings: list[LintFinding] = field(default_factory=list)
    stats: dict[str, Any] = field(default_factory=dict)

    def describe(self) -> str:
        verdict = "ok" if self.ok else "FAIL"
        extra = f" ({len(self.findings)} findings)" if self.findings else ""
        return f"{self.lint}: {verdict}{extra}"


def _fail(result: LintResult, message: str, **kw: Any) -> None:
    result.findings.append(LintFinding(result.lint, message, **kw))
    if not kw.get("advisory", False):
        result.ok = False


# ----------------------------------------------------------------------
# races
# ----------------------------------------------------------------------

def lint_races(dag: ComparatorDAG) -> LintResult:
    """No node appears in two operations of one synchronous round."""
    result = LintResult("races", ok=True)
    worst = 0
    for rd in dag.rounds:
        nodes, counts = np.unique(rd.touched_nodes(), return_counts=True)
        clashes = counts > 1
        worst = max(worst, int(counts[clashes].max(initial=1)))
        for node, c in zip(nodes[clashes].tolist(), counts[clashes].tolist()):
            _fail(
                result,
                f"round {rd.index}: node {node} engaged by {c} operations "
                f"(phase {dag.phases[rd.phase].path[-1]})",
                round_index=rd.index,
                phase=rd.phase,
            )
    result.stats = {"rounds": len(dag.rounds), "max_node_fanin": worst}
    return result


# ----------------------------------------------------------------------
# link legality
# ----------------------------------------------------------------------

def lint_links(dag: ComparatorDAG, network: ProductGraph) -> LintResult:
    """Every operation stays inside a single factor subgraph (§4).

    Comparator pairs must differ in exactly one symbol position; block-sort
    operations must cover one complete two-dimensional ``PG_2`` subgraph in
    its canonical snake order.  Adjacency (pair is a factor edge vs needs
    routing) is reported as a statistic, not an error — §4 explicitly allows
    routed exchanges inside a ``G`` subgraph.
    """
    result = LintResult("links", ok=True)
    n, r = dag.n, dag.r
    labels = np.array([network.label_of(i) for i in range(dag.num_nodes)], dtype=np.int64)
    expected_snake2 = gray_sequence(n, 2)
    edge = np.zeros((n, n), dtype=bool)
    for a, b in network.factor.edges:
        edge[a, b] = edge[b, a] = True
    adjacent = routed = 0
    dims = [np.zeros(0, dtype=np.int64)]
    for rd in dag.rounds:
        la, lb = labels[rd.lo], labels[rd.hi]
        differs = la != lb
        legal = np.flatnonzero(differs.sum(axis=1) == 1)
        for k in np.flatnonzero(differs.sum(axis=1) != 1).tolist():
            _fail(
                result,
                f"round {rd.index}: degenerate self-pair at node {rd.lo[k]}"
                if rd.lo[k] == rd.hi[k]
                else f"round {rd.index}: pair ({tuple(la[k])}, {tuple(lb[k])}) differs in "
                f"{differs[k].sum()} positions — not within a single G subgraph",
                round_index=rd.index,
                phase=rd.phase,
            )
        position = differs[legal].argmax(axis=1)
        dims.append(r - position)
        on_edge = edge[la[legal, position], lb[legal, position]]
        adjacent += int(on_edge.sum())
        routed += int(on_edge.size - on_edge.sum())
        first = 0  # the group's first block-sort number
        for nodes, _ in rd.blocks:
            labs = labels[nodes]  # (blocks, width, r)
            varying = labs.max(axis=1) != labs.min(axis=1)
            spans = varying.sum(axis=1)
            whole = (spans == 2) & (nodes.shape[1] == n * n)
            snake = np.zeros(len(nodes), dtype=bool)
            if whole.any():
                axes = np.nonzero(varying[whole])[1].reshape(-1, 1, 2)
                walk = np.take_along_axis(labs[whole], axes, axis=2)
                snake[whole] = (walk == np.asarray(expected_snake2)).all(axis=(1, 2))
            for bi in np.flatnonzero(~snake).tolist():
                _fail(
                    result,
                    f"round {rd.index}: block sort {first + bi} does not traverse its PG_2 "
                    f"block in canonical snake order"
                    if whole[bi]
                    else f"round {rd.index}: block sort {first + bi} spans {spans[bi]} varying "
                    f"dimensions over {nodes.shape[1]} nodes — not one PG_2 block",
                    round_index=rd.index,
                    phase=rd.phase,
                )
            first += len(nodes)
    seen, counts = np.unique(np.concatenate(dims), return_counts=True)
    result.stats = {
        "comparators": dag.comparator_count,
        "block_sorts": dag.block_sort_count,
        "adjacent_pairs": adjacent,
        "routed_pairs": routed,
        "dimension_pairs": dict(zip(seen.tolist(), counts.tolist())),
    }
    return result


# ----------------------------------------------------------------------
# depth / size conformance
# ----------------------------------------------------------------------

def _is_vacuous(dag: ComparatorDAG, phase_index: int) -> bool:
    """A routing phase with nothing to exchange and no rounds charged
    (odd parity with < 2 blocks) — counts toward call structure, charges 0."""
    phase = dag.phases[phase_index]
    if phase.charged_rounds != 0:
        return False
    return all(rd.op_count == 0 for rd in dag.phase_rounds(phase_index))


def lint_depth(
    dag: ComparatorDAG,
    s2_model_rounds: int | None = None,
    routing_model_rounds: int | None = None,
) -> LintResult:
    """Exact conformance against ``S_r(N)`` (Theorem 1) and ``M_k(N)``
    (Lemma 3), at the DAG's measured unit costs — and, when the models are
    given (lattice backend), at the analytic units too."""
    result = LintResult("depth", ok=True)
    r = dag.r
    s2_phases = [p for p in dag.phases if p.kind == "s2"]
    routing_phases = [p for p in dag.phases if p.kind == "routing"]
    for p in dag.phases:
        if p.kind not in ("s2", "routing"):
            _fail(result, f"phase {p.index} has unknown charge kind {p.kind!r}", phase=p.index)

    # call structure (Theorem 1)
    if len(s2_phases) != sort_s2_calls(r):
        _fail(result, f"{len(s2_phases)} S2 phases, Theorem 1 requires {sort_s2_calls(r)}")
    if len(routing_phases) != sort_routing_calls(r):
        _fail(
            result,
            f"{len(routing_phases)} routing phases, Theorem 1 requires {sort_routing_calls(r)}",
        )

    # internal consistency: phase charge == sum of its rounds' charges
    for p in dag.phases:
        total = sum(rd.charge for rd in dag.phase_rounds(p.index))
        if total != p.charged_rounds:
            _fail(
                result,
                f"phase {p.index} ({'/'.join(p.path[-2:])}) charged {p.charged_rounds} "
                f"rounds but its steps sum to {total}",
                phase=p.index,
            )

    # unit-cost uniformity
    s2_units = sorted({p.charged_rounds for p in s2_phases})
    live_routing = [p for p in routing_phases if not _is_vacuous(dag, p.index)]
    vacuous = len(routing_phases) - len(live_routing)
    routing_units = sorted({p.charged_rounds for p in live_routing})
    if len(s2_units) > 1:
        _fail(result, f"non-uniform S2 unit cost: {s2_units}")
    if len(routing_units) > 1:
        _fail(result, f"non-uniform routing unit cost: {routing_units}")
    s2_unit = s2_units[0] if len(s2_units) == 1 else None
    routing_unit = routing_units[0] if len(routing_units) == 1 else 0

    # closed form at the DAG's own units
    if s2_unit is not None:
        expected = sort_s2_calls(r) * s2_unit + len(live_routing) * routing_unit
        if dag.depth != expected:
            _fail(
                result,
                f"total depth {dag.depth} != closed form "
                f"{sort_s2_calls(r)}*{s2_unit} + {len(live_routing)}*{routing_unit} "
                f"= {expected} (S_r at measured units)",
            )

    # Lemma 3 per merge instance
    merge_groups: dict[tuple[str, ...], tuple[int, list[Any], list[Any]]] = {}
    for p in dag.phases:
        for prefix, k in p.merge_prefixes():
            entry = merge_groups.setdefault(prefix, (k, [], []))
            (entry[1] if p.kind == "s2" else entry[2]).append(p)
    for prefix, (k, s2_in, routing_in) in sorted(merge_groups.items()):
        label = "/".join(prefix)
        if len(s2_in) != merge_s2_calls(k):
            _fail(
                result,
                f"merge {label}: {len(s2_in)} S2 phases, Lemma 3 requires "
                f"{merge_s2_calls(k)}",
            )
        if len(routing_in) != merge_routing_calls(k):
            _fail(
                result,
                f"merge {label}: {len(routing_in)} routing phases, Lemma 3 requires "
                f"{merge_routing_calls(k)}",
            )

    # analytic model conformance (lattice backend)
    if s2_model_rounds is not None and s2_unit is not None and s2_unit != s2_model_rounds:
        _fail(result, f"S2 unit {s2_unit} != model {s2_model_rounds}")
    if routing_model_rounds is not None and live_routing and routing_unit != routing_model_rounds:
        _fail(result, f"routing unit {routing_unit} != model {routing_model_rounds}")
    if s2_model_rounds is not None and routing_model_rounds is not None:
        expected_model = sort_rounds(r, s2_model_rounds, routing_model_rounds)
        # the lattice backend charges vacuous transpositions at the model
        # rate, so the model total counts every routing phase
        model_depth = sort_s2_calls(r) * (s2_unit or 0) + len(routing_phases) * routing_unit
        if dag.depth != expected_model or model_depth != expected_model:
            _fail(
                result,
                f"total depth {dag.depth} != analytic S_r(N) = {expected_model} "
                f"(s2={s2_model_rounds}, routing={routing_model_rounds})",
            )

    result.stats = {
        "s2_phases": len(s2_phases),
        "routing_phases": len(routing_phases),
        "vacuous_routing_phases": vacuous,
        "s2_unit": s2_unit,
        "routing_unit": routing_unit if live_routing else None,
        "depth": dag.depth,
        "merge_instances": {("/".join(k)): v[0] for k, v in merge_groups.items()},
    }
    return result


# ----------------------------------------------------------------------
# zero-one certification
# ----------------------------------------------------------------------

def _round_max_move(rd: ScheduleRound, sranks: np.ndarray) -> int:
    """Furthest snake distance any single key can travel in this round."""
    moves = [np.abs(sranks[rd.lo] - sranks[rd.hi])]
    for nodes, _ in rd.blocks:
        ranks = sranks[nodes]
        moves.append(ranks.max(axis=1) - ranks.min(axis=1))
    return int(np.concatenate(moves).max(initial=0))


def _checkpoint(states: np.ndarray, snake: np.ndarray, budget: int) -> tuple[int, int, int]:
    """Lemma-1 checkpoint over packed ``states``: ``(dirty, doomed, need)``.

    ``dirty`` is the widest snake window from a column's first one to its
    last zero (0 if all are sorted), bisected on the packed rows.  A column
    needs ``max(a, b)`` positions of movement: ``a`` zeros after its first
    one, ``b`` ones before its last zero, ``a + b`` its window.  So only
    ``dirty > budget`` unpacks ``a`` and ``b``, a chunk at a time, to find
    the first column that needs more (``doomed``; -1 if none).
    """
    rows = states[snake]
    ones = np.bitwise_or.accumulate(rows)  # a one at or before the position
    zeros = np.bitwise_or.accumulate(~rows[::-1])[::-1]  # a zero at or after it
    dirty, lo, hi = 0, 2, len(snake)
    while lo <= hi:
        mid = (lo + hi) // 2
        if (ones[: len(snake) - mid + 1] & zeros[mid - 1 :]).any():
            dirty, lo = mid, mid + 1
        else:
            hi = mid - 1
    if dirty <= budget:
        return dirty, -1, 0
    for word in range(0, states.shape[1], 1024):  # 65,536 columns; padding needs 0
        chunk = slice(word, word + 1024)
        a = unpack(ones[:, chunk] & ~rows[:, chunk]).sum(axis=0, dtype=np.int64)
        b = unpack(rows[:, chunk] & zeros[:, chunk]).sum(axis=0, dtype=np.int64)
        need = np.maximum(a, b)
        hits = np.flatnonzero(need > budget)
        if hits.size:
            return dirty, 64 * word + int(hits[0]), int(need[hits[0]])
    return dirty, -1, 0


def lint_zero_one(
    dag: ComparatorDAG,
    max_exhaustive_nodes: int = MAX_EXHAUSTIVE_NODES,
    max_states: int = MAX_STATES,
) -> LintResult:
    """Certify the schedule sorts every 0-1 input (Lemma 2 ⇒ every input)."""
    result = LintResult("zero-one", ok=True)
    n, r = dag.n, dag.r
    sranks = np.asarray(rank_lattice(n, r)).ravel()
    snake = snake_order_nodes(n, r)
    activity = ActivityTracker(list(dag.rounds))

    # Lemma-1 checkpoints: before the first round of every top-level
    # clean-up (merge_depth == 1), i.e. right after Step 3's interleave.
    # The dirty-area *measurement* against N^2 only makes sense at the final
    # merge (dim == r), where the merged region is the whole snake; the
    # movement-budget doom check is sound at every checkpoint.
    checkpoint_rounds: dict[int, bool] = {}
    for p in dag.phases:
        if p.leaf == "block-sorts" and p.merge_depth == 1:
            rds = dag.phase_rounds(p.index)
            if rds:
                checkpoint_rounds[min(rd.index for rd in rds)] = p.dim == r
    moves = [_round_max_move(rd, sranks) for rd in dag.rounds]
    budget_after = np.concatenate([np.cumsum(np.asarray(moves[::-1], dtype=np.int64))[::-1],
                                   [0]])
    lemma1_bound = n * n
    lemma1_max = 0
    early_exit = False

    space = zero_one_space(dag, activity, max_exhaustive_nodes, max_states)
    result.stats["mode"] = space.mode
    if space.prefix_block_states and space.prefix_failure is None:
        result.stats["prefix_block_states"] = space.prefix_block_states
    if space.prefix_failure is not None:
        _fail(result, space.prefix_failure)
    elif space.refusal is not None:
        _fail(result, f"{space.refusal} — {space.refusal_note}", round_index=space.refusal_round)
    else:
        assert space.states is not None
        states = space.states
        result.stats["states"] = space.columns
        for rd in space.rounds:
            if rd.index in checkpoint_rounds:
                budget = int(budget_after[rd.index])
                dirty, col, required = _checkpoint(states, snake, budget)
                if checkpoint_rounds[rd.index]:
                    lemma1_max = max(lemma1_max, dirty)
                if col >= 0:
                    _fail(
                        result,
                        f"0-1 input {space.input_of(col)} is unsortable at round "
                        f"{rd.index}: dirty window needs {required} snake "
                        f"positions of movement, remaining schedule can move at most "
                        f"{budget} (Lemma 1 bound N^2 = "
                        f"{lemma1_bound}; measured dirty area {dirty})",
                        round_index=rd.index,
                    )
                    early_exit = True
                    break
            apply_zero_one_round(states, rd, activity)
        else:
            unsorted = unpack(unsorted_columns(states, snake), space.columns)
            if unsorted.any():
                col = int(np.argmax(unsorted))
                out = unpack(states[snake, col // 64 : col // 64 + 1], 64)[:, col % 64]
                pos = int(np.argmax(out[:-1] > out[1:]))
                _fail(
                    result,
                    f"0-1 input {space.input_of(col)} leaves the snake sequence unsorted "
                    f"at position {pos} (…{out[max(0, pos - 2):pos + 3].tolist()}…)",
                )

    dead_cmp, dead_blk = activity.dead()
    max_listed = 8
    if not early_exit and result.ok:
        for rd_index, op_index in dead_cmp[:max_listed]:
            rd = dag.rounds[rd_index]
            result.findings.append(LintFinding(
                "zero-one",
                f"dead comparator: round {rd_index} op {op_index} "
                f"({rd.lo[op_index]}, {rd.hi[op_index]}) never exchanges on any certified input",
                advisory=True,
                round_index=rd_index,
            ))
        if len(dead_cmp) > max_listed:
            result.findings.append(LintFinding(
                "zero-one",
                f"… and {len(dead_cmp) - max_listed} more dead comparators",
                advisory=True,
            ))
        for rd_index, op_index in dead_blk[:max_listed]:
            nodes, _ = dag.rounds[rd_index].block_sort(op_index)
            result.findings.append(LintFinding(
                "zero-one",
                f"redundant block sort: round {rd_index} op {op_index} "
                f"(nodes {nodes[0]}..{nodes[-1]}, width {len(nodes)}) "
                f"finds its block already in order on every certified input",
                advisory=True,
                round_index=rd_index,
            ))
        if len(dead_blk) > max_listed:
            result.findings.append(LintFinding(
                "zero-one",
                f"… and {len(dead_blk) - max_listed} more redundant block sorts",
                advisory=True,
            ))
    result.stats.update({
        "lemma1_bound": lemma1_bound,
        "lemma1_max_dirty": lemma1_max,
        "early_exit": early_exit,
        "dead_comparators": len(dead_cmp),
        "redundant_block_sorts": len(dead_blk),
    })
    if lemma1_max > lemma1_bound and result.ok:
        _fail(
            result,
            f"dirty area {lemma1_max} at a clean-up entry exceeds Lemma 1's "
            f"N^2 = {lemma1_bound} invariant",
            advisory=True,
        )
    return result


# ----------------------------------------------------------------------
# bundled verification
# ----------------------------------------------------------------------

@dataclass
class VerificationReport:
    """All requested lints over one DAG."""

    dag: ComparatorDAG
    results: dict[str, LintResult]

    @property
    def ok(self) -> bool:
        return all(res.ok for res in self.results.values())

    @property
    def failed_lints(self) -> list[str]:
        return [name for name, res in self.results.items() if not res.ok]

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def describe(self) -> str:
        lines = [self.dag.describe()]
        for name in self.results:
            res = self.results[name]
            lines.append(f"  {res.describe()}")
            for f in res.findings:
                tag = "note" if f.advisory else "FAIL"
                lines.append(f"    [{tag}] {f.message}")
        return "\n".join(lines)


def verify_dag(
    dag: ComparatorDAG,
    network: ProductGraph | None = None,
    lints: tuple[str, ...] = LINT_NAMES,
    s2_model_rounds: int | None = None,
    routing_model_rounds: int | None = None,
    max_exhaustive_nodes: int = MAX_EXHAUSTIVE_NODES,
    max_states: int = MAX_STATES,
) -> VerificationReport:
    """Run the requested lints over one DAG and bundle the outcome."""
    results: dict[str, LintResult] = {}
    for name in lints:
        if name == "races":
            results[name] = lint_races(dag)
        elif name == "links":
            if network is None:
                raise ValueError("the links lint needs the ProductGraph")
            results[name] = lint_links(dag, network)
        elif name == "zero-one":
            results[name] = lint_zero_one(
                dag, max_exhaustive_nodes=max_exhaustive_nodes, max_states=max_states
            )
        elif name == "depth":
            results[name] = lint_depth(
                dag, s2_model_rounds=s2_model_rounds, routing_model_rounds=routing_model_rounds
            )
        else:
            raise ValueError(f"unknown lint {name!r} (expected one of {LINT_NAMES})")
    return VerificationReport(dag=dag, results=results)
