"""Conformance of the emitted schedules to the paper's closed forms.

The acceptance bar: every emitted schedule's phases and charges equal
Theorem 1's ``S_r = (r-1)^2 S_2 + (r-1)(r-2) R`` for the whole sort and
Lemma 3's ``M_k = 2(k-2)(S_2+R) + S_2`` for every merge, asserted here for
r in {2, 3, 4} on both backends with :func:`~repro.staticcheck.lints.lint_depth`
(the verdict the benchmark harness records per cell), plus deviation
detection on deliberately edited DAGs.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.complexity import (
    merge_routing_calls,
    merge_s2_calls,
    sort_routing_calls,
    sort_rounds,
    sort_s2_calls,
)
from repro.core.lattice_sort import ProductNetworkSorter
from repro.core.machine_sort import MachineSorter
from repro.graphs import k2, path_graph
from repro.observability.benchreg import _conformance
from repro.schedule import ComparatorDAG
from repro.staticcheck.lints import lint_depth


def _lattice(factor, r):
    sorter = ProductNetworkSorter.for_factor(factor, r)
    return sorter.schedule(), sorter.sorter2d.rounds(factor.n), sorter.routing.rounds(factor.n)


def _machine(factor, r):
    return MachineSorter.for_factor(factor, r).schedule()


def _merges(dag: ComparatorDAG) -> dict[tuple[str, ...], tuple[int, list]]:
    """Every merge instance's dimension and the phases below it."""
    merges: dict[tuple[str, ...], tuple[int, list]] = {}
    for phase in dag.phases:
        for prefix, k in phase.merge_prefixes():
            merges.setdefault(prefix, (k, []))[1].append(phase)
    return merges


def _messages(dag: ComparatorDAG, *models) -> list[str]:
    return [finding.message for finding in lint_depth(dag, *models).findings]


class TestClosedFormsLattice:
    """The lattice backend charges the analytic model exactly — its schedule
    must reproduce Theorem 1 / Lemma 3 to the round, for r in {2, 3, 4}."""

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_theorem1_exact(self, r):
        dag, s2, routing = _lattice(path_graph(3), r)
        result = lint_depth(dag, s2, routing)
        assert result.ok, result.findings
        stats = result.stats
        assert stats["s2_phases"] == sort_s2_calls(r) == (r - 1) ** 2
        assert stats["routing_phases"] == sort_routing_calls(r) == (r - 1) * (r - 2)
        assert stats["vacuous_routing_phases"] == 0
        # the headline: total == (r-1)^2 S2 + (r-1)(r-2) R
        assert dag.depth == stats["depth"] == sort_rounds(r, s2, routing)
        # uniform unit costs, equal to the model's
        assert stats["s2_unit"] == s2
        if r > 2:
            assert stats["routing_unit"] == routing
        verdict = _conformance(dag, s2, routing)
        assert verdict["ok"] and verdict["theorem1_calls_ok"] and verdict["theorem1_rounds_ok"]
        assert verdict["model_total_rounds"] == sort_rounds(r, s2, routing)
        assert verdict["matches_model"] is True

    @pytest.mark.parametrize("r", [3, 4])
    def test_lemma3_every_merge_level(self, r):
        dag, s2, routing = _lattice(path_graph(3), r)
        merges = _merges(dag)
        # every dimension 3..r merges somewhere in the recursion (nested
        # merges of lower dimensions recur, e.g. dim 3 under both the
        # initial recursive sort and the dim-4 merge's columns)
        assert {k for k, _ in merges.values()} == set(range(3, r + 1))
        assert sum(1 for k, _ in merges.values() if k == r) == 1
        for k, phases in merges.values():
            assert sum(p.kind == "s2" for p in phases) == merge_s2_calls(k) == 2 * (k - 2) + 1
            assert sum(p.kind == "routing" for p in phases) == merge_routing_calls(k)
            # Lemma 3: M_k = 2(k-2)(S2+R) + S2
            assert sum(p.charged_rounds for p in phases) == 2 * (k - 2) * (s2 + routing) + s2
        assert lint_depth(dag, s2, routing).stats["merge_instances"] == {
            "/".join(prefix): k for prefix, (k, _) in merges.items()
        }


class TestClosedFormsMachine:
    """Machine backend: measured unit costs, vacuous transpositions charge
    zero — the closed form must still hold at the schedule's own units."""

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_theorem1_at_measured_units(self, r):
        dag = _machine(k2(), r)
        result = lint_depth(dag)
        assert result.ok, result.findings
        stats = result.stats
        assert stats["s2_phases"] == sort_s2_calls(r)
        assert stats["routing_phases"] == sort_routing_calls(r)
        # hypercube: parity-1 transposition of a 2-block merge is vacuous
        assert stats["vacuous_routing_phases"] == max(r - 2, 0)
        live = stats["routing_phases"] - stats["vacuous_routing_phases"]
        assert dag.depth == sort_s2_calls(r) * stats["s2_unit"] + live * (
            stats["routing_unit"] or 0
        )
        # no model supplied: the model cross-check stays open
        verdict = _conformance(dag, None, None)
        assert verdict["theorem1_rounds_ok"] and verdict["predicted_total_rounds"] == dag.depth
        assert verdict["model_total_rounds"] is None and verdict["matches_model"] is None

    @pytest.mark.parametrize("r", [3, 4])
    def test_lemma3_call_structure(self, r):
        dag = _machine(k2(), r)
        stats = lint_depth(dag).stats
        merges = _merges(dag)
        assert {k for k, _ in merges.values()} == set(range(3, r + 1))
        for k, phases in merges.values():
            s2 = [p for p in phases if p.kind == "s2"]
            routing = [p for p in phases if p.kind == "routing"]
            assert len(s2) == merge_s2_calls(k) and len(routing) == merge_routing_calls(k)
            assert sum(p.charged_rounds for p in phases) == len(s2) * stats["s2_unit"] + sum(
                p.charged_rounds for p in routing
            )
            assert {p.charged_rounds for p in routing} <= {0, stats["routing_unit"]}

    def test_non_hypercube_machine_conforms(self):
        result = lint_depth(_machine(path_graph(3), 3))
        assert result.ok, result.findings
        assert result.stats["vacuous_routing_phases"] == 0  # 3 blocks: nothing vacuous


class TestPhaseBreakdown:
    def test_phases_partition_the_rounds(self):
        dag, _, _ = _lattice(path_graph(3), 3)
        assert sum(p.charged_rounds for p in dag.phases) == dag.depth
        for p in dag.phases:
            assert sum(rd.charge for rd in dag.phase_rounds(p.index)) == p.charged_rounds
        transpositions = [p for p in dag.phases if p.leaf == "transposition"]
        assert {p.kind for p in transpositions} == {"routing"}
        assert len(transpositions) == sort_routing_calls(3)

    def test_as_dict_round_trips_json_safe(self):
        dag, s2, routing = _lattice(path_graph(3), 3)
        verdict = json.loads(json.dumps(_conformance(dag, s2, routing)))
        assert verdict["ok"] is True and verdict["deviations"] == []
        stats = json.loads(json.dumps(lint_depth(dag, s2, routing).stats))
        assert stats["s2_phases"] == 4
        assert 3 in stats["merge_instances"].values()


def _edit(dag: ComparatorDAG, phases=None, rounds=None) -> ComparatorDAG:
    """``dag`` with its phases and rounds replaced, both renumbered by position."""
    phases = list(dag.phases if phases is None else phases)
    renumber = {p.index: i for i, p in enumerate(phases)}
    rounds = [rd for rd in (dag.rounds if rounds is None else rounds) if rd.phase in renumber]
    return dataclasses.replace(
        dag,
        phases=tuple(dataclasses.replace(p, index=i) for i, p in enumerate(phases)),
        rounds=tuple(
            dataclasses.replace(rd, index=i, phase=renumber[rd.phase])
            for i, rd in enumerate(rounds)
        ),
    )


class TestDeviationDetection:
    """Edited schedules must be flagged, not silently accepted."""

    def test_missing_s2_span_flags_theorem1(self):
        dag = _machine(k2(), 3)  # r=3 needs 4 S2 + 2 routing phases
        dropped = next(p for p in dag.phases if p.kind == "s2")
        edited = _edit(dag, phases=[p for p in dag.phases if p is not dropped])
        assert any("Theorem 1 requires 4" in m for m in _messages(edited))
        assert _conformance(edited, None, None)["theorem1_calls_ok"] is False

    def test_non_uniform_s2_costs_flagged(self):
        dag = _machine(k2(), 3)
        phase = next(p for p in dag.phases if p.kind == "s2")
        first = dag.phase_rounds(phase.index)[0]
        phases = [
            dataclasses.replace(p, charged_rounds=p.charged_rounds + 2) if p is phase else p
            for p in dag.phases
        ]
        rounds = [
            dataclasses.replace(rd, charge=rd.charge + 2) if rd is first else rd
            for rd in dag.rounds
        ]
        messages = _messages(_edit(dag, phases, rounds))
        assert any("non-uniform S2 unit cost" in m for m in messages)
        assert not any("steps sum to" in m for m in messages)  # charges stay consistent

    def test_closed_form_mismatch_flagged(self):
        dag = _machine(k2(), 2)
        # extra rounds charged to a step, outside its phase's charge
        rounds = [dataclasses.replace(dag.rounds[0], charge=dag.rounds[0].charge + 7)]
        edited = _edit(dag, rounds=rounds + list(dag.rounds[1:]))
        assert edited.depth == dag.depth + 7
        messages = _messages(edited)
        assert any("!= closed form" in m for m in messages)
        assert any("steps sum to" in m for m in messages)
        assert _conformance(edited, None, None)["theorem1_rounds_ok"] is False

    def test_lattice_unit_cost_disagreeing_with_model_flagged(self):
        dag, s2, routing = _lattice(path_graph(3), 2)
        messages = _messages(dag, s2 + 1, routing)
        assert any(f"S2 unit {s2} != model {s2 + 1}" in m for m in messages)
        assert _conformance(dag, s2 + 1, routing)["matches_model"] is False

    def test_lemma3_violation_flagged(self):
        dag = _machine(path_graph(3), 3)
        # hoist one transposition out of its merge: Theorem 1's counts still
        # hold, the merge's Lemma 3 call count does not
        moved = next(p for p in dag.phases if p.kind == "routing")
        phases = [
            dataclasses.replace(p, path=("sort", p.path[-1])) if p is moved else p
            for p in dag.phases
        ]
        messages = _messages(_edit(dag, phases))
        assert any("Lemma 3 requires 2" in m for m in messages)
        assert not any("Theorem 1" in m for m in messages)
