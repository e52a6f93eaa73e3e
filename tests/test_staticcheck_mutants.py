"""Tests for the seeded-fault harness: every mutant class must be caught.

The canonical mutant cells are ``path-n3-r3`` on both backends — the
smallest geometry where all four fault classes are semantically live (on
``n = 2`` cells parts of the clean-up are provably redundant, so dropping
them cannot and should not trip a sound semantic lint).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.graphs import k2, path_graph
from repro.staticcheck import (
    MUTANT_CELLS,
    MUTANTS,
    apply_mutant,
    extract_schedule,
    render_mutants,
    run_mutant_harness,
    run_mutants,
)

EXPECTED = {
    "drop_cleanup_sort": "zero-one",
    "skip_transposition": "depth",
    "swap_direction": "zero-one",
    "double_book": "races",
}


def test_mutant_registry_matches_issue_fault_classes():
    assert [m.name for m in MUTANTS] == list(EXPECTED)
    assert {m.name: m.expected_lint for m in MUTANTS} == EXPECTED


@pytest.mark.parametrize("backend", ("lattice", "machine"))
@pytest.mark.parametrize("mutant", list(EXPECTED))
def test_each_mutant_caught_by_its_lint(backend, mutant):
    outcomes = {
        oc.mutant: oc
        for oc in run_mutant_harness(path_graph(3), 3, backend=backend)
    }
    oc = outcomes[mutant]
    assert oc.caught, oc.describe()
    assert oc.expected_lint in oc.failed_lints
    # the mutated schedule's own verification exits 1
    assert oc.report.exit_code == 1


def test_mutants_change_the_schedule_hash():
    base = extract_schedule(path_graph(3), 3, backend="lattice").dag
    hashes = {base.schedule_hash()}
    for mutant in MUTANTS:
        mutated = mutant.apply(base)
        assert mutated.meta["mutant"] == mutant.name
        hashes.add(mutated.schedule_hash())
    # base + 4 distinct mutants
    assert len(hashes) == 5


def test_apply_mutant_by_name_and_unknown():
    base = extract_schedule(path_graph(3), 3, backend="machine").dag
    mutated = apply_mutant(base, "double_book")
    assert mutated.comparator_count == base.comparator_count + 1
    with pytest.raises(ValueError, match="unknown mutant"):
        apply_mutant(base, "nope")


def test_structural_mutants_require_a_merge():
    # r = 2 schedules have no clean-up or transposition to fault
    flat = extract_schedule(k2(), 2, backend="machine").dag
    for name in ("drop_cleanup_sort", "skip_transposition", "swap_direction"):
        with pytest.raises(ValueError, match="r < 3"):
            apply_mutant(flat, name)


def test_drop_cleanup_sort_removes_final_block_sorts():
    base = extract_schedule(path_graph(3), 3, backend="lattice").dag
    mutated = apply_mutant(base, "drop_cleanup_sort")
    assert len(mutated.phases) == len(base.phases) - 1
    assert all(p.leaf != "final-block-sorts" for p in mutated.phases)
    # reindexing keeps phases/rounds consistent
    assert all(rd.phase < len(mutated.phases) for rd in mutated.rounds)
    assert [p.index for p in mutated.phases] == list(range(len(mutated.phases)))


def test_swap_direction_flips_exactly_one_comparator():
    base = extract_schedule(path_graph(3), 3, backend="lattice").dag
    mutated = apply_mutant(base, "swap_direction")
    base_ops = [op for rd in base.rounds for op in zip(rd.lo.tolist(), rd.hi.tolist())]
    mut_ops = [op for rd in mutated.rounds for op in zip(rd.lo.tolist(), rd.hi.tolist())]
    flipped = [(a, b) for a, b in zip(base_ops, mut_ops) if a != b]
    assert len(flipped) == 1
    (orig, swap), = flipped
    assert orig == swap[::-1]


def test_run_mutants_default_cells():
    outcomes = run_mutants()
    assert set(outcomes) == {c.key for c in MUTANT_CELLS}
    assert all(oc.caught for ocs in outcomes.values() for oc in ocs)
    text = render_mutants(outcomes)
    assert "caught 8/8" in text


def test_cli_check_mutants(capsys):
    assert main(["check", "--races", "--cell", "k2-n2-r2-machine", "--mutants"]) == 0
    out = capsys.readouterr().out
    assert "CAUGHT by zero-one" in out
    assert "CAUGHT by depth" in out
    assert "CAUGHT by races" in out
    assert "caught 8/8" in out


def test_cli_check_mutants_json(capsys):
    assert main(["check", "--depth", "--cell", "path-n3-r2-lattice",
                 "--mutants", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    per_cell = payload["mutants"]
    assert set(per_cell) == {c.key for c in MUTANT_CELLS}
    for outcomes in per_cell.values():
        assert len(outcomes) == 4
        for oc in outcomes:
            assert oc["caught"]
            assert oc["verify_exit_code"] == 1
            assert oc["expected_lint"] in oc["failed_lints"]
