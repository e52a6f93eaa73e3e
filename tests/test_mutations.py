"""Mutation tests: every piece of Step 4 is necessary.

Lemma 2 proves the clean-up works; these tests show nothing in it is
redundant by editing the emitted path-n3-r3 schedule (dropping phases,
making directions ascending, swapping comparator ends), replaying each
sabotaged schedule over a probe set of 0-1 inputs, and asserting each
mutation breaks sorting on some input.  This both validates the paper's
construction (the two transposition steps, the alternating directions and
the final sorts all earn their rounds) and proves the test suite has teeth
(a regression in any step would be caught).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.graphs import path_graph
from repro.schedule import ComparatorDAG, ScheduleRound, emit_lattice_schedule, replay
from repro.schedule.ir import snake_order_nodes


def _schedule() -> ComparatorDAG:
    return emit_lattice_schedule(path_graph(3), 3, 1, 1)


def _edit(dag: ComparatorDAG, fault: str) -> ComparatorDAG:
    """The schedule with one sabotage applied to its Step-4 phases."""
    leaves = {p.index: p.path[-1] for p in dag.phases}
    dropped = {
        "skip_step4": ("block-sorts[d3]", "transposition[d3,p0]", "transposition[d3,p1]",
                       "final-block-sorts[d3]"),
        "skip_first_transposition": ("transposition[d3,p0]",),
        "skip_second_transposition": ("transposition[d3,p1]",),
        "skip_final_sorts": ("final-block-sorts[d3]",),
    }.get(fault, ())
    rounds = []
    for rd in dag.rounds:
        leaf = leaves[rd.phase]
        if leaf in dropped:
            continue
        if fault == "no_alternation" and leaf == "block-sorts[d3]":
            blocks = tuple((nodes, np.zeros(len(nodes), bool)) for nodes, _ in rd.blocks)
            rd = ScheduleRound(rd.index, rd.phase, rd.charge, rd.lo, rd.hi, blocks)
        if fault == "inverted_transpositions" and leaf.startswith("transposition"):
            rd = ScheduleRound(rd.index, rd.phase, rd.charge, rd.hi, rd.lo, rd.blocks)
        rounds.append(rd)
    # a DAG numbers its rounds by position
    rounds = [dataclasses.replace(rd, index=i) for i, rd in enumerate(rounds)]
    return dataclasses.replace(dag, rounds=tuple(rounds))


FAULTS = [
    "skip_step4",
    "skip_first_transposition",
    "skip_second_transposition",
    "no_alternation",
    "skip_final_sorts",
]


def _zero_one_probes(total: int, samples: int = 3000, seed: int = 0) -> np.ndarray:
    """A probe set over the 0-1 cube, one input per row: thresholds, strides
    and random draws (exhausting 2^27 inputs is infeasible; this set
    reliably exposes every known sabotage, as the tests assert)."""
    probes = []
    for z in range(total + 1):  # all threshold patterns, both orientations
        probes.append([0] * z + [1] * (total - z))
        probes.append([1] * (total - z) + [0] * z)
    for stride in (2, 3, 5, 7):
        probes.append([1 if i % stride == 0 else 0 for i in range(total)])
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        probes.append((rng.random(total) < rng.random()).astype(int).tolist())
    return np.array(probes)


def _sorts_every_probe(dag: ComparatorDAG, samples: int = 3000) -> bool:
    probes = _zero_one_probes(dag.num_nodes, samples)
    snake = replay(dag, probes)[:, snake_order_nodes(dag.n, dag.r)]
    return bool(np.array_equal(snake, np.sort(probes, axis=1)))


@pytest.mark.parametrize("fault", FAULTS)
def test_every_fault_breaks_sorting(fault):
    """Each sabotage must fail on some probed 0-1 input of the 3^3 sorter."""
    assert not _sorts_every_probe(_edit(_schedule(), fault)), f"fault {fault!r} went undetected"


def test_unsabotaged_control():
    """The same probe sweep passes for the healthy schedule (control)."""
    assert _sorts_every_probe(_schedule(), samples=500)


def test_transposition_direction_matters():
    """Maxima to the predecessor (inverted min/max) must also fail."""
    assert not _sorts_every_probe(_edit(_schedule(), "inverted_transpositions"), samples=500)
