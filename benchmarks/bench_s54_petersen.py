"""E12 — §5.4 (Petersen cube): fixed N = 10, O(r^2) rounds.

"Since the Petersen graph is Hamiltonian [has a Hamiltonian path], its
two-dimensional product contains the 10x10 two-dimensional grid as a
subgraph.  Thus, we can use any grid algorithm for sorting 100 keys ... in
constant time.  Consequently, the r-dimensional product of Petersen graphs
can sort 10^r keys in O(r^2) time."

Checks: the canonical labelling makes PG_2 contain the grid; S_2 is the
(constant, N = 10) Schnorr-Shamir cost; rounds across r follow
(r-1)^2 S_2 + (r-1)(r-2) R exactly — i.e. O(r^2) with the paper's
"not small but not unreasonably large" constant, which we report.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import print_table
from repro.analysis.complexity import sort_rounds
from repro.core.lattice_sort import ProductNetworkSorter
from repro.core.machine_sort import MachineSorter
from repro.graphs import pg2_contains_grid, petersen_graph
from repro.orders import lattice_to_sequence


def _sort(sorter, keys):
    return sorter.sort_sequence(keys)


@pytest.fixture(scope="module")
def petersen():
    return petersen_graph().canonically_labelled()


def test_grid_subgraph_argument(petersen):
    """The §5.4 premise: labels along a Hamiltonian path => PG_2 contains
    the 10 x 10 grid."""
    assert pg2_contains_grid(petersen)
    sorter = ProductNetworkSorter.for_factor(petersen, 2)
    assert sorter.sorter2d.name == "schnorr-shamir"
    s2 = sorter.sorter2d.rounds(10)
    assert s2 == 3 * 10 + 6  # constant: grid sorter at N = 10


@pytest.mark.parametrize("r", [2, 3])
def test_petersen_cube_sorts(benchmark, r, petersen, rng):
    sorter = ProductNetworkSorter.for_factor(petersen, r)
    keys = rng.integers(0, 2**28, size=10**r)
    lattice, ledger = benchmark(_sort, sorter, keys)
    assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
    s2 = sorter.sorter2d.rounds(10)
    routing = sorter.routing.rounds(10)
    assert ledger.total_rounds == sort_rounds(r, s2, routing)


def test_petersen_o_r_squared_table(petersen, rng):
    """Fixed N: the only growth is (r-1)^2 — the §5.4 claim. (r = 4 is
    10,000 nodes of pure prediction; measured up to r = 3.)"""
    sorter2 = ProductNetworkSorter.for_factor(petersen, 2)
    s2 = sorter2.sorter2d.rounds(10)
    routing = sorter2.routing.rounds(10)
    rows = []
    for r in (2, 3, 4, 5):
        predicted = sort_rounds(r, s2, routing)
        measured = "-"
        if r <= 3:
            sorter = ProductNetworkSorter.for_factor(petersen, r)
            keys = rng.integers(0, 2**28, size=10**r)
            _, ledger = sorter.sort_sequence(keys)
            measured = ledger.total_rounds
            assert measured == predicted
        rows.append([r, 10**r, predicted, measured, f"{predicted / (r - 1) ** 2:.1f}"])
    print_table(
        "§5.4 Petersen cube: O(r^2) with constant ~= S2 + R",
        ["r", "keys", "predicted", "measured", "rounds/(r-1)^2"],
        rows,
    )


def test_petersen_fine_grained_pg2(petersen, rng):
    """End-to-end on the fine-grained machine at r = 2: the executable
    shearsort really runs on the Petersen x Petersen topology."""
    ms = MachineSorter.for_factor(petersen, 2)
    keys = rng.integers(0, 2**28, size=100)
    machine, ledger = ms.sort(keys)
    assert np.array_equal(lattice_to_sequence(machine.lattice()), np.sort(keys))
    assert ledger.total_rounds == machine.rounds
