"""E11 — §5.3 (hypercube): 3(r-1)^2 + (r-1)(r-2) rounds, matching Batcher.

The paper's sharpest comparison: on the r-cube its algorithm costs
``3(r-1)^2 + (r-1)(r-2)`` rounds — the same O(r^2) = O(log^2 n) asymptotics
as Batcher's odd-even merge sort (of which it is a generalisation; Batcher's
``r(r+1)/2`` has the smaller constant).  Both algorithms are executed on the
same fine-grained machine and their *measured* rounds tabulated side by
side; the shape assertions pin the quadratic growth and the constant-factor
(not asymptotic) gap.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import print_table
from repro.analysis.complexity import hypercube_sort_rounds
from repro.baselines.batcher import batcher_hypercube_rounds, bitonic_sort_on_hypercube
from repro.core.lattice_sort import ProductNetworkSorter
from repro.core.machine_sort import MachineSorter
from repro.graphs import k2
from repro.orders import lattice_to_sequence


def _machine_sort(ms, keys):
    return ms.sort(keys)


@pytest.mark.parametrize("r", [3, 5, 7])
def test_hypercube_measured_rounds(benchmark, r, rng):
    ms = MachineSorter.for_factor(k2(), r)
    keys = rng.integers(0, 2**28, size=2**r)
    machine, ledger = benchmark(_machine_sort, ms, keys)
    assert np.array_equal(lattice_to_sequence(machine.lattice()), np.sort(keys))
    paper = hypercube_sort_rounds(r)
    # measured = paper - (r-2): the N=2 second block transposition is vacuous
    assert ledger.total_rounds == paper - max(0, r - 2)


def test_hypercube_vs_batcher_table(rng):
    """The §5.3 comparison: ours vs Batcher, measured on the same machine."""
    rows = []
    for r in range(2, 9):
        keys = rng.integers(0, 2**28, size=2**r)
        _, ledger = MachineSorter.for_factor(k2(), r).sort(keys)
        sorted_keys, batcher_rounds = bitonic_sort_on_hypercube(keys)
        assert np.array_equal(sorted_keys, np.sort(keys))
        ours = ledger.total_rounds
        paper = hypercube_sort_rounds(r)
        rows.append(
            [r, 2**r, paper, ours, batcher_rounds, f"{ours / batcher_rounds:.2f}"]
        )
        # both quadratic; Batcher's constant smaller; the ratio approaches
        # ((S2+R)(r-1)^2) / (r(r+1)/2) -> 8 from below
        assert batcher_rounds == batcher_hypercube_rounds(r)
        assert ours >= batcher_rounds
        assert ours <= 8 * batcher_rounds
    print_table(
        "§5.3: our sort vs Batcher bitonic on the r-cube (measured rounds)",
        ["r", "keys", "paper 3(r-1)^2+(r-1)(r-2)", "ours", "batcher r(r+1)/2", "ratio"],
        rows,
    )


def test_hypercube_quadratic_shape(rng):
    """O(r^2): second differences of the round counts are constant-ish."""
    totals = []
    for r in range(2, 10):
        sorter = ProductNetworkSorter.for_factor(k2(), r)
        keys = rng.integers(0, 2**28, size=2**r)
        _, ledger = sorter.sort_sequence(keys)
        totals.append(ledger.total_rounds)
    second_diffs = {
        totals[i + 2] - 2 * totals[i + 1] + totals[i] for i in range(len(totals) - 2)
    }
    assert second_diffs == {8}  # exactly quadratic: 2*(S2+R) = 2*(3+1)
