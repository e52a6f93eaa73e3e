"""E10 — §5.2 (mesh-connected trees): O(r^2 N) rounds; O(N) at fixed r.

The MCT is the product of complete binary trees — the paper's flagship
*non-Hamiltonian* factor: Step 4's compare-exchanges need routing, and the
two-dimensional sorter comes from the Corollary's torus emulation.  The
benchmark checks:

* correctness on MCT products (tree factors of heights 1-3);
* the O(r^2 N) claim: rounds / ((r-1)^2 N) bounded across a tree-size sweep;
* the §5.2 optimality discussion's premise — S_2(N) here cannot be below
  O(N) (bisection of the 2-D MCT), and our emulated S_2 is Theta(N).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import print_table
from repro.core.lattice_sort import ProductNetworkSorter
from repro.graphs import complete_binary_tree
from repro.orders import lattice_to_sequence


def _sort(sorter, keys):
    return sorter.sort_sequence(keys)


@pytest.mark.parametrize("height,r", [(1, 3), (2, 2), (2, 3), (3, 2)], ids=lambda v: str(v))
def test_mct_sorts(benchmark, height, r, rng):
    factor = complete_binary_tree(height)
    sorter = ProductNetworkSorter.for_factor(factor, r)
    keys = rng.integers(0, 2**28, size=factor.n**r)
    lattice, ledger = benchmark(_sort, sorter, keys)
    assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
    assert ledger.s2_calls == (r - 1) ** 2


def test_mct_linear_in_n_at_fixed_r(rng):
    """O(N) at fixed r: rounds/N bounded as the tree grows."""
    r = 2
    rows, ratios = [], []
    for height in (1, 2, 3, 4):
        factor = complete_binary_tree(height)
        n = factor.n
        sorter = ProductNetworkSorter.for_factor(factor, r)
        keys = rng.integers(0, 2**28, size=n**r)
        lattice, ledger = sorter.sort_sequence(keys)
        assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
        ratios.append(ledger.total_rounds / n)
        rows.append([height, n, n**r, ledger.total_rounds, f"{ratios[-1]:.1f}"])
    print_table(
        "§5.2 MCT, r=2: rounds grow linearly in N (tree height sweep)",
        ["height", "N", "keys", "rounds", "rounds/N"],
        rows,
    )
    # O(N): the per-N cost is bounded by the Corollary's 18N-ish constant
    assert max(ratios) <= 18 + 6  # 18(r-1)^2 at r=2, plus o() slack

def test_mct_s2_is_linear(rng):
    """§5.2's lower-bound remark: S_2 on the 2-D MCT is Omega(N) by
    bisection; our emulated S_2 is Theta(N) (ratio to N bounded both ways)."""
    rows = []
    for height in (1, 2, 3, 4, 5):
        factor = complete_binary_tree(height)
        sorter = ProductNetworkSorter.for_factor(factor, 2)
        s2 = sorter.sorter2d.rounds(factor.n)
        rows.append([height, factor.n, s2, f"{s2 / factor.n:.2f}"])
        assert factor.n <= s2 <= 25 * factor.n
    print_table("§5.2: emulated S_2(N) on the 2-D MCT", ["height", "N", "S2", "S2/N"], rows)
