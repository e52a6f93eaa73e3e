"""E7 — Theorem 1: S_r(N) = (r-1)^2 S_2(N) + (r-1)(r-2) R(N), measured.

The headline general bound.  Sweeps (factor, r) across §5 families, sorts
random keys, and asserts the ledger reproduces the formula exactly — both
the call structure ((r-1)^2 two-dimensional sorts, (r-1)(r-2) routings) and
the round total.  Also verifies the theorem's closing inequality
S_r < 2 (r-1)^2 S_2 (valid whenever S_2 >= R).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import print_table
from repro.analysis.complexity import sort_rounds, sort_routing_calls, sort_s2_calls
from repro.core.lattice_sort import ProductNetworkSorter
from repro.graphs import cycle_graph, k2, path_graph, petersen_graph
from repro.orders import lattice_to_sequence


def _sort(sorter, keys):
    return sorter.sort_sequence(keys)


CASES = [
    ("grid N=4", lambda: path_graph(4), [2, 3, 4]),
    ("grid N=3", lambda: path_graph(3), [2, 3, 4, 5]),
    ("torus N=5", lambda: cycle_graph(5), [2, 3]),
    ("hypercube", lambda: k2(), [2, 4, 6, 8]),
    ("petersen", lambda: petersen_graph().canonically_labelled(), [2]),
]


@pytest.mark.parametrize(
    "name,factory,rs", CASES, ids=[c[0].replace(" ", "") for c in CASES]
)
def test_theorem1_exact(benchmark, name, factory, rs, rng):
    factor = factory()
    n = factor.n
    rows = []
    # benchmark the largest instance; assert on all
    for r in rs:
        sorter = ProductNetworkSorter.for_factor(factor, r)
        keys = rng.integers(0, 2**28, size=n**r)
        if r == rs[-1]:
            lattice, ledger = benchmark(_sort, sorter, keys)
        else:
            lattice, ledger = sorter.sort_sequence(keys)
        assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
        s2 = sorter.sorter2d.rounds(n)
        routing = sorter.routing.rounds(n)
        assert ledger.s2_calls == sort_s2_calls(r)
        assert ledger.routing_calls == sort_routing_calls(r)
        assert ledger.total_rounds == sort_rounds(r, s2, routing)
        if s2 >= routing and r >= 3:
            assert ledger.total_rounds < 2 * (r - 1) ** 2 * s2
        rows.append([r, n**r, s2, routing, ledger.total_rounds])
    print_table(
        f"Theorem 1 on {name}: measured == (r-1)^2 S2 + (r-1)(r-2) R",
        ["r", "keys", "S2", "R", "rounds"],
        rows,
    )


def test_theorem1_quadratic_growth_in_r(rng):
    """Shape check: at fixed N, rounds grow quadratically in r — the ratio
    S_r / (r-1)^2 approaches S_2 + R from below."""
    factor = k2()
    ratios = []
    for r in range(2, 9):
        sorter = ProductNetworkSorter.for_factor(factor, r)
        keys = rng.integers(0, 2**28, size=2**r)
        _, ledger = sorter.sort_sequence(keys)
        ratios.append(ledger.total_rounds / (r - 1) ** 2)
    assert all(b >= a for a, b in zip(ratios, ratios[1:]))  # monotone up
    assert ratios[-1] <= 3 + 1  # bounded by S_2 + R = 4
