"""E13 — §5.5 (products of de Bruijn / shuffle-exchange): O(r^2 log^2 N).

§5.5 sorts the two-dimensional products by emulating the flat N^2-node
de Bruijn (dilation 2, congestion 2) or shuffle-exchange (dilation 4,
congestion 2) graph and running Batcher there: S_2(N) = O(log^2 N), total
O(r^2 log^2 N).  At fixed r this is O(log^2 N) — the same asymptotics as
Batcher on the flat N^r-node graph, the paper's "generality is free" point.

Checks: correctness on both families; S_2 growing as log^2 N (ratio to
lg^2 N constant across a geometric sweep); the r-sweep following Theorem 1;
and the §5.5 comparison — our cost within a constant of Batcher's
lg^2(N^r) on the flat network.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import print_table
from repro.analysis.complexity import sort_rounds
from repro.core.lattice_sort import ProductNetworkSorter
from repro.graphs import de_bruijn_graph, shuffle_exchange_graph
from repro.orders import lattice_to_sequence


def _sort(sorter, keys):
    return sorter.sort_sequence(keys)


@pytest.mark.parametrize(
    "factory,order,r",
    [
        (de_bruijn_graph, 2, 3),
        (de_bruijn_graph, 3, 3),
        (de_bruijn_graph, 4, 2),
        (shuffle_exchange_graph, 3, 2),
        (shuffle_exchange_graph, 3, 3),
    ],
    ids=["db2r3", "db3r3", "db4r2", "se3r2", "se3r3"],
)
def test_debruijn_family_sorts(benchmark, factory, order, r, rng):
    factor = factory(order)
    sorter = ProductNetworkSorter.for_factor(factor, r)
    keys = rng.integers(0, 2**28, size=factor.n**r)
    lattice, ledger = benchmark(_sort, sorter, keys)
    assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
    s2 = sorter.sorter2d.rounds(factor.n)
    routing = sorter.routing.rounds(factor.n)
    assert ledger.total_rounds == sort_rounds(r, s2, routing)


def test_s2_grows_log_squared(rng):
    """S_2(N) / lg^2 N constant across N = 2^2 .. 2^6."""
    rows, ratios = [], []
    for order in (2, 3, 4, 5, 6):
        factor = de_bruijn_graph(order)
        sorter = ProductNetworkSorter.for_factor(factor, 2)
        s2 = sorter.sorter2d.rounds(factor.n)
        lg2 = math.ceil(math.log2(factor.n)) ** 2
        ratios.append(s2 / lg2)
        rows.append([order, factor.n, s2, lg2, f"{ratios[-1]:.1f}"])
    print_table(
        "§5.5: S_2(N) on de Bruijn products vs lg^2 N",
        ["order", "N", "S2", "lg^2 N", "ratio"],
        rows,
    )
    assert max(ratios) == min(ratios)  # exactly c * lg^2 N in our model


def test_vs_flat_batcher_shape(rng):
    """§5.5's closing comparison: at fixed r, our total is within a constant
    of Batcher's lg^2(N^r) stages on the flat N^r-node de Bruijn network."""
    r = 2
    rows = []
    for order in (2, 3, 4, 5):
        factor = de_bruijn_graph(order)
        n = factor.n
        sorter = ProductNetworkSorter.for_factor(factor, r)
        keys = rng.integers(0, 2**28, size=n**r)
        _, ledger = sorter.sort_sequence(keys)
        flat_lg = math.ceil(math.log2(n**r))
        batcher_flat = flat_lg * (flat_lg + 1) // 2  # comparator depth
        ratio = ledger.total_rounds / batcher_flat
        rows.append([order, n, n**r, ledger.total_rounds, batcher_flat, f"{ratio:.1f}"])
    print_table(
        "§5.5: ours on PG_2(de Bruijn) vs Batcher depth on the flat graph",
        ["order", "N", "keys", "ours (rounds)", "batcher depth", "ratio"],
        rows,
    )
    # same asymptotics: the ratio stays bounded as N grows
    ratios = [float(row[-1]) for row in rows]
    assert max(ratios) / min(ratios) < 3
