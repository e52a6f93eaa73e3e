"""E6 — Lemma 3: M_k(N) = 2(k-2)(S_2(N) + R(N)) + S_2(N), measured.

Runs the top-level multiway merge on PG_k for a sweep of (N, k), collects
the ledger, and asserts the measured invoice equals the closed form *call by
call and round by round* — the merge driver pays as it goes, so equality is
a reproduction of the lemma, not an identity.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import print_table
from repro.analysis.complexity import merge_rounds, merge_routing_calls, merge_s2_calls
from repro.core.lattice_sort import ProductNetworkSorter
from repro.graphs import cycle_graph, k2, path_graph
from repro.orders import lattice_to_sequence, sequence_to_lattice


def _sorted_input(n: int, k: int, rng) -> np.ndarray:
    keys = rng.integers(0, 2**20, size=(n, n ** (k - 1)))
    return np.stack([sequence_to_lattice(np.sort(keys[u]), n, k - 1) for u in range(n)])


def _run_merge(sorter, lattice):
    return sorter.merge_sorted_subgraphs(lattice)


CASES = [
    ("grid", lambda n: path_graph(n), 4, 3),
    ("grid", lambda n: path_graph(n), 4, 4),
    ("grid", lambda n: path_graph(n), 3, 5),
    ("torus", lambda n: cycle_graph(n), 5, 3),
    ("hypercube", lambda n: k2(), 2, 6),
]


@pytest.mark.parametrize("name,factory,n,k", CASES, ids=[f"{c[0]}-N{c[2]}-k{c[3]}" for c in CASES])
def test_lemma3_exact(benchmark, name, factory, n, k, rng):
    factor = factory(n)
    sorter = ProductNetworkSorter.for_factor(factor, k)
    lattice = _sorted_input(n, k, rng)
    merged, ledger = benchmark(_run_merge, sorter, lattice)

    assert np.all(np.diff(lattice_to_sequence(merged)) >= 0)
    s2 = sorter.sorter2d.rounds(n)
    routing = sorter.routing.rounds(n)
    assert ledger.s2_calls == merge_s2_calls(k)
    assert ledger.routing_calls == merge_routing_calls(k)
    assert ledger.total_rounds == merge_rounds(k, s2, routing)


def test_lemma3_recurrence_table(rng):
    """M_k grows by exactly 2(S_2 + R) per added dimension — the recurrence
    in the lemma's proof, observed on measured ledgers."""
    n = 3
    factor = path_graph(n)
    rows = []
    prev = None
    for k in range(2, 7):
        sorter = ProductNetworkSorter.for_factor(factor, k)
        lattice = _sorted_input(n, k, rng)
        _, ledger = sorter.merge_sorted_subgraphs(lattice)
        s2 = sorter.sorter2d.rounds(n)
        routing = sorter.routing.rounds(n)
        delta = None if prev is None else ledger.total_rounds - prev
        rows.append([k, ledger.total_rounds, merge_rounds(k, s2, routing), delta])
        if prev is not None:
            assert delta == 2 * (s2 + routing)
        prev = ledger.total_rounds
    print_table(
        f"Lemma 3 on the N={n} grid: M_k and its increments",
        ["k", "measured M_k", "formula", "delta vs M_(k-1)"],
        rows,
    )
