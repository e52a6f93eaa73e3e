"""E8 — the Corollary: ANY connected factor sorts in <= 18(r-1)^2 N + o(r^2 N).

The paper's universality headline.  Draws random connected factor graphs,
builds their products, sorts with the torus-emulation cost model the
Corollary prescribes, and asserts:

* the sort is correct on every sampled topology (the zero-knowledge
  portability claim — nothing about the factor is assumed beyond
  connectivity);
* the measured rounds respect ``18(r-1)^2 N`` plus the concrete ``o(r^2 N)``
  slack of the implementation's sublinear terms;
* the emulation certificates stay within dilation 3 (Sekanina) so the
  constant-slowdown argument actually applies.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import print_table
from repro.analysis.complexity import corollary_bound
from repro.core.lattice_sort import ProductNetworkSorter
from repro.graphs import (
    complete_binary_tree,
    random_connected_graph,
    star_graph,
    torus_emulation_certificate,
)
from repro.orders import lattice_to_sequence
from repro.sorters2d.analytic import sublinear_term


def _slack(n: int, r: int) -> int:
    """Concrete o(r^2 N) of our accounting: emulated sublinear terms plus
    the measured-routing contribution."""
    return 6 * (r - 1) ** 2 * sublinear_term(n) + (r - 1) * (r - 2) * n


def _sort(sorter, keys):
    return sorter.sort_sequence(keys)


def test_corollary_random_factors(benchmark, rng):
    rows = []
    sorter_for_bench = None
    keys_for_bench = None
    for seed in range(8):
        factor = random_connected_graph(6, extra_edge_prob=0.15, seed=seed)
        cert = torus_emulation_certificate(factor)
        assert cert.embedding.dilation <= 3
        r = 3
        sorter = ProductNetworkSorter.for_factor(factor, r)
        keys = rng.integers(0, 2**28, size=factor.n**r)
        lattice, ledger = sorter.sort_sequence(keys)
        assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
        bound = corollary_bound(factor.n, r) + _slack(factor.n, r)
        assert ledger.total_rounds <= bound
        rows.append(
            [factor.name, cert.embedding.dilation, cert.slowdown, ledger.total_rounds, bound]
        )
        sorter_for_bench, keys_for_bench = sorter, keys
    print_table(
        "Corollary: random connected factors, r=3",
        ["factor", "dilation", "slowdown", "measured", "18(r-1)^2 N + o()"],
        rows,
    )
    benchmark(_sort, sorter_for_bench, keys_for_bench)


@pytest.mark.parametrize(
    "factory,r",
    [(lambda: complete_binary_tree(2), 3), (lambda: star_graph(6), 3)],
    ids=["tree", "star"],
)
def test_corollary_structured_non_hamiltonian(benchmark, factory, r, rng):
    """Deterministic non-Hamiltonian factors (the hard case for labelling)."""
    factor = factory()
    sorter = ProductNetworkSorter.for_factor(factor, r)
    keys = rng.integers(0, 2**28, size=factor.n**r)
    lattice, ledger = benchmark(_sort, sorter, keys)
    assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
    assert ledger.total_rounds <= corollary_bound(factor.n, r) + _slack(factor.n, r)
