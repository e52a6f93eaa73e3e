"""Deep randomized property tests across the whole stack.

Where the per-module tests pin specific behaviours, these run the *system*
invariants over hypothesis-generated factor graphs and key sets:
correctness on arbitrary connected topologies (the paper's thesis),
agreement between the three fidelity levels and the compiled networks,
conservation laws, and permutation invariance.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.lattice_sort import ProductNetworkSorter
from repro.core.multiway_merge import multiway_merge
from repro.core.network_builder import multiway_sort_network
from repro.core.sorting import multiway_merge_sort
from repro.orders import lattice_to_sequence

from tests._strategies import key_arrays, small_products

COMMON = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@given(small_products(), st.integers(0, 2**31 - 1))
@settings(**COMMON)
def test_any_connected_factor_sorts(product, seed):
    """The headline claim, property-tested: ANY connected factor works."""
    factor, r = product
    sorter = ProductNetworkSorter.for_factor(factor, r)
    rng = np.random.default_rng(seed)
    keys = rng.integers(-1000, 1000, size=factor.n**r)
    lattice, ledger = sorter.sort_sequence(keys)
    assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
    assert ledger.s2_calls == (r - 1) ** 2
    assert ledger.routing_calls == (r - 1) * (r - 2)


@given(small_products(max_nodes=81), st.integers(0, 2**31 - 1))
@settings(**COMMON)
def test_permutation_invariance(product, seed):
    """Shuffling the input placement never changes the sorted lattice."""
    factor, r = product
    sorter = ProductNetworkSorter.for_factor(factor, r)
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 50, size=factor.n**r)
    a, _ = sorter.sort_sequence(keys)
    b, _ = sorter.sort_sequence(rng.permutation(keys))
    assert np.array_equal(a, b)


@given(small_products(max_nodes=81), st.integers(0, 2**31 - 1))
@settings(**COMMON)
def test_idempotence(product, seed):
    """Sorting a sorted lattice is a fixed point (data-wise)."""
    factor, r = product
    sorter = ProductNetworkSorter.for_factor(factor, r)
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 50, size=factor.n**r)
    once, _ = sorter.sort_lattice(keys.reshape(sorter.network.shape))
    twice, _ = sorter.sort_lattice(once)
    assert np.array_equal(once, twice)


@given(st.integers(2, 3), st.integers(0, 2**31 - 1))
@settings(**COMMON)
def test_three_implementations_agree(n, seed):
    """Sequence algorithm == lattice backend == compiled network."""
    r = 3
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 100, size=n**r)

    seq_result = multiway_merge_sort(list(keys), n)

    from repro.graphs import path_graph

    lattice, _ = ProductNetworkSorter.for_factor(path_graph(n), r).sort_sequence(keys)
    lattice_result = list(lattice_to_sequence(lattice))

    net = multiway_sort_network(n, r)
    # the network sorts runs laid out as N sorted runs? no: raw wires; but
    # the sort network includes the initial block sorts, so raw keys work
    network_result = net.apply(list(keys))

    assert seq_result == lattice_result == network_result == sorted(keys)


@given(st.integers(2, 4), st.integers(0, 2**31 - 1))
@settings(**COMMON)
def test_merge_conserves_and_orders(n, seed):
    rng = np.random.default_rng(seed)
    m = n * n
    seqs = [sorted(rng.integers(0, 30, size=m).tolist()) for _ in range(n)]
    out = multiway_merge(seqs)
    assert out == sorted(x for s in seqs for x in s)


@given(small_products(max_nodes=64), st.integers(0, 2**31 - 1), st.integers(1, 3))
@settings(**COMMON)
def test_duplicate_saturation(product, seed, cardinality):
    """Heavy duplication (1-3 distinct values) never breaks anything."""
    factor, r = product
    sorter = ProductNetworkSorter.for_factor(factor, r)
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, cardinality, size=factor.n**r)
    lattice, _ = sorter.sort_sequence(keys)
    assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))


@given(key_arrays(size=27))
@settings(**COMMON)
def test_sequence_sort_on_drawn_keys(keys):
    assert multiway_merge_sort(list(keys), 3) == sorted(keys.tolist())
