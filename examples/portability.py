#!/usr/bin/env python
"""Portability: one algorithm, every product network (the paper's thesis).

"Is it possible to develop algorithms for product networks capitalizing on
their common properties only, so that the same algorithm can be made to run
on all product networks? ... at least for the sorting problem, the answer
is yes."

This example sorts the *same* keys with the *same* code on the products of
eight different factor topologies — grids, tori, hypercubes, Petersen
cubes, trees, de Bruijn graphs, stars, and a random connected graph drawn
on the spot — and tabulates the §5 cost models each network gets.  Only the
costs differ; the algorithm and its correctness never change.

Run:  python examples/portability.py [seed]
"""

from __future__ import annotations

import sys

import numpy as np

from repro import (
    ProductNetworkSorter,
    complete_binary_tree,
    cycle_graph,
    de_bruijn_graph,
    k2,
    lattice_to_sequence,
    path_graph,
    petersen_graph,
    random_connected_graph,
    star_graph,
)


def main(seed: int = 0) -> None:
    instances = [
        (path_graph(4), 3, "grid (§5.1)"),
        (cycle_graph(4), 3, "torus (Corollary)"),
        (k2(), 6, "hypercube (§5.3)"),
        (petersen_graph().canonically_labelled(), 2, "Petersen cube (§5.4)"),
        (complete_binary_tree(2), 2, "mesh-connected trees (§5.2)"),
        (de_bruijn_graph(3), 2, "product of de Bruijn (§5.5)"),
        (star_graph(4), 3, "star product (no Hamiltonian path!)"),
        (random_connected_graph(5, seed=seed), 3, f"random connected (seed={seed})"),
    ]
    rng = np.random.default_rng(seed)
    print(f"{'network':<38} {'N':>3} {'r':>2} {'keys':>6} {'S2 model':<24} {'rounds':>7} ok")
    print("-" * 95)
    for factor, r, label in instances:
        sorter = ProductNetworkSorter.for_factor(factor, r)
        keys = rng.integers(0, 10**6, size=sorter.network.num_nodes)
        lattice, ledger = sorter.sort_sequence(keys)
        ok = bool(np.array_equal(lattice_to_sequence(lattice), np.sort(keys)))
        print(
            f"{label:<38} {factor.n:>3} {r:>2} {factor.n**r:>6} "
            f"{sorter.sorter2d.name:<24} {ledger.total_rounds:>7} {'yes' if ok else 'NO'}"
        )
        assert ok
    print("\nSame algorithm, same code path, eight topologies — only the cost model varies.")
    print("Try your own factor graph:")
    print("    FactorGraph.from_edge_list(n, edges) -> ProductNetworkSorter.for_factor(g, r)")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 0)
