"""Tests for the extended factor-topology library and end-to-end sorts on it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lattice_sort import ProductNetworkSorter
from repro.graphs import (
    caterpillar_graph,
    circulant_graph,
    complete_bipartite_graph,
    grid_2d_factor,
    hypercube_factor,
)
from repro.orders import lattice_to_sequence


class TestCompleteBipartite:
    def test_structure(self):
        g = complete_bipartite_graph(2, 3)
        assert g.n == 5 and len(g.edges) == 6
        assert g.has_edge(0, 3) and not g.has_edge(0, 1) and not g.has_edge(3, 4)

    def test_balanced_gets_hamiltonian_hint(self):
        """The hint zig-zags between the parts (a valid path, verified at
        construction); natural labels keep the parts contiguous, so the
        canonical relabelling is what makes labels follow it."""
        g = complete_bipartite_graph(3, 3)
        assert g.hamiltonian_hint is not None
        assert not g.labels_follow_hamiltonian_path
        assert g.canonically_labelled().labels_follow_hamiltonian_path

    def test_nearly_balanced(self):
        g = complete_bipartite_graph(3, 2)
        assert g.hamiltonian_hint is not None
        assert g.canonically_labelled().labels_follow_hamiltonian_path

    def test_unbalanced_has_no_path(self):
        g = complete_bipartite_graph(2, 4)
        assert g.hamiltonian_hint is None
        assert g.hamiltonian_path is None  # K_{2,4} genuinely has none

    def test_validation(self):
        with pytest.raises(ValueError):
            complete_bipartite_graph(0, 3)


class TestCirculant:
    def test_structure(self):
        g = circulant_graph(7, (1, 3))
        assert g.n == 7
        assert all(g.degree(u) == 4 for u in range(7))
        assert g.labels_follow_hamiltonian_path

    def test_offset_normalisation(self):
        g = circulant_graph(6, (1, 7, -5))  # all congruent to +-1
        assert all(g.degree(u) == 2 for u in range(6))

    def test_validation(self):
        with pytest.raises(ValueError):
            circulant_graph(2)
        with pytest.raises(ValueError):
            circulant_graph(6, (0, 6))


class TestCaterpillar:
    def test_structure(self):
        g = caterpillar_graph(3, 2)
        assert g.n == 9 and len(g.edges) == 8  # a tree
        assert g.degree(1) == 2 + 2  # spine node: 2 spine + 2 legs

    def test_bare_spine_is_path(self):
        g = caterpillar_graph(4, 0)
        assert g.labels_follow_hamiltonian_path

    def test_embedding_quality(self):
        """Caterpillar squares are Hamiltonian: dilation stays <= 3 and in
        practice small."""
        emb = caterpillar_graph(4, 1).linear_embedding()
        assert emb.dilation <= 3


class TestHypercubeFactor:
    def test_structure(self):
        g = hypercube_factor(3)
        assert g.n == 8 and len(g.edges) == 12
        assert all(g.degree(u) == 3 for u in range(8))

    def test_gray_code_hint(self):
        g = hypercube_factor(4)
        hint = g.hamiltonian_hint
        assert hint is not None
        for a, b in zip(hint, hint[1:]):
            assert bin(a ^ b).count("1") == 1  # single-bit steps


class TestGrid2DFactor:
    def test_structure(self):
        g = grid_2d_factor(3, 4)
        assert g.n == 12 and len(g.edges) == 3 * 3 + 2 * 4
        assert g.labels_follow_hamiltonian_path  # boustrophedon labels

    def test_validation(self):
        with pytest.raises(ValueError):
            grid_2d_factor(0, 3)


class TestEndToEndSorts:
    """The portability claim extended to the new topologies."""

    @pytest.mark.parametrize(
        "factory,r",
        [
            (lambda: complete_bipartite_graph(2, 3), 3),
            (lambda: complete_bipartite_graph(2, 4), 2),
            (lambda: circulant_graph(6, (1, 2)), 3),
            (lambda: caterpillar_graph(3, 1), 2),
            (lambda: hypercube_factor(2), 3),
            (lambda: hypercube_factor(3), 2),
            (lambda: grid_2d_factor(2, 3), 2),
        ],
        ids=["K23", "K24", "circulant6", "caterpillar", "Q2", "Q3", "mesh2x3"],
    )
    def test_sorts(self, factory, r, rng):
        factor = factory()
        sorter = ProductNetworkSorter.for_factor(factor, r)
        keys = rng.integers(0, 2**20, size=factor.n**r)
        lattice, ledger = sorter.sort_sequence(keys)
        assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
        assert ledger.s2_calls == (r - 1) ** 2

    def test_product_of_meshes_is_4d_grid(self, rng):
        """A 2-level factorisation: the product of two 3x3 meshes sorts the
        same keys as the 4-dimensional grid would."""
        factor = grid_2d_factor(3, 3)
        sorter = ProductNetworkSorter.for_factor(factor, 2)
        keys = rng.integers(0, 10**6, size=81)
        lattice, _ = sorter.sort_sequence(keys)
        assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
