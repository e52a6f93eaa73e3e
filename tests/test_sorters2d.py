"""Tests for the executable two-dimensional sorters (the ``S_2`` black box)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.library import (
    complete_binary_tree,
    cycle_graph,
    k2,
    path_graph,
    petersen_graph,
    random_connected_graph,
    star_graph,
)
from repro.graphs.product import ProductGraph
from repro.machine.machine import NetworkMachine
from repro.orders import gray_rank, lattice_to_sequence
from repro.core.verification import zero_one_sequences
from repro.sorters2d import (
    ExecutableTwoDimSorter,
    HypercubeThreeStepSorter,
    OddEvenSnakeSorter,
    ShearSorter,
)

SORTERS = {
    "odd-even-snake": OddEvenSnakeSorter(),
    "shearsort": ShearSorter(),
}


def _sorted_in_local_snake(machine, view, descending):
    lat = machine.lattice()
    n = view.parent.factor.n
    seq = [None] * (n * n)
    for y2 in range(n):
        for y1 in range(n):
            seq[gray_rank((y2, y1), n)] = lat[view.full_label((y2, y1))]
    pairs = zip(seq, seq[1:])
    return all(b <= a for a, b in pairs) if descending else all(a <= b for a, b in zip(seq, seq[1:]))


@pytest.mark.parametrize("name", sorted(SORTERS), ids=sorted(SORTERS))
class TestExecutableSorters:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: path_graph(3),
            lambda: path_graph(4),
            lambda: cycle_graph(5),
            lambda: star_graph(4),
            lambda: complete_binary_tree(2),
            lambda: random_connected_graph(5, seed=11),
        ],
        ids=["path3", "path4", "cycle5", "star4", "cbt2", "random5"],
    )
    def test_sorts_pg2_of_any_factor(self, name, factory):
        sorter = SORTERS[name]
        g = factory()
        net = ProductGraph(g, 2)
        rng = np.random.default_rng(17)
        keys = rng.integers(0, 1000, size=net.num_nodes)
        m = NetworkMachine(net, keys)
        view = net.subgraph((), ())
        sorter.sort(m, view, descending=False)
        assert np.array_equal(lattice_to_sequence(m.lattice()), np.sort(keys))

    def test_descending(self, name):
        sorter = SORTERS[name]
        net = ProductGraph(path_graph(4), 2)
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 100, size=16)
        m = NetworkMachine(net, keys)
        sorter.sort(m, net.subgraph((), ()), descending=True)
        assert np.array_equal(lattice_to_sequence(m.lattice()), np.sort(keys)[::-1])

    def test_batch_on_disjoint_blocks(self, name):
        """All PG_2 blocks of a 3D product sorted simultaneously, mixed
        directions, without interfering."""
        sorter = SORTERS[name]
        net = ProductGraph(path_graph(3), 3)
        rng = np.random.default_rng(23)
        keys = rng.integers(0, 100, size=27)
        m = NetworkMachine(net, keys)
        views = [net.subgraph((3,), (u,)) for u in range(3)]
        descending = [False, True, False]
        sorter.sort_batch(m, views, descending)
        for view, desc in zip(views, descending):
            assert _sorted_in_local_snake(m, view, desc)

    def test_batch_costs_like_single(self, name):
        """Lockstep batching: sorting 3 disjoint blocks costs the same
        rounds as sorting 1 (on a Hamiltonian-labelled factor)."""
        sorter = SORTERS[name]
        net = ProductGraph(path_graph(3), 3)
        rng = np.random.default_rng(29)

        m1 = NetworkMachine(net, rng.integers(0, 100, size=27))
        single = sorter.sort_batch(m1, [net.subgraph((3,), (0,))], [False])

        m3 = NetworkMachine(net, rng.integers(0, 100, size=27))
        views = [net.subgraph((3,), (u,)) for u in range(3)]
        batch = sorter.sort_batch(m3, views, [False, True, False])
        assert batch == single

    def test_validates_alignment(self, name):
        sorter = SORTERS[name]
        net = ProductGraph(path_graph(3), 2)
        m = NetworkMachine(net, np.arange(9))
        with pytest.raises(ValueError):
            sorter.sort_batch(m, [net.subgraph((), ())], [False, True])


class TestShearsortSpecifics:
    def test_rejects_non_2d_views(self):
        net = ProductGraph(path_graph(3), 3)
        m = NetworkMachine(net, np.arange(27))
        with pytest.raises(ValueError):
            ShearSorter().sort(m, net.subgraph((), ()))

    def test_round_bound(self):
        """Measured rounds match the (lg N + 1) N + lg N * N phase budget on
        Hamiltonian labels."""
        net = ProductGraph(path_graph(4), 2)
        m = NetworkMachine(net, np.arange(16)[::-1].copy())
        rounds = ShearSorter().sort(m, net.subgraph((), ()))
        assert rounds <= ShearSorter().max_rounds(4)

    def test_empty_batch(self):
        net = ProductGraph(path_graph(3), 2)
        m = NetworkMachine(net, np.arange(9))
        assert ShearSorter().sort_batch(m, [], []) == 0


class TestHypercubeThreeStep:
    def test_exhaustive_zero_one(self):
        """All 16 0-1 inputs sort in exactly 3 rounds — §5.3's claim,
        certified through the zero-one principle."""
        net = ProductGraph(k2(), 2)
        sorter = HypercubeThreeStepSorter()
        for bits in zero_one_sequences(4):
            m = NetworkMachine(net, np.array(bits))
            rounds = sorter.sort(m, net.subgraph((), ()))
            assert rounds == 3
            assert np.array_equal(lattice_to_sequence(m.lattice()), np.sort(np.array(bits)))

    def test_exhaustive_permutations(self):
        from itertools import permutations

        net = ProductGraph(k2(), 2)
        sorter = HypercubeThreeStepSorter()
        for perm in permutations(range(4)):
            m = NetworkMachine(net, np.array(perm))
            sorter.sort(m, net.subgraph((), ()))
            assert np.array_equal(lattice_to_sequence(m.lattice()), np.arange(4))

    def test_descending_exhaustive(self):
        from itertools import permutations

        net = ProductGraph(k2(), 2)
        sorter = HypercubeThreeStepSorter()
        for perm in permutations(range(4)):
            m = NetworkMachine(net, np.array(perm))
            sorter.sort(m, net.subgraph((), ()), descending=True)
            assert np.array_equal(lattice_to_sequence(m.lattice()), np.arange(3, -1, -1))

    def test_rejects_wrong_factor(self):
        net = ProductGraph(path_graph(3), 2)
        m = NetworkMachine(net, np.arange(9))
        with pytest.raises(ValueError):
            HypercubeThreeStepSorter().sort(m, net.subgraph((), ()))

    def test_batch_blocks_of_4d_cube(self):
        net = ProductGraph(k2(), 4)
        rng = np.random.default_rng(31)
        keys = rng.integers(0, 100, size=16)
        m = NetworkMachine(net, keys)
        views = [net.subgraph((3, 4), (a, b)) for b in range(2) for a in range(2)]
        rounds = HypercubeThreeStepSorter().sort_batch(m, views, [False] * 4)
        assert rounds == 3
        for view in views:
            assert _sorted_in_local_snake(m, view, False)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_property_all_sorters_agree(seed):
    """Both executable sorters produce the identical snake-sorted lattice."""
    rng = np.random.default_rng(seed)
    net = ProductGraph(cycle_graph(4), 2)
    keys = rng.integers(0, 40, size=16)
    results = []
    for sorter in SORTERS.values():
        m = NetworkMachine(net, keys.copy())
        sorter.sort(m, net.subgraph((), ()))
        results.append(m.lattice().copy())
    assert np.array_equal(results[0], results[1])


def test_petersen_pg2_sorts():
    """§5.4's network: 100 keys on the Petersen x Petersen product."""
    g = petersen_graph().canonically_labelled()
    net = ProductGraph(g, 2)
    rng = np.random.default_rng(41)
    keys = rng.integers(0, 10**6, size=100)
    m = NetworkMachine(net, keys)
    ShearSorter().sort(m, net.subgraph((), ()))
    assert np.array_equal(lattice_to_sequence(m.lattice()), np.sort(keys))


class TestSorterTemplate:
    def test_records_snake_positions_and_costs(self):
        template = HypercubeThreeStepSorter().template(k2())
        assert template.pairs == (((0, 1), (2, 3)), ((1, 2), (0, 3)), ((0, 1), (2, 3)))
        assert template.charges == (1, 1, 1) and template.rounds == 3

    def test_direction_asymmetric_sorter_is_refused(self):
        """The machine lowering replays the ascending rounds swapped on
        descending blocks; a sorter whose descending run differs is refused
        rather than lowered wrongly."""

        class Asymmetric(ExecutableTwoDimSorter):
            name = "asymmetric"

            def sort_batch(self, machine, views, descending):
                # shearsort ascending, odd-even snake descending: both sort
                inner = OddEvenSnakeSorter() if any(descending) else ShearSorter()
                return inner.sort_batch(machine, views, descending)

        with pytest.raises(ValueError, match="lo and hi swapped"):
            Asymmetric().template(path_graph(3))
