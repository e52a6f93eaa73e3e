"""Tests for the machine's static traffic pass and its traffic statistics."""

from __future__ import annotations

import numpy as np
import pytest

import repro.machine.machine as machine_module
from repro.core.machine_sort import MachineSorter
from repro.graphs import ProductGraph, complete_binary_tree, k2, path_graph
from repro.machine import TrafficRound, machine_traffic, traffic_stats
from repro.machine.machine import measure_step


def _step(net, pairs):
    """One super-step of ``pairs`` (label pairs), as the pass yields it."""
    return TrafficRound(0, *measure_step(net, pairs))


def _sort_traffic(factor, r, rng):
    ms = MachineSorter.for_factor(factor, r)
    keys = rng.integers(0, 2**20, size=ms.network.num_nodes)
    machine, _ = ms.sort(keys)
    return machine, traffic_stats(machine_traffic(ms.schedule(), ms.network), ms.network)


class TestRecorder:
    """:func:`traffic_stats` over hand-built super-steps."""

    def test_counts_basic_step(self):
        net = ProductGraph(path_graph(3), 2)
        stats = traffic_stats([_step(net, [((0, 0), (0, 1)), ((1, 0), (2, 0))])], net)
        assert stats.operations == 1 and stats.pair_count == 2
        assert stats.dimension_ops == {1: 1, 2: 1}
        assert stats.adjacent_pairs == 2 and stats.routed_pairs == 0
        assert stats.mean_parallelism == 2.0
        assert stats.link_traversals == 4

    def test_routed_pairs_detected(self):
        net = ProductGraph(complete_binary_tree(2), 1)
        stats = traffic_stats([_step(net, [((3,), (4,))])], net)  # leaves: non-adjacent
        assert stats.routed_pairs == 1
        assert stats.routed_link_traversals == stats.link_traversals > 2

    def test_empty_stats(self):
        stats = traffic_stats([], ProductGraph(path_graph(3), 2))
        assert stats.operations == 0 and stats.mean_parallelism == 0.0
        assert stats.pair_count == 0 and stats.peak_node_utilisation == 0.0
        assert stats.dimension_ops == {} and stats.dimension_lanes == {}
        assert stats.adjacent_pairs == 0 and stats.routed_pairs == 0

    def test_routed_vs_adjacent_counting_in_one_step(self):
        # a single super-step mixing an adjacent pair with a routed pair must
        # split the tally, and the routed subgraph must lift the step's cost
        net = ProductGraph(complete_binary_tree(2), 2)
        # labels 0-1 are a tree edge; 3-4 are two leaves (non-adjacent)
        step = _step(net, [((0, 0), (0, 1)), ((1, 3), (1, 4))])
        stats = traffic_stats([step], net)
        assert stats.adjacent_pairs == 1 and stats.routed_pairs == 1
        assert stats.pair_count == 2 and stats.operations == 1
        assert step.charge > 1  # routing made the super-step cost more than one round


class TestSortTraffic:
    def test_full_sort_traffic_profile(self, rng):
        machine, stats = _sort_traffic(path_graph(3), 3, rng)
        from repro.orders import lattice_to_sequence

        seq = lattice_to_sequence(machine.lattice())
        assert np.all(np.diff(seq) >= 0)
        assert stats.operations == machine.operations
        assert stats.pair_count == machine.comparisons
        # every dimension participates; dims {1,2} dominate (base sorts)
        assert set(stats.dimension_ops) == {1, 2, 3}
        assert stats.dimension_ops[1] > stats.dimension_ops[3]
        assert stats.dimension_ops[2] > stats.dimension_ops[3]
        # all traffic on a path factor is adjacent
        assert stats.routed_pairs == 0
        assert 0 < stats.peak_node_utilisation <= 1.0

    def test_dimension_lanes_bounded(self, rng):
        _, stats = _sort_traffic(path_graph(3), 3, rng)
        # each dimension has N^(r-1) = 9 factor subgraphs at most
        for d, lanes in stats.dimension_lanes.items():
            assert 1 <= lanes <= 9

    def test_tree_factor_routes(self, rng):
        _, stats = _sort_traffic(complete_binary_tree(1), 2, rng)
        assert stats.pair_count > 0
        # 3-node tree labelled 0-1-2 with edges 0-1, 0-2: consecutive labels
        # (1,2) are non-adjacent, so some pairs must route
        assert stats.routed_pairs > 0


#: routed labellings (a tree, and the relabelled path of
#: ``tests/test_schedule.py``), the hypercube and an all-adjacent grid
REPLAY_GEOMETRIES = {
    "cbt1-r3": (lambda: complete_binary_tree(1), 3),
    "path-n4-r3-relabelled": (lambda: path_graph(4).relabel([2, 0, 3, 1]), 3),
    "k2-n2-r4": (k2, 4),
    "path-n3-r3": (lambda: path_graph(3), 3),
}


@pytest.mark.parametrize("geometry", list(REPLAY_GEOMETRIES))
def test_static_pass_matches_the_machine_replay(geometry, monkeypatch):
    """The pass read off the DAG is what the traced machine run measures:
    the same pairs, charges and routes, round by round."""
    make, r = REPLAY_GEOMETRIES[geometry]
    sorter = MachineSorter.for_factor(make(), r)
    dag = sorter.schedule()
    traffic = list(machine_traffic(dag, sorter.network))

    replayed = []

    def spy(network, pairs):
        measured = measure_step(network, pairs)
        replayed.append(measured)
        return measured

    # every compare_exchange of the run measures its step exactly once
    monkeypatch.setattr(machine_module, "measure_step", spy)
    keys = np.random.default_rng(0).integers(0, 1000, size=sorter.network.num_nodes)
    machine, _ = sorter.sort(keys)
    assert [(step.pairs, step.charge, step.routes) for step in traffic] == replayed
    assert len(traffic) == machine.operations
    assert [step.charge for step in traffic] == [rd.charge for rd in dag.rounds if rd.lo.size]
    if geometry in ("cbt1-r3", "path-n4-r3-relabelled"):
        assert any(step.routes is not None for step in traffic)
    else:
        assert all(step.routes is None for step in traffic)
