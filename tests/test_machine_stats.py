"""Tests for the machine traffic recorder."""

from __future__ import annotations

import numpy as np

from repro.core.machine_sort import MachineSorter
from repro.graphs import ProductGraph, complete_binary_tree, path_graph
from repro.machine.machine import NetworkMachine
from repro.machine.stats import TrafficRecorder
from repro.observability import EventBus, MachineTimeline, TrafficSubscriber


def _run_sort_with_recorder(factor, r, rng):
    ms = MachineSorter.for_factor(factor, r)
    keys = rng.integers(0, 2**20, size=ms.network.num_nodes)
    bus = EventBus()
    recorder = TrafficRecorder(ms.network)
    bus.subscribe(TrafficSubscriber(recorder))
    machine, _ = ms.sort(keys, timeline=MachineTimeline(ms.network, bus=bus))
    return machine, recorder


class TestRecorder:
    def test_counts_basic_step(self):
        net = ProductGraph(path_graph(3), 2)
        machine = NetworkMachine(net, np.arange(9))
        rec = TrafficRecorder(net)
        machine.recorder = rec
        machine.compare_exchange([((0, 0), (0, 1)), ((1, 0), (2, 0))])
        stats = rec.stats()
        assert stats.operations == 1 and stats.pair_count == 2
        assert stats.dimension_ops == {1: 1, 2: 1}
        assert stats.adjacent_pairs == 2 and stats.routed_pairs == 0
        assert stats.mean_parallelism == 2.0

    def test_routed_pairs_detected(self):
        net = ProductGraph(complete_binary_tree(2), 1)
        machine = NetworkMachine(net, np.arange(7))
        rec = TrafficRecorder(net)
        machine.recorder = rec
        machine.compare_exchange([((3,), (4,))])  # leaves: non-adjacent
        assert rec.stats().routed_pairs == 1

    def test_reset(self):
        net = ProductGraph(path_graph(3), 2)
        machine = NetworkMachine(net, np.arange(9))
        rec = TrafficRecorder(net)
        machine.recorder = rec
        machine.compare_exchange([((0, 0), (0, 1))])
        rec.reset()
        assert rec.stats().operations == 0

    def test_empty_stats(self):
        rec = TrafficRecorder(ProductGraph(path_graph(3), 2))
        stats = rec.stats()
        assert stats.operations == 0 and stats.mean_parallelism == 0.0
        assert stats.pair_count == 0 and stats.peak_node_utilisation == 0.0
        assert stats.dimension_ops == {} and stats.dimension_lanes == {}
        assert stats.adjacent_pairs == 0 and stats.routed_pairs == 0

    def test_reset_then_reuse_matches_fresh(self):
        net = ProductGraph(path_graph(3), 2)
        machine = NetworkMachine(net, np.arange(9))
        rec = TrafficRecorder(net)
        machine.recorder = rec
        pairs = [((0, 0), (0, 1)), ((1, 0), (2, 0))]
        machine.compare_exchange(pairs)
        rec.reset()
        assert rec.stats().operations == 0
        machine.compare_exchange([(hi, lo) for lo, hi in pairs])  # swap back
        reused = rec.stats()
        fresh_machine = NetworkMachine(net, np.arange(9))
        fresh = TrafficRecorder(net)
        fresh_machine.recorder = fresh
        fresh_machine.compare_exchange(pairs)
        assert reused == fresh.stats()

    def test_routed_vs_adjacent_counting_in_one_step(self):
        # a single super-step mixing an adjacent pair with a routed pair must
        # split the tally, and the routed subgraph must lift the step's cost
        net = ProductGraph(complete_binary_tree(2), 2)
        machine = NetworkMachine(net, np.arange(49))
        rec = TrafficRecorder(net)
        machine.recorder = rec
        # labels 0-1 are a tree edge; 3-4 are two leaves (non-adjacent)
        cost = machine.compare_exchange([((0, 0), (0, 1)), ((1, 3), (1, 4))])
        stats = rec.stats()
        assert stats.adjacent_pairs == 1 and stats.routed_pairs == 1
        assert stats.pair_count == 2 and stats.operations == 1
        assert cost > 1  # routing made the super-step cost more than one round


class TestSortTraffic:
    def test_full_sort_traffic_profile(self, rng):
        machine, rec = _run_sort_with_recorder(path_graph(3), 3, rng)
        from repro.orders import lattice_to_sequence

        seq = lattice_to_sequence(machine.lattice())
        assert np.all(np.diff(seq) >= 0)
        stats = rec.stats()
        # every dimension participates; dims {1,2} dominate (base sorts)
        assert set(stats.dimension_ops) == {1, 2, 3}
        assert stats.dimension_ops[1] > stats.dimension_ops[3]
        assert stats.dimension_ops[2] > stats.dimension_ops[3]
        # all traffic on a path factor is adjacent
        assert stats.routed_pairs == 0
        assert 0 < stats.peak_node_utilisation <= 1.0

    def test_dimension_lanes_bounded(self, rng):
        machine, rec = _run_sort_with_recorder(path_graph(3), 3, rng)
        stats = rec.stats()
        # each dimension has N^(r-1) = 9 factor subgraphs at most
        for d, lanes in stats.dimension_lanes.items():
            assert 1 <= lanes <= 9

    def test_tree_factor_routes(self, rng):
        machine, rec = _run_sort_with_recorder(complete_binary_tree(1), 2, rng)
        stats = rec.stats()
        assert stats.pair_count > 0
        # 3-node tree labelled 0-1-2 with edges 0-1, 0-2: consecutive labels
        # (1,2) are non-adjacent, so some pairs must route
        assert stats.routed_pairs > 0
