"""Targeted edge-case and regression tests across modules."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.lattice_sort import ProductNetworkSorter, SortOutcome
from repro.core.machine_sort import MachineSorter
from repro.graphs import (
    FactorGraph,
    ProductGraph,
    cycle_embedding,
    path_graph,
    random_connected_graph,
)
from repro.machine.metrics import CostLedger
from repro.orders.gray import gray_rank, gray_unrank, rank_lattice


class TestCycleEmbeddingRegression:
    def test_hamiltonian_path_with_distant_endpoints(self):
        """Regression: a factor whose Hamiltonian path cannot close cheaply
        must fall back to the spanning-tree order (found via
        random_connected_graph(6, 0.15, seed=0), where the naive closing
        edge had dilation 5)."""
        g = random_connected_graph(6, extra_edge_prob=0.15, seed=0)
        emb = cycle_embedding(g)
        assert emb.dilation <= 3
        assert len(emb.paths) == 6  # cyclic: closing path included

    def test_tree_linear_order_ends_near_start(self):
        """The Sekanina order's last node is adjacent to its first in the
        spanning tree — the property the cycle fallback relies on."""
        for seed in range(5):
            g = random_connected_graph(7, extra_edge_prob=0.1, seed=seed)
            order = g.tree_linear_order
            assert len(g.shortest_path(order[-1], order[0])) - 1 <= 3


class TestSubgraphNestingHelpers:
    """How the machine schedule batches the subgraphs of a level."""

    def test_level_views_cover_everything(self):
        # every block sort of every level engages every node of the network
        dag = MachineSorter.for_factor(path_graph(3), 4).schedule()
        for phase in dag.phases:
            if phase.kind == "s2":
                rounds = dag.phase_rounds(phase.index)
                touched = np.concatenate([rd.touched_nodes() for rd in rounds])
                assert set(touched.tolist()) == set(range(81)), phase.path

    def test_pg2_blocks_in_group_rank_order(self):
        # a batch issues its blocks by the Gray rank of their group label
        ms = MachineSorter.for_factor(path_graph(3), 4)
        first = ms.schedule().rounds[0]
        per_block = first.comparator_count // 9
        prefixes = [ms.network.label_of(int(node))[:2] for node in first.lo[::per_block]]
        assert prefixes == [tuple(gray_unrank(z, 3, 2)) for z in range(9)]


class TestSortOutcome:
    def test_named_and_tuple_access(self, rng):
        sorter = ProductNetworkSorter.for_factor(path_graph(3), 2)
        outcome = sorter.sort_sequence(rng.integers(0, 10, 9))
        assert isinstance(outcome, SortOutcome)
        lattice, ledger = outcome
        assert outcome.lattice is lattice
        assert outcome.ledger is ledger


class TestGrayEdgeCases:
    def test_r1_rank_lattice(self):
        lat = rank_lattice(4, 1)
        assert list(lat) == [0, 1, 2, 3]

    def test_ranks_are_a_bijection(self):
        n, r = 4, 3
        ranks = {gray_rank(lab, n) for lab in np.ndindex(*(n,) * r)}
        assert ranks == set(range(n**r))


class TestLedgerRecords:
    def test_phase_record_fields(self):
        ledger = CostLedger()
        ledger.charge_s2(5, detail="demo", comparisons=7)
        rec = ledger.records[0]
        assert rec.phase == "S2" and rec.rounds == 5 and rec.comparisons == 7
        assert "CostLedger" in str(ledger)


class TestFactorGraphMisc:
    def test_relabel_preserves_hint_validity(self):
        g = path_graph(4)
        relabelled = g.relabel([3, 2, 1, 0])
        assert relabelled.hamiltonian_hint == (3, 2, 1, 0)
        assert relabelled.labels_follow_hamiltonian_path  # reversal is still a path

    def test_single_node_graph(self):
        g = FactorGraph.from_edge_list(1, [], name="point")
        assert g.hamiltonian_path == (0,)
        with pytest.raises(ValueError):
            ProductGraph(g, 2)  # factor must have >= 2 nodes

    def test_canonical_labelling_idempotent_for_paths(self):
        g = path_graph(5)
        assert g.canonically_labelled().labels_follow_hamiltonian_path


class TestMachineSorterEdge:
    def test_r2_has_no_merge_rounds(self, rng):
        ms = MachineSorter.for_factor(path_graph(3), 2)
        keys = rng.integers(0, 100, size=9)
        _, ledger = ms.sort(keys)
        assert ledger.s2_calls == 1 and ledger.routing_calls == 0
