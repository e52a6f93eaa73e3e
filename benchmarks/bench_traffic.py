"""E18 (instrumentation) — link-level traffic profile of the sort.

Reads the machine schedule's static traffic pass to characterise how the
algorithm loads the network — the kind of table an interconnect architect
would ask for:

* per-dimension compare-exchange counts: dimensions {1, 2} dominate (all
  2-D base sorts live there); higher dimensions only carry the Step-4
  block transpositions, whose count shrinks with depth;
* adjacency: on Hamiltonian-labelled factors 100% of the traffic is
  single-link; on trees a measurable fraction routes;
* exploited parallelism: mean pairs per super-step and the peak node
  utilisation.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import print_table
from repro.core.machine_sort import MachineSorter
from repro.graphs import complete_binary_tree, cycle_graph, path_graph
from repro.machine import machine_traffic, traffic_stats
from repro.orders import lattice_to_sequence


def _instrumented_sort(factor, r, rng):
    ms = MachineSorter.for_factor(factor, r)
    keys = rng.integers(0, 2**20, size=ms.network.num_nodes)
    machine, _ = ms.sort(keys)
    assert np.all(np.diff(lattice_to_sequence(machine.lattice())) >= 0)
    return machine, traffic_stats(machine_traffic(ms.schedule(), ms.network), ms.network), keys


@pytest.mark.parametrize(
    "factory,r",
    [(lambda: path_graph(3), 4), (lambda: cycle_graph(4), 3), (lambda: complete_binary_tree(1), 3)],
    ids=["grid3r4", "torus4r3", "mct3r3"],
)
def test_traffic_profile(benchmark, factory, r, rng):
    factor = factory()
    machine, stats, keys = _instrumented_sort(factor, r, rng)

    rows = [
        [d, stats.dimension_ops.get(d, 0), stats.dimension_lanes.get(d, 0)]
        for d in range(1, r + 1)
    ]
    print_table(
        f"traffic by dimension: {factor.name}, r={r}",
        ["dimension", "pairs", "lanes used"],
        rows,
    )
    print_table(
        f"summary: {factor.name}, r={r}",
        ["steps", "pairs", "mean parallelism", "peak utilisation", "adjacent", "routed"],
        [[
            stats.operations,
            stats.pair_count,
            f"{stats.mean_parallelism:.1f}",
            f"{stats.peak_node_utilisation:.2f}",
            stats.adjacent_pairs,
            stats.routed_pairs,
        ]],
    )

    # dims {1,2} dominate the traffic
    assert stats.dimension_ops[1] >= stats.dimension_ops.get(r, 0)
    assert stats.dimension_ops[2] >= stats.dimension_ops.get(r, 0)
    # Hamiltonian labels -> all adjacent; the h=1 tree must route some
    if factor.labels_follow_hamiltonian_path:
        assert stats.routed_pairs == 0
    else:
        assert stats.routed_pairs > 0

    def run():
        return _instrumented_sort(factor, r, np.random.default_rng(1))

    benchmark(run)


def test_peak_utilisation_reaches_half(rng):
    """Odd-even phases engage ~all nodes in pairs: peak utilisation ~1."""
    _, stats, _ = _instrumented_sort(path_graph(4), 3, rng)
    assert stats.peak_node_utilisation >= 0.5
