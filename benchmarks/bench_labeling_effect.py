"""E15 — the §2/§4 labelling remark: Hamiltonian labels buy a constant only.

"Such labeling of nodes would provide a speed improvement over an arbitrary
labeling, by a constant factor" (§2); "whether or not G is Hamiltonian only
effects the constant terms in the running time complexity function" (§4).

Measured on the fine-grained machine: the same cycle factor sorted under
(a) canonical labels along the Hamiltonian cycle, and (b) adversarially
scrambled labels; plus the routing-model ablation on the lattice backend
(the paper's conservative full-permutation R(N) vs what a Step-4
transposition actually costs on the labelling).
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import print_table
from repro.core.lattice_sort import ProductNetworkSorter
from repro.core.machine_sort import MachineSorter
from repro.graphs import cycle_graph, path_graph
from repro.orders import lattice_to_sequence
from repro.sorters2d import AdjacentStepRoutingModel, PublishedRoutingModel


def _scrambled_cycle(n: int):
    """A cycle whose labels deliberately ignore the ring structure."""
    g = cycle_graph(n)
    perm = [(i * (n // 2 + 1)) % n for i in range(n)]  # maximal label jumps
    if sorted(perm) != list(range(n)):
        perm = list(reversed(range(n)))
        perm[0], perm[n // 2] = perm[n // 2], perm[0]
    return g.relabel(perm)


def _machine_sort(ms, keys):
    return ms.sort(keys)


def test_labelling_constant_factor(benchmark, rng):
    n, r = 5, 2
    keys = rng.integers(0, 2**20, size=n**r)

    good = MachineSorter.for_factor(cycle_graph(n), r)
    bad_factor = _scrambled_cycle(n)
    bad = MachineSorter.for_factor(bad_factor, r)

    m_good, ledger_good = benchmark(_machine_sort, good, keys)
    m_bad, ledger_bad = bad.sort(keys)

    # both sort correctly — correctness never depends on the labelling
    assert np.array_equal(lattice_to_sequence(m_good.lattice()), np.sort(keys))
    assert np.array_equal(lattice_to_sequence(m_bad.lattice()), np.sort(keys))

    # scrambled labels cost more, but only by a constant factor: routed
    # snake steps have dilation <= diameter = n//2
    assert ledger_bad.total_rounds >= ledger_good.total_rounds
    assert ledger_bad.total_rounds <= (n // 2) * 2 * ledger_good.total_rounds
    print_table(
        "labelling effect on the 5-cycle, r=2 (measured machine rounds)",
        ["labelling", "rounds", "comparisons"],
        [
            ["canonical (Hamiltonian)", ledger_good.total_rounds, m_good.comparisons],
            ["scrambled", ledger_bad.total_rounds, m_bad.comparisons],
        ],
    )


@pytest.mark.parametrize("n,r", [(5, 3), (8, 3)], ids=["N5", "N8"])
def test_routing_model_ablation(n, r, rng):
    """Paper-conservative R(N) vs actual adjacent-step cost: same data
    movement, different invoice — quantifies §4's pessimism."""
    factor = path_graph(n)
    keys = rng.integers(0, 2**20, size=n**r)
    rows = []
    totals = {}
    for name, model in [
        ("published R(N)=N-1", PublishedRoutingModel(factor)),
        ("adjacent-step", AdjacentStepRoutingModel(factor)),
    ]:
        sorter = ProductNetworkSorter.for_factor(factor, r, routing=model)
        lattice, ledger = sorter.sort_sequence(keys)
        assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
        totals[name] = ledger.total_rounds
        rows.append([name, model.rounds(n), ledger.routing_rounds, ledger.total_rounds])
    print_table(
        f"routing-model ablation on the N={n} grid, r={r}",
        ["R model", "R per step", "routing rounds", "total rounds"],
        rows,
    )
    assert totals["adjacent-step"] <= totals["published R(N)=N-1"]
    # identical S2 work: difference is exactly the routing gap
    gap = totals["published R(N)=N-1"] - totals["adjacent-step"]
    assert gap == (r - 1) * (r - 2) * ((n - 1) - 1)
