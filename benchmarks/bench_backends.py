"""Backend and model ablations (DESIGN.md's design-choice benches).

Three design decisions get quantified:

* **lattice vs fine-grained machine** — same algorithm at two fidelity
  levels: wall-clock gap of the NumPy backend vs the per-compare-exchange
  simulator, with identical final lattices (the cross-check that justifies
  using the fast backend everywhere else);
* **analytic vs measured S_2 models** — charging the published
  Schnorr-Shamir cost vs the measured cost of the executable sorters
  (shearsort, odd-even snake) for the same data movement;
* **executable sorter choice** — the §5-style hierarchy
  O(N) (modelled) < O(N log N) (shearsort) < O(N^2) (snake transposition)
  observed in measured rounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import print_table
from repro.core.lattice_sort import ProductNetworkSorter
from repro.core.machine_sort import MachineSorter
from repro.graphs import ProductGraph, path_graph
from repro.machine.machine import NetworkMachine
from repro.orders import lattice_to_sequence
from repro.sorters2d import (
    MeasuredExecutableModel,
    OddEvenSnakeSorter,
    ShearSorter,
    schnorr_shamir_model,
)


def _lattice_sort(sorter, keys):
    return sorter.sort_sequence(keys)


def _machine_sort(ms, keys):
    return ms.sort(keys)


@pytest.mark.parametrize("backend", ["lattice", "machine"])
def test_backend_wallclock(benchmark, backend, rng):
    """Wall-clock of the two backends on the same 4x4x4 grid instance."""
    factor, r = path_graph(4), 3
    keys = rng.integers(0, 2**20, size=64)
    if backend == "lattice":
        sorter = ProductNetworkSorter.for_factor(factor, r)
        lattice, _ = benchmark(_lattice_sort, sorter, keys)
    else:
        ms = MachineSorter.for_factor(factor, r)
        machine, _ = benchmark(_machine_sort, ms, keys)
        lattice = machine.lattice()
    assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))


def test_backends_agree_bitwise(rng):
    """The two backends are the same algorithm: identical lattices on a
    sweep of instances."""
    for n, r in [(3, 3), (4, 3), (3, 4)]:
        keys = rng.integers(0, 2**20, size=n**r)
        lattice, _ = ProductNetworkSorter.for_factor(path_graph(n), r).sort_sequence(keys)
        machine, _ = MachineSorter.for_factor(path_graph(n), r).sort(keys)
        assert np.array_equal(lattice, machine.lattice())


def test_s2_model_ablation(rng):
    """Analytic O(N) model vs measured executable sorters on the N=8 grid:
    the cost hierarchy the §5 catalog assumes.  (At N=8 the hierarchy is
    strict; below N=8 shearsort's (lg N + 1) row phases actually exceed the
    N^2 transposition budget — a crossover the table makes visible.)"""
    factor = path_graph(8)
    rows = []
    costs = {}
    models = {
        "schnorr-shamir (modelled O(N))": schnorr_shamir_model(),
        "shearsort (measured O(N lg N))": MeasuredExecutableModel(
            "measured-shear", factor, ShearSorter()
        ),
        "odd-even snake (measured O(N^2))": MeasuredExecutableModel(
            "measured-snake", factor, OddEvenSnakeSorter()
        ),
    }
    keys = rng.integers(0, 2**20, size=8**3)
    for name, model in models.items():
        sorter = ProductNetworkSorter.for_factor(factor, 3, sorter2d=model)
        lattice, ledger = sorter.sort_sequence(keys)
        assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
        costs[name] = ledger.total_rounds
        rows.append([name, model.rounds(8), ledger.total_rounds])
    print_table(
        "S_2 model ablation on the N=8 grid, r=3 (total rounds by Theorem 1)",
        ["S2 model", "S2(8)", "total rounds"],
        rows,
    )
    ordered = list(costs.values())
    assert ordered[0] < ordered[1] < ordered[2]


def test_executable_sorter_round_hierarchy(benchmark, rng):
    """Measured rounds of the executable sorters on one PG_2 instance."""
    factor = path_graph(8)
    net = ProductGraph(factor, 2)
    keys = rng.integers(0, 2**20, size=64)
    rows = []
    rounds_by = {}
    for sorter in (ShearSorter(), OddEvenSnakeSorter()):
        machine = NetworkMachine(net, keys.copy())
        rounds = sorter.sort(machine, net.subgraph((), ()))
        assert np.array_equal(lattice_to_sequence(machine.lattice()), np.sort(keys))
        rounds_by[sorter.name] = rounds
        rows.append([sorter.name, rounds, sorter.max_rounds(8)])
    print_table(
        "executable PG_2 sorters on the 8x8 grid (measured rounds)",
        ["sorter", "rounds", "phase budget"],
        rows,
    )
    assert rounds_by["shearsort"] < rounds_by["odd-even-snake"]

    def run_shear():
        machine = NetworkMachine(net, keys.copy())
        return ShearSorter().sort(machine, net.subgraph((), ()))

    benchmark(run_shear)
