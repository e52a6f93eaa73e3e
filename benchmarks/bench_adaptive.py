"""E17 (extension) — the adaptive clean-check ablation.

Quantifies the Step-4 skip extension across input classes on the 3^4 grid:
all-equal, block-aligned duplicates, random 0-1, low-cardinality random and
full-entropy random keys.  Shape claims: benign inputs cut the round count
to a third; adversarial (full-entropy) inputs pay only the check overhead
(2 rounds per merge level); correctness never varies.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import print_table
from repro.core.adaptive import AdaptiveProductNetworkSorter
from repro.core.lattice_sort import ProductNetworkSorter
from repro.graphs import path_graph
from repro.orders import lattice_to_sequence

INPUT_CLASSES = {
    "all-equal": lambda rng: np.zeros(81),
    "block-aligned-9-values": lambda rng: np.repeat(np.arange(9), 9).astype(float),
    "random-0-1": lambda rng: rng.integers(0, 2, size=81).astype(float),
    "random-3-values": lambda rng: rng.integers(0, 3, size=81).astype(float),
    "random-full-entropy": lambda rng: rng.permutation(81).astype(float),
}


def _sort(sorter, keys):
    return sorter.sort_sequence(keys)


def test_adaptive_ablation_table(rng):
    factor = path_graph(3)
    plain = ProductNetworkSorter.for_factor(factor, 4)
    adaptive = AdaptiveProductNetworkSorter.for_factor(factor, 4)

    rows = []
    results = {}
    for name, gen in INPUT_CLASSES.items():
        keys = gen(rng)
        plat, pledger = plain.sort_sequence(keys)
        alat, aledger = adaptive.sort_sequence(keys)
        assert np.array_equal(plat, alat)
        assert np.array_equal(lattice_to_sequence(alat), np.sort(keys))
        results[name] = (pledger.total_rounds, aledger.total_rounds, adaptive.steps4_skipped)
        rows.append(
            [
                name,
                pledger.total_rounds,
                aledger.total_rounds,
                adaptive.steps4_skipped,
                adaptive.steps4_executed,
            ]
        )
    print_table(
        "adaptive clean-check on the 3^4 grid (rounds)",
        ["input class", "plain", "adaptive", "levels skipped", "levels executed"],
        rows,
    )
    plain_rounds, adaptive_rounds, skipped = results["all-equal"]
    assert skipped == 3
    assert adaptive_rounds < plain_rounds / 2  # benign: big win
    plain_rounds, adaptive_rounds, skipped = results["random-full-entropy"]
    assert skipped == 0
    assert adaptive_rounds == plain_rounds + 2 * 3  # adversarial: check overhead only


@pytest.mark.parametrize("input_class", sorted(INPUT_CLASSES), ids=sorted(INPUT_CLASSES))
def test_adaptive_wallclock(benchmark, input_class, rng):
    adaptive = AdaptiveProductNetworkSorter.for_factor(path_graph(3), 4)
    keys = INPUT_CLASSES[input_class](rng)
    lattice, _ = benchmark(_sort, adaptive, keys)
    assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
