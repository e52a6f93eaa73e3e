"""E14 — §1/§3 comparisons: multiway merge vs Columnsort vs Batcher.

The paper positions its merge against two families:

* **Columnsort** (§1): "ours outperforms Columnsort ... our algorithm is
  based on a series of merge processes recursively applied, while
  Columnsort is based on a series of sorting steps", and "we are able to
  avoid most of the routing steps".  Quantified here: per doubling of the
  data, one merge level adds 2 block sorts + 2 single-step transpositions
  (Steps 1/3 free), while each Columnsort application pays 4 column sorts
  over long columns + 4 full-data permutations.
* **Batcher networks** (§5.3): same O(log^2)-depth asymptotics on
  logarithmic-diameter networks; comparator *counts* of the sequence-level
  algorithms are tabulated as the work measure.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import print_table
from repro.baselines.batcher import (
    bitonic_sort_network,
    network_depth,
    network_size,
    odd_even_merge_sort_network,
)
from repro.baselines.columnsort import columnsort, minimal_rows
from repro.core.lattice_sort import ProductNetworkSorter
from repro.core.sorting import multiway_merge_sort
from repro.graphs import path_graph
from repro.orders import lattice_to_sequence


class _ComparisonCounter:
    """Counting sort2 for the sequence-level algorithm."""

    def __init__(self):
        self.comparisons = 0
        self.calls = 0

    def __call__(self, block):
        self.calls += 1
        # merge-sort comparison count ~ n lg n; count exactly via wrapper
        counter = self

        class Key:
            __slots__ = ("v",)

            def __init__(self, v):
                self.v = v

            def __lt__(self, other):
                counter.comparisons += 1
                return self.v < other.v

        return [k.v for k in sorted((Key(v) for v in block))]


def test_merge_vs_columnsort_structure(rng):
    """Structural comparison at equal input sizes: sorting phases on
    subsequences and whole-data routing phases per algorithm."""
    rows = []
    for n, r in [(3, 3), (3, 4), (4, 3)]:
        total = n**r
        # ours: (r-1)^2 sorts of N^2 keys, (r-1)(r-2) transposition routings
        ours_sorts, ours_sort_len = (r - 1) ** 2, n * n
        ours_routings = (r - 1) * (r - 2)
        # columnsort on the same key count with a valid shape
        cols = n
        rows_cs = max(minimal_rows(cols), math.ceil(total / cols))
        while rows_cs % cols:
            rows_cs += 1
        cs_sorts, cs_sort_len, cs_routings = 4, rows_cs, 4
        rows.append(
            [
                f"N={n}, r={r}",
                total,
                f"{ours_sorts} x {ours_sort_len}",
                ours_routings,
                f"{cs_sorts} x {cs_sort_len}",
                cs_routings,
            ]
        )
        # the paper's point: our sorted blocks stay N^2 regardless of total
        # size, Columnsort's columns grow linearly with the total
        assert ours_sort_len == n * n
        assert cs_sort_len >= total / cols
    print_table(
        "§1: merge-based (ours) vs sort-based (Columnsort) work structure",
        ["instance", "keys", "ours: sorts", "ours: routings", "columnsort: sorts", "cs: routings"],
        rows,
    )


def test_comparison_counts(benchmark, rng):
    """Total comparisons at equal sizes: ours vs Columnsort vs Batcher
    networks (sequence level)."""
    rows = []
    for n, r in [(2, 4), (2, 6), (4, 3)]:
        total = n**r
        keys = rng.integers(0, 2**20, size=total).tolist()

        counter = _ComparisonCounter()
        out = multiway_merge_sort(keys, n, sort2=counter)
        assert out == sorted(keys)

        cols = 2
        rows_cs = total // cols
        out_cs, stats_cs = columnsort(keys, rows_cs, cols)
        assert out_cs == sorted(keys)

        oem = network_size(odd_even_merge_sort_network(total))
        bit = network_size(bitonic_sort_network(total))
        rows.append([f"N={n},r={r}", total, counter.comparisons, stats_cs.comparisons, oem, bit])
    print_table(
        "comparisons to sort (sequence level)",
        ["instance", "keys", "multiway merge", "columnsort", "batcher OEM", "bitonic"],
        rows,
    )
    benchmark(multiway_merge_sort, rng.integers(0, 100, size=64).tolist(), 2)


def test_round_comparison_on_grid_substrate(rng):
    """Rounds on a 2-D-grid-per-level substrate: our network rounds vs
    Columnsort with columns sorted by odd-even transposition on a linear
    array (cost = column length per phase) + permutation routings.

    Shape claim (who wins): ours grows ~ 14N at N^3 keys while Columnsort's
    column length N^3/c forces ~ 4N^3/c + routing — ours wins for every N
    here, increasingly so as N grows."""
    rows = []
    for n in (4, 8, 16):
        r = 3
        total = n**r
        sorter = ProductNetworkSorter.for_factor(path_graph(n), r)
        keys = rng.integers(0, 2**28, size=total)
        lattice, ledger = sorter.sort_sequence(keys)
        assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))

        cols = n
        rows_cs = total // cols  # = n^2, satisfies rows >= 2(cols-1)^2 for n >= 4... check
        # Leighton's condition may fail (n^2 < 2(n-1)^2): widen rows if so
        while rows_cs < 2 * (cols - 1) ** 2 or rows_cs % cols:
            rows_cs += 1
        # column sorts by odd-even transposition cost rows_cs rounds each;
        # each permutation costs at least the array length / cols rounds on
        # a linear-array substrate — credit it only rows_cs (optimistic).
        columnsort_rounds = 4 * rows_cs + 4 * rows_cs
        rows.append([n, total, ledger.total_rounds, columnsort_rounds])
        assert ledger.total_rounds < columnsort_rounds  # ours wins
    print_table(
        "rounds to sort N^3 keys: ours (grid) vs Columnsort (optimistic linear-array costs)",
        ["N", "keys", "ours", "columnsort >="],
        rows,
    )
