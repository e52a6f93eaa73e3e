#!/usr/bin/env python
"""The beyond-the-paper extensions, demonstrated on one dataset.

Three explorations grounded in the paper's §6 and §1 remarks:

1. **adaptive clean-check** — low-cardinality inputs skip Step 4 wholesale;
2. **bulk regime** — c keys per node via merge-split lifting: per-key cost
   flat in c on fixed hardware;
3. **randomized slab sort** — the §6 open problem, measured: infeasible at
   one key per node, practical with modest slack.

Run:  python examples/extensions_demo.py
"""

from __future__ import annotations

import random

import numpy as np

from repro import path_graph, lattice_to_sequence
from repro.core.adaptive import AdaptiveProductNetworkSorter
from repro.core.lattice_sort import ProductNetworkSorter
from repro.extensions import bulk_multiway_merge_sort, randomized_slab_sort


def demo_adaptive() -> None:
    print("=" * 64)
    print("1. Adaptive clean-check (skip Step 4 when the interleave is clean)")
    plain = ProductNetworkSorter.for_factor(path_graph(3), 4)
    adaptive = AdaptiveProductNetworkSorter.for_factor(path_graph(3), 4)
    rng = np.random.default_rng(0)
    for label, keys in [
        ("all-equal keys", np.zeros(81)),
        ("random 0-1 keys", rng.integers(0, 2, 81).astype(float)),
        ("full-entropy keys", rng.permutation(81).astype(float)),
    ]:
        _, p = plain.sort_sequence(keys)
        lat, a = adaptive.sort_sequence(keys)
        assert np.array_equal(lattice_to_sequence(lat), np.sort(keys))
        print(f"  {label:20s} plain {p.total_rounds:4d} rounds | adaptive "
              f"{a.total_rounds:4d} rounds (skipped {adaptive.steps4_skipped} levels)")


def demo_bulk() -> None:
    print("=" * 64)
    print("2. Bulk regime (c keys per node, merge-split compare-exchange)")
    rng = random.Random(1)
    for c in (1, 4, 16):
        keys = [rng.randrange(10**6) for _ in range(c * 27)]
        out, stats = bulk_multiway_merge_sort(keys, 3, c)
        assert out == sorted(keys)
        print(f"  c={c:3d}: {stats.total_keys:4d} keys on 27 nodes -> "
              f"{stats.modelled_rounds:4d} modelled rounds "
              f"({stats.modelled_rounds // c} per unit load — flat in c)")


def demo_randomized() -> None:
    print("=" * 64)
    print("3. Randomized slab sort (the paper's §6 open problem, measured)")
    rng = random.Random(2)
    keys = [rng.randrange(10**6) for _ in range(4**3)]
    try:
        randomized_slab_sort(keys, 4, 3, slack=1.0, rng=random.Random(3), max_attempts=40)
        print("  strict one-key capacity: balanced sample found (rare luck)")
    except RuntimeError:
        print("  strict one-key capacity: NO balanced sample in 40 attempts "
              "(expected — exact slab fits almost never happen)")
    for slack in (1.25, 1.5, 2.0):
        out, stats = randomized_slab_sort(
            keys, 4, 3, slack=slack, rng=random.Random(3), max_attempts=2000
        )
        assert out == sorted(keys)
        print(f"  slack {slack:4.2f}: sorted after {stats.attempts:3d} sampling "
              f"attempt(s), worst slab load {max(stats.loads)}/{stats.capacity}")
    print("  => randomization pays only once nodes hold more than one key —")
    print("     the regime of the randomized literature the paper cites.")


def main() -> None:
    demo_adaptive()
    demo_bulk()
    demo_randomized()


if __name__ == "__main__":
    main()
