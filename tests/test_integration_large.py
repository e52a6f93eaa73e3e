"""Larger-scale integration runs (lattice backend; seconds, not minutes)."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro

from repro.analysis.complexity import sort_rounds
from repro.core.lattice_sort import ProductNetworkSorter
from repro.graphs import (
    cycle_graph,
    de_bruijn_graph,
    k2,
    path_graph,
    petersen_graph,
)
from repro.orders import lattice_to_sequence

#: the 16-cube's emitted lattice schedule
CUBE16_HASH = "bc2565e193308685f5e0f37e77defce39f07a86e341b0e7bb185c393ed675145"


@pytest.mark.parametrize(
    "factory,r,size",
    [
        (lambda: path_graph(16), 3, 4096),
        (lambda: path_graph(8), 4, 4096),
        (lambda: cycle_graph(10), 3, 1000),
        (lambda: k2(), 12, 4096),
        (lambda: petersen_graph().canonically_labelled(), 3, 1000),
        (lambda: de_bruijn_graph(4), 3, 4096),
    ],
    ids=["grid16r3", "grid8r4", "torus10r3", "cube12", "petersen3", "debruijn4r3"],
)
def test_large_sorts(factory, r, size, rng):
    factor = factory()
    sorter = ProductNetworkSorter.for_factor(factor, r)
    assert sorter.network.num_nodes == size
    keys = rng.integers(-(2**31), 2**31, size=size)
    lattice, ledger = sorter.sort_sequence(keys)
    assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
    s2 = sorter.sorter2d.rounds(factor.n)
    routing = sorter.routing.rounds(factor.n)
    assert ledger.total_rounds == sort_rounds(r, s2, routing)


def test_hypercube_r16_accounting():
    """65,536 keys on the 16-cube: Theorem 1 at real scale, and the first
    sort's footprint.  It runs in a fresh process (``tests/_first_sort.py``),
    so its peak RSS is this sort's alone: the columnar schedule keeps it
    under 1 GB (the object-per-op schedule peaked at 3.5 GB)."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, root])}
    out = subprocess.run(
        [sys.executable, "-m", "tests._first_sort", "16"],
        env=env, cwd=root, capture_output=True, text=True, check=True,
    ).stdout
    footprint = json.loads(out)
    assert footprint["sorted"]
    assert footprint["total_rounds"] == 3 * 15**2 + 15 * 14
    assert footprint["s2_calls"] == 225
    assert footprint["schedule_hash"] == CUBE16_HASH
    assert footprint["peak_rss_mb"] <= 1024, footprint


def test_float_and_negative_keys_at_scale(rng):
    sorter = ProductNetworkSorter.for_factor(path_graph(10), 3)
    keys = rng.normal(scale=1e6, size=1000)
    lattice, _ = sorter.sort_sequence(keys)
    assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))


@pytest.mark.slow
def test_grid32_r3(rng):
    """32,768 keys on a 32^3 grid."""
    sorter = ProductNetworkSorter.for_factor(path_graph(32), 3)
    keys = rng.integers(0, 2**31, size=32**3)
    lattice, ledger = sorter.sort_sequence(keys)
    assert np.array_equal(lattice_to_sequence(lattice), np.sort(keys))
    assert ledger.total_rounds == sort_rounds(3, sorter.sorter2d.rounds(32), 31)
