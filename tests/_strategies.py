"""Hypothesis strategies for product-network property tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.graphs import (
    FactorGraph,
    complete_binary_tree,
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    star_graph,
)

__all__ = [
    "factor_graphs",
    "small_products",
    "key_arrays",
    "ORDERED_DTYPES",
    "UNORDERED_KINDS",
    "dtype_keys",
    "unordered_keys",
]

#: dtypes inside the kernel's key domain, sampled at their extremes
ORDERED_DTYPES = ("int8", "int64", "uint64", "bool", "float64")
#: keys outside it: every one must raise ``KeyDomainError``
UNORDERED_KINDS = ("nan", "datetime64", "complex", "object")


@st.composite
def factor_graphs(draw, min_n: int = 2, max_n: int = 6) -> FactorGraph:
    """A small connected factor graph: structured or random."""
    kind = draw(st.sampled_from(["path", "cycle", "complete", "star", "tree", "random"]))
    if kind == "path":
        return path_graph(draw(st.integers(min_n, max_n)))
    if kind == "cycle":
        return cycle_graph(draw(st.integers(max(3, min_n), max_n)))
    if kind == "complete":
        return complete_graph(draw(st.integers(min_n, max_n)))
    if kind == "star":
        return star_graph(draw(st.integers(min_n, max_n)))
    if kind == "tree":
        return complete_binary_tree(draw(st.integers(1, 2)))
    n = draw(st.integers(max(3, min_n), max_n))
    seed = draw(st.integers(0, 10_000))
    return random_connected_graph(n, extra_edge_prob=0.2, seed=seed)


@st.composite
def small_products(draw, max_nodes: int = 128) -> tuple[FactorGraph, int]:
    """A (factor, r) pair whose product stays under ``max_nodes`` nodes."""
    factor = draw(factor_graphs())
    max_r = 2
    while factor.n ** (max_r + 1) <= max_nodes:
        max_r += 1
    r = draw(st.integers(2, max_r))
    return factor, r


@st.composite
def key_arrays(draw, size: int, low: int = -100, high: int = 100) -> np.ndarray:
    """An integer key array of exactly ``size`` entries (duplicates likely)."""
    values = draw(
        st.lists(st.integers(low, high), min_size=size, max_size=size)
    )
    return np.array(values)


def dtype_keys(dtype: str, shape, rng: np.random.Generator) -> np.ndarray:
    """Random keys of one ordered dtype, heavy on its extremes and duplicates
    (float64: ±inf, ±0.0, the largest and the smallest subnormal)."""
    if dtype == "bool":
        return rng.integers(0, 2, size=shape).astype(bool)
    if dtype == "float64":
        pool = np.array([np.inf, -np.inf, -0.0, 0.0, 1e308, -1e308, 5e-324, 1.5, -1.5])
        return np.where(rng.random(shape) < 0.5, rng.choice(pool, shape), rng.normal(size=shape))
    info = np.iinfo(dtype)
    pool = np.array([info.min, info.max, info.min + 1, info.max - 1, 0], dtype=dtype)
    noise = rng.integers(info.min, info.max, size=shape, dtype=dtype, endpoint=True)
    return np.where(rng.random(shape) < 0.3, rng.choice(pool, shape), noise)


def unordered_keys(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    """A key vector outside the key domain: float with NaN, datetime64 (NaT
    sometimes), complex, or objects of mixed type."""
    spot = rng.integers(0, size)
    if kind == "nan":
        keys = rng.normal(size=size)
        keys[spot] = np.nan
    elif kind == "datetime64":
        keys = rng.integers(0, 10**9, size).astype("datetime64[s]")
        if rng.random() < 0.5:
            keys[spot] = np.datetime64("NaT")
    elif kind == "complex":
        keys = rng.normal(size=size) + 1j * rng.normal(size=size)
        if rng.random() < 0.5:
            keys[spot] = complex(np.nan, 0.0)
    elif kind == "object":
        keys = rng.integers(0, 9, size).astype(object)
        keys[spot] = rng.choice(["7", None, 1.5])
    else:
        raise ValueError(f"unknown unordered key kind {kind!r}")
    return keys
