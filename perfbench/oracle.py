"""Independent correctness oracle and the floor.

The snake order is rebuilt here from the paper's definition of the N-ary
reflected Gray-code sequence (Definition 3), without calling the program:

* ``Q_1 = (0, 1, ..., N-1)``;
* ``Q_r`` concatenates ``[u]Q_{r-1}`` for ``u = 0 .. N-1``, where ``u`` is
  prefixed to ``Q_{r-1}`` for even ``u`` and to its reversal for odd ``u``.

A label ``(x_r, ..., x_1)`` names the node at flat index
``sum(x_i * N**(i-1))`` (row-major, ``x_r`` most significant).  The
expected output of sorting a row is ``np.sort`` scattered into that order;
the *floor* is the same computation, timed, because it is the fastest this
hardware produces the answer without the network.
"""

from __future__ import annotations

import numpy as np


class OracleMismatch(AssertionError):
    """A program output differs from the oracle; the run is aborted."""


def gray_sequence(n: int, r: int) -> list[tuple[int, ...]]:
    """``Q_r`` by Definition 3, labels written leftmost symbol first."""
    seq: list[tuple[int, ...]] = [(u,) for u in range(n)]
    for _ in range(r - 1):
        seq = [(u,) + s for u in range(n) for s in (seq if u % 2 == 0 else seq[::-1])]
    return seq


def snake_nodes(n: int, r: int) -> np.ndarray:
    """Flat node index holding sorted position ``p``, for every ``p``."""
    weights = n ** np.arange(r - 1, -1, -1)
    return np.asarray(gray_sequence(n, r), dtype=np.int64) @ weights


def floor_sort(keys: np.ndarray, snake: np.ndarray) -> np.ndarray:
    """``np.sort`` plus the snake scatter: the expected output and the floor."""
    out = np.empty_like(keys)
    out[..., snake] = np.sort(keys, axis=-1)
    return out


def check(got: np.ndarray, expected: np.ndarray, what: str) -> None:
    """Raise :class:`OracleMismatch` unless ``got`` equals ``expected`` exactly."""
    if got.shape != expected.shape or got.dtype != expected.dtype:
        raise OracleMismatch(
            f"{what}: got {got.dtype}{got.shape}, expected {expected.dtype}{expected.shape}"
        )
    if not np.array_equal(got, expected):
        bad = tuple(int(i) for i in np.argwhere(got != expected)[0])
        raise OracleMismatch(f"{what}: first wrong value at index {bad}")
