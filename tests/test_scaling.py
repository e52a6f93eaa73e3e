"""Tests for the empirical growth-rate estimators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.scaling import (
    doubling_ratio,
    fit_polylog,
    fit_power_law,
    growth_exponent,
)


class TestPowerLaw:
    def test_exact_linear(self):
        xs = [2, 4, 8, 16]
        fit = fit_power_law(xs, [3 * x for x in xs])
        assert abs(fit.exponent - 1.0) < 1e-9
        assert abs(fit.coefficient - 3.0) < 1e-9
        assert fit.r_squared > 0.999

    def test_exact_quadratic(self):
        xs = [2, 3, 5, 9]
        assert abs(growth_exponent(xs, [x**2 for x in xs]) - 2.0) < 1e-9

    def test_with_lower_order_noise(self):
        xs = [8, 16, 32, 64, 128]
        ys = [3 * x + x**0.75 for x in xs]
        fit = fit_power_law(xs, ys)
        assert 0.95 < fit.exponent < 1.1

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0, 1])
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [1, 2, 3])


class TestPolylog:
    def test_log_squared(self):
        xs = [4, 16, 64, 256]
        ys = [5 * np.log2(x) ** 2 for x in xs]
        assert abs(fit_polylog(xs, ys) - 2.0) < 1e-9

    def test_requires_x_above_one(self):
        with pytest.raises(ValueError):
            fit_polylog([1, 2], [1, 2])


class TestDoublingRatio:
    def test_linear_doubles(self):
        xs = [4, 8, 16, 32]
        assert abs(doubling_ratio(xs, [7 * x for x in xs]) - 2.0) < 1e-9

    def test_quadratic_quadruples(self):
        xs = [4, 8, 16]
        assert abs(doubling_ratio(xs, [x * x for x in xs]) - 4.0) < 1e-9

    def test_requires_geometric_sweep(self):
        with pytest.raises(ValueError):
            doubling_ratio([4, 9], [1, 2])


class TestOnMeasuredData:
    def test_grid_rounds_are_linear_in_n(self):
        """End-to-end: measured grid costs fit exponent ~1 (the §5.1 shape)."""
        from repro.core.lattice_sort import ProductNetworkSorter
        from repro.graphs import path_graph

        rng = np.random.default_rng(0)
        xs, ys = [], []
        for n in (4, 8, 16, 32):
            sorter = ProductNetworkSorter.for_factor(path_graph(n), 2)
            keys = rng.integers(0, 2**20, size=n * n)
            _, ledger = sorter.sort_sequence(keys)
            xs.append(n)
            ys.append(ledger.total_rounds)
        assert 0.9 < growth_exponent(xs, ys) < 1.1

    def test_hypercube_rounds_are_quadratic_in_r(self):
        """The formula is quadratic in (r-1): 3(r-1)^2 + (r-1)(r-2)."""
        from repro.analysis.complexity import hypercube_sort_rounds

        rs = list(range(4, 40))
        ys = [hypercube_sort_rounds(r) for r in rs]
        assert 1.85 < growth_exponent([r - 1 for r in rs], ys) < 2.1
