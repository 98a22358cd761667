"""Logarithmic-integral accuracy against two independent quadrature routes."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cheblab import analytic

import oracles


def numpy_rule_li(x: float) -> float:
    """The rule of analytic.li evaluated with numpy arrays, as a reference."""
    nodes, weights = np.polynomial.legendre.leggauss(20)
    a, b = math.log(2.0), math.log(x)
    edges = np.linspace(a, b, max(1, math.ceil(b - a)) + 1)
    total = 0.0
    for left, right in zip(edges[:-1], edges[1:]):
        half = (right - left) / 2.0
        u = (right + left) / 2.0 + half * nodes
        total += half * float(np.sum(np.exp(u) / u * weights))
    return total


class TestRule:
    def test_constants_are_leggauss_20(self):
        nodes, weights = np.polynomial.legendre.leggauss(20)
        half = analytic._GL_HALF
        assert [x for x, _ in half] == nodes[10:].tolist()
        assert [w for _, w in half] == weights[10:].tolist()
        assert [-x for x, _ in reversed(half)] == nodes[:10].tolist()
        assert [w for _, w in reversed(half)] == weights[:10].tolist()

    def test_matches_numpy_evaluation(self):
        # at x = n^2, the dihedral samples, and at x = T, the cyclotomic ones
        xs = [float(1 << r) * (1 << r) for r in range(2, 39)]
        xs += [(1 << r) * math.log(1 << r) ** alpha
               for alpha in (0.1, 0.5, 0.99) for r in range(2, 30)]
        for x in xs:
            assert analytic.li(x) == pytest.approx(numpy_rule_li(x),
                                                   rel=1e-15), x


class TestLi:
    @pytest.mark.parametrize("x,expected",
                             sorted(oracles.LI_HIGH_PRECISION.items()))
    def test_frozen_high_precision_values(self, x, expected):
        assert analytic.li(x) == pytest.approx(expected, rel=1e-12)

    def test_offset_normalization(self):
        assert analytic.li(2) == 0.0
        assert analytic.li(2.0) == 0.0

    def test_near_lower_endpoint(self):
        v = analytic.li(2.0 + 1e-9)
        assert 0.0 < v < 1e-8

    def test_domain_error(self):
        with pytest.raises(ValueError):
            analytic.li(1.999999)
        with pytest.raises(ValueError):
            analytic.li(0)
        with pytest.raises(ValueError):
            analytic.li(-5)

    @pytest.mark.parametrize("x", [10, 100, 10 ** 4, 10 ** 6])
    def test_agrees_with_adaptive_simpson(self, x):
        # second, structurally different quadrature: same value to 1e-9
        assert analytic.li(x) == pytest.approx(
            oracles.adaptive_simpson_li(x), rel=1e-9)

    @pytest.mark.parametrize("x", [10.0, 10.0 ** 3, 10.0 ** 6])
    def test_derivative_is_reciprocal_log(self, x):
        h = x * 1e-6
        slope = (analytic.li(x + h) - analytic.li(x)) / h
        assert slope == pytest.approx(1.0 / math.log(x), rel=1e-6)

    def test_strictly_increasing_and_below_x(self):
        xs = np.geomspace(2.0001, 1e12, 300)
        values = [analytic.li(float(x)) for x in xs]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v >= 0 for v in values)
        assert all(v < x for v, x in zip(values, xs))


class TestLiRatio:
    def test_smallest_case_positive_and_consistent(self):
        expected = analytic.li(16.0) * 2.0 * math.log(4) / 16.0
        got = oracles.li_ratio_to_asymptote(4)
        assert got == expected
        assert got > 0

    def test_frozen_sequence_r8_to_r20(self):
        got = [oracles.li_ratio_to_asymptote(1 << r) for r in range(8, 21)]
        assert got == pytest.approx(oracles.LI_RATIO_R8_R20, rel=1e-12)

    def test_strictly_decreasing_toward_one(self):
        seq = [oracles.li_ratio_to_asymptote(1 << r) for r in range(8, 21)]
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert all(v > 1.0 for v in seq)
        assert seq[-1] == pytest.approx(1.0, abs=0.1)

    def test_window_around_one_at_large_n(self):
        assert 0.9 < oracles.li_ratio_to_asymptote(1 << 20) < 1.1

    def test_domain_error(self):
        with pytest.raises(ValueError):
            oracles.li_ratio_to_asymptote(1)
        with pytest.raises(ValueError):
            oracles.li_ratio_to_asymptote(-4)
