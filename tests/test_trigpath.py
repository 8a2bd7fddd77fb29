"""Spectral path representation: interpolation, calculus, quadrature."""

import numpy as np
import pytest

from hypchoreo.trigpath import (
    TrigPath,
    nodes,
    pack_vars,
    trapezoid_integral,
    unpack_vars,
)


def random_path(rng, K, scale=1.0):
    c = scale * (rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1))
    return TrigPath(c)


class TestNodesAndValues:
    def test_grid(self):
        t = nodes(4)
        assert np.allclose(t, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])
        with pytest.raises(ValueError):
            nodes(0)


class TestInterpolation:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(21)
        for K in (0, 1, 5, 16):
            path = random_path(rng, K)
            again = TrigPath.from_samples(path.at_nodes(2 * K + 1))
            assert np.max(np.abs(again.coeffs - path.coeffs)) <= 1e-14 * np.max(
                np.abs(path.coeffs)
            )

    def test_at_nodes_matches_direct_eval(self):
        rng = np.random.default_rng(22)
        path = random_path(rng, 6)
        for N in (13, 14, 27, 40):
            grid = path.at_nodes(N)
            direct = path.eval(nodes(N))
            assert np.max(np.abs(grid - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_at_nodes_rejects_undersampling(self):
        path = random_path(np.random.default_rng(23), 5)
        with pytest.raises(ValueError):
            path.at_nodes(10)

    def test_from_samples_rejects_even(self):
        with pytest.raises(ValueError):
            TrigPath.from_samples(np.ones(4))

    def test_known_interpolant(self):
        # cos t = (e^{it} + e^{-it}) / 2
        vals = np.cos(nodes(5)).astype(complex)
        path = TrigPath.from_samples(vals)
        expect = np.array([0.0, 0.5, 0.0, 0.5, 0.0])
        assert np.allclose(path.coeffs, expect, atol=1e-15)


class TestCalculus:
    def test_derivative_analytic(self):
        rng = np.random.default_rng(24)
        path = random_path(rng, 8)
        t = rng.uniform(0.0, 2.0 * np.pi, 40)
        h = 1e-6
        fd = (path.eval(t + h) - path.eval(t - h)) / (2.0 * h)
        exact = path.derivative().eval(t)
        assert np.max(np.abs(fd - exact)) <= 1e-8 * (1.0 + np.max(np.abs(exact)))

    def test_shift_property(self):
        rng = np.random.default_rng(25)
        path = random_path(rng, 7)
        tau = 0.83
        t = rng.uniform(0.0, 2.0 * np.pi, 30)
        assert np.allclose(path.shift(tau).eval(t), path.eval(t + tau), rtol=1e-13, atol=1e-13)

    def test_pad_preserves_values(self):
        rng = np.random.default_rng(26)
        path = random_path(rng, 4)
        padded = path.pad(11)
        assert padded.K == 11
        t = rng.uniform(0.0, 2.0 * np.pi, 20)
        assert np.allclose(padded.eval(t), path.eval(t), rtol=1e-14)
        with pytest.raises(ValueError):
            path.pad(3)

    def test_wavenumbers(self):
        assert np.array_equal(random_path(np.random.default_rng(0), 2).wavenumbers,
                              [-2, -1, 0, 1, 2])


class TestQuadrature:
    def test_exact_for_bandwidth_below_node_count(self):
        # Integral of sum c_k e^{ikt} over a period is 2 pi c_0; the
        # equispaced trapezoid rule reproduces it exactly while N > 2K.
        rng = np.random.default_rng(27)
        for trial in range(25):
            K = int(rng.integers(0, 12))
            N = 2 * K + 1 + int(rng.integers(0, 9))
            path = random_path(rng, K)
            exact = 2.0 * np.pi * path.coeffs[K]
            got = trapezoid_integral(path.at_nodes(N))
            scale = max(abs(exact), 1.0)
            assert abs(got - exact) / scale <= 1e-14, f"trial {trial}: K={K} N={N}"

    def test_aliasing_kicks_in_at_bandwidth_equal_node_count(self):
        # e^{iNt} on N nodes aliases to the constant 1.
        N = 9
        vals = np.exp(1j * N * nodes(N))
        assert trapezoid_integral(vals) == pytest.approx(2.0 * np.pi, rel=1e-14)

    def test_plain_array_input(self):
        assert trapezoid_integral(np.ones(7)) == pytest.approx(2.0 * np.pi, rel=1e-15)


class TestPackedVector:
    def test_round_trip(self):
        rng = np.random.default_rng(28)
        path = random_path(rng, 6)
        again = unpack_vars(pack_vars(path))
        assert np.array_equal(again.coeffs, path.coeffs)

    def test_unpack_validation(self):
        with pytest.raises(ValueError):
            unpack_vars(np.zeros(7))
        with pytest.raises(ValueError):
            unpack_vars(np.zeros(12))  # half = 6 is even, not 2K+1


class TestValidation:
    def test_even_coefficient_count_rejected(self):
        with pytest.raises(ValueError):
            TrigPath([1.0, 2.0])
        with pytest.raises(ValueError):
            TrigPath(np.zeros((3, 3)))

    def test_single_coefficient(self):
        path = TrigPath([2.0 + 1.0j])
        assert path.K == 0
        assert path.eval(1.234) == pytest.approx(2.0 + 1.0j)
