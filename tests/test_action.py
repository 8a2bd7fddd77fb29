"""Discrete action: closed-form oracles, derivatives, symmetries, limits."""

import math
from dataclasses import replace

import numpy as np
import pytest

from hypchoreo.action import (
    COLLISION_THRESHOLD,
    CollisionError,
    Configuration,
    action_gradient,
    action_hessian,
    action_value,
    evaluate,
    hyperboloid_energies,
    pairwise_separations,
    quadrature_size,
    _transform,
)
from hypchoreo.optimizer import random_seed
from hypchoreo.trigpath import TrigPath, nodes, pack_vars, rotate_vars, shift_vars


def circle_vars(r, K, phase=0.0):
    """Packed coefficients of q(t) = r e^{i(t + phase)}."""
    c = np.zeros(2 * K + 1, dtype=complex)
    c[K + 1] = r * np.exp(1j * phase)
    return pack_vars(TrigPath(c))


def circle_action_oracle(r, config):
    """Closed-form action of the circular orbit q = r e^{it}.

    Every integrand is constant in time for this orbit, so the action is
    2 pi times the integrand: kinetic (n/2) lam(r) r^2 (1 + omega)^2 plus,
    per pair offset j, the potential kernel at the constant separation
    D_j = lam(r)^{1/2} r |1 - e^{2 pi i j / n}| (chordal; Euclidean when
    planar).  Written directly from the formulas, independently of the
    package's node/FFT machinery.
    """
    n, R, w = config.n, config.R, config.omega
    kinetic_density = r * r * (1.0 + w) ** 2
    total = 0.0
    if math.isinf(R):
        total += 0.5 * n * kinetic_density * 2.0 * math.pi
        for j in range(1, n):
            d = 2.0 * r * math.sin(math.pi * j / n)
            total += 0.5 * n * 2.0 * math.pi / d
        return total
    lam = 4.0 * R ** 4 / (R * R - r * r) ** 2
    total = 0.5 * n * lam * kinetic_density * 2.0 * math.pi
    for j in range(1, n):
        chord = 2.0 * r * math.sin(math.pi * j / n)
        d = math.sqrt(lam) * chord  # equals 2R^2 chord / (R^2 - r^2)
        kernel = (2.0 * R * R + d * d) / (d * math.sqrt(4.0 * R * R + d * d))
        total += (0.5 * n / R) * kernel * 2.0 * math.pi
    return total


FD_CONFIGS = [
    Configuration(n=3, R=1.5, K=8),
    Configuration(n=4, R=2.0, K=6, omega=1.3),
    Configuration(n=5, R=math.inf, K=6, omega=2.8),
    Configuration(n=3, R=math.inf, K=6),
]


def feasible_point(config, rng):
    x = pack_vars(random_seed(config, modes=min(5, config.K), rng_seed=int(rng.integers(1 << 20))))
    return x + 0.005 * rng.standard_normal(x.size)


class TestQuadratureSize:
    def test_formula(self):
        assert quadrature_size(27) == 111
        assert quadrature_size(1) == 7


class TestCircleOracle:
    @pytest.mark.parametrize(
        "config,r",
        [
            (Configuration(n=2, R=1.6, K=4), 0.5),
            (Configuration(n=3, R=1.3, K=4), 0.4),
            (Configuration(n=5, R=2.0, K=6, omega=2.8), 0.55),
            (Configuration(n=2, R=2.0, K=4, omega=0.7), 0.6),
            (Configuration(n=3, R=math.inf, K=4), 0.7),
            (Configuration(n=5, R=math.inf, K=4, omega=-1.2), 0.9),
        ],
    )
    def test_action_matches_closed_form(self, config, r):
        got = action_value(circle_vars(r, config.K), config)
        expect = circle_action_oracle(r, config)
        assert got == pytest.approx(expect, rel=1e-13)

    def test_separations_match_chord_formula(self):
        config = Configuration(n=5, R=1.7, K=3)
        r = 0.62
        path = TrigPath(np.concatenate([np.zeros(4), [r], np.zeros(2)]))
        lam = 4.0 * config.R ** 4 / (config.R ** 2 - r * r) ** 2
        seps = pairwise_separations(path, config)
        for j, s in enumerate(seps, start=1):
            expect = math.sqrt(lam) * 2.0 * r * math.sin(math.pi * j / config.n)
            worst = float(np.max(np.abs(s.values.real - expect)))
            assert worst <= 1e-13 * expect, f"pair {j}"


class TestDerivatives:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        h = 1e-6
        for config in FD_CONFIGS:
            for _ in range(4):
                x = feasible_point(config, rng)
                g = action_gradient(x, config)
                idx = rng.choice(x.size, size=10, replace=False)
                for i in idx:
                    e = np.zeros(x.size)
                    e[i] = h
                    fd = (action_value(x + e, config) - action_value(x - e, config)) / (2 * h)
                    assert abs(g[i] - fd) <= 1e-6 * max(1.0, abs(fd)), f"{config}: var {i}"

    def test_hessian_matches_gradient_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-6
        for config in FD_CONFIGS:
            x = feasible_point(config, rng)
            H = action_hessian(x, config)
            idx = rng.choice(x.size, size=6, replace=False)
            for i in idx:
                e = np.zeros(x.size)
                e[i] = h
                fd_col = (action_gradient(x + e, config) - action_gradient(x - e, config)) / (2 * h)
                scale = max(1.0, float(np.max(np.abs(fd_col))))
                assert float(np.max(np.abs(H[:, i] - fd_col))) <= 1e-5 * scale, f"{config}: col {i}"

    def test_hessian_symmetric(self):
        rng = np.random.default_rng(43)
        for config in FD_CONFIGS:
            x = feasible_point(config, rng)
            H = action_hessian(x, config)
            assert float(np.max(np.abs(H - H.T))) <= 1e-12 * float(np.max(np.abs(H)))

    def test_orders_consistent(self):
        rng = np.random.default_rng(44)
        config = FD_CONFIGS[0]
        x = feasible_point(config, rng)
        e0 = evaluate(x, config, order=0)
        e1 = evaluate(x, config, order=1)
        e2 = evaluate(x, config, order=2)
        assert e0.value == e1.value == e2.value
        assert np.array_equal(e1.gradient, e2.gradient)
        assert e0.gradient is None and e1.hessian is None

    @pytest.mark.parametrize("config", FD_CONFIGS)
    def test_precise_gradient_agrees(self, config):
        rng = np.random.default_rng(45)
        x = feasible_point(config, rng)
        fast = action_gradient(x, config)
        slow = action_gradient(x, config, precise=True)
        assert float(np.max(np.abs(fast - slow))) <= 1e-11 * float(np.linalg.norm(fast))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps == np.finfo(float).eps, reason="long double is double precision here"
    )
    @pytest.mark.parametrize("K", [10, 52, 152])
    def test_long_double_transform_matches_exact_twiddle_dft(self, K):
        # The reference reduces m k mod M before exp, so its twiddles carry
        # no rounding from large arguments.
        sp = _transform(K, True)
        k = np.arange(-K, K + 1)
        r = (np.arange(sp.M)[:, None] * k[None, :]) % sp.M
        pi = np.longdouble("3.14159265358979323846264338327950288")
        E = np.exp(1j * (2 * pi * r.astype(np.longdouble) / sp.M))
        rng = np.random.default_rng(K)

        def random_complex(size):
            return (rng.standard_normal(size) + 1j * rng.standard_normal(size)).astype(np.clongdouble)

        c, d = random_complex(k.size), random_complex(sp.M)
        for got, want in ((sp.values(c), E @ c), (sp.adjoint(d), E.T @ d)):
            assert got.dtype == np.clongdouble
            error = float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
            assert error <= 20 * float(np.finfo(np.longdouble).eps)


class TestStackedEvaluation:
    @pytest.mark.parametrize("precise", [False, True], ids=["float64", "long_double"])
    def test_stacked_transforms_match_rows_bitwise(self, precise):
        sp = _transform(27, precise)
        rng = np.random.default_rng(49)

        def random_complex(shape):
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).astype(
                np.result_type(sp.real, 1j)
            )

        c, d = random_complex((4, sp.k.size)), random_complex((4, sp.M))
        for transform, rows in ((sp.values, c), (sp.adjoint, d)):
            out = transform(rows)
            assert out.dtype == np.result_type(sp.real, 1j)
            # Equal values; tobytes would also compare long double's padding bytes.
            for row, got in zip(rows, out):
                assert np.array_equal(transform(row), got)

    def test_one_ifft_per_stage(self, monkeypatch):
        calls = []
        ifft = np.fft.ifft

        def counted(*args, **kwargs):
            calls.append(1)
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counted)
        config = Configuration(n=5, R=1.2, K=10)
        x = feasible_point(config, np.random.default_rng(50))
        evaluate(x, config, order=0)
        assert len(calls) == 1
        # The gradient at the same point reuses the node values.
        evaluate(x, config, order=1)
        assert len(calls) == 2
        evaluate(x, config, order=2)
        assert len(calls) == 4

    @staticmethod
    def _fresh(x, config, order):
        """An evaluation that cannot reuse a kept state: another point comes between."""
        other = Configuration(n=2, R=math.inf, K=1)
        evaluate(np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0]), other, order=0)
        return evaluate(x.copy(), config, order=order)

    def test_reused_state_follows_in_place_edit(self):
        config = FD_CONFIGS[0]
        x = feasible_point(config, np.random.default_rng(51))
        before = evaluate(x, config, order=0).value
        x[3] += 1e-3
        got = evaluate(x, config, order=2)
        want = self._fresh(x, config, 2)
        assert got.value != before
        assert got.value == want.value
        assert np.array_equal(got.gradient, want.gradient)
        assert np.array_equal(got.hessian, want.hessian)

    @pytest.mark.parametrize("change", [{"R": 1.7}, {"omega": 0.4}], ids=["R", "omega"])
    def test_reused_state_follows_configuration(self, change):
        config = FD_CONFIGS[0]
        x = feasible_point(config, np.random.default_rng(52))
        before = evaluate(x, config, order=0).value
        other = replace(config, **change)
        got = evaluate(x, other, order=1)
        want = self._fresh(x, other, 1)
        assert got.value != before
        assert got.value == want.value
        assert np.array_equal(got.gradient, want.gradient)


class TestSymmetries:
    def test_rotation_invariance(self):
        rng = np.random.default_rng(46)
        for config in FD_CONFIGS:
            x = feasible_point(config, rng)
            a = action_value(x, config)
            for theta in (0.3, 1.7, -2.2):
                b = action_value(rotate_vars(x, theta), config)
                assert abs(b - a) <= 1e-12 * abs(a), f"{config}: theta={theta}"

    def test_grid_multiple_shift_exact(self):
        # Shifting by a multiple of the node spacing relabels the quadrature
        # nodes, so even rough paths reproduce the action to rounding.
        rng = np.random.default_rng(47)
        config = Configuration(n=3, R=1.5, K=4)
        x = feasible_point(config, rng)
        M = quadrature_size(config.K)
        a = action_value(x, config)
        for m in (1, 3, M // 2):
            b = action_value(shift_vars(x, 2.0 * np.pi * m / M), config)
            assert abs(b - a) <= 1e-12 * abs(a)

    def test_arbitrary_shift_on_smooth_path(self):
        # For well-resolved paths the aliasing term of the quadrature is far
        # below 1e-12 relative, so any shift preserves the action.
        config = Configuration(n=3, R=1.5, K=16)
        c = np.zeros(33, dtype=complex)
        c[17] = 0.45
        c[18] = 0.1j
        c[15] = 0.05
        x = pack_vars(TrigPath(c))
        a = action_value(x, config)
        rng = np.random.default_rng(48)
        for s in rng.uniform(0.0, 2.0 * np.pi, 5):
            b = action_value(shift_vars(x, float(s)), config)
            assert abs(b - a) <= 1e-12 * abs(a)


def doubled_path_vars():
    """Packed coefficients of a smooth n = 3 test path at K = 5."""
    c = np.zeros(11, dtype=complex)
    c[6] = 0.4
    c[7] = 0.06 + 0.03j
    c[4] = 0.05j
    return pack_vars(TrigPath(c))


def value_and_derivatives(evaluation, sigma=1.0):
    """(value, sigma * gradient, sigma^2 * Hessian) of an order-2 evaluation."""
    return evaluation.value, sigma * evaluation.gradient, sigma * sigma * evaluation.hessian


class TestPlanarLimit:
    @pytest.mark.parametrize(
        "order,bound_at_10", [(0, 1e-2), (1, 3e-2), (2, 1e-2)], ids=["value", "gradient", "hessian"]
    )
    def test_action_approaches_planar_action_of_doubled_path(self, order, bound_at_10):
        # A_R(q) = A_planar(2q) (1 + O(1/R^2)): the conformal factor tends
        # to 4 and the pair kernel to 1/(2|dq|), which together reproduce
        # the flat action of the doubled path.  So the gradient and the
        # Hessian in q tend to 2 and 4 times the flat ones at 2q (relative
        # errors about 0.5/R^2, 2/R^2 and 0.4/R^2 on this path).
        config_flat = Configuration(n=3, R=math.inf, K=5)
        x = doubled_path_vars()
        flat = value_and_derivatives(evaluate(2.0 * x, config_flat), 2.0)[order]
        errs = []
        for R in (10.0, 100.0, 1000.0):
            hyp = value_and_derivatives(evaluate(x, Configuration(n=3, R=R, K=5)))[order]
            errs.append(float(np.linalg.norm(hyp - flat) / np.linalg.norm(flat)))
        assert errs[0] <= bound_at_10
        # quadratic decay in 1/R: each decade of R drops the error 100x
        for lo, hi in zip(errs[1:], errs):
            assert 50.0 <= hi / lo <= 200.0, f"errors {errs}"

    @pytest.mark.parametrize("R", [1e80, 1e160])
    def test_huge_radius_is_flat_evaluation_of_doubled_path(self, R):
        # 1/R^2 is below double precision here, so the disk evaluation must
        # be the flat one at 2q, with no power of R overflowing on the way.
        config = Configuration(n=3, R=R, K=5)
        x = doubled_path_vars()
        got = value_and_derivatives(evaluate(x, config))
        want = value_and_derivatives(evaluate(2.0 * x, replace(config, R=math.inf)), 2.0)
        for name, a, b in zip(("value", "gradient", "hessian"), got, want):
            assert np.all(np.isfinite(a)), name
            assert np.linalg.norm(a - b) <= 1e-14 * np.linalg.norm(b), name


class TestInfeasible:
    def test_out_of_disk_is_infinite(self):
        config = Configuration(n=3, R=1.5, K=2)
        c = np.zeros(5, dtype=complex)
        c[2] = 1.5001
        out = evaluate(pack_vars(TrigPath(c)), config, order=2)
        assert math.isinf(out.value)
        assert np.all(np.isnan(out.gradient)) and out.gradient.shape == (10,)
        assert np.all(np.isnan(out.hessian)) and out.hessian.shape == (10, 10)

    def test_collision_is_infinite(self):
        # A constant path has all bodies coincident for every n.
        config = Configuration(n=2, R=1.5, K=1)
        c = np.array([0.0, 0.3 + 0.1j, 0.0])
        assert math.isinf(action_value(pack_vars(TrigPath(c)), config))

    def test_pairwise_separations_raises(self):
        config = Configuration(n=2, R=1.5, K=1)
        with pytest.raises(CollisionError):
            pairwise_separations(TrigPath([0.0, 0.25, 0.0]), config)

    def test_near_collision_threshold(self):
        # n=2 and a k=1 circle: bodies sit opposite, separation stays large;
        # shrink the radius toward the threshold and the value must blow up
        # smoothly, not crash.
        config = Configuration(n=2, R=1.5, K=1)
        tiny = 10.0 * COLLISION_THRESHOLD
        c = np.array([0.0, 0.0, tiny])
        value = action_value(pack_vars(TrigPath(c)), config)
        assert math.isfinite(value) and value > 1e10


class TestConfigurationValidation:
    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            Configuration(n=1, R=1.0, K=3)
        with pytest.raises(ValueError):
            Configuration(n=3, R=-1.0, K=3)
        with pytest.raises(ValueError):
            Configuration(n=3, R=1.0, K=0)

    def test_derived_sizes(self):
        config = Configuration(n=3, R=1.5, K=27)
        assert config.n_coefficients == 55
        assert config.n_vars == 110
        assert not config.is_planar
        assert Configuration(n=3, R=math.inf, K=3).is_planar


class TestHyperboloidEnergies:
    def test_circle_energy_integral_matches_action(self):
        # For the circular orbit the lifted kinetic and potential energies
        # are constant; their difference integrates to the disk action.
        config = Configuration(n=3, R=1.3, K=4)
        r = 0.45
        x = circle_vars(r, config.K)
        path = TrigPath((x[: 2 * config.K + 1] + 1j * x[2 * config.K + 1 :]))
        t = nodes(64)
        kin, pot = hyperboloid_energies(path, config, t)
        integral = 2.0 * np.pi * float(np.mean(kin - pot))
        assert integral == pytest.approx(action_value(x, config), rel=1e-12)

    def test_rotating_frame_term(self):
        config = Configuration(n=2, R=2.0, K=3, omega=0.7)
        r = 0.5
        x = circle_vars(r, config.K)
        path = TrigPath(x[:7] + 1j * x[7:])
        t = nodes(32)
        kin, pot = hyperboloid_energies(path, config, t)
        integral = 2.0 * np.pi * float(np.mean(kin - pot))
        assert integral == pytest.approx(action_value(x, config), rel=1e-12)

    def test_planar_rejected(self):
        config = Configuration(n=3, R=math.inf, K=2)
        with pytest.raises(ValueError):
            hyperboloid_energies(TrigPath(np.zeros(5)), config, [0.0])
