"""Two-phase solver: generic BFGS oracles, circle equilibria, seed properties."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from hypchoreo.action import Configuration, action_value
from hypchoreo.optimizer import (
    InfeasibleSeedError,
    Phase1Options,
    Phase2Options,
    minimize_bfgs,
    phase2_newton,
    random_seed,
    solve,
)
from hypchoreo.solutions import load_bundled
from hypchoreo.trigpath import TrigPath, nodes, pack_vars


def circle_action(r, config):
    """Closed-form action of q = r e^{it}; written independently of the package."""
    n, R, w = config.n, config.R, config.omega
    if math.isinf(R):
        total = 0.5 * n * r * r * (1 + w) ** 2 * 2 * math.pi
        for j in range(1, n):
            total += 0.5 * n * 2 * math.pi / (2 * r * math.sin(math.pi * j / n))
        return total
    lam = 4 * R ** 4 / (R * R - r * r) ** 2
    total = 0.5 * n * lam * r * r * (1 + w) ** 2 * 2 * math.pi
    for j in range(1, n):
        d = math.sqrt(lam) * 2 * r * math.sin(math.pi * j / n)
        total += (0.5 * n / R) * (2 * R * R + d * d) / (d * math.sqrt(4 * R * R + d * d)) * 2 * math.pi
    return total


def best_circle(config):
    res = minimize_scalar(
        lambda r: circle_action(r, config),
        bounds=(0.05, 0.95 if config.is_planar else 0.95 * config.R),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return res.x, res.fun


class TestMinimizeBfgs:
    def test_convex_quadratic(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((8, 8))
        A = A @ A.T + 8.0 * np.eye(8)
        b = rng.standard_normal(8)
        x_star = np.linalg.solve(A, b)
        fun = lambda x: 0.5 * x @ A @ x - b @ x
        grad = lambda x: A @ x - b
        out = minimize_bfgs(fun, grad, np.zeros(8), Phase1Options(gradient_tolerance=1e-10))
        assert out.converged and not out.failed
        assert np.linalg.norm(out.x - x_star) <= 1e-7 * np.linalg.norm(x_star)

    def test_rosenbrock(self):
        fun = lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
        grad = lambda x: np.array(
            [
                -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                200 * (x[1] - x[0] ** 2),
            ]
        )
        out = minimize_bfgs(fun, grad, np.array([-1.2, 1.0]), Phase1Options(max_iterations=300, gradient_tolerance=1e-10))
        assert out.converged
        assert np.allclose(out.x, [1.0, 1.0], atol=1e-6)

    def test_values_non_increasing(self):
        fun = lambda x: float(x @ x) + math.sin(x[0])
        grad = lambda x: 2.0 * x + np.array([math.cos(x[0]), 0.0])
        out = minimize_bfgs(fun, grad, np.array([2.0, -3.0]))
        diffs = np.diff(out.values)
        assert np.all(diffs <= 1e-12)
        assert out.values[0] == fun(np.array([2.0, -3.0]))

    def test_backtracks_past_infeasible_region(self):
        # +inf trial values behave like any rejected step.
        def fun(x):
            if x[0] > 1.0:
                return math.inf
            return (x[0] - 0.9) ** 2

        grad = lambda x: np.array([2.0 * (x[0] - 0.9)])
        out = minimize_bfgs(fun, grad, np.array([-2.0]), Phase1Options(gradient_tolerance=1e-12))
        assert out.converged
        assert abs(out.x[0] - 0.9) <= 1e-6

    def test_infeasible_start_raises(self):
        with pytest.raises(InfeasibleSeedError):
            minimize_bfgs(lambda x: math.inf, lambda x: x, np.zeros(2))

    def test_line_search_failure_flagged(self):
        # An isolated feasible point with a steep slope: every trial is
        # infeasible and the requested decrease stays resolvable, so the
        # search must report failure rather than a quiet stall.
        x0 = np.array([0.0])

        def fun(x):
            return 1.0 if x[0] == 0.0 else math.inf

        grad = lambda x: np.array([1e6])
        out = minimize_bfgs(fun, grad, x0)
        assert out.failed and not out.converged
        assert "line search" in out.message
        assert out.x[0] == 0.0

    def test_rounding_floor_stalls_without_failure(self):
        # Same shape but with a slope so shallow the smallest trial asks
        # for less decrease than float resolution: that is a stall at the
        # rounding floor, not a line-search failure.
        def fun(x):
            return 1.0 if x[0] == 0.0 else math.inf

        grad = lambda x: np.array([1e-3])
        out = minimize_bfgs(fun, grad, np.array([0.0]))
        assert not out.failed and not out.converged
        assert out.x[0] == 0.0

    def test_converges_below_value_resolution(self):
        # Near the minimum the decrease of a step is far below what the
        # rounding-noisy values resolve; the slope at the trial decides
        # instead, so the gradient tolerance is still reached.
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 6))
        A = A @ A.T + 6.0 * np.eye(6)
        c = rng.standard_normal(6)
        fun = lambda x: 1.0 + 0.5 * (x - c) @ A @ (x - c) + 4e-16 * math.sin(1e9 * float(np.sum(x)))
        grad = lambda x: A @ (x - c)
        out = minimize_bfgs(fun, grad, np.zeros(6), Phase1Options(gradient_tolerance=1e-12))
        assert out.converged and not out.failed
        assert np.linalg.norm(out.x - c) <= 1e-11 * np.linalg.norm(c)

    def test_iteration_cap(self):
        fun = lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
        grad = lambda x: np.array(
            [
                -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                200 * (x[1] - x[0] ** 2),
            ]
        )
        out = minimize_bfgs(fun, grad, np.array([-1.2, 1.0]), Phase1Options(max_iterations=2))
        assert out.iterations == 2 and not out.converged

    def test_option_validation(self):
        with pytest.raises(ValueError):
            Phase1Options(gradient_tolerance=0.0)


class TestCircleEquilibria:
    """The circular orbit minimizes the action over circles; full solves
    from perturbed circles must land on it with the closed-form action."""

    def test_hyperbolic_three_body(self):
        config = Configuration(n=3, R=1.8, K=6)
        r_star, a_star = best_circle(config)
        c = np.zeros(13, dtype=complex)
        c[7] = r_star
        c[8] = 1e-3j
        c[9] = 1e-3
        ch = solve(config, TrigPath(c))
        assert ch.action == pytest.approx(a_star, rel=1e-12)
        rep = ch.report.phase2
        assert rep.converged
        assert rep.residual_rel_norm <= 1e-12
        assert rep.gradient_rel_norm <= 1e-13

    def test_planar_two_body(self):
        # Flat two-body circle: r^3 = 1/4 in these units.
        config = Configuration(n=2, R=math.inf, K=6)
        r_star = 4.0 ** (-1.0 / 3.0)
        a_star = circle_action(r_star, config)
        c = np.zeros(13, dtype=complex)
        c[7] = 0.5
        c[8] = 1e-3
        ch = solve(config, TrigPath(c))
        assert ch.action == pytest.approx(a_star, rel=1e-12)
        assert ch.report.phase2.residual_rel_norm <= 1e-12

    def test_rotating_frame_circle(self):
        config = Configuration(n=3, R=2.0, K=5, omega=0.8)
        r_star, a_star = best_circle(config)
        c = np.zeros(11, dtype=complex)
        c[6] = r_star * 1.05
        c[7] = 5e-4
        ch = solve(config, TrigPath(c))
        assert ch.action == pytest.approx(a_star, rel=1e-11)


class TestRandomSeed:
    def test_deterministic(self):
        config = Configuration(n=3, R=1.5, K=9)
        a = random_seed(config, modes=4, rng_seed=11)
        b = random_seed(config, modes=4, rng_seed=11)
        assert np.array_equal(a.coeffs, b.coeffs)
        c = random_seed(config, modes=4, rng_seed=12)
        assert not np.array_equal(a.coeffs, c.coeffs)

    def test_bandwidth_and_scale(self):
        config = Configuration(n=4, R=2.5, K=10)
        path = random_seed(config, modes=3, rng_seed=0)
        assert path.coeffs.size == 21
        k = np.arange(-10, 11)
        assert np.all(path.coeffs[np.abs(k) > 3] == 0.0)
        q = path.eval(nodes(2048))
        assert np.max(np.abs(q)) == pytest.approx(0.6 * config.R, rel=1e-4)

    def test_separation_floor(self):
        config = Configuration(n=5, R=1.5, K=8)
        for rng_seed in range(10):
            path = random_seed(config, rng_seed=rng_seed)
            t = nodes(1024)
            q = path.eval(t)
            R2 = config.R ** 2
            for j in range(1, config.n):
                qj = path.eval(t + 2.0 * np.pi * j / config.n)
                sep = 2.0 * R2 * np.abs(q - qj) / np.sqrt((R2 - np.abs(q) ** 2) * (R2 - np.abs(qj) ** 2))
                assert np.min(sep) >= 0.05 * config.R * (1.0 - 1e-9)

    def test_planar_scale(self):
        config = Configuration(n=3, R=math.inf, K=6)
        path = random_seed(config, rng_seed=3)
        q = path.eval(nodes(2048))
        assert np.max(np.abs(q)) == pytest.approx(0.6, rel=1e-4)

    def test_feasible_action(self):
        for rng_seed in range(5):
            config = Configuration(n=3, R=1.5, K=7)
            path = random_seed(config, rng_seed=rng_seed)
            assert math.isfinite(action_value(pack_vars(path), config))

    def test_validation(self):
        config = Configuration(n=3, R=1.5, K=4)
        with pytest.raises(ValueError):
            random_seed(config, modes=5)
        with pytest.raises(ValueError):
            random_seed(config, modes=0)


@pytest.fixture(scope="module")
def circle_solve():
    config = Configuration(n=3, R=1.8, K=6)
    c = np.zeros(13, dtype=complex)
    c[7] = 0.37
    c[8] = 1e-3j
    return config, solve(config, TrigPath(c))


class TestSolvePlumbing:
    def test_report_structure(self, circle_solve):
        config, ch = circle_solve
        r1, r2 = ch.report.phase1, ch.report.phase2
        assert r1 is not None and r2 is not None
        assert r1.coefficient_count == 2 * config.K + 1
        assert r2.coefficient_count == 2 * (2 * config.K) + 1
        assert r2.action <= r1.action + 1e-9 * abs(r1.action)
        assert ch.report.final is r2
        assert ch.action == r2.action
        assert ch.config.K == 2 * config.K
        assert r1.wall_time_seconds >= 0.0 and r2.wall_time_seconds >= 0.0

    def test_deterministic(self):
        config = Configuration(n=3, R=1.8, K=5)
        seed = random_seed(config, modes=3, rng_seed=2)
        a = solve(config, seed)
        b = solve(config, seed)
        assert np.array_equal(a.path.coeffs, b.path.coeffs)

    def test_explicit_k2(self):
        config = Configuration(n=3, R=1.8, K=6)
        c = np.zeros(13, dtype=complex)
        c[7] = 0.37
        ch = solve(config, TrigPath(c), options2=Phase2Options(K2=9))
        assert ch.path.coeffs.size == 19

    def test_k2_validation(self):
        config = Configuration(n=3, R=1.8, K=6)
        c = np.zeros(13, dtype=complex)
        c[7] = 0.37
        with pytest.raises(ValueError):
            solve(config, TrigPath(c), options2=Phase2Options(K2=5))

    def test_wide_seed_rejected(self):
        config = Configuration(n=3, R=1.8, K=4)
        c = np.zeros(13, dtype=complex)
        c[7] = 0.37
        with pytest.raises(ValueError):
            solve(config, TrigPath(c))

    def test_infeasible_seed_raises(self):
        config = Configuration(n=3, R=1.8, K=4)
        c = np.zeros(9, dtype=complex)
        c[4] = 0.3 + 0.1j  # constant path: all bodies coincide
        with pytest.raises(InfeasibleSeedError):
            solve(config, TrigPath(c))


class TestPhase2Newton:
    def test_polishes_perturbed_circle(self):
        config = Configuration(n=3, R=1.8, K=8)
        r_star, a_star = best_circle(config)
        c = np.zeros(17, dtype=complex)
        c[9] = r_star * (1.0 + 1e-4)
        c[10] = 1e-5j
        out = phase2_newton(pack_vars(TrigPath(c)), config)
        assert out.converged
        assert out.gradient_rel_norm <= 1e-13
        assert out.value == pytest.approx(a_star, rel=1e-12)
        assert out.iterations <= 6

    @pytest.mark.parametrize("name", ["figure_eight", "five_body_c", "relative_c"])
    def test_tolerance_below_rounding_floor(self, name):
        # A converged orbit cannot reach 1e-16 in float64: its gradient is
        # rounding noise, which must read as convergence, not divergence.
        orbit = load_bundled(name)
        out = phase2_newton(pack_vars(orbit.path), orbit.config, Phase2Options(gradient_tolerance=1e-16))
        assert out.converged and not out.failed
        assert out.iterations <= 1
        assert "rounding floor" in out.message

    def test_infeasible_start_raises(self):
        config = Configuration(n=2, R=1.5, K=2)
        with pytest.raises(InfeasibleSeedError):
            phase2_newton(pack_vars(TrigPath(np.array([0, 0, 0.1, 0, 0], dtype=complex))), config)
