"""Two-phase solver: generic BFGS oracles, circle equilibria, seed properties."""

import math
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from hypchoreo import optimizer
from hypchoreo.action import Configuration, action_value, evaluate
from hypchoreo.continuation import continue_in_R, solve_planar
from hypchoreo.optimizer import (
    _EIGENVALUE_FLOOR,
    Choreography,
    InfeasibleSeedError,
    Phase2Options,
    PhaseResult,
    SolveFailure,
    _bfgs_update,
    _cholesky_solve,
    _newton_step,
    minimize_bfgs,
    phase1_bfgs,
    phase2_newton,
    random_seed,
    solve,
)
from hypchoreo.solutions import load_bundled
from hypchoreo.trigpath import TrigPath, _fit_bandwidth, nodes, pack_vars, unpack_vars
from hypchoreo.verify import SolveReport, verify_all
from circles import circle_action
from test_cli import diverging, infeasible_start, stalling


def bfgs_work(dim):
    """The buffers minimize_bfgs hands _bfgs_update."""
    return np.empty((dim, 2)), np.empty((2, dim)), np.empty((dim, dim))


def stacked_update(Hinv, s, y, sy, work=None):
    """The inverse-BFGS update with fresh np.stack operands, the form the
    buffered _bfgs_update must reproduce bit for bit."""
    Hy = Hinv @ y
    u = ((sy + float(y @ Hy)) / (2.0 * sy * sy)) * s - Hy / sy
    Hinv += np.stack((u, s), axis=1) @ np.stack((s, u))


def best_circle(config):
    res = minimize_scalar(
        lambda r: circle_action(r, config),
        bounds=(0.05, 0.95 if config.is_planar else 0.95 * config.R),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return res.x, res.fun


class TestMinimizeBfgs:
    def test_convex_quadratic(self, monkeypatch):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((8, 8))
        A = A @ A.T + 8.0 * np.eye(8)
        b = rng.standard_normal(8)
        x_star = np.linalg.solve(A, b)
        fun = lambda x: 0.5 * x @ A @ x - b @ x
        grad = lambda x: A @ x - b
        monkeypatch.setattr(optimizer, "_BFGS_TOLERANCE", 1e-10)
        out = minimize_bfgs(fun, grad, np.zeros(8))
        assert out.converged and not out.failed
        assert out.message == "converged at tolerance 1.0e-10"
        assert np.linalg.norm(out.x - x_star) <= 1e-7 * np.linalg.norm(x_star)

    def test_rosenbrock(self, monkeypatch):
        fun = lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
        grad = lambda x: np.array(
            [
                -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                200 * (x[1] - x[0] ** 2),
            ]
        )
        monkeypatch.setattr(optimizer, "_BFGS_MAX_ITERATIONS", 300)
        monkeypatch.setattr(optimizer, "_BFGS_TOLERANCE", 1e-10)
        out = minimize_bfgs(fun, grad, np.array([-1.2, 1.0]))
        assert out.converged
        assert np.allclose(out.x, [1.0, 1.0], atol=1e-6)

    def test_values_non_increasing(self):
        fun = lambda x: float(x @ x) + math.sin(x[0])
        grad = lambda x: 2.0 * x + np.array([math.cos(x[0]), 0.0])
        out = minimize_bfgs(fun, grad, np.array([2.0, -3.0]))
        diffs = np.diff(out.values)
        assert np.all(diffs <= 1e-12)
        assert out.values[0] == fun(np.array([2.0, -3.0]))

    def test_backtracks_past_infeasible_region(self, monkeypatch):
        # +inf trial values behave like any rejected step.
        def fun(x):
            if x[0] > 1.0:
                return math.inf
            return (x[0] - 0.9) ** 2

        grad = lambda x: np.array([2.0 * (x[0] - 0.9)])
        monkeypatch.setattr(optimizer, "_BFGS_TOLERANCE", 1e-12)
        out = minimize_bfgs(fun, grad, np.array([-2.0]))
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
        assert out.message.startswith("stopped at the rounding floor")

    def test_converges_below_value_resolution(self, monkeypatch):
        # Near the minimum the decrease of a step is far below what the
        # rounding-noisy values resolve; the slope at the trial decides
        # instead, so the gradient tolerance is still reached.
        rng = np.random.default_rng(9)
        A = rng.standard_normal((6, 6))
        A = A @ A.T + 6.0 * np.eye(6)
        c = rng.standard_normal(6)
        fun = lambda x: 1.0 + 0.5 * (x - c) @ A @ (x - c) + 4e-16 * math.sin(1e9 * float(np.sum(x)))
        grad = lambda x: A @ (x - c)
        monkeypatch.setattr(optimizer, "_BFGS_TOLERANCE", 1e-12)
        out = minimize_bfgs(fun, grad, np.zeros(6))
        assert out.converged and not out.failed
        assert np.linalg.norm(out.x - c) <= 1e-11 * np.linalg.norm(c)

    def test_steepest_descent_when_not_a_descent_direction(self, monkeypatch):
        # An update that leaves -I makes -Hinv g point uphill: the iteration
        # resets to the identity and steps along -g.  On this quadratic a
        # unit steepest-descent step is accepted, so every evaluated point
        # is the previous one minus its gradient.
        a, b = np.array([0.5, 1.5]), np.array([1.0, 1.0])
        points = []

        def fun(x):
            points.append(x.copy())
            return 0.5 * float(a @ (x - b) ** 2)

        grad = lambda x: a * (x - b)
        updates = []

        def to_minus_identity(Hinv, s, y, sy, work):
            updates.append(sy)
            Hinv[...] = -np.eye(Hinv.shape[0])

        monkeypatch.setattr(optimizer, "_bfgs_update", to_minus_identity)
        monkeypatch.setattr(optimizer, "_BFGS_TOLERANCE", 1e-8)
        out = minimize_bfgs(fun, grad, np.zeros(2))
        assert out.converged and not out.failed
        assert len(updates) == out.iterations >= 2
        assert len(points) == out.iterations + 1
        for before, after in zip(points, points[1:]):
            assert np.array_equal(after, before - grad(before))

    def test_step_too_small_to_move_x(self, monkeypatch):
        # The first step, 2e-30, vanishes against x = 1: the run stops
        # with that verdict instead of looping on a zero step.
        monkeypatch.setattr(optimizer, "_BFGS_TOLERANCE", 1e-40)
        out = minimize_bfgs(lambda x: 1e-30 * float(x @ x), lambda x: 2e-30 * x, np.array([1.0]))
        assert not out.converged and not out.failed
        assert out.message == "stopped: the accepted step is too small to move x"
        assert out.iterations == 0 and out.x[0] == 1.0

    def test_iteration_cap(self, monkeypatch):
        fun = lambda x: (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2
        grad = lambda x: np.array(
            [
                -2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                200 * (x[1] - x[0] ** 2),
            ]
        )
        monkeypatch.setattr(optimizer, "_BFGS_MAX_ITERATIONS", 2)
        out = minimize_bfgs(fun, grad, np.array([-1.2, 1.0]))
        assert out.iterations == 2 and not out.converged and not out.failed
        assert out.message.startswith("iteration limit 2 reached")
        # The gradient grows after iteration 4: the verdict names the
        # smallest one seen, not the last.
        monkeypatch.setattr(optimizer, "_BFGS_MAX_ITERATIONS", 6)
        out = minimize_bfgs(fun, grad, np.array([-1.2, 1.0]))
        g = out.gradient_norms
        assert min(g) == g[4] < g[6] == out.gradient_rel_norm
        assert out.message == (
            f"iteration limit 6 reached at relative gradient {g[6]:.2e}; smallest {g[4]:.2e} at iteration 4"
        )

    def test_stalls_after_its_smallest_gradient(self):
        # The two-body circle reaches its smallest relative gradient at
        # iteration 27, above the tolerance, and its value stops falling:
        # the run stops 100 iterations later and returns its last iterate.
        config = Configuration(n=2, R=1.5, K=4)
        out = optimizer.phase1_bfgs(pack_vars(random_seed(config, modes=2, rng_seed=0)), config)
        g = out.gradient_norms
        assert not out.converged and not out.failed
        assert out.iterations == 127 == len(g) - 1
        assert min(g) == g[27] > optimizer._BFGS_TOLERANCE
        assert out.message == (
            f"stalled: smallest relative gradient {g[27]:.2e} at iteration 27, none smaller in 100 iterations"
        )
        assert out.value == out.values[-1] == action_value(out.x, config)
        assert out.gradient_rel_norm == g[-1]

    @pytest.mark.parametrize("offset, stalls", [(0.0, False), (1e12, True)])
    def test_stall_needs_the_value_to_stop_falling(self, offset, stalls, monkeypatch):
        # f = offset + x from x = 1000: each step is x -> x - 1, so the
        # value falls by 1 per iteration while the relative gradient 1/|x|
        # grows, and the first one stays the smallest.  From iteration 100
        # on only the value decides: 100 over 100 iterations is a fall of
        # 0.1 relative without the offset, and of 1e-10 relative with it.
        monkeypatch.setattr(optimizer, "_BFGS_MAX_ITERATIONS", 150)
        out = minimize_bfgs(lambda x: offset + float(x[0]), lambda x: np.ones(1), np.array([1000.0]))
        g = out.gradient_norms
        assert not out.converged and not out.failed
        assert min(g) == g[0] < g[-1]
        assert out.values[-1] == offset + 1000.0 - out.iterations
        if stalls:
            assert out.iterations == 100
            assert out.message.startswith("stalled: smallest relative gradient 1.00e-03 at iteration 0,")
        else:
            assert out.iterations == 150
            assert out.message.startswith("iteration limit 150 reached")

    @pytest.mark.parametrize(
        "K2, error",
        [(2.5, TypeError), (True, TypeError), (0, ValueError), (-3, ValueError)],
        ids=["fraction", "bool", "zero", "negative"],
    )
    def test_K2_validation(self, K2, error):
        with pytest.raises(error):
            Phase2Options(K2=K2)

    @pytest.mark.parametrize("dim", [110, 306])
    def test_update_matches_product_form(self, dim):
        rng = np.random.default_rng(dim)
        A = rng.standard_normal((dim, dim))
        H = A @ A.T / dim + np.eye(dim)
        s = rng.standard_normal(dim)
        y = (A @ A.T / dim + 2.0 * np.eye(dim)) @ s
        sy = float(s @ y)
        rho = 1.0 / sy
        left = np.eye(dim) - rho * np.outer(s, y)
        want = left @ H @ left.T + rho * np.outer(s, s)
        got = H.copy()
        _bfgs_update(got, s, y, sy, bfgs_work(dim))
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= 1e-13 * scale
        assert np.max(np.abs(got - got.T)) <= 4 * np.finfo(float).eps * scale

    @pytest.mark.parametrize("dim", [110, 150])
    def test_buffered_update_matches_stacked_bitwise(self, dim):
        # Three updates through the same buffers give the np.stack form's
        # Hinv bit for bit.
        rng = np.random.default_rng(dim + 1)
        A = rng.standard_normal((dim, dim))
        got = A @ A.T / dim + np.eye(dim)
        want = got.copy()
        work = bfgs_work(dim)
        for _ in range(3):
            s = rng.standard_normal(dim)
            y = (A @ A.T / dim + 2.0 * np.eye(dim)) @ s
            sy = float(s @ y)
            _bfgs_update(got, s, y, sy, work)
            stacked_update(want, s, y, sy)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", ["figure_eight_seed", "five_body_c_seed", "relative_a_seed"])
    def test_phase1_same_with_stacked_update(self, name, monkeypatch):
        # Phase 1 from a bundled seed takes the same iterates, bit for bit,
        # as with the np.stack form of the update.
        seed = load_bundled(name)
        x0 = pack_vars(seed.path)
        got = phase1_bfgs(x0, seed.config)
        monkeypatch.setattr(optimizer, "_bfgs_update", stacked_update)
        want = phase1_bfgs(x0, seed.config)
        assert got.iterations == want.iterations
        assert got.x.tobytes() == want.x.tobytes()
        assert got.values == want.values


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

    def test_no_feasible_draw_raises(self):
        # 200 bodies on one-mode paths at 0.6 R cannot keep 0.05 R apart.
        with pytest.raises(InfeasibleSeedError, match="^no feasible random seed found in 100 draws$"):
            random_seed(Configuration(n=200, R=2.0, K=3), modes=1)


class TestSearchTrialVerdicts:
    """Phase 1 of the 20 trials of `hypchoreo search --n 5 --R 1.2 --K 27
    --trials 20 --rng 0`, in process: which trials stall, at which best
    iterate, and which orbits the others reach.  Trial 6 goes 148
    iterations without a smaller gradient before it converges, so its
    verdict and action pin the stall test's value clause."""

    def test_phase1_verdicts_and_actions(self):
        config = Configuration(n=5, R=1.2, K=27)
        stalled = {8: 201, 11: 138, 13: 173, 16: 108, 19: 277}
        actions = {}
        for trial in range(20):
            result = optimizer.phase1_bfgs(pack_vars(random_seed(config, modes=5, rng_seed=trial)), config)
            assert result.converged == (trial not in stalled), trial
            if trial in stalled:
                assert not result.failed and result.iterations < optimizer._BFGS_MAX_ITERATIONS, trial
                assert result.message.startswith("stalled: smallest relative gradient"), trial
                assert result.message.endswith(f"at iteration {stalled[trial]}, none smaller in 100 iterations"), trial
            else:
                actions[trial] = result.value
        groups = {80.351827: set(actions) - {0, 6}, 90.607350: {0}, 94.607111: {6}}
        assert len(groups[80.351827]) == 13
        for action, trials in groups.items():
            assert {trial for trial, value in actions.items() if abs(value - action) <= 1e-6} == trials, action

    def test_trial_6_newton_end_survives_one_ulp(self):
        # Trial 6's Newton run at K2 = 54 stops short of convergence, yet
        # its action does not hang on the last bits of its Phase-1 end:
        # each coordinate moved by one ulp, up or down, ends within 1e-13
        # (3e-16 measured).
        config = Configuration(n=5, R=1.2, K=27)
        config2 = replace(config, K=54)
        x1 = optimizer.phase1_bfgs(pack_vars(random_seed(config, modes=5, rng_seed=6)), config).x
        signs = np.random.default_rng(0).choice([-1.0, 1.0], size=x1.size)
        moved = np.nextafter(x1, signs * np.inf)
        assert not np.array_equal(moved, x1)
        base, other = (
            optimizer.phase2_newton(pack_vars(_fit_bandwidth(unpack_vars(x), config2.K)), config2).value
            for x in (x1, moved)
        )
        assert other == pytest.approx(base, rel=1e-13, abs=0)


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

    def test_records_report_each_phase_seconds(self, monkeypatch):
        # Each phase times itself, and its record reports that time.
        results = []

        def keep(run):
            def kept(*args, **kwargs):
                results.append(run(*args, **kwargs))
                return results[-1]
            return kept

        monkeypatch.setattr(optimizer, "phase1_bfgs", keep(optimizer.phase1_bfgs))
        monkeypatch.setattr(optimizer, "phase2_newton", keep(optimizer.phase2_newton))
        config = Configuration(n=3, R=1.8, K=5)
        report = solve(config, random_seed(config, modes=3, rng_seed=2)).report
        phase1, phase2 = results
        assert phase1.seconds > 0.0 and phase2.seconds > 0.0
        assert report.phase1.wall_time_seconds == phase1.seconds
        assert report.phase2.wall_time_seconds == phase2.seconds

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

    def test_unconverged_phase2_raises_with_the_orbit(self, monkeypatch):
        # One Newton step from this Phase-1 point stops above the
        # tolerance and the rounding floor without failing: solve raises,
        # with both phases' records and the Phase-2 orbit attached.
        config = Configuration(n=3, R=1.8, K=5)
        seed = random_seed(config, modes=3, rng_seed=2)
        monkeypatch.setattr(optimizer, "_NEWTON_MAX_STEPS", 1)
        with pytest.raises(SolveFailure) as exc:
            solve(config, seed)
        choreo = exc.value.choreography
        phase2 = choreo.report.phase2
        assert str(exc.value) == (
            f"phase 2 did not converge: relative gradient {phase2.gradient_rel_norm:.2e} after 1 Newton steps"
        )
        assert choreo.report.phase1 is not None and choreo.report.phase1.converged
        assert not phase2.converged and phase2.iterations == 1
        assert phase2.gradient_rel_norm > optimizer._NEWTON_TOLERANCE
        assert choreo.config.K == choreo.path.K == 2 * config.K
        assert choreo.action == phase2.action

    def test_phase1_line_search_failure_raises(self, monkeypatch):
        # A Phase 1 that fails stops the solve before Phase 2, with its
        # record attached.
        def failing(x0, config):
            x = np.array(x0, dtype=float)
            return PhaseResult(
                x, action_value(x, config), 1e-2, 3, False,
                failed=True, message="line search found no feasible decrease",
            )

        def no_newton(*args, **kwargs):
            raise AssertionError("Phase 2 ran after a failed Phase 1")

        monkeypatch.setattr(optimizer, "phase1_bfgs", failing)
        monkeypatch.setattr(optimizer, "phase2_newton", no_newton)
        config = Configuration(n=3, R=1.8, K=4)
        c = np.zeros(9, dtype=complex)
        c[5] = 0.37
        with pytest.raises(SolveFailure, match="^phase 1 failed: line search found no feasible decrease$") as exc:
            solve(config, TrigPath(c))
        report = exc.value.choreography.report
        assert report.phase2 is None
        assert report.phase1.iterations == 3 and report.phase1.converged is False
        assert np.array_equal(exc.value.choreography.path.coeffs, c)


# The three ends of a Newton run that give no orbit, and their verdicts.
PHASE2_ENDS = {
    "infeasible": (infeasible_start, "phase 2 failed: starting point is infeasible"),
    "diverging": (diverging, "phase 2 failed: diverged"),
    "stalling": (stalling, "phase 2 did not converge: relative gradient 1.00e-03 after 10 Newton steps"),
}


def flat_circle(K=4):
    """A circle start for the flat two-body problem at bandwidth K."""
    c = np.zeros(2 * K + 1, dtype=complex)
    c[K + 1] = 0.6
    return TrigPath(c)


class TestPhase2Verdicts:
    """One judge for every Newton run: whichever solve makes the run, an
    infeasible start, a failed run and one that stops short each give
    SolveFailure with the same verdict."""

    @pytest.fixture(params=list(PHASE2_ENDS))
    def end(self, request, monkeypatch):
        newton, verdict = PHASE2_ENDS[request.param]
        monkeypatch.setattr(optimizer, "phase2_newton", newton)
        return request.param, verdict

    def test_solve(self, end):
        # The Phase-1 record rides along; an infeasible start has no
        # Phase-2 record.
        name, verdict = end
        config = Configuration(n=2, R=20.0, K=4)
        with pytest.raises(SolveFailure) as info:
            solve(config, random_seed(config, modes=2, rng_seed=1))
        assert str(info.value) == verdict
        choreo = info.value.choreography
        assert choreo.report.phase1 is not None and choreo.report.phase1.converged
        assert (choreo.report.phase2 is None) == (name == "infeasible")
        assert choreo.config.K == choreo.path.K == 8

    def test_solve_planar(self, end):
        name, verdict = end
        with pytest.raises(SolveFailure) as info:
            solve_planar(Configuration(n=2, R=math.inf, K=4), flat_circle())
        assert str(info.value) == verdict
        choreo = info.value.choreography
        assert choreo.report.phase1 is None
        assert (choreo.report.phase2 is None) == (name == "infeasible")
        assert choreo.config.K == choreo.path.K == 8

    def test_continue_in_R(self, end):
        # The first member fails: the sweep stops there with the verdict.
        _, verdict = end
        flat = Choreography(Configuration(n=2, R=math.inf, K=4), flat_circle(), SolveReport())
        out = continue_in_R(Configuration(n=2, R=50.0, K=4), [50.0, 20.0], flat)
        assert out.failed_at == 50.0 and out.members == []
        assert out.reason == verdict and out.reason.startswith("phase 2 ")

    def test_colliding_flat_start(self):
        # A start whose bodies coincide, unpatched: phase2_newton's
        # InfeasibleSeedError comes out as the Phase-2 verdict.
        start = TrigPath(np.array([0, 0, 0, 0, 0.3, 0, 0, 0, 0], dtype=complex))
        with pytest.raises(SolveFailure, match="^phase 2 failed: starting point is infeasible$"):
            solve_planar(Configuration(n=2, R=math.inf, K=4), start)
        flat = Choreography(Configuration(n=2, R=math.inf, K=4), start, SolveReport())
        out = continue_in_R(Configuration(n=2, R=50.0, K=4), [50.0], flat)
        assert out.failed_at == 50.0 and out.reason == "phase 2 failed: starting point is infeasible"


def saddle_free_step(H, g):
    """The eigh step: divide by max(|lam|, floor), with floor 1e-10 + 1e-12 max|lam|."""
    lam, vecs = np.linalg.eigh(H)
    lam_eff = np.maximum(np.abs(lam), _EIGENVALUE_FLOOR + 1e-12 * float(np.max(np.abs(lam))))
    return -vecs @ ((vecs.T @ g) / lam_eff)


class TestNewtonStep:
    def test_cholesky_step_on_orbit_hessian(self, monkeypatch):
        # The bundled figure-eight's Hessian is positive semidefinite with
        # four gauge null modes.  For a gradient in its range, the shifted
        # Cholesky step and the saddle-free step agree along the stiff
        # directions; the shift tau ~ 1e-12 ||H|| moves them only by
        # tau / lam there.  Along the null modes the gradient is rounding
        # noise of about eps ||H||, which the shift keeps near eps / 1e-12
        # of the step.  The shift is what lets Cholesky factor H, so the
        # step must not reach eigh.
        orbit = load_bundled("figure_eight")
        H = evaluate(pack_vars(orbit.path), orbit.config, order=2).hessian
        lam, vecs = np.linalg.eigh(H)
        null = np.abs(lam) <= 1e-8 * np.max(lam)
        assert np.sum(null) == 4
        g = H @ np.random.default_rng(3).standard_normal(H.shape[0])
        stiff = vecs[:, lam >= 0.1 * np.max(lam)]
        expected = stiff.T @ saddle_free_step(H, g)

        def no_eigh(_):
            raise AssertionError("the Newton step fell back to eigh")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        solve, index = _newton_step(H)
        step = solve(g)
        assert index == 0
        assert np.linalg.norm(stiff.T @ step - expected) <= 1e-10 * np.linalg.norm(expected)
        assert np.max(np.abs(vecs[:, null].T @ step)) <= 1e-3 * np.linalg.norm(step)
        assert float(g @ step) < 0.0

    def test_negative_curvature_takes_the_eigh_step(self):
        rng = np.random.default_rng(5)
        Q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        lam = np.array([-3.0, -1e-3, -1e-14, 0.0, 1e-14, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        H = (Q * lam) @ Q.T
        H = 0.5 * (H + H.T)
        g = rng.standard_normal(12)
        solve, index = _newton_step(H)
        assert np.array_equal(solve(g), saddle_free_step(H, g))
        # -1e-14 lies inside the floor: a null mode, not negative curvature.
        assert index == 2

    def test_one_factorization_on_orbit_hessian(self, monkeypatch):
        # The Cholesky step factors the figure-eight's shifted Hessian once
        # and solves on that factor: np.linalg.solve sees only diagonal
        # blocks, never the full matrix.
        orbit = load_bundled("figure_eight")
        H = evaluate(pack_vars(orbit.path), orbit.config, order=2).hessian
        g = H @ np.random.default_rng(4).standard_normal(H.shape[0])
        cholesky, solve = np.linalg.cholesky, np.linalg.solve
        factored, solved = [], []

        def counted_cholesky(a, *args, **kwargs):
            factored.append(a.shape)
            return cholesky(a, *args, **kwargs)

        def counted_solve(a, b, *args, **kwargs):
            solved.append(a.shape)
            return solve(a, b, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        newton_solve, index = _newton_step(H)
        step = newton_solve(g)
        assert index == 0 and factored == [H.shape]
        assert solved and all(shape[0] < H.shape[0] for shape in solved)
        # Backward stable: the residual is rounding of the scale of H and the step.
        shifted = H + (_EIGENVALUE_FLOOR + 1e-12 * np.linalg.norm(H, 1)) * np.eye(H.shape[0])
        residual = np.linalg.norm(shifted @ step + g)
        assert residual <= 1e-13 * np.linalg.norm(H, 2) * np.linalg.norm(step)

    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 210, 610])
    def test_blocked_solve_matches_lu(self, dim):
        rng = np.random.default_rng(dim)
        A = rng.standard_normal((dim, dim))
        S = A @ A.T / dim + np.eye(dim)
        b = rng.standard_normal(dim)
        want = np.linalg.solve(S, b)
        got = _cholesky_solve(np.linalg.cholesky(S), b)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("lowest", [-1.0, 1.0])
    def test_hessian_comes_back_bit_for_bit(self, lowest):
        rng = np.random.default_rng(11)
        Q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        H = (Q * np.linspace(lowest, 7.0, 9)) @ Q.T
        H = 0.5 * (H + H.T)
        saved = H.copy()
        _, index = _newton_step(H)
        assert (index > 0) == (lowest < 0.0)
        assert np.array_equal(H, saved)


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

    def test_names_negative_curvature(self):
        # Off an orbit the gradient g is not zero, and the curvature along
        # a symmetry direction A x is -g.(A^2 x), which can be negative:
        # here the rotation and a boost curve downward, the first Newton
        # steps meet negative curvature, and the verdict says so.
        config = Configuration(n=3, R=1.8, K=8)
        r_star, _ = best_circle(config)
        c = np.zeros(17, dtype=complex)
        c[9] = r_star
        c[7] = 1e-3
        out = phase2_newton(pack_vars(TrigPath(c)), config)
        assert out.converged
        indices = out.curvature_indices
        assert len(indices) == out.iterations and indices[0] > 0
        negative = sum(index > 0 for index in indices)
        assert out.message.endswith(
            f"; {negative} of {len(indices)} steps met negative curvature (max index {max(indices)})"
        )

    @pytest.mark.parametrize("name", ["figure_eight", "five_body_c", "relative_c"])
    def test_tolerance_below_rounding_floor(self, name, monkeypatch):
        # A converged orbit cannot reach 1e-16 in float64: its gradient is
        # rounding noise, which must read as convergence, not divergence.
        orbit = load_bundled(name)
        monkeypatch.setattr(optimizer, "_NEWTON_TOLERANCE", 1e-16)
        out = phase2_newton(pack_vars(orbit.path), orbit.config)
        assert out.converged and not out.failed
        assert out.iterations <= 1
        assert "rounding floor" in out.message
        assert "negative curvature" not in out.message

    def test_rounding_floor_after_the_last_allowed_step(self, monkeypatch):
        # The one allowed step lands below the floor of the Hessian it was
        # taken with, though not below the 1e-16 tolerance: that is
        # convergence, though no further step is allowed.
        orbit = load_bundled("figure_eight")
        x0 = pack_vars(orbit.path) * (1.0 + 1e-12)
        monkeypatch.setattr(optimizer, "_NEWTON_MAX_STEPS", 1)
        monkeypatch.setattr(optimizer, "_NEWTON_TOLERANCE", 1e-16)
        out = phase2_newton(x0, orbit.config)
        assert out.converged and not out.failed
        assert out.iterations == 1
        assert out.message.startswith("converged at the rounding floor ")
        floor = float(out.message.split()[-1])
        assert out.gradient_norms[0] > floor >= out.gradient_rel_norm == out.gradient_norms[1]

    def test_iterate_below_the_last_floor_assembles_no_hessian(self, monkeypatch):
        # The same run with a step to spare: the first step lands below the
        # floor of the Hessian it was taken with, so the iterate converges
        # on that floor, with no second Hessian assembled to learn it.
        orbit = load_bundled("figure_eight")
        x0 = pack_vars(orbit.path) * (1.0 + 1e-12)
        hessians = []

        def counting(x, config, order, precise=False):
            if order == 2:
                hessians.append(x)
            return evaluate(x, config, order=order, precise=precise)

        monkeypatch.setattr(optimizer, "evaluate", counting)
        monkeypatch.setattr(optimizer, "_NEWTON_MAX_STEPS", 2)
        monkeypatch.setattr(optimizer, "_NEWTON_TOLERANCE", 1e-16)
        out = phase2_newton(x0, orbit.config)
        assert out.converged and not out.failed
        assert out.iterations == 1 and len(hessians) == 1
        assert out.message == "converged at the rounding floor 2.49e-13"

    def test_infeasible_start_raises(self):
        config = Configuration(n=2, R=1.5, K=2)
        with pytest.raises(InfeasibleSeedError):
            phase2_newton(pack_vars(TrigPath(np.array([0, 0, 0.1, 0, 0], dtype=complex))), config)

    @staticmethod
    def _start():
        """A circle of the (n, R) = (3, 1.8) problem, stretched and kicked
        off its orbit: relative gradient 3.5e-2."""
        config = Configuration(n=3, R=1.8, K=8)
        r_star, _ = best_circle(config)
        c = np.zeros(17, dtype=complex)
        c[9] = r_star * (1.0 + 1e-4)
        c[10] = 1e-5j
        return config, pack_vars(TrigPath(c))

    def test_no_feasible_decrease_returns_the_start(self, monkeypatch):
        # Every damping of the first step lands on an infeasible point.
        config, x0 = self._start()
        calls = []

        def start_then_infeasible(x, config):
            calls.append(x)
            return action_value(x, config) if len(calls) == 1 else math.inf

        monkeypatch.setattr(optimizer, "action_value", start_then_infeasible)
        out = phase2_newton(x0, config)
        assert out.failed and not out.converged
        assert out.message.startswith("no feasible decrease: the Newton step failed at every damping")
        assert out.iterations == 0
        assert np.array_equal(out.x, x0)
        assert len(calls) == 2 + 60  # the start, the full step and its 60 halvings

    def test_diverged_above_the_floor_returns_the_best_iterate(self, monkeypatch):
        # Stepping against Newton's direction, damped until the value no
        # longer rises, makes the gradient grow on every step.
        config, x0 = self._start()
        newton_step = optimizer._newton_step

        def backwards(H):
            solve, index = newton_step(H)
            return lambda g: -solve(g), index

        monkeypatch.setattr(optimizer, "_newton_step", backwards)
        out = phase2_newton(x0, config)
        assert out.failed and not out.converged
        assert out.message.startswith("diverged above the rounding floor ")
        assert "the gradient norm grew on two consecutive Newton steps" in out.message
        assert out.iterations == 2
        assert out.gradient_norms[0] < out.gradient_norms[1] < out.gradient_norms[2]
        assert np.array_equal(out.x, x0) and out.gradient_rel_norm == out.gradient_norms[0]

    def test_iteration_cap_returns_the_best_iterate(self, monkeypatch):
        # One Newton step, then one against it: the cap stops the run with
        # the gradient grown once, and the result is the better first step.
        config, x0 = self._start()
        newton_step = optimizer._newton_step
        steps = []

        def then_backwards(H):
            solve, index = newton_step(H)

            def step(g):
                steps.append(solve(g))
                return steps[-1] if len(steps) == 1 else -steps[-1]

            return step, index

        monkeypatch.setattr(optimizer, "_newton_step", then_backwards)
        monkeypatch.setattr(optimizer, "_NEWTON_MAX_STEPS", 2)
        out = phase2_newton(x0, config)
        assert not out.failed and not out.converged
        assert out.message.startswith("iteration limit reached above the rounding floor ")
        assert out.iterations == 2
        assert out.gradient_norms[1] < out.gradient_norms[2]
        assert out.gradient_rel_norm == out.gradient_norms[1]
        assert np.array_equal(out.x, x0 + steps[0])
        assert out.value == out.values[1]

    def test_reused_factor_reaches_the_same_orbit(self, monkeypatch):
        # five_body_b's endgame contracts the gradient a thousandfold per
        # step, so its later steps solve on the first Hessian's factor:
        # fewer Hessians than steps, and the orbit of the run that forms
        # every step afresh.
        seed = load_bundled("five_body_b_seed")
        hessians = []

        def counting(x, config, order, precise=False):
            if order == 2:
                hessians.append(x)
            return evaluate(x, config, order=order, precise=precise)

        monkeypatch.setattr(optimizer, "evaluate", counting)
        reused = solve(seed.config, seed.path, options2=Phase2Options(K2=77))
        assert len(hessians) < reused.report.phase2.iterations
        monkeypatch.setattr(optimizer, "_NEWTON_REUSE_RATIO", 0.0)
        hessians.clear()
        formed = solve(seed.config, seed.path, options2=Phase2Options(K2=77))
        assert len(hessians) == formed.report.phase2.iterations
        assert abs(reused.action - formed.action) <= 1e-14 * abs(formed.action)
        assert verify_all(reused).passed and verify_all(formed).passed

    def test_search_trial_6_never_reuses(self, monkeypatch):
        # Trial 6 of `hypchoreo search --n 5 --R 1.2 --K 27 --rng 0`: its
        # Newton run at K2 = 54 never contracts the gradient a thousandfold
        # in one step, so it forms every step, bit for bit as without reuse.
        config = Configuration(n=5, R=1.2, K=27)
        start = optimizer.phase1_bfgs(pack_vars(random_seed(config, modes=5, rng_seed=6)), config).x
        x0, config2 = pack_vars(unpack_vars(start).pad(54)), replace(config, K=54)
        reused = phase2_newton(x0, config2)
        monkeypatch.setattr(optimizer, "_NEWTON_REUSE_RATIO", 0.0)
        formed = phase2_newton(x0, config2)
        assert reused.x.tobytes() == formed.x.tobytes()
        assert reused.values == formed.values and reused.gradient_norms == formed.gradient_norms
        assert reused.curvature_indices == formed.curvature_indices
        assert reused.message == formed.message

    def test_factor_is_freed_before_the_next_hessian(self, monkeypatch):
        # Each kept factor (the solve and the arrays it closes over) is
        # dead by the time the next Hessian is assembled, so the two never
        # overlap.  five_body_c reuses a factor and then assembles again,
        # so the check meets a released reused factor.
        seed = load_bundled("five_body_c_seed")
        newton_step = optimizer._newton_step
        factors, uses = [], []

        def watched(H):
            solve, index = newton_step(H)
            factors.extend(weakref.ref(obj) for obj in (solve, *(cell.cell_contents for cell in solve.__closure__)))
            uses.append(0)

            def counted(g):
                uses[-1] += 1
                return solve(g)

            return counted, index

        def checking(x, config, order, precise=False):
            if order == 2:
                assert all(ref() is None for ref in factors)
            return evaluate(x, config, order=order, precise=precise)

        monkeypatch.setattr(optimizer, "_newton_step", watched)
        monkeypatch.setattr(optimizer, "evaluate", checking)
        choreo = solve(seed.config, seed.path, options2=Phase2Options(K2=122))
        assert choreo.report.phase2.converged
        assert sum(uses) == choreo.report.phase2.iterations
        assert any(count > 1 for count in uses[:-1])
