"""Diagnostics: equations-of-motion residual oracles, verification gates."""

import math

import numpy as np
import pytest
from hypchoreo.action import CollisionError, Configuration, pairwise_separations
from hypchoreo.geometry import OutOfDiskError
from hypchoreo.optimizer import random_seed, solve
from hypchoreo.trigpath import TrigPath
from hypchoreo.verify import (
    PhaseRecord,
    SolveReport,
    VerificationThresholds,
    coefficient_decay,
    extrinsic_residual,
    gradient_rel_norm,
    motion_residual,
    path_residual,
    verify_all,
)
from circles import circle_path, critical_circle_radius


def critical_circle(config):
    return critical_circle_radius(config.n, config.R, 1.0 + config.omega)


CIRCLE_CONFIGS = [
    Configuration(n=3, R=1.8, K=4),
    Configuration(n=5, R=1.2, K=4),
    Configuration(n=4, R=2.0, K=4, omega=0.9),
    Configuration(n=2, R=1.5, K=4, omega=2.8),
    Configuration(n=2, R=math.inf, K=4),
    Configuration(n=3, R=math.inf, K=4, omega=-0.5),
    Configuration(n=2, R=1e3, K=4, omega=2.8),
    Configuration(n=3, R=1e4, K=4),
]


@pytest.fixture(scope="module")
def converged_circle():
    config = Configuration(n=3, R=1.8, K=6)
    c = np.zeros(13, dtype=complex)
    c[7] = 0.37
    c[8] = 1e-3j
    return solve(config, TrigPath(c))


class TestResidualOracle:
    @pytest.mark.parametrize("config", CIRCLE_CONFIGS)
    def test_critical_circle_solves_motion(self, config):
        r = critical_circle(config)
        assert path_residual(circle_path(r, config.K), config) <= 1e-12

    @pytest.mark.parametrize("config", CIRCLE_CONFIGS)
    def test_off_critical_circle_does_not(self, config):
        r = critical_circle(config)
        assert path_residual(circle_path(1.1 * r, config.K), config) > 1e-2

    def test_converged_solve_residual(self, converged_circle):
        assert path_residual(converged_circle.path, converged_circle.config) <= 1e-13
        assert motion_residual(converged_circle) == path_residual(
            converged_circle.path, converged_circle.config
        )


class TestResidualProperties:
    def test_grid_independence(self):
        config = Configuration(n=3, R=1.5, K=8)
        path = random_seed(config, modes=4, rng_seed=5)
        r1 = path_residual(path, config)
        r2 = path_residual(path.pad(2 * config.K), config)
        assert 0.5 < r2 / r1 < 2.0

    def test_rotation_and_shift_leave_residual_alone(self, converged_circle):
        path, config = converged_circle.path, converged_circle.config
        base = path_residual(path, config)
        for theta in (0.7, -2.1):
            moved = path_residual(TrigPath(path.coeffs * np.exp(1j * theta)), config)
            assert abs(moved - base) <= 1e-12
        for s in (1.234, 4.0):
            moved = path_residual(path.shift(s), config)
            assert abs(moved - base) <= 1e-12

    @pytest.mark.parametrize("config", CIRCLE_CONFIGS[:2], ids=["n3", "n5"])
    def test_two_iffts_per_call(self, config, monkeypatch):
        # One stacked transform for the node state, one for p''.
        calls = []
        ifft = np.fft.ifft

        def counted(*args, **kwargs):
            calls.append(1)
            return ifft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", counted)
        path_residual(circle_path(0.5, config.K), config)
        assert len(calls) == 2

    @pytest.mark.parametrize("c", [[0, 0, 0, 1.5001, 0], [0, 0, 0.2, 0, 0]], ids=["out_of_disk", "collided"])
    def test_infeasible_errors_are_the_actions(self, c):
        config = Configuration(n=2, R=1.5, K=2)
        path = TrigPath(np.array(c, dtype=complex))
        with pytest.raises((CollisionError, OutOfDiskError)) as want:
            pairwise_separations(path, config)
        for measure in (path_residual, gradient_rel_norm):
            with pytest.raises(want.type) as got:
                measure(path, config)
            assert str(got.value) == str(want.value)

    def test_collision_raises(self):
        config = Configuration(n=2, R=1.5, K=2)
        with pytest.raises(CollisionError):
            path_residual(TrigPath(np.array([0, 0, 0.2, 0, 0], dtype=complex)), config)
        with pytest.raises(CollisionError):
            path_residual(
                TrigPath(np.array([0, 0, 0.2, 0, 0], dtype=complex)),
                Configuration(n=2, R=math.inf, K=2),
            )

    @pytest.mark.parametrize("R", [1e20, 1e80, 1e160])
    def test_huge_radius_residual_is_flat_residual_of_doubled_path(self, R):
        # eps = 1/R^2 is below the resolution of 1 here, so the disk residual of q
        # must be the flat one of 2q, with no power of R overflowing.
        c = np.zeros(11, dtype=complex)
        c[6] = 0.4
        c[7] = 0.06 + 0.03j
        c[4] = 0.05j
        got = path_residual(TrigPath(c), Configuration(n=3, R=R, K=5))
        want = path_residual(TrigPath(2.0 * c), Configuration(n=3, R=math.inf, K=5))
        assert math.isfinite(want) and got == want


class TestGradientNorm:
    def test_small_at_converged_orbit(self, converged_circle):
        g = gradient_rel_norm(converged_circle.path, converged_circle.config)
        assert g <= 1e-13

    def test_infeasible_raises(self):
        config = Configuration(n=2, R=1.5, K=2)
        with pytest.raises(CollisionError):
            gradient_rel_norm(TrigPath(np.array([0, 0, 0.2, 0, 0], dtype=complex)), config)


class TestCoefficientDecay:
    def test_outermost_pair(self):
        path = TrigPath(np.array([3e-9, 0.1, 0.5, 0.2, 5e-10], dtype=complex))
        assert coefficient_decay(path) == 3e-9


class TestVerifyAll:
    def test_converged_orbit_passes(self, converged_circle):
        out = verify_all(converged_circle)
        assert out.passed and out.failures == []
        assert out.decay <= 1e-8
        assert out.gradient <= 1e-8
        assert out.residual <= 1e-8

    def test_rough_path_fails_with_reasons(self):
        config = Configuration(n=3, R=1.5, K=6)
        choreo = type("C", (), {})()
        choreo.path = random_seed(config, rng_seed=7)
        choreo.config = config
        out = verify_all(choreo)
        assert not out.passed
        assert any("residual" in msg for msg in out.failures)
        assert any("gradient" in msg for msg in out.failures)

    def test_collision_reported_not_raised(self):
        config = Configuration(n=2, R=1.5, K=2)
        choreo = type("C", (), {})()
        choreo.path = TrigPath(np.array([0, 0, 0.2, 0, 0], dtype=complex))
        choreo.config = config
        out = verify_all(choreo)
        assert not out.passed
        assert out.gradient is None and out.residual is None
        assert any("unavailable" in msg for msg in out.failures)

    def test_custom_thresholds(self, converged_circle):
        strict = VerificationThresholds(decay=1e-30, gradient=1e-30, residual=1e-30)
        out = verify_all(converged_circle, strict)
        assert not out.passed and len(out.failures) == 3

    def test_nan_thresholds_fail_closed(self, converged_circle):
        nan = VerificationThresholds(decay=math.nan, gradient=math.nan, residual=math.nan)
        out = verify_all(converged_circle, nan)
        assert not out.passed and len(out.failures) == 3

    def test_failure_wording_holds_for_nan_bounds(self, converged_circle):
        nan = VerificationThresholds(decay=math.nan, gradient=math.nan, residual=math.nan)
        failures = verify_all(converged_circle, nan).failures
        assert failures[0] == f"coefficient decay {coefficient_decay(converged_circle.path):.3e} is not within bound nan"
        assert all(msg.endswith("is not within bound nan") for msg in failures)


class TestExtrinsicResidual:
    def test_small_on_critical_circle(self):
        config = Configuration(n=3, R=1.8, K=6)
        choreo = type("C", (), {})()
        choreo.path = circle_path(critical_circle(config), config.K)
        choreo.config = config
        assert extrinsic_residual(choreo) <= 1e-11

    def test_large_off_critical(self):
        config = Configuration(n=3, R=1.8, K=6)
        choreo = type("C", (), {})()
        choreo.path = circle_path(1.2 * critical_circle(config), config.K)
        choreo.config = config
        assert extrinsic_residual(choreo) > 1e-2

    def test_requires_disk_and_inertial_frame(self):
        planar = type("C", (), {})()
        planar.path = circle_path(0.5, 3)
        planar.config = Configuration(n=3, R=math.inf, K=3)
        with pytest.raises(ValueError):
            extrinsic_residual(planar)
        rotating = type("C", (), {})()
        rotating.path = circle_path(0.3, 3)
        rotating.config = Configuration(n=3, R=1.8, K=3, omega=1.0)
        with pytest.raises(ValueError):
            extrinsic_residual(rotating)


class TestReportDataclasses:
    def test_final_prefers_phase2(self):
        rec1 = PhaseRecord(1.0, 11, 0.1, 5, 1e-8, 1e-9, 1e-6)
        rec2 = PhaseRecord(1.0, 21, 0.2, 2, 1e-14, 1e-16, 1e-12)
        assert SolveReport(phase1=rec1, phase2=rec2).final is rec2
        assert SolveReport(phase1=rec1).final is rec1
        assert SolveReport().final is None
