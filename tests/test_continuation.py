"""Curvature sweeps: alignment metric oracles, family convergence rates."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hypchoreo
from hypchoreo.action import Configuration, action_value, evaluate
from hypchoreo.continuation import (
    FamilyMember,
    _fit_bandwidth,
    _virial_scaled,
    center_planar,
    continue_in_R,
    convergence_rate,
    planar_limit_diff,
    solve_planar,
)
from hypchoreo.optimizer import Choreography, Phase2Options, SolveFailure, solve
from hypchoreo.solutions import load_bundled
from hypchoreo.trigpath import TrigPath, pack_vars
from hypchoreo.verify import SolveReport, VerificationThresholds, verify_all
from circles import circle_path, critical_circle_radius


def circle_choreo(r, K, config):
    return Choreography(config=config, path=circle_path(r, K), report=SolveReport())


@pytest.fixture(scope="module")
def planar_two_body():
    config = Configuration(n=2, R=math.inf, K=4)
    c = np.zeros(9, dtype=complex)
    c[5] = 0.6
    c[6] = 1e-3
    return solve_planar(config, TrigPath(c))


class TestSolvePlanar:
    def test_requires_planar_config(self):
        config = Configuration(n=2, R=2.0, K=4)
        with pytest.raises(ValueError):
            solve_planar(config, TrigPath(np.zeros(9)))

    def test_finds_flat_circle(self, planar_two_body):
        r_star = critical_circle_radius(2, math.inf)
        a_star = 2.0 * math.pi * r_star ** 2 + math.pi / r_star
        assert planar_two_body.action == pytest.approx(a_star, rel=1e-12)

    @pytest.mark.parametrize(
        "name, flat_config, options2",
        [
            ("figure_eight", Configuration(n=3, R=math.inf, K=27), None),
            ("relative_a", Configuration(n=5, R=math.inf, K=41, omega=2.8), Phase2Options(K2=99)),
        ],
        ids=["fig8", "relative"],
    )
    def test_newton_from_doubled_disk_orbit_matches_two_phase(self, name, flat_config, options2):
        # The two criterion-04 families: Newton alone from sigma q, cut to
        # K, lands on the orbit that BFGS then Newton finds from there.
        disk = load_bundled(name)
        doubled = _fit_bandwidth(TrigPath(disk.path.coeffs * disk.config.sigma), flat_config.K)
        newton = solve_planar(flat_config, doubled, options2)
        assert newton.report.phase1 is None and newton.report.phase2.converged
        newton = center_planar(newton)
        two_phase = center_planar(solve(flat_config, doubled, options2=options2))
        assert newton.action == pytest.approx(two_phase.action, rel=1e-14, abs=0.0)
        assert planar_limit_diff(newton, two_phase) <= 1e-12

    @pytest.mark.parametrize("K2", [3, 12])
    def test_start_is_cut_or_padded_to_K2(self, planar_two_body, K2):
        # The start (bandwidth 8) is cut to K2 = 3 or padded to K2 = 12.
        config = Configuration(n=2, R=math.inf, K=4)
        choreo = solve_planar(config, planar_two_body.path, Phase2Options(K2=K2))
        assert choreo.config.K == choreo.path.K == K2
        assert choreo.report.phase2.converged
        assert choreo.action == pytest.approx(planar_two_body.action, rel=1e-12)

    def test_unconverged_newton_raises_with_the_orbit(self, monkeypatch):
        # One Newton step from the omega = 2.8 circle, 10% off its radius
        # and with a 5% harmonic beside it, does not reach the tolerance:
        # the scaling of the start puts only the radius right.
        k, omega, K = -2, 2.8, 3
        r = critical_circle_radius(5, math.inf, k + omega)
        c = np.zeros(2 * K + 1, dtype=complex)
        c[K + k] = 1.1 * r
        c[K + k + 1] = 0.05 * r
        config = Configuration(n=5, R=math.inf, K=K, omega=omega)
        monkeypatch.setattr(hypchoreo.optimizer, "_NEWTON_MAX_STEPS", 1)
        with pytest.raises(SolveFailure) as info:
            solve_planar(config, TrigPath(c))
        message = str(info.value)
        assert message.startswith("phase 2 did not converge: relative gradient ")
        assert message.endswith(" after 1 Newton steps")
        choreo = info.value.choreography
        phase2 = choreo.report.phase2
        assert not phase2.converged and phase2.iterations == 1
        assert f"relative gradient {phase2.gradient_rel_norm:.2e} " in message
        assert choreo.config.K == 2 * K and choreo.path.K == 2 * K

    def test_off_radius_circle_needs_no_newton_step(self):
        # The scaling of the start puts the omega = 2.8 circle, 10% off its
        # radius, on its radius: Newton converges before its first step, to
        # the closed-form action 2 pi (n/2) (r^2 s^2 + sum_j 1 / (r chi_j)).
        n, k, omega, K = 5, -2, 2.8, 3
        r = critical_circle_radius(n, math.inf, k + omega)
        c = np.zeros(2 * K + 1, dtype=complex)
        c[K + k] = 1.1 * r
        choreo = solve_planar(Configuration(n=n, R=math.inf, K=K, omega=omega), TrigPath(c))
        assert choreo.report.phase2.converged and choreo.report.phase2.iterations == 0
        pair = sum(1.0 / (r * 2.0 * math.sin(math.pi * j / n)) for j in range(1, n))
        closed_form = math.pi * n * (r * r * (k + omega) ** 2 + pair)
        assert choreo.action == pytest.approx(closed_form, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "name, flat_config",
        [
            ("figure_eight", Configuration(n=3, R=math.inf, K=27)),
            ("relative_b", Configuration(n=5, R=math.inf, K=81, omega=2.8)),
        ],
        ids=["fig8", "relative_b"],
    )
    def test_scaled_start_is_stationary_along_its_ray(self, name, flat_config):
        # d/dlam A(lam x) at lam = 1 is g.x, zero to rounding after the
        # scaling, and far from zero before it.
        disk = load_bundled(name)
        doubled = _fit_bandwidth(TrigPath(disk.path.coeffs * disk.config.sigma), flat_config.K)

        def ray_slope(path):
            x = pack_vars(path)
            return float(evaluate(x, flat_config, order=1, precise=True).gradient @ x) / action_value(x, flat_config)

        assert abs(ray_slope(doubled)) > 1e-4
        assert abs(ray_slope(_virial_scaled(doubled, flat_config))) <= 1e-13


class TestCenterPlanar:
    def test_zeroes_mean_coefficient(self):
        config = Configuration(n=3, R=math.inf, K=2)
        c = np.array([0.1, 0.2, 0.7 + 0.3j, 0.1, 0.05], dtype=complex)
        out = center_planar(Choreography(config, TrigPath(c), SolveReport()))
        assert out.path.coeffs[2] == 0.0
        assert np.array_equal(np.delete(out.path.coeffs, 2), np.delete(c, 2))

    def test_leaves_rotating_and_disk_solutions_alone(self):
        c = np.array([0.1, 0.2, 0.7, 0.1, 0.05], dtype=complex)
        rotating = Choreography(
            Configuration(n=3, R=math.inf, K=2, omega=1.0), TrigPath(c), SolveReport()
        )
        assert center_planar(rotating) is rotating
        disk = Choreography(Configuration(n=3, R=2.0, K=2), TrigPath(c), SolveReport())
        assert center_planar(disk) is disk


class TestPlanarLimitDiff:
    def test_solution_against_itself_is_zero(self, planar_two_body):
        assert planar_limit_diff(planar_two_body, planar_two_body) <= 1e-12

    @pytest.mark.parametrize("mean", [1e-9, 5.45e-9, 3e-8])
    def test_circle_with_small_mean_against_itself_is_zero(self, mean):
        # The mean moves |S(s)|^2 by about (mean / r)^2 of itself, below
        # rounding: the shift must come from the overlap's variation alone.
        config = Configuration(n=2, R=math.inf, K=8)
        c = np.zeros(17, dtype=complex)
        c[9] = 0.63
        c[8] = mean * np.exp(0.4j)
        orbit = Choreography(config, TrigPath(c), SolveReport())
        assert planar_limit_diff(orbit, orbit) <= 1e-20

    def test_halved_and_gauged_copy_is_recovered(self, planar_two_body):
        # Half the flat orbit, rotated and shifted: the factor-2 doubling
        # and the gauge alignment must cancel all of it.
        planar = center_planar(planar_two_body)
        moved = planar.path.shift(1.3)
        c = moved.coeffs * (0.5 * np.exp(0.8j))
        fake = Choreography(Configuration(n=2, R=7.0, K=moved.K), TrigPath(c), SolveReport())
        assert planar_limit_diff(fake, planar) <= 1e-8

    def test_concentric_circles_hand_value(self):
        # 2(r/2 + delta) e^{it} vs r e^{it}: every alignment leaves a
        # constant-magnitude mismatch, minimized at 2 delta.
        r, delta = 0.8, 3e-3
        flat_config = Configuration(n=3, R=math.inf, K=3)
        disk_config = Configuration(n=3, R=9.0, K=3)
        planar = circle_choreo(r, 3, flat_config)
        disk = circle_choreo(0.5 * r + delta, 3, disk_config)
        assert planar_limit_diff(disk, planar) == pytest.approx(2.0 * delta, rel=1e-6)

    def test_body_count_mismatch_rejected(self):
        a = circle_choreo(0.5, 3, Configuration(n=2, R=5.0, K=3))
        b = circle_choreo(0.5, 3, Configuration(n=3, R=math.inf, K=3))
        with pytest.raises(ValueError):
            planar_limit_diff(a, b)

    @pytest.mark.parametrize("case", ["circle", "perturbed_figure_eight"])
    def test_gauge_invariance_of_the_metric(self, planar_two_body, case):
        if case == "circle":
            planar = center_planar(planar_two_body)
            r_disk = critical_circle_radius(2, 20.0)
            disk = circle_choreo(r_disk, 4, Configuration(n=2, R=20.0, K=4))
        else:
            # Off the circle the overlap |S(s)| has isolated maxima, so the
            # aligned shift itself must move with the gauge of the input.
            orbit = load_bundled("figure_eight")
            K = orbit.path.K
            planar = Choreography(
                Configuration(n=3, R=math.inf, K=K),
                TrigPath(2.0 * orbit.path.coeffs),
                SolveReport(),
            )
            c = orbit.path.coeffs.copy()
            c[K + 1] += 1e-6
            c[K - 3] += 0.5e-6j
            disk = Choreography(Configuration(n=3, R=1000.0, K=K), TrigPath(c), SolveReport())
        base = planar_limit_diff(disk, planar)
        for theta, s in ((0.9, 2.0), (-1.4, 0.7)):
            moved = TrigPath(disk.path.shift(s).coeffs * np.exp(1j * theta))
            again = planar_limit_diff(
                Choreography(disk.config, moved, SolveReport()), planar
            )
            assert abs(again - base) <= 1e-9 * max(base, 1e-6)


@pytest.fixture(scope="module")
def swept_family(planar_two_body):
    family_config = Configuration(n=2, R=50.0, K=4)
    return continue_in_R(family_config, [50.0, 20.0, 10.0, 5.0], planar_two_body)


class TestContinueInR:
    def test_completes(self, swept_family):
        assert swept_family.complete
        assert [m.R for m in swept_family.members] == [50.0, 20.0, 10.0, 5.0]

    def test_diffs_match_circle_oracle(self, swept_family):
        # The solved members may carry an eccentric component of the size
        # of the gradient tolerance (the two-body valley is degenerate),
        # so the concentric-circle value holds to a few parts in 1e5.
        r_flat = critical_circle_radius(2, math.inf)
        for member in swept_family.members:
            expect = abs(2.0 * critical_circle_radius(2, member.R) - r_flat)
            assert member.diff_to_planar == pytest.approx(expect, rel=1e-4), f"R={member.R}"

    def test_rotating_circle_diffs_match_closed_form(self):
        # The omega = 2.8 family of criterion 04 is a circle at k = -2,
        # traversed at speed k + omega = 0.8; its diffs are the concentric
        # circle values.
        k, omega, K = -2, 2.8, 3
        speed = k + omega
        r_flat = critical_circle_radius(5, math.inf, speed)
        c = np.zeros(2 * K + 1, dtype=complex)
        c[K + k] = 1.1 * r_flat
        planar = solve_planar(Configuration(n=5, R=math.inf, K=K, omega=omega), TrigPath(c))
        radii = [1000.0, 100.0, 10.0]
        family = continue_in_R(Configuration(n=5, R=radii[0], K=K, omega=omega), radii, planar)
        assert family.complete
        for member in family.members:
            expect = abs(2.0 * critical_circle_radius(5, member.R, speed) - r_flat)
            assert member.diff_to_planar == pytest.approx(expect, rel=1e-8), f"R={member.R}"

    def test_diffs_decrease_with_R(self, swept_family):
        diffs = [m.diff_to_planar for m in reversed(swept_family.members)]
        assert all(a > b for a, b in zip(diffs, diffs[1:]))

    def test_quadratic_convergence_rate(self, swept_family):
        rate = convergence_rate(swept_family.members)
        assert rate == pytest.approx(-2.0, abs=0.1)

    def test_verification_failure_stops_sweep(self, planar_two_body, monkeypatch):
        family_config = Configuration(n=2, R=50.0, K=4)
        impossible = VerificationThresholds(decay=1e-300, gradient=1e-300, residual=1e-300)
        monkeypatch.setattr(hypchoreo.continuation, "verify_all", lambda choreo: verify_all(choreo, impossible))
        out = continue_in_R(family_config, [50.0, 20.0], planar_two_body)
        assert not out.complete
        assert out.failed_at == 50.0
        assert out.reason.startswith("verification failed: coefficient decay ")
        assert out.members == []

    def test_members_are_newton_only(self, planar_two_body, monkeypatch):
        def no_phase1(*args, **kwargs):
            raise AssertionError("continue_in_R ran Phase 1")

        monkeypatch.setattr("hypchoreo.optimizer.phase1_bfgs", no_phase1)
        family_config = Configuration(n=2, R=50.0, K=4)
        out = continue_in_R(family_config, [50.0, 20.0], planar_two_body)
        assert out.complete
        for member in out.members:
            assert member.choreo.report.phase1 is None
            assert member.choreo.report.phase2.converged
            assert member.choreo.config.K == 8

    @pytest.mark.parametrize("K2", [3, 12])
    def test_start_is_cut_or_padded_to_K2(self, planar_two_body, swept_family, K2):
        # The flat start (bandwidth 8) is cut to K2 = 3 or padded to K2 = 12.
        family_config = Configuration(n=2, R=50.0, K=4)
        out = continue_in_R(family_config, [50.0, 20.0], planar_two_body, Phase2Options(K2=K2))
        assert out.complete
        for member, stepwise in zip(out.members, swept_family.members):
            assert member.choreo.config.K == member.choreo.path.K == K2
            assert member.choreo.action == pytest.approx(stepwise.choreo.action, rel=1e-12)

    def test_unconverged_newton_stops_sweep(self, planar_two_body, monkeypatch):
        # At R = 1e8 the flat orbit divided by sigma already meets the
        # Newton tolerance, so it converges in zero steps; R = 5 needs
        # steps that a cap of 0 does not allow.
        family_config = Configuration(n=2, R=1e8, K=4)
        monkeypatch.setattr(hypchoreo.optimizer, "_NEWTON_MAX_STEPS", 0)
        out = continue_in_R(family_config, [1e8, 5.0], planar_two_body)
        assert out.failed_at == 5.0
        assert out.reason.startswith("phase 2 did not converge: relative gradient ")
        assert out.reason.endswith(" after 0 Newton steps")
        assert [m.R for m in out.members] == [1e8]
        assert out.members[0].choreo.report.phase2.converged

    def test_large_jump_stays_on_branch(self, planar_two_body, swept_family):
        family_config = Configuration(n=2, R=50.0, K=4)
        jump = continue_in_R(family_config, [50.0, 5.0], planar_two_body)
        assert jump.complete
        stepwise = swept_family.members[-1]
        assert jump.members[-1].choreo.action == pytest.approx(stepwise.choreo.action, rel=1e-12)
        assert jump.members[-1].diff_to_planar == pytest.approx(stepwise.diff_to_planar, rel=1e-6)

    def test_validation(self, planar_two_body):
        config = Configuration(n=2, R=50.0, K=4)
        with pytest.raises(ValueError):
            continue_in_R(config, [], planar_two_body)
        with pytest.raises(ValueError):
            continue_in_R(config, [10.0, 20.0], planar_two_body)
        with pytest.raises(ValueError):
            continue_in_R(config, [math.inf, 10.0], planar_two_body)
        disk = circle_choreo(0.4, 4, Configuration(n=2, R=5.0, K=4))
        with pytest.raises(ValueError):
            continue_in_R(config, [10.0], disk)


class TestConvergenceRate:
    def test_exact_inverse_square_family(self):
        members = [
            FamilyMember(R=R, choreo=None, diff_to_planar=0.37 / R ** 2)
            for R in (10.0, 100.0, 1000.0)
        ]
        assert convergence_rate(members) == pytest.approx(-2.0, abs=1e-12)

    def test_needs_three_members(self):
        members = [FamilyMember(R=10.0, choreo=None, diff_to_planar=1e-3)] * 2
        with pytest.raises(ValueError):
            convergence_rate(members)

    def test_rejects_nonpositive_diffs(self):
        members = [
            FamilyMember(R=R, choreo=None, diff_to_planar=d)
            for R, d in ((10.0, 1e-3), (100.0, 0.0), (1000.0, 1e-7))
        ]
        with pytest.raises(ValueError):
            convergence_rate(members)


def test_import_loads_no_scipy():
    # scipy is a test dependency only; a fresh interpreter shows what the
    # package and its command line import.  It imports the package from
    # where this session found it, installed or not.
    probe = "import sys, hypchoreo, hypchoreo.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    where = str(Path(hypchoreo.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (where, os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
