"""Top-level acceptance checks, one test (and one pass/fail line) per criterion.

Each test exercises the package end to end at the advertised tolerances:
reproduction of the reference orbits from bundled seeds, the planar-limit
convergence tables, and the property-level guarantees (derivatives,
geometry, quadrature, symmetry, energy consistency).
"""

import time

import numpy as np
import pytest

from hypchoreo import (
    Configuration,
    Phase2Options,
    TrigPath,
    action_value,
    center_planar,
    continue_in_R,
    convergence_rate,
    evaluate,
    load_bundled,
    random_seed,
    solve,
    solve_planar,
)
from hypchoreo.action import hyperboloid_energies
from hypchoreo.continuation import _fit_bandwidth, planar_limit_diff
from hypchoreo.geometry import (
    disk_geodesic,
    geodesic_hyperboloid,
    lift_coords,
    project_to_disk,
)
from hypchoreo.trigpath import nodes, pack_vars, trapezoid_integral
from hypchoreo.verify import gradient_rel_norm, motion_residual, path_residual

FIG8_ACTION = 27.840867421590929
FIVE_BODY = [
    ("five_body_a", 88.8733, 152),
    ("five_body_b", 90.6073, 77),
    ("five_body_c", 96.2604, 122),
]
# planar-limit sweep targets: R -> expected aligned sup-norm diff
FIG8_TABLE = {10.0: 7.87e-03, 100.0: 7.98e-05, 1000.0: 7.99e-07}
RELATIVE_TABLE = {10.0: 1.28e-02, 100.0: 1.30e-04, 1000.0: 1.31e-06}


def resolve(name, K2):
    seed = load_bundled(name)
    t0 = time.perf_counter()
    choreo = solve(seed.config, seed.path, options2=Phase2Options(K2=K2))
    return choreo, time.perf_counter() - t0


@pytest.fixture(scope="module")
def fig8():
    return resolve("figure_eight_seed", 52)


@pytest.fixture(scope="module")
def fig8_family(fig8):
    choreo, _ = fig8
    flat_config = Configuration(n=3, R=np.inf, K=27)
    flat = solve_planar(flat_config, _fit_bandwidth(TrigPath(choreo.path.coeffs * 2.0), 27))
    planar = center_planar(flat)
    result = continue_in_R(Configuration(n=3, R=1000.0, K=27), [1000.0, 100.0, 10.0], planar)
    assert result.complete, f"figure-eight sweep stopped at R = {result.failed_at}"
    return result


@pytest.fixture(scope="module")
def relative_family():
    choreo, _ = resolve("relative_a_seed", 81)
    flat_config = Configuration(n=5, R=np.inf, K=41, omega=2.8)
    flat = solve_planar(
        flat_config,
        _fit_bandwidth(TrigPath(choreo.path.coeffs * 2.0), 41),
        options2=Phase2Options(K2=99),
    )
    planar = center_planar(flat)
    result = continue_in_R(
        Configuration(n=5, R=1000.0, K=41, omega=2.8),
        [1000.0, 100.0, 10.0],
        planar,
        options2=Phase2Options(K2=99),
    )
    assert result.complete, f"relative sweep stopped at R = {result.failed_at}"
    return result


def test_criterion_01_figure_eight_reproduction(fig8):
    choreo, wall = fig8
    seed = load_bundled("figure_eight_seed")
    assert seed.path.coeffs.size == 55
    assert choreo.path.coeffs.size == 105
    p2 = choreo.report.phase2
    assert abs(p2.action - FIG8_ACTION) <= 1e-10 * FIG8_ACTION
    assert motion_residual(choreo) <= 1e-11
    assert gradient_rel_norm(choreo.path, choreo.config) <= 1e-12
    assert p2.smallest_coefficient <= 1e-14
    assert wall <= 30.0


def test_criterion_02_five_body_reproduction():
    for name, target, K2 in FIVE_BODY:
        choreo, _ = resolve(f"{name}_seed", K2)
        p2 = choreo.report.phase2
        assert abs(p2.action - target) <= 5e-5, f"{name}: action {p2.action!r}"
        assert motion_residual(choreo) <= 1e-10, name
        assert p2.iterations <= 5, f"{name}: {p2.iterations} Newton steps"


def test_criterion_03_relative_choreographies():
    for name in ("relative_a", "relative_b", "relative_c"):
        choreo, _ = resolve(f"{name}_seed", 81)
        assert motion_residual(choreo) <= 1e-9, name
        assert gradient_rel_norm(choreo.path, choreo.config) <= 1e-10, name


def test_criterion_04_planar_limit_tables(fig8_family, relative_family):
    failures = []
    for label, result, table in (
        ("figure-eight", fig8_family, FIG8_TABLE),
        ("relative omega=2.8", relative_family, RELATIVE_TABLE),
    ):
        for member in result.members:
            expected = table[member.R]
            if not abs(member.diff_to_planar / expected - 1.0) <= 0.10:
                failures.append(
                    f"{label} R={member.R:g}: diff {member.diff_to_planar:.4e}, "
                    f"expected {expected:.2e} +-10%"
                )
        slope = convergence_rate(result.members)
        if not abs(slope + 2.0) <= 0.1:
            failures.append(f"{label}: slope {slope:.4f}, expected -2.0 +- 0.1")
    assert not failures, "; ".join(failures)


def test_criterion_05_derivative_correctness():
    configs = [
        Configuration(n=3, R=1.5, K=8),
        Configuration(n=4, R=2.0, K=6, omega=1.3),
        Configuration(n=5, R=np.inf, K=6, omega=2.8),
    ]
    rng = np.random.default_rng(7)
    points_per_config = (4, 3, 3)  # ten random feasible points in all
    for config, count in zip(configs, points_per_config):
        for _ in range(count):
            x = pack_vars(random_seed(config, modes=min(5, config.K),
                                      rng_seed=int(rng.integers(1 << 31))))
            x = x + 0.005 * rng.standard_normal(x.size)
            g = evaluate(x, config, order=1).gradient
            h = 1e-6
            g_fd = np.empty_like(g)
            for i in range(x.size):
                e = np.zeros_like(x)
                e[i] = h
                g_fd[i] = (action_value(x + e, config) - action_value(x - e, config)) / (2 * h)
            scale = np.max(np.abs(g))
            assert np.max(np.abs(g_fd - g)) <= 1e-6 * scale

            H = evaluate(x, config, order=2).hessian
            assert np.max(np.abs(H - H.T)) <= 1e-12 * np.max(np.abs(H))
            h2 = 1e-5
            H_fd = np.empty_like(H)
            for i in range(x.size):
                e = np.zeros_like(x)
                e[i] = h2
                H_fd[:, i] = (evaluate(x + e, config, order=1).gradient
                              - evaluate(x - e, config, order=1).gradient) / (2 * h2)
            assert np.max(np.abs(H_fd - H)) <= 1e-5 * np.max(np.abs(H))


def test_criterion_06_geometry_consistency():
    rng = np.random.default_rng(11)
    R = 1.7
    for _ in range(2):
        radius = R * np.sqrt(rng.uniform(0.0, 0.96, size=500))
        z = radius * np.exp(2j * np.pi * rng.uniform(size=500))
        radius = R * np.sqrt(rng.uniform(0.0, 0.96, size=500))
        xi = radius * np.exp(2j * np.pi * rng.uniform(size=500))
        direct = disk_geodesic(z, xi, R)
        lifted = geodesic_hyperboloid(lift_coords(z, R), lift_coords(xi, R), R)
        assert np.all(np.abs(lifted - direct) <= 1e-11 * np.maximum(direct, 1e-300))
        assert np.all(np.abs(project_to_disk(lift_coords(z, R), R) - z) <= 1e-13 * R)


def test_criterion_07_quadrature_exactness():
    rng = np.random.default_rng(3)
    for N in (11, 27, 64):
        t = nodes(N)
        for _ in range(5):
            K = int(rng.integers(0, N))  # highest harmonic below the node count
            c = rng.standard_normal(2 * K + 1) + 1j * rng.standard_normal(2 * K + 1)
            values = TrigPath(c).eval(t)
            integral = trapezoid_integral(values)
            exact = 2.0 * np.pi * c[K]
            # relative to the integrand scale: the sum cancels all modes but k=0
            assert abs(integral - exact) <= 1e-14 * 2.0 * np.pi * np.max(np.abs(values))


def test_criterion_08_symmetry_invariance(fig8, fig8_family):
    # Action on a fully resolved path: the quadrature grid sees the same
    # integrand after either gauge motion.
    choreo, _ = fig8
    config = choreo.config
    path = choreo.path
    base_action = action_value(pack_vars(path), config)
    theta, tau = 0.7321, 0.4567
    rotated = TrigPath(path.coeffs * np.exp(1j * theta))
    for other in (rotated, path.shift(tau)):
        assert abs(action_value(pack_vars(other), config) / base_action - 1.0) <= 1e-12

    # Residual norm of a rough path, sampled densely enough to resolve the
    # defect: invariant under both motions.
    rough_config = Configuration(n=3, R=1.5, K=10)
    rough = random_seed(rough_config, rng_seed=1)
    base_residual = path_residual(rough.pad(400), rough_config)
    rough_rotated = TrigPath(rough.coeffs * np.exp(1j * theta))
    for other in (rough_rotated, rough.shift(tau)):
        changed = path_residual(other.pad(400), rough_config)
        assert abs(changed / base_residual - 1.0) <= 1e-12

    # aligned planar-limit diff ignores the gauge of the swept member
    member = fig8_family.members[-1]
    planar = center_planar(
        solve_planar(
            Configuration(n=3, R=np.inf, K=27),
            _fit_bandwidth(TrigPath(member.choreo.path.coeffs * 2.0), 27),
        )
    )
    base_diff = planar_limit_diff(member.choreo, planar)
    km = np.arange(-member.choreo.path.K, member.choreo.path.K + 1)
    for gauge in (np.exp(1j * theta), np.exp(1j * km * tau)):
        moved = member.choreo.path.coeffs * gauge
        turned = type(member.choreo)(
            config=member.choreo.config,
            path=TrigPath(moved),
            report=member.choreo.report,
        )
        assert abs(planar_limit_diff(turned, planar) / base_diff - 1.0) <= 1e-12


def test_criterion_09_energy_consistency(fig8):
    choreo, _ = fig8
    t = nodes(1024)
    kinetic, potential = hyperboloid_energies(choreo.path, choreo.config, t)
    integral = trapezoid_integral(kinetic - potential)
    assert abs(integral / choreo.report.phase2.action - 1.0) <= 1e-10
