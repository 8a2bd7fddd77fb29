"""Hyperbolic geometry: both models, the maps between them, exact values."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from hypchoreo import geometry
from hypchoreo.geometry import (
    BOUNDARY_MARGIN,
    GeometryError,
    OffSheetError,
    OutOfDiskError,
    conformal_factor,
    disk_distance,
    disk_geodesic,
    geodesic_hyperboloid,
    lift_coords,
    lift_velocity,
    lorentz_inner,
    project_to_disk,
)


def random_disk_points(rng, count, R, rmax=0.95):
    """Uniform-ish points with |z| <= rmax * R."""
    radii = R * rmax * np.sqrt(rng.uniform(0.0, 1.0, count))
    angles = rng.uniform(0.0, 2.0 * np.pi, count)
    return radii * np.exp(1j * angles)


def mobius_geodesic(z, xi, R):
    """Independent distance oracle via the unit-disk Mobius form.

    With w = z/R the metric of curvature -1/R^2 gives
    dist = 2 R atanh(|w1 - w2| / |1 - w1 conj(w2)|).
    """
    w1, w2 = z / R, xi / R
    return 2.0 * R * np.arctanh(np.abs(w1 - w2) / np.abs(1.0 - w1 * np.conj(w2)))


class TestExactValues:
    def test_lorentz_inner_on_sheet_self(self):
        assert lorentz_inner((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)) == -1.0
        s = math.sqrt(2.0)
        assert lorentz_inner((1.0, 0.0, s), (1.0, 0.0, s)) == pytest.approx(-1.0, abs=1e-15)

    def test_lorentz_inner_hand_value(self):
        assert lorentz_inner((4.0 / 3.0, 0.0, 5.0 / 3.0), (0.0, 0.0, 1.0)) == pytest.approx(
            -5.0 / 3.0, rel=1e-15
        )

    def test_geodesic_hyperboloid_hand_value(self):
        d = geodesic_hyperboloid((0.0, 0.0, 1.0), (4.0 / 3.0, 0.0, 5.0 / 3.0), 1.0)
        assert d == pytest.approx(math.acosh(5.0 / 3.0), rel=1e-14)

    def test_geodesic_hyperboloid_coincident(self):
        assert geodesic_hyperboloid((0.0, 0.0, 2.0), (0.0, 0.0, 2.0), 2.0) == 0.0

    def test_projection_pair(self):
        assert project_to_disk((0.0, 0.0, 1.0), 1.0) == 0.0
        assert project_to_disk((4.0 / 3.0, 0.0, 5.0 / 3.0), 1.0) == pytest.approx(0.5, rel=1e-15)
        assert lift_coords(0.0, 1.0).tolist() == [0.0, 0.0, 1.0]
        x1, x2, x3 = lift_coords(0.5, 1.0)
        assert x1 == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert x2 == 0.0
        assert x3 == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_disk_distance_hand_value(self):
        # 2 * 0.6 / sqrt(1 - 0.36) = 1.2 / 0.8
        assert disk_distance(0.0, 0.6, 1.0) == pytest.approx(1.5, rel=1e-15)
        assert disk_distance(0.3j, 0.3j, 1.0) == 0.0

    def test_disk_geodesic_hand_value(self):
        # distance from 0 to 0.5 equals the hyperboloid value acosh(5/3)
        assert disk_geodesic(0.0, 0.5, 1.0) == pytest.approx(math.acosh(5.0 / 3.0), rel=1e-14)

    def test_conformal_factor_values(self):
        assert conformal_factor(0.0, 1.0) == 4.0
        assert conformal_factor(0.5, 1.0) == pytest.approx(64.0 / 9.0, rel=1e-15)


class TestModelConsistency:
    def test_disk_vs_hyperboloid_thousand_pairs(self):
        rng = np.random.default_rng(7)
        for R in (1.0, 1.5, 10.0):
            z = random_disk_points(rng, 1000, R)
            xi = random_disk_points(rng, 1000, R)
            disk = disk_geodesic(z, xi, R)
            lifted = geodesic_hyperboloid(lift_coords(z, R), lift_coords(xi, R), R)
            scale = np.maximum(np.abs(disk), 1e-30)
            worst = float(np.max(np.abs(disk - lifted) / scale))
            assert worst <= 1e-11, f"R={R}: model mismatch {worst:.3e}"

    def test_round_trip_thousand_points(self):
        rng = np.random.default_rng(8)
        for R in (1.0, 2.0, 100.0):
            z = random_disk_points(rng, 1000, R)
            back = project_to_disk(lift_coords(z, R), R)
            worst = float(np.max(np.abs(back - z)))
            assert worst <= 1e-13 * R, f"R={R}: round trip {worst:.3e}"

    def test_lift_lies_on_sheet(self):
        rng = np.random.default_rng(9)
        R = 1.3
        z = random_disk_points(rng, 200, R)
        X = lift_coords(z, R)
        norms = lorentz_inner(X, X)
        assert np.max(np.abs(norms + R * R)) <= 1e-12 * R * R
        assert np.all(X[..., 2] > 0.0)

    def test_against_mobius_oracle(self):
        rng = np.random.default_rng(10)
        for R in (1.0, 1.7, 42.0):
            z = random_disk_points(rng, 400, R)
            xi = random_disk_points(rng, 400, R)
            ours = disk_geodesic(z, xi, R)
            oracle = mobius_geodesic(z, xi, R)
            scale = np.maximum(np.abs(oracle), 1e-30)
            assert float(np.max(np.abs(ours - oracle) / scale)) <= 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        R = 1.5
        z = random_disk_points(rng, 100, R)
        xi = random_disk_points(rng, 100, R)
        for theta in rng.uniform(0.0, 2.0 * np.pi, 5):
            w = np.exp(1j * theta)
            before = disk_geodesic(z, xi, R)
            after = disk_geodesic(w * z, w * xi, R)
            assert float(np.max(np.abs(after - before))) <= 1e-13 * float(np.max(before))
            assert conformal_factor(0.25 * R * w, R) == pytest.approx(
                conformal_factor(0.25 * R, R), rel=1e-14
            )


class TestNumericalStability:
    def test_nearly_coincident_points(self):
        # Chordal-u form keeps full relative accuracy where acosh itself
        # would lose half the digits to cancellation.
        R = 1.5
        z = 0.4 + 0.3j
        for eps in (1e-6, 1e-9, 1e-12):
            xi = z + eps
            got = disk_geodesic(z, xi, R)
            expect = math.sqrt(conformal_factor(z, R)) * eps
            assert got == pytest.approx(expect, rel=1e-4), f"eps={eps}"

    def test_geodesic_hyperboloid_close_points(self):
        R = 1.0
        a = lift_coords(0.2 + 0.1j, R)
        b = lift_coords(0.2 + 0.1j + 1e-10, R)
        d = geodesic_hyperboloid(a, b, R)
        expect = disk_geodesic(0.2 + 0.1j, 0.2 + 0.1j + 1e-10, R)
        assert d == pytest.approx(expect, rel=1e-5)

    def test_conformal_factor_matches_metric_quotient(self):
        rng = np.random.default_rng(12)
        R = 2.0
        for z in random_disk_points(rng, 20, R, rmax=0.8):
            h = 1e-7
            quotient = disk_geodesic(z, z + h, R) / h
            assert quotient == pytest.approx(math.sqrt(conformal_factor(z, R)), rel=1e-6)


class TestLiftVelocity:
    def test_against_finite_differences(self):
        rng = np.random.default_rng(13)
        R = 1.4
        z = random_disk_points(rng, 50, R, rmax=0.8)
        zdot = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        h = 1e-7
        fd = (lift_coords(z + h * zdot, R) - lift_coords(z - h * zdot, R)) / (2.0 * h)
        got = lift_velocity(z, zdot, R)
        assert float(np.max(np.abs(got - fd))) <= 1e-6 * float(np.max(np.abs(fd)) + 1.0)

    def test_velocity_is_lorentz_orthogonal_to_position(self):
        # d/dt (X . X) = 0 on the sheet, so X . Xdot = 0 exactly.
        rng = np.random.default_rng(14)
        R = 1.0
        z = random_disk_points(rng, 50, R, rmax=0.9)
        zdot = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        X = lift_coords(z, R)
        V = lift_velocity(z, zdot, R)
        inner = lorentz_inner(X, V)
        assert float(np.max(np.abs(inner))) <= 1e-10 * float(np.max(np.abs(V)))


class TestErrors:
    def test_out_of_disk(self):
        with pytest.raises(OutOfDiskError):
            disk_distance(0.0, 1.0, 1.0)
        with pytest.raises(OutOfDiskError):
            conformal_factor(1.5 * (1.0 - 0.5 * BOUNDARY_MARGIN), 1.5)
        with pytest.raises(OutOfDiskError):
            lift_coords(2.0 + 0.0j, 1.0)

    def test_off_sheet(self):
        with pytest.raises(OffSheetError):
            geodesic_hyperboloid((0.0, 0.0, 1.0), (0.0, 0.0, 0.5), 1.0)

    def test_infinite_radius_rejected(self):
        with pytest.raises(GeometryError):
            disk_distance(0.0, 0.1, math.inf)
        with pytest.raises(ValueError):
            disk_distance(0.0, 0.1, -1.0)

    def test_bad_coordinate_shape(self):
        with pytest.raises(ValueError):
            lorentz_inner((1.0, 2.0), (1.0, 2.0))


def test_geometry_is_a_leaf_module():
    # Every other module may import geometry, so it imports none of them.
    tree = ast.parse(Path(geometry.__file__).read_text())
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or node.module.split(".")[0] == "hypchoreo"):
            imports.append(ast.unparse(node))
        elif isinstance(node, ast.Import):
            imports += [alias.name for alias in node.names if alias.name.split(".")[0] == "hypchoreo"]
    assert not imports, f"geometry imports package modules: {imports}"
