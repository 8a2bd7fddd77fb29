"""Two models of the hyperbolic plane with curvature -1/R^2.

Extrinsic model: the forward sheet of the hyperboloid

    x1^2 + x2^2 - x3^2 = -R^2,   x3 > 0,

measured with the indefinite product X . Y = x1 y1 + x2 y2 - x3 y3.  The
geodesic distance between on-sheet points is R * acosh(-X . Y / R^2).

Intrinsic model: the disk |z| < R with the chordal separation

    d(z, xi) = 2 R^2 |z - xi| / sqrt((R^2 - |z|^2)(R^2 - |xi|^2)),

geodesic distance 2 R asinh(d / (2R)), and conformal metric factor
lambda(z) = 4 R^4 / (R^2 - |z|^2)^2.

The models are identified by stereographic projection from (0, 0, -R):

    z = R (x1 + i x2) / (R + x3),
    X = (2 R^2 Re z, 2 R^2 Im z, R (R^2 + |z|^2)) / (R^2 - |z|^2).

Distances are evaluated in cancellation-free forms: the hyperboloid
geodesic uses -X.Y/R^2 - 1 = (X-Y).(X-Y)/(2R^2), which is computed from
coordinate differences, and acosh(1+u) = log1p(u + sqrt(u(2+u))).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "GeometryError",
    "OutOfDiskError",
    "OffSheetError",
    "lorentz_inner",
    "geodesic_hyperboloid",
    "project_to_disk",
    "lift_coords",
    "lift_velocity",
    "disk_distance",
    "disk_geodesic",
    "conformal_factor",
]

# Points are accepted up to this relative margin from the disk boundary;
# beyond it the conformal factor is meaningless in double precision.
BOUNDARY_MARGIN = 1e-12


class GeometryError(ValueError):
    """Invalid point for the requested hyperbolic-geometry operation."""


class OutOfDiskError(GeometryError):
    """Disk-model point on or outside the boundary |z| = R."""


class OffSheetError(GeometryError):
    """Coordinates too far from the forward hyperboloid sheet."""


def _coords(X) -> np.ndarray:
    arr = np.asarray(X, dtype=float)
    if arr.shape[-1] != 3:
        raise ValueError("hyperboloid coordinates must have a trailing axis of length 3")
    return arr


def lorentz_inner(X, Y) -> float | np.ndarray:
    """Indefinite product x1 y1 + x2 y2 - x3 y3.

    Equals -R^2 for any point of L^2_R paired with itself and is < -R^2
    for distinct on-sheet points.
    """
    a, b = _coords(X), _coords(Y)
    out = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] - a[..., 2] * b[..., 2]
    return float(out) if out.ndim == 0 else out


def geodesic_hyperboloid(X, Y, R: float) -> float | np.ndarray:
    """Geodesic distance R * acosh(-X.Y/R^2) between on-sheet points.

    Raises
    ------
    OffSheetError
        If -X.Y/R^2 < 1 - 1e-9, which cannot occur for two points of the
        same forward sheet.
    """
    _check_radius(R)
    a, b = _coords(X), _coords(Y)
    arg = -lorentz_inner(a, b) / (R * R)
    if np.any(np.asarray(arg) < 1.0 - 1e-9):
        raise OffSheetError("points do not lie on a common forward sheet")
    # u = -X.Y/R^2 - 1 computed from differences: no cancellation near u = 0.
    d = a - b
    u = np.maximum(lorentz_inner(d, d) / (2.0 * R * R), 0.0)
    out = R * np.log1p(u + np.sqrt(u * (2.0 + u)))
    return float(out) if np.ndim(out) == 0 else out


def project_to_disk(X, R: float) -> complex | np.ndarray:
    """Stereographic image z = R(x1 + i x2)/(R + x3) of an on-sheet point."""
    _check_radius(R)
    a = _coords(X)
    z = R * (a[..., 0] + 1j * a[..., 1]) / (R + a[..., 2])
    return complex(z) if np.ndim(z) == 0 else z


def lift_coords(z, R: float) -> np.ndarray:
    """Hyperboloid coordinates of disk points, stacked on a trailing axis.

    Vectorized inverse of project_to_disk; accepts scalars or arrays of
    points in the open disk of radius R.
    """
    _check_radius(R)
    z = np.asarray(z, dtype=complex)
    _check_in_disk(z, R)
    s = R * R - np.abs(z) ** 2
    return np.stack(
        [
            2.0 * R * R * z.real / s,
            2.0 * R * R * z.imag / s,
            R * (R * R + np.abs(z) ** 2) / s,
        ],
        axis=-1,
    )


def lift_velocity(z, zdot, R: float) -> np.ndarray:
    """Time derivative of lift_coords along a disk trajectory.

    Given positions z(t) and velocities zdot(t), returns d/dt of the lifted
    coordinates, exactly (chain rule on the rational lift map).
    """
    _check_radius(R)
    z = np.asarray(z, dtype=complex)
    zdot = np.asarray(zdot, dtype=complex)
    _check_in_disk(z, R)
    s = R * R - np.abs(z) ** 2
    radial = np.real(np.conj(z) * zdot)  # = d/dt |z|^2 / 2
    return np.stack(
        [
            2.0 * R * R * (zdot.real + 2.0 * z.real * radial / s) / s,
            2.0 * R * R * (zdot.imag + 2.0 * z.imag * radial / s) / s,
            4.0 * R ** 3 * radial / (s * s),
        ],
        axis=-1,
    )


def disk_distance(z, xi, R: float) -> float | np.ndarray:
    """Chordal separation 2R^2|z - xi| / sqrt((R^2-|z|^2)(R^2-|xi|^2))."""
    _check_radius(R)
    z = np.asarray(z, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    _check_in_disk(z, R)
    _check_in_disk(xi, R)
    s = (R * R - np.abs(z) ** 2) * (R * R - np.abs(xi) ** 2)
    out = 2.0 * R * R * np.abs(z - xi) / np.sqrt(s)
    return float(out) if np.ndim(out) == 0 else out


def disk_geodesic(z, xi, R: float) -> float | np.ndarray:
    """Geodesic distance 2R asinh(d/(2R)) with d the chordal separation."""
    out = 2.0 * R * np.arcsinh(disk_distance(z, xi, R) / (2.0 * R))
    return float(out) if np.ndim(out) == 0 else out


def conformal_factor(z, R: float) -> float | np.ndarray:
    """Metric factor lambda(z) = 4R^4/(R^2 - |z|^2)^2 of the disk model."""
    _check_radius(R)
    z = np.asarray(z, dtype=complex)
    _check_in_disk(z, R)
    out = 4.0 * R ** 4 / (R * R - np.abs(z) ** 2) ** 2
    return float(out) if np.ndim(out) == 0 else out


def _check_radius(R: float):
    if not R > 0.0:
        raise ValueError("curvature radius must be positive")
    if math.isinf(R):
        raise GeometryError("hyperbolic geometry needs a finite curvature radius")


def _check_in_disk(z: np.ndarray, R: float):
    worst = float(np.max(np.abs(z))) if np.size(z) else 0.0
    if worst >= R * (1.0 - BOUNDARY_MARGIN):
        raise OutOfDiskError(f"|z| = {worst:.17g} too close to the boundary |z| = {R:.17g}")
