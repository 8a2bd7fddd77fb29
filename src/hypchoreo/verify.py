"""Diagnostics for candidate choreographies.

A minimizer of the discretized action is accepted as a choreography only
after three independent checks: the Fourier tail of the trajectory has
decayed, the action gradient is small, and the trajectory satisfies the
equations of motion pointwise.  The last check is the strongest one; the
motion is never integrated in time, so the residual of the projected
equations is the primary evidence that the variational solution solves
the dynamical problem.

In the rotating frame with angular velocity w, body 0 on the disk obeys

    z'' + 2iw z' - w^2 z
        = -2 zbar (z' + iw z)^2 / (R^2 - |z|^2)
        + (4R/lam) sum_{i != 0} P_i / Theta_i^(3/2),

where lam is the conformal factor at z, and with s = R^2 - |z|^2,
s_i = R^2 - |z_i|^2,

    P_i     = s s_i^2 (R^2 - z zbar_i)(z_i - z),
    Theta_i = (4R^2 Re(z zbar_i) - (R^2+|z|^2)(R^2+|z_i|^2))^2 - s^2 s_i^2.

Theta_i is a difference of squares that is positive exactly when the two
bodies are distinct.  The flat variant replaces the right-hand side by
the Newtonian sum of (z_i - z)/|z_i - z|^3.  Because all bodies follow
the same curve, the residual is computed for body 0 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .action import COLLISION_THRESHOLD, CollisionError, Configuration, _transform, evaluate
from .geometry import OutOfDiskError
from .trigpath import TrigPath, nodes, pack_vars

__all__ = [
    "PhaseRecord",
    "SolveReport",
    "ResidualTerms",
    "VerificationThresholds",
    "VerificationResult",
    "residual_terms",
    "path_residual",
    "motion_residual",
    "coefficient_decay",
    "gradient_rel_norm",
    "verify_all",
    "extrinsic_residual",
]


@dataclass(frozen=True)
class PhaseRecord:
    """Diagnostics of one optimization phase, one table column per solve."""

    action: float
    coefficient_count: int
    wall_time_seconds: float
    iterations: int
    gradient_rel_norm: float
    smallest_coefficient: float
    residual_rel_norm: float
    converged: bool = True


@dataclass(frozen=True)
class SolveReport:
    """Per-phase diagnostic records of a two-phase solve."""

    phase1: PhaseRecord | None = None
    phase2: PhaseRecord | None = None

    @property
    def final(self) -> PhaseRecord | None:
        return self.phase2 if self.phase2 is not None else self.phase1


@dataclass(frozen=True)
class ResidualTerms:
    """Pointwise ingredients of the projected equations of motion.

    Arrays are indexed by body j (axis 0), companion i != j in the order
    (j+1, ..., j+n-1) mod n (axis 1 where present), and node (last axis).
    """

    lam: np.ndarray
    P: np.ndarray
    Theta: np.ndarray


def _shifted_values(path: TrigPath, config: Configuration, count: int) -> list[np.ndarray]:
    """Node values of q(t + 2*pi*j/n) for j = 0..n-1 on `count` nodes."""
    phases = _transform(path.K, False).shift_phases(config.n)
    shifted = [path] + [TrigPath(sig * path.coeffs) for sig in phases]
    return [copy.at_nodes(count).values for copy in shifted]


def residual_terms(path: TrigPath, config: Configuration, node_count: int | None = None) -> ResidualTerms:
    """Conformal factors and pair terms of the disk equations of motion.

    Raises CollisionError when some Theta fails to be positive, which for
    on-disk points happens exactly at a collision.
    """
    if config.is_planar:
        raise ValueError("residual terms are defined for the disk equations only")
    N = node_count if node_count is not None else 2 * path.K + 1
    z = _shifted_values(path, config, N)
    R2 = config.R * config.R
    n = config.n
    lam = np.empty((n, N))
    P = np.empty((n, n - 1, N), dtype=complex)
    Theta = np.empty((n, n - 1, N))
    s = [R2 - np.abs(zj) ** 2 for zj in z]
    for j in range(n):
        lam[j] = 4.0 * R2 * R2 / s[j] ** 2
        for col, i in enumerate((j + m) % n for m in range(1, n)):
            zz = z[j] * np.conj(z[i])
            B = 4.0 * R2 * zz.real - (R2 + np.abs(z[j]) ** 2) * (R2 + np.abs(z[i]) ** 2)
            Theta[j, col] = B * B - (s[j] * s[i]) ** 2
            P[j, col] = s[j] * s[i] ** 2 * (R2 - zz) * (z[i] - z[j])
    if np.min(Theta) <= 0.0:
        raise CollisionError("colliding bodies: pair term Theta is not positive")
    return ResidualTerms(lam=lam, P=P, Theta=Theta)


def path_residual(path: TrigPath, config: Configuration, node_count: int | None = None) -> float:
    """Relative 2-norm of the equations-of-motion defect for body 0.

    The defect z'' - (rest of the equation) is evaluated on the path's own
    2K+1 nodes (or `node_count` nodes) and normalized by the 2-norm of z''
    on the same grid.
    """
    N = node_count if node_count is not None else 2 * path.K + 1
    if N < 2 * path.K + 1:
        raise ValueError("residual grid must resolve the path")
    w = config.omega
    z = _shifted_values(path, config, N)
    z0 = z[0]
    if not config.is_planar:
        if np.max(np.abs(z0)) >= config.R:
            raise OutOfDiskError("trajectory leaves the disk")
    d1 = path.derivative()
    zp = d1.at_nodes(N).values
    zpp = d1.derivative().at_nodes(N).values

    rhs = -2j * w * zp + w * w * z0
    if config.is_planar:
        for zi in z[1:]:
            diff = zi - z0
            dist = np.abs(diff)
            if np.min(dist) <= COLLISION_THRESHOLD:
                raise CollisionError("colliding bodies in residual evaluation")
            rhs = rhs + diff / dist ** 3
    else:
        terms = residual_terms(path, config, node_count=N)
        v = zp + 1j * w * z0
        s0 = config.R ** 2 - np.abs(z0) ** 2
        rhs = rhs - 2.0 * np.conj(z0) * v * v / s0
        pair = np.sum(terms.P[0] / terms.Theta[0] ** 1.5, axis=0)
        rhs = rhs + (4.0 * config.R / terms.lam[0]) * pair

    scale = float(np.linalg.norm(zpp))
    if scale == 0.0:
        raise ValueError("degenerate path: zero acceleration everywhere")
    return float(np.linalg.norm(zpp - rhs)) / scale


def motion_residual(choreo) -> float:
    """Relative 2-norm of the projected equations-of-motion residual."""
    return path_residual(choreo.path, choreo.config)


def coefficient_decay(choreo) -> float:
    """Magnitude of the outermost coefficient pair, max(|c_-K|, |c_K|)."""
    c = choreo.path.coeffs if hasattr(choreo, "path") else choreo.coeffs
    return float(max(abs(c[0]), abs(c[-1])))


def gradient_rel_norm(path: TrigPath, config: Configuration) -> float:
    """Action gradient 2-norm relative to the 2-norm of the variables.

    Uses the extended-precision gradient assembly: converged solutions sit
    below the rounding floor of the fast double-precision gradient.
    """
    x = pack_vars(path)
    result = evaluate(x, config, order=1, precise=True)
    if not math.isfinite(result.value):
        raise CollisionError("infeasible path: action is not finite")
    return float(np.linalg.norm(result.gradient)) / float(np.linalg.norm(x))


@dataclass(frozen=True)
class VerificationThresholds:
    """Acceptance bounds on the verification triple."""

    decay: float = 1e-8
    gradient: float = 1e-8
    residual: float = 1e-8


@dataclass
class VerificationResult:
    """Outcome of verify_all: the three measured values and any failures."""

    passed: bool
    decay: float
    gradient: float | None
    residual: float | None
    failures: list[str] = field(default_factory=list)


def verify_all(choreo, thresholds: VerificationThresholds | None = None) -> VerificationResult:
    """Check coefficient decay, gradient norm, and motion residual.

    Failure is a result, not an exception: infeasible paths (collision,
    out-of-disk) surface as failure messages with the offending metric
    left unset.
    """
    thr = thresholds if thresholds is not None else VerificationThresholds()
    failures: list[str] = []

    decay = coefficient_decay(choreo)
    if decay > thr.decay:
        failures.append(f"coefficient decay {decay:.3e} exceeds {thr.decay:.3e}")

    gradient = None
    try:
        gradient = gradient_rel_norm(choreo.path, choreo.config)
        if gradient > thr.gradient:
            failures.append(f"gradient norm {gradient:.3e} exceeds {thr.gradient:.3e}")
    except (CollisionError, OutOfDiskError) as exc:
        failures.append(f"gradient unavailable: {exc}")

    residual = None
    try:
        residual = path_residual(choreo.path, choreo.config)
        if residual > thr.residual:
            failures.append(f"motion residual {residual:.3e} exceeds {thr.residual:.3e}")
    except (CollisionError, OutOfDiskError) as exc:
        failures.append(f"residual unavailable: {exc}")

    return VerificationResult(
        passed=not failures,
        decay=decay,
        gradient=gradient,
        residual=residual,
        failures=failures,
    )


def extrinsic_residual(choreo, oversample: int = 4) -> float:
    """Residual of the equations of motion on the hyperboloid sheet.

    Lifts the disk trajectory of body 0 to the sheet, interpolates the
    three extrinsic components on an oversampled grid, and evaluates

        X'' - (X'.X')X/R^2 - sum_i (R^3 X_i + R (X_i.X_j) X_j) / ((X_i.X_j)^2 - R^4)^(3/2)

    with . the indefinite inner product.  The components of the lift are
    smooth but not band-limited, hence the oversampling before spectral
    differentiation.  Defined for non-rotating frames only (the lifted
    motion is periodic in the inertial frame exactly when omega = 0).
    """
    path, config = choreo.path, choreo.config
    if config.is_planar:
        raise ValueError("extrinsic residual is defined for the disk problem only")
    if config.omega != 0.0:
        raise ValueError("extrinsic residual requires a non-rotating frame")
    from . import geometry

    R = config.R
    N = oversample * (2 * path.K + 1) + 1
    t = nodes(N)
    lifts = [geometry.lift_coords(path.eval(t + 2.0 * np.pi * j / config.n), R) for j in range(config.n)]
    X0 = lifts[0]

    # Spectral second derivative of each extrinsic component of body 0.
    Xpp = np.empty_like(X0)
    Xp = np.empty_like(X0)
    for comp in range(3):
        interp = TrigPath.from_samples(X0[:, comp])
        d1 = interp.derivative()
        Xp[:, comp] = d1.at_nodes(N).values.real
        Xpp[:, comp] = d1.derivative().at_nodes(N).values.real

    def inner(A, B):
        return A[:, 0] * B[:, 0] + A[:, 1] * B[:, 1] - A[:, 2] * B[:, 2]

    rhs = (inner(Xp, Xp) / (R * R))[:, None] * X0
    for Xi in lifts[1:]:
        g = inner(Xi, X0)
        denom = (g * g - R ** 4) ** 1.5
        rhs = rhs + (R ** 3 * Xi + R * g[:, None] * X0) / denom[:, None]

    scale = float(np.linalg.norm(Xpp))
    return float(np.linalg.norm(Xpp - rhs)) / scale
