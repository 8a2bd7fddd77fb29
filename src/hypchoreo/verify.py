"""Diagnostics for candidate choreographies.

A minimizer of the discretized action is accepted as a choreography only
after three independent checks: the Fourier tail of the trajectory has
decayed, the action gradient is small, and the trajectory satisfies the
equations of motion pointwise.  The last check is the strongest one; the
motion is never integrated in time, so the residual of the projected
equations is the primary evidence that the variational solution solves
the dynamical problem.

The residual is written once for disk and plane, in the variables of the
action (see action.py): the curvature eps = 1/R^2 (0 for R = inf), the
coordinate p = sigma q, the scale a = 1 - eps |p|^2/4 and the squared
separations d_j^2 = |p - p_j|^2 / (a a_j) from the shifted copies p_j.
With v = p' + i w p and kappa = eps conj(p) / (4a), body 0 in the frame
rotating at angular velocity w obeys

    p'' + 2i w p' - w^2 p
        = -2 kappa v^2 + 2 a^2 sum_j F'(d_j^2) d_j^2 (1/(conj(p) - conj(p_j)) + conj(kappa)),

with F'(P) = -G^(-3/2)/2 and G = P (1 + eps P/4) from the action's pair
kernel.  At eps = 0 this is Newton's sum of (p_j - p)/|p_j - p|^3.  No
power of R appears, so the residual stays finite for any R.  Because all
bodies follow the same curve, the residual is computed for body 0 only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .action import (
    CollisionError,
    Configuration,
    _collided,
    _out_of_disk,
    _pair_kernel,
    _scale,
    _separations_squared,
    _transform,
    evaluate,
)
from .geometry import OutOfDiskError
from .trigpath import TrigPath, nodes, pack_vars

__all__ = [
    "PhaseRecord",
    "SolveReport",
    "VerificationThresholds",
    "VerificationResult",
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


def _shifted_values(path: TrigPath, config: Configuration, count: int) -> np.ndarray:
    """Node values of the path at t + 2*pi*j/n, row j for j = 0..n-1, on
    `count` nodes."""
    phases = _transform(path.K, False).shift_phases(config.n)
    shifted = [path] + [TrigPath(sig * path.coeffs) for sig in phases]
    return np.array([copy.at_nodes(count).values for copy in shifted])


def path_residual(path: TrigPath, config: Configuration, node_count: int | None = None) -> float:
    """Relative 2-norm of the equations-of-motion defect for body 0.

    The defect p'' - (rest of the equation) is evaluated on the path's own
    2K+1 nodes (or `node_count` nodes) and normalized by the 2-norm of p''
    on the same grid, so the scale sigma of p = sigma q cancels.  Raises
    OutOfDiskError and CollisionError on the action's own tests.
    """
    N = node_count if node_count is not None else 2 * path.K + 1
    if N < 2 * path.K + 1:
        raise ValueError("residual grid must resolve the path")
    w = config.omega
    eps = (1 / config.R) ** 2
    p_path = TrigPath(config.sigma * path.coeffs)
    z = _shifted_values(p_path, config, N)
    p = z[0]
    if _out_of_disk(p, eps):
        raise OutOfDiskError("trajectory leaves the disk")
    a = _scale(z, eps)
    P = _separations_squared(z, a)
    if _collided(P):
        raise CollisionError("colliding bodies in residual evaluation")
    d1 = p_path.derivative()
    vel = d1.at_nodes(N).values
    acc = d1.derivative().at_nodes(N).values

    v = vel + 1j * w * p
    kappa = 0.25 * eps * np.conj(p) / a[0]
    Fp = _pair_kernel(P, eps)[1]
    pair = np.sum(Fp * P * (1.0 / np.conj(p - z[1:]) + np.conj(kappa)), axis=0)
    rhs = -2j * w * vel + w * w * p - 2.0 * kappa * v * v + 2.0 * a[0] ** 2 * pair

    scale = float(np.linalg.norm(acc))
    if scale == 0.0:
        raise ValueError("degenerate path: zero acceleration everywhere")
    return float(np.linalg.norm(acc - rhs)) / scale


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
    if not decay <= thr.decay:
        failures.append(f"coefficient decay {decay:.3e} exceeds {thr.decay:.3e}")

    gradient = None
    try:
        gradient = gradient_rel_norm(choreo.path, choreo.config)
        if not gradient <= thr.gradient:
            failures.append(f"gradient norm {gradient:.3e} exceeds {thr.gradient:.3e}")
    except (CollisionError, OutOfDiskError) as exc:
        failures.append(f"gradient unavailable: {exc}")

    residual = None
    try:
        residual = path_residual(choreo.path, choreo.config)
        if not residual <= thr.residual:
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
