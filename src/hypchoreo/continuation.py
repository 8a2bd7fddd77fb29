"""Curvature sweeps: families of orbits followed from the flat limit inward.

As the curvature radius R grows, orbits on the disk shrink toward the
center and, once scaled by sigma (Configuration.sigma: 2 on the disk, 1
on the plane; the action's coordinate is p = sigma q), converge to
flat-space orbits at a rate proportional to 1/R^2.  Sweeps exploit this
in both directions, with Newton alone (Phase 2 only, at K2).  The flat
orbit is corrected from the doubled disk orbit sigma q (solve_planar),
which lies within O(1/R^2) of it, after one closed-form step: the flat
action along the ray through a path x is lam^2 T + V / lam (T kinetic, V
pair part), exactly on the quadrature grid, so the start is scaled to
the lam where that is stationary (the virial theorem 2T = V).  That
fixes the start's size, and with it most of the Newton steps it would
cost; the law needs eps = 0, so members on the disk get no such step.
Every member is then corrected from
the flat solution divided by sigma for the largest R and from the
previous member after that, which keeps the whole family on one solution
branch and preserves its rotation and phase gauge along the way.  Each
Newton run must converge, as in `solve`: `_solve_phase2` raises
SolveFailure for an infeasible start, a failed run or one that stops short.

The distance between a disk orbit and its flat counterpart is the
infinity-norm of sigma q_R(t) - q_flat(t) on a dense time grid, at the
least-squares gauge: the time shift and rotation that minimize the
2-norm of the coefficient difference.  Unlike the kinked sup norm, that
objective is smooth and its optimum follows a gauge motion of either
orbit exactly, so the diff is invariant under both motions down to
rounding.  The shift is found from the objective's shift-dependent part
alone, so a near-circle, whose objective barely depends on the shift,
is still aligned to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .action import Configuration, action_value
from .optimizer import Choreography, Phase2Options, SolveFailure, _phase2_config, _solve_phase2
# perfbench/workloads.py imports _fit_bandwidth from here.
from .trigpath import TrigPath, _fit_bandwidth, pack_vars
from .verify import verify_all

__all__ = [
    "FamilyMember",
    "ContinuationResult",
    "solve_planar",
    "continue_in_R",
    "planar_limit_diff",
    "convergence_rate",
    "center_planar",
]


@dataclass
class FamilyMember:
    """One solved curvature value of a family and its distance to the flat limit."""

    R: float
    choreo: Choreography
    diff_to_planar: float


@dataclass
class ContinuationResult:
    """Members solved so far; failed_at and reason record where and why a
    sweep stopped early."""

    members: list[FamilyMember]
    failed_at: float | None = None
    reason: str | None = None

    @property
    def complete(self) -> bool:
        return self.failed_at is None


def solve_planar(
    config: Configuration,
    start: TrigPath,
    options2: Phase2Options | None = None,
) -> Choreography:
    """Newton-only solve of the flat problem (R must be infinite).

    `start` must lie close to a flat orbit, as the doubled disk orbit
    sigma q does (the disk action is an eps = 1/R^2 perturbation of the
    flat one).  It is cut or padded to K2 (options2.K2, default 2 K),
    scaled to where the flat action is stationary along its own ray
    (`_virial_scaled`: exact in closed form because at eps = 0 the
    kinetic term is quadratic and the pair term homogeneous of degree
    -1), and Newton-corrected there; there is no Phase 1, so a rough seed
    goes through `solve`, which takes R = inf.  Raises
    SolveFailure, with the result attached, when Phase 2 gives no
    converged orbit.
    """
    if not config.is_planar:
        raise ValueError("solve_planar requires a planar configuration")
    config2 = _phase2_config(config, options2)
    start = _virial_scaled(_fit_bandwidth(start, config2.K), config2)
    return _solve_phase2(config, start, options2)


def _virial_scaled(path: TrigPath, config: Configuration) -> TrigPath:
    """path times lam = (V / 2T)^(1/3), the scale at which the flat action
    is stationary along the ray through path.

    At eps = 0 the kinetic term is quadratic and the Newtonian pair term
    homogeneous of degree -1, on the quadrature grid as in the integral,
    so A(lam x) = lam^2 T + V / lam exactly, with T and V the kinetic and
    pair parts at x: T = (2 A(2x) - A(x)) / 7 and V = A(x) - T.  At the
    scaled path d/dlam A(lam x) = g.x = 2T - V = 0 (the virial theorem),
    which zeroes the curvature along the rotation direction and puts a
    circular orbit on its radius.  On the disk (eps > 0) the scale a =
    1 - eps |p|^2 / 4 breaks both homogeneities, so this holds only on
    the plane.  A path whose parts are not positive and finite (an
    infeasible one) is returned unchanged.
    """
    x = pack_vars(path)
    value = action_value(x, config)
    kinetic = (2.0 * action_value(2.0 * x, config) - value) / 7.0
    pair = value - kinetic
    if not (kinetic > 0.0 and 0.0 < pair < math.inf):
        return path
    return TrigPath(path.coeffs * (pair / (2.0 * kinetic)) ** (1.0 / 3.0))


def center_planar(choreo: Choreography) -> Choreography:
    """Move a flat non-rotating solution so its center of mass sits at 0.

    For a flat choreography the center of mass equals the mean
    coefficient c_0, and with omega = 0 translations leave the action
    invariant, so zeroing c_0 picks the representative that disk
    solutions converge to.  Rotating-frame and disk solutions have no
    translation freedom and are returned unchanged.
    """
    if not choreo.config.is_planar or choreo.config.omega != 0.0:
        return choreo
    c = choreo.path.coeffs.copy()
    c[choreo.path.K] = 0.0
    return replace(choreo, path=TrigPath(c))


def planar_limit_diff(hyperbolic: Choreography, planar: Choreography) -> float:
    """Infinity-norm distance between a disk orbit and its flat limit.

    Computes max_t |sigma e^{i theta} q_R(t + s) - q_flat(t)| over a 10x
    oversampled grid, with sigma = hyperbolic.config.sigma and the shift
    s and rotation theta that minimize the 2-norm of the coefficient
    difference (see the module docstring).  Two flat solutions have
    sigma = 1, so a solution against itself gives 0.
    """
    if hyperbolic.config.n != planar.config.n:
        raise ValueError("families have different body counts")
    sigma = hyperbolic.config.sigma
    count = 10 * max(hyperbolic.path.coeffs.size, planar.path.coeffs.size)
    K_common = max(hyperbolic.path.K, planar.path.K)
    reference = planar.path.pad(K_common).coeffs
    moving = hyperbolic.path.pad(K_common)
    wavenumbers = moving.wavenumbers

    # ||sigma e^{i theta} c e^{iks} - p||^2 = const - 2 Re(e^{i theta} S(s))
    # with the overlap S(s) = sum_k a_k e^{iks}, a_k = sigma c_k conj(p_k), so
    # theta = -arg S(s) and s maximizes |S(s)|^2 = sum_m b_m e^{ims}, b the
    # autocorrelation of a.  Its s-dependent part, b without b_0, is summed
    # directly: formed as |S|^2 it would drown in the rounding of the
    # dominant mode's constant |a_k|^2 wherever the rest is below sqrt(eps)
    # of it (a circle plus a small mean), and leave s arbitrary.  Take the
    # best node of a 4x oversampled grid, then Newton steps on that part,
    # each clipped to half a grid spacing.  A curvature that is not negative
    # means |S| is flat there (a circle).
    overlap = TrigPath(sigma * moving.coeffs * np.conj(reference))
    power = np.correlate(overlap.coeffs, overlap.coeffs, "full")
    power[overlap.coeffs.size - 1] = 0.0
    power = TrigPath(power)
    grid = 4 * overlap.coeffs.size
    s = 2.0 * np.pi * int(np.argmax(power.at_nodes(grid).real)) / grid
    m = power.wavenumbers
    for _ in range(8):
        terms = power.shift(s).coeffs
        slope = np.sum(1j * m * terms).real
        curvature = -np.sum(m ** 2 * terms).real
        if not curvature < 0.0:
            break
        s += float(np.clip(-slope / curvature, -np.pi / grid, np.pi / grid))
    theta = -np.angle(overlap.shift(s).coeffs.sum())

    # Form the difference in extended precision: it is O(diff) while the
    # orbits are O(1), so double rounding in the subtraction would put a
    # noise floor of eps * |orbit| on every evaluation.
    arg = np.longdouble(theta) + wavenumbers * np.longdouble(s)
    phase = np.cos(arg) + 1j * np.sin(arg)
    d = np.clongdouble(sigma) * phase * moving.coeffs.astype(np.clongdouble)
    d = (d - reference.astype(np.clongdouble)).astype(complex)
    return float(np.max(np.abs(TrigPath(d).at_nodes(count))))


def continue_in_R(
    family_config: Configuration,
    R_list,
    planar_start: Choreography,
    options2: Phase2Options | None = None,
) -> ContinuationResult:
    """Newton-only sweep over descending curvature radii.

    Each member is Newton-corrected by `_solve_phase2` at K2 (options2.K2,
    default 2 K) from the flat solution divided by the disk's sigma (first,
    largest R), cut or padded to K2, or from the previous member.  A member
    must converge and pass verify_all at the default thresholds; the sweep
    stops at the first failure and returns the prefix with failed_at and
    reason set: the SolveFailure message, which starts "phase 2 " (for an
    unconverged run it names the final relative gradient and step count),
    or verify_all's failures.
    """
    radii = [float(R) for R in R_list]
    if not radii:
        raise ValueError("empty R list")
    if any(not 0.0 < R < math.inf for R in radii):
        raise ValueError("sweep radii must be positive and finite")
    if any(a <= b for a, b in zip(radii, radii[1:])):
        raise ValueError("sweep radii must be strictly descending")
    if not planar_start.config.is_planar:
        raise ValueError("planar_start must be a flat solution")

    reference = center_planar(planar_start)
    sigma = replace(family_config, R=radii[0]).sigma
    start = TrigPath(reference.path.coeffs / sigma)
    members: list[FamilyMember] = []
    for R in radii:
        try:
            choreo = _solve_phase2(replace(family_config, R=R), start, options2)
        except SolveFailure as exc:
            return ContinuationResult(members, failed_at=R, reason=str(exc))
        verdict = verify_all(choreo)
        if not verdict.passed:
            return ContinuationResult(members, failed_at=R, reason="verification failed: " + "; ".join(verdict.failures))
        members.append(FamilyMember(R, choreo, planar_limit_diff(choreo, reference)))
        start = choreo.path
    return ContinuationResult(members)


def convergence_rate(members) -> float:
    """Least-squares slope of log diff against log R over a family."""
    pairs = [(float(m.R), float(m.diff_to_planar)) for m in members]
    if len(pairs) < 3:
        raise ValueError("need at least three members to fit a rate")
    if not all(d > 0.0 for _, d in pairs):
        raise ValueError("diffs must be positive to fit a log-log slope")
    logs_R = np.log([R for R, _ in pairs])
    logs_d = np.log([d for _, d in pairs])
    return float(np.polyfit(logs_R, logs_d, 1)[0])
