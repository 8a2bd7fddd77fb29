"""Curvature sweeps: families of orbits followed from the flat limit inward.

As the curvature radius R grows, orbits on the disk shrink toward the
center and, once scaled by sigma (Configuration.sigma: 2 on the disk, 1
on the plane; the action's coordinate is p = sigma q), converge to
flat-space orbits at a rate proportional to 1/R^2.  Sweeps exploit this
in both directions, with Newton alone (Phase 2 only, at K2).  The flat
orbit is corrected from the doubled disk orbit sigma q (solve_planar),
which lies within O(1/R^2) of it.  Every member is then corrected from
the flat solution divided by sigma for the largest R and from the
previous member after that, which keeps the whole family on one solution
branch and preserves its rotation and phase gauge along the way.  Each
Newton run must converge: the optimizer judges it as it judges `solve`'s
Phase 2, and a run that stops short raises SolveFailure.

The distance between a disk orbit and its flat counterpart is the
infinity-norm of sigma q_R(t) - q_flat(t) on a dense time grid, at the
least-squares gauge: the time shift and rotation that minimize the
2-norm of the coefficient difference.  Unlike the kinked sup norm, that
objective is smooth and its optimum follows a gauge motion of either
orbit exactly, so the diff is invariant under both motions down to
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .action import Configuration
from .optimizer import (
    Choreography,
    InfeasibleSeedError,
    Phase2Options,
    SolveFailure,
    _require_converged,
    _solve_phase2,
)
from .trigpath import TrigPath
from .verify import VerificationThresholds, verify_all

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
    flat one).  It is cut or padded to K2 (options2.K2, default 2 K) and
    Newton-corrected there; there is no Phase 1, so a rough seed goes
    through `solve`, which takes R = inf.  Raises SolveFailure, with the
    result attached, when Phase 2 failed or did not converge.
    """
    if not config.is_planar:
        raise ValueError("solve_planar requires a planar configuration")
    opts2 = options2 if options2 is not None else Phase2Options()
    K2 = opts2.K2 if opts2.K2 is not None else 2 * config.K
    return _require_converged(_solve_phase2(config, _fit_bandwidth(start, K2), opts2))


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


def _fit_bandwidth(path: TrigPath, K: int) -> TrigPath:
    """Pad or truncate the centered coefficient vector to bandwidth K."""
    if path.K == K:
        return path
    if path.K < K:
        return path.pad(K)
    mid = path.K
    return TrigPath(path.coeffs[mid - K : mid + K + 1])


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
    # with the overlap S(s) = sum_k sigma c_k conj(p_k) e^{iks}, so theta = -arg S(s)
    # and s maximizes |S(s)|: take the best node of a 4x oversampled grid,
    # then Newton steps on |S|^2, each clipped to half a grid spacing.  A
    # curvature that is not negative means |S| is flat there (a circle).
    overlap = TrigPath(sigma * moving.coeffs * np.conj(reference))
    grid = 4 * overlap.coeffs.size
    s = 2.0 * np.pi * int(np.argmax(np.abs(overlap.at_nodes(grid)))) / grid
    for _ in range(8):
        terms = overlap.shift(s).coeffs
        S = terms.sum()
        dS = np.sum(1j * wavenumbers * terms)
        d2S = -np.sum(wavenumbers ** 2 * terms)
        slope = (np.conj(S) * dS).real
        curvature = abs(dS) ** 2 + (np.conj(S) * d2S).real
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
    thresholds: VerificationThresholds | None = None,
) -> ContinuationResult:
    """Newton-only sweep over descending curvature radii.

    Each member is Newton-corrected at K2 (options2.K2, default 2 K) from
    the flat solution divided by the disk's sigma (first, largest R) or the
    previous member.  A member must converge and pass verify_all; the sweep
    stops at the first failure and returns the prefix with failed_at and
    reason set: the SolveFailure or InfeasibleSeedError message (for an
    unconverged Phase 2, its final relative gradient and step count), or
    verify_all's failures.
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

    opts2 = options2 if options2 is not None else Phase2Options()
    K2 = opts2.K2 if opts2.K2 is not None else 2 * family_config.K
    reference = center_planar(planar_start)
    sigma = replace(family_config, R=radii[0]).sigma
    start = _fit_bandwidth(TrigPath(reference.path.coeffs / sigma), K2)
    members: list[FamilyMember] = []
    for R in radii:
        try:
            choreo = _require_converged(_solve_phase2(replace(family_config, R=R), start, opts2))
        except (SolveFailure, InfeasibleSeedError) as exc:
            return ContinuationResult(members, failed_at=R, reason=str(exc))
        verdict = verify_all(choreo, thresholds)
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
    if any(d <= 0.0 for _, d in pairs):
        raise ValueError("diffs must be positive to fit a log-log slope")
    logs_R = np.log([R for R, _ in pairs])
    logs_d = np.log([d for _, d in pairs])
    return float(np.polyfit(logs_R, logs_d, 1)[0])
