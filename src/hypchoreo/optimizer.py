"""Two-phase minimization of the discretized action.

Phase 1 runs BFGS with the exact gradient on a moderate number of
coefficients until the relative gradient norm reaches a few digits.
Phase 2 pads the coefficient vector (typically doubling the bandwidth)
and runs Newton's method with the exact Hessian, which converges
quadratically to near machine precision in a handful of steps.

Because the action is invariant under rotations of the disk and time
shifts of the path (and under boosts for some configurations), its
Hessian is singular along those directions at every minimizer.  Each
Newton step therefore solves with H shifted by tau I, tau = 1e-10 +
1e-12 ||H||_1, factored by Cholesky (the modified Newton step of Nocedal
and Wright, section 3.4): the shift only damps the pure-symmetry
components of the step and leaves quadratic convergence in the remaining
directions intact.  Only when the factorization fails, because H has
negative curvature beyond the shift, does the step go through an
eigendecomposition H = V diag(lam) V^T and divide by max(|lam|, 1e-10 +
1e-12 max|lam|), which turns negative curvature into descent; Phase 2's
message counts those steps and their index, the number of eigenvalues
below minus the floor.

Newton stops when the relative gradient norm reaches the tolerance or
the rounding floor that float64 coefficients put under it, estimated
from each assembled Hessian; at that floor the gradient is noise, so it
counts as convergence and not as divergence.

Infeasible trajectories (a node outside the disk, a collision) make the
action non-finite, which the Armijo backtracking line search rejects
like any other failed decrease; no constraint handling is needed.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .action import Configuration, _NodeState, _check_integer, _transform, action_value, evaluate
from .trigpath import TrigPath, _fit_bandwidth, pack_vars, unpack_vars
from .verify import PhaseRecord, SolveReport, coefficient_decay, path_residual

__all__ = [
    "Phase1Options",
    "Phase2Options",
    "PhaseResult",
    "Choreography",
    "InfeasibleSeedError",
    "SolveFailure",
    "minimize_bfgs",
    "phase1_bfgs",
    "phase2_newton",
    "random_seed",
    "solve",
]


# Armijo backtracking of Phase 1: sufficient-decrease constant, step
# reduction per trial, and trials per line search.
_ARMIJO_C1 = 1e-4
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 60

# Absolute part of the Newton step's floor under the gauge null modes: the
# diagonal shift of the Cholesky step, and the eigenvalue floor of the
# eigh step it falls back to on negative curvature.  A relative part
# 1e-12 ||H|| is always added.
_EIGENVALUE_FLOOR = 1e-10


class InfeasibleSeedError(ValueError):
    """Starting path is infeasible (collision or outside the disk)."""


class SolveFailure(RuntimeError):
    """A phase failed; the best result found so far rides along.

    Attributes
    ----------
    choreography : Choreography
        Partial result with the report filled in up to the failure.
    """

    def __init__(self, message: str, choreography: "Choreography"):
        super().__init__(message)
        self.choreography = choreography


class _Unconverged(SolveFailure):
    """Phase 2 stopped short without failing; only `hypchoreo search` keeps its orbit."""


def _check_controls(max_iterations: int, gradient_tolerance: float) -> None:
    """Reject a negative iteration cap and a tolerance that is not positive (NaN too)."""
    if not gradient_tolerance > 0.0:
        raise ValueError("tolerances must be positive")
    if max_iterations < 0:
        raise ValueError("iteration caps must not be negative")


@dataclass(frozen=True)
class Phase1Options:
    """BFGS controls: iteration cap and relative gradient tolerance."""

    max_iterations: int = 500
    gradient_tolerance: float = 1e-7

    def __post_init__(self):
        _check_controls(self.max_iterations, self.gradient_tolerance)


@dataclass(frozen=True)
class Phase2Options:
    """Newton controls; K2 is the padded bandwidth, an integer >= 1 (None means 2 K1).

    The iteration converges when the relative gradient norm reaches
    gradient_tolerance or, when that lies below what float64 coefficients
    can resolve, the rounding floor eps || |H| |x| || / ||x|| of the
    current iterate; max_iterations caps the Newton steps.
    """

    max_iterations: int = 10
    gradient_tolerance: float = 1e-13
    K2: int | None = None

    def __post_init__(self):
        _check_controls(self.max_iterations, self.gradient_tolerance)
        if self.K2 is not None:
            _check_integer("K2", self.K2)
            if self.K2 < 1:
                raise ValueError("padded bandwidth K2 must be at least 1")


@dataclass
class PhaseResult:
    """Outcome of one optimization phase.

    values and gradient_norms log every accepted iterate, starting with
    the initial point; failed marks line-search failure (Phase 1) or
    divergence or an infeasible step (Phase 2), with the best iterate
    returned either way.  Both phases name their verdict in message, and
    seconds is the run's wall time, which the phase record reports.
    curvature_indices holds the index of every Newton step Phase 2 formed:
    the number of Hessian eigenvalues below minus the floor, 0 for a
    Cholesky step.
    """

    x: np.ndarray
    value: float
    gradient_rel_norm: float
    iterations: int
    converged: bool
    failed: bool = False
    message: str = ""
    seconds: float = 0.0
    values: list[float] = field(default_factory=list)
    gradient_norms: list[float] = field(default_factory=list)
    curvature_indices: list[int] = field(default_factory=list)


@dataclass
class Choreography:
    """A solved (or partially solved) orbit with its diagnostics."""

    config: Configuration
    path: TrigPath
    report: SolveReport

    @property
    def action(self) -> float:
        final = self.report.final
        if final is not None:
            return final.action
        return action_value(pack_vars(self.path), self.config)


def _rel_gradient_norm(g: np.ndarray, x: np.ndarray) -> float:
    return float(np.linalg.norm(g)) / max(float(np.linalg.norm(x)), 1e-300)


def _bfgs_update(Hinv: np.ndarray, s: np.ndarray, y: np.ndarray, sy: float) -> None:
    """Inverse-BFGS update of Hinv in place, for the step s, the gradient
    change y and their curvature sy = s.y (Nocedal and Wright, section 6.1):

        H+ = (I - s y'/sy) H (I - y s'/sy) + s s'/sy = H + u s' + s u',
        u = ((sy + y.Hy) / (2 sy^2)) s - Hy / sy,

    the symmetric rank-2 form, added as one (dim, 2) by (2, dim) product.
    """
    Hy = Hinv @ y
    u = ((sy + float(y @ Hy)) / (2.0 * sy * sy)) * s - Hy / sy
    Hinv += np.stack((u, s), axis=1) @ np.stack((s, u))


def minimize_bfgs(fun, grad, x0, options: Phase1Options | None = None) -> PhaseResult:
    """Dense inverse-BFGS with Armijo backtracking.

    fun may return +inf to mark infeasible points; such trial steps are
    backtracked past.  Where both the decrease Armijo asks for and the
    change of fun lie below fun's rounding resolution, a trial is accepted
    when its slope along the step shows the quadratic model's sufficient
    decrease, so the rounding of fun does not steer the endgame.  The
    inverse Hessian approximation is rescaled to (s.y / y.y) I after the
    first accepted step and updates are skipped when the curvature s.y is
    too small to be trustworthy.  Each update is the inverse-BFGS formula
    in its symmetric rank-2 form H + u s' + s u', added in place as one
    product (_bfgs_update).

    The result's message names the verdict: converged at the tolerance,
    the iteration limit (with the smallest relative gradient seen and its
    iteration), the rounding floor of fun, an accepted step too small to
    move x, or a line search that found no feasible decrease (the only
    one that sets failed).
    """
    t0 = time.perf_counter()
    opts = options if options is not None else Phase1Options()
    x = np.array(x0, dtype=float)
    f = float(fun(x))
    if not math.isfinite(f):
        raise InfeasibleSeedError("starting point is infeasible")
    g = np.asarray(grad(x), dtype=float)
    dim = x.size
    identity = np.eye(dim)
    Hinv = identity.copy()
    first_update = True
    values = [f]
    gnorms = [_rel_gradient_norm(g, x)]

    iteration = 0
    message = ""
    while iteration < opts.max_iterations:
        grel = gnorms[-1]
        if grel <= opts.gradient_tolerance:
            break

        p = Hinv @ g
        p = -p
        slope = float(g @ p)
        if slope >= 0.0:
            # Update went bad; fall back to steepest descent.
            Hinv = identity.copy()
            first_update = True
            p = -g
            slope = float(g @ p)

        step = 1.0
        accepted = False
        g_new = None
        resolution = 8.0 * np.finfo(float).eps * max(1.0, abs(f))
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + step * p
            f_new = float(fun(x_new))
            if math.isfinite(f_new) and f_new <= f + _ARMIJO_C1 * step * slope:
                accepted = True
                break
            if abs(f_new - f) <= resolution and _ARMIJO_C1 * step * abs(slope) <= resolution:
                # fun cannot tell the trial from x, so a rounding error
                # would decide the test above: test the slope at the trial
                # instead, which is the Armijo test of the quadratic model
                # (Hager and Zhang's approximate Wolfe condition).
                g_new = np.asarray(grad(x_new), dtype=float)
                if float(g_new @ p) <= (2.0 * _ARMIJO_C1 - 1.0) * slope:
                    accepted = True
                    break
                g_new = None
            step *= _BACKTRACK_FACTOR
        if not accepted:
            if _ARMIJO_C1 * step * abs(slope) < resolution:
                # The smallest trial demanded less decrease than fun can
                # resolve: the iterate sits at the rounding floor.  Stop
                # here; a second-order method can still make progress.
                message = f"stopped at the rounding floor: no trial step gave a decrease above {resolution:.1e}"
                break
            return PhaseResult(
                x, f, grel, iteration, False,
                failed=True, message="line search found no feasible decrease",
                seconds=time.perf_counter() - t0, values=values, gradient_norms=gnorms,
            )

        s = x_new - x
        if not np.any(s):
            message = "stopped: the accepted step is too small to move x"
            break
        if g_new is None:
            g_new = np.asarray(grad(x_new), dtype=float)
        y = g_new - g
        sy = float(s @ y)
        if first_update and sy > 0.0:
            Hinv = (sy / float(y @ y)) * identity
            first_update = False
        if sy > 1e-10 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            _bfgs_update(Hinv, s, y, sy)
        x, f, g = x_new, f_new, g_new
        values.append(f)
        gnorms.append(_rel_gradient_norm(g, x))
        iteration += 1

    grel = gnorms[-1]
    converged = grel <= opts.gradient_tolerance
    if converged:
        message = f"converged at tolerance {opts.gradient_tolerance:.1e}"
    elif not message:
        best = int(np.argmin(gnorms))
        message = (
            f"iteration limit {opts.max_iterations} reached at relative gradient {grel:.2e};"
            f" smallest {gnorms[best]:.2e} at iteration {best}"
        )
    return PhaseResult(
        x, f, grel, iteration, converged, message=message,
        seconds=time.perf_counter() - t0, values=values, gradient_norms=gnorms,
    )


def phase1_bfgs(x0, config: Configuration, options: Phase1Options | None = None) -> PhaseResult:
    """BFGS on the action at the configuration's own bandwidth."""
    return minimize_bfgs(
        lambda x: evaluate(x, config, order=0).value,
        lambda x: evaluate(x, config, order=1).gradient,
        x0,
        options,
    )


def _newton_step(H: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, int]:
    """Newton step -H^-1 g under the gauge floor, and its index.

    Solves (H + tau I) s = -g with tau = _EIGENVALUE_FLOOR + 1e-12 ||H||_1
    (||H||_1 >= max|lam|, so tau is never below the eigh floor) when that
    matrix has a Cholesky factor; the index is then 0.  Otherwise H has
    negative curvature, and the step is the saddle-free eigh step, which
    divides by max(|lam|, _EIGENVALUE_FLOOR + 1e-12 max|lam|); the index
    counts the eigenvalues below minus that floor.  H is shifted in place,
    not copied, and comes back bit for bit.
    """
    diagonal = H.diagonal().copy()
    H.flat[:: H.shape[0] + 1] += _EIGENVALUE_FLOOR + 1e-12 * float(np.linalg.norm(H, 1))
    try:
        np.linalg.cholesky(H)
        return np.linalg.solve(H, -g), 0
    except np.linalg.LinAlgError:
        pass
    finally:
        np.fill_diagonal(H, diagonal)
    lam, vecs = np.linalg.eigh(H)
    lam_floor = _EIGENVALUE_FLOOR + 1e-12 * float(np.max(np.abs(lam)))
    # Saddle-free step: descend along negative-curvature directions by
    # their magnitude, and floor the gauge-symmetry null modes so their
    # noise components produce no step to speak of.
    lam_eff = np.maximum(np.abs(lam), lam_floor)
    return -vecs @ ((vecs.T @ g) / lam_eff), int(np.count_nonzero(lam < -lam_floor))


def phase2_newton(x0, config: Configuration, options: Phase2Options | None = None) -> PhaseResult:
    """Regularized Newton iteration with the exact Hessian and a floor-aware stop.

    Rounding x to float64 alone moves the gradient by about eps |H| |x|,
    so each Hessian the iteration assembles also gives the rounding floor
    of the relative gradient, eps || |H| |x| || / ||x|| with eps the
    machine epsilon.  The iteration converges when the relative gradient
    reaches options.gradient_tolerance or, failing that, the floor; below
    the floor it is rounding noise, so only growth above the floor counts
    toward divergence.  A relative gradient that grows above the floor on
    two consecutive steps stops the run as failed, as does a step that
    finds no feasible decrease; both return the best iterate seen.  The
    message of the result names the verdict, and the steps that met
    negative curvature when there were any; iterations counts the Newton
    steps taken.
    """
    t0 = time.perf_counter()
    opts = options if options is not None else Phase2Options()
    x = np.array(x0, dtype=float)
    f = float(action_value(x, config))
    if not math.isfinite(f):
        raise InfeasibleSeedError("starting point is infeasible")
    g = evaluate(x, config, order=1, precise=True).gradient
    grel = _rel_gradient_norm(g, x)
    values = [f]
    gnorms = [grel]
    best = (grel, x.copy(), f)
    floor = 0.0
    growth_streak = 0
    indices: list[int] = []

    def result(x, f, grel, steps, converged, message, failed=False):
        negative = sum(index > 0 for index in indices)
        if negative:
            message += (
                f"; {negative} of {len(indices)} steps met negative curvature"
                f" (max index {max(indices)})"
            )
        return PhaseResult(
            x, f, grel, steps, converged, failed=failed, message=message, seconds=time.perf_counter() - t0,
            values=values, gradient_norms=gnorms, curvature_indices=indices,
        )

    at_tolerance = f"converged at tolerance {opts.gradient_tolerance:.1e}"
    for iteration in range(opts.max_iterations):
        if grel <= opts.gradient_tolerance:
            return result(x, f, grel, iteration, True, at_tolerance)

        H = evaluate(x, config, order=2).hessian
        floor = np.finfo(float).eps * float(np.linalg.norm(np.abs(H) @ np.abs(x))) / float(np.linalg.norm(x))
        if grel <= floor:
            return result(x, f, grel, iteration, True, f"converged at the rounding floor {floor:.2e}")
        step, index = _newton_step(H, g)
        indices.append(index)
        del H  # free it before the next Hessian is assembled

        # Halve the step while it leaves the feasible region or increases
        # the value; the tolerance leaves endgame steps alone, which reduce
        # the gradient without a measurable change of the value.
        x_new = x + step
        f_new = float(action_value(x_new, config))
        f_tol = 64.0 * np.finfo(float).eps * max(1.0, abs(f))
        for _ in range(60):
            if math.isfinite(f_new) and f_new <= f + f_tol:
                break
            step *= 0.5
            x_new = x + step
            f_new = float(action_value(x_new, config))
        else:
            return result(
                best[1], best[2], best[0], iteration, False,
                "no feasible decrease: the Newton step failed at every damping", failed=True,
            )

        g_new = evaluate(x_new, config, order=1, precise=True).gradient
        grel_new = _rel_gradient_norm(g_new, x_new)
        x, f, g = x_new, f_new, g_new
        values.append(f)
        gnorms.append(grel_new)
        growth_streak = growth_streak + 1 if grel_new > max(grel, floor) else 0
        grel = grel_new
        if grel < best[0]:
            best = (grel, x.copy(), f)
        if growth_streak >= 2:
            return result(
                best[1], best[2], best[0], iteration + 1, False,
                f"diverged above the rounding floor {floor:.2e}: "
                "the gradient norm grew on two consecutive Newton steps", failed=True,
            )

    # The last iterate is judged against the floor of the last Hessian.
    steps = opts.max_iterations
    if grel <= opts.gradient_tolerance:
        return result(x, f, grel, steps, True, at_tolerance)
    if steps == 0:
        return result(x, f, grel, 0, False, "iteration limit reached before any Newton step; no Hessian gave a rounding floor")
    if grel <= floor:
        return result(x, f, grel, steps, True, f"converged at the rounding floor {floor:.2e}")
    if best[0] < grel:
        grel, x, f = best
    return result(x, f, grel, steps, False, f"iteration limit reached above the rounding floor {floor:.2e}")


def random_seed(config: Configuration, modes: int = 5, rng_seed: int = 0) -> TrigPath:
    """Deterministic low-bandwidth random starting path.

    Coefficients are nonzero for |k| <= modes, complex Gaussian with
    magnitude decaying like 2^(-|k|), scaled so the trajectory stays well
    inside the disk (max |q| = 0.6 R) and redrawn until all bodies keep a
    mutual chordal separation of at least 0.05 R.  The flat problem has
    no disk to scale against, so it uses a unit reference length instead
    of R.  Both tests read node values on 1024 nodes: the peak from the
    transform of the raw draw, which may lie off the disk, and the
    separations from the node state of the scaled one.
    """
    if modes > config.K:
        raise ValueError("seed bandwidth exceeds the configuration bandwidth")
    if modes < 1:
        raise ValueError("need at least one seed mode")
    rng = np.random.default_rng(rng_seed)
    scale_ref = 1.0 if config.is_planar else config.R
    k = np.arange(-modes, modes + 1)
    sp = _transform(modes, False, 1024)

    for _ in range(100):
        c = (rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)) * 2.0 ** (-np.abs(k))
        peak = float(np.max(np.abs(sp.values(c))))
        if peak == 0.0:
            continue
        c = c * (0.6 * scale_ref / peak)
        state = _NodeState(config.sigma * c, config, M=1024)
        if float(np.min(state.seps_sq)) >= (0.05 * scale_ref) ** 2:
            return TrigPath(c).pad(config.K)
    raise InfeasibleSeedError("no feasible random seed found in 100 draws")


def _phase_record(result: PhaseResult, path: TrigPath, config: Configuration) -> PhaseRecord:
    return PhaseRecord(
        action=result.value,
        coefficient_count=path.coeffs.size,
        wall_time_seconds=result.seconds,
        iterations=result.iterations,
        gradient_rel_norm=result.gradient_rel_norm,
        smallest_coefficient=coefficient_decay(path),
        residual_rel_norm=path_residual(path, config),
        converged=result.converged,
    )


def solve(
    config: Configuration,
    seed: TrigPath,
    options1: Phase1Options | None = None,
    options2: Phase2Options | None = None,
) -> Choreography:
    """Run the full two-phase pipeline from a feasible seed.

    Phase 1 works at the configuration's bandwidth K; Phase 2 pads to
    options2.K2 (default 2 K).  Raises SolveFailure, with the partial
    result attached, when Phase 1 fails or Phase 2 gives no converged
    orbit (`_solve_phase2`).
    """
    if options2 is not None and options2.K2 is not None and options2.K2 < config.K:
        raise ValueError("padded bandwidth K2 must be at least the Phase 1 bandwidth")
    if seed.K > config.K:
        raise ValueError("seed bandwidth exceeds the configuration bandwidth")

    result1 = phase1_bfgs(pack_vars(seed.pad(config.K)), config, options1)
    return _solve_from_phase1(config, result1, options2)


def _solve_from_phase1(config: Configuration, result1: PhaseResult, options2: Phase2Options | None) -> Choreography:
    """The rest of `solve` after a Phase 1 run at config.K: its record, then
    `_solve_phase2`.  Raises SolveFailure, with the partial result
    attached, when Phase 1 failed, and as `_solve_phase2` does."""
    path1 = unpack_vars(result1.x)
    record1 = _phase_record(result1, path1, config)
    if result1.failed:
        partial = Choreography(config, path1, SolveReport(phase1=record1))
        raise SolveFailure(f"phase 1 failed: {result1.message}", partial)
    return _solve_phase2(config, path1, options2, record1)


def _phase2_config(config: Configuration, options2: Phase2Options | None) -> Configuration:
    """config at Phase 2's bandwidth K2: options2.K2, default 2 config.K."""
    K2 = options2.K2 if options2 is not None else None
    return replace(config, K=K2 if K2 is not None else 2 * config.K)


def _solve_phase2(
    config: Configuration, start: TrigPath, options2: Phase2Options | None = None, record1: PhaseRecord | None = None
) -> Choreography:
    """Phase 2 of every solve, and the one judge of its Newton run.

    Newton runs at K2 (`_phase2_config`: options2.K2, default 2 config.K)
    from `start` cut or padded to K2, and is reported after record1 (None
    when no Phase 1 ran).  Returns a converged orbit; otherwise raises
    SolveFailure with what there is attached: "phase 2 failed: ..." for
    an infeasible start (record1 alone) or a failed run, `_Unconverged`
    ("phase 2 did not converge: ...") for one that stopped short.
    """
    opts2 = options2 if options2 is not None else Phase2Options()
    config2 = _phase2_config(config, opts2)
    start = _fit_bandwidth(start, config2.K)
    try:
        result2 = phase2_newton(pack_vars(start), config2, opts2)
    except InfeasibleSeedError as exc:
        raise SolveFailure(f"phase 2 failed: {exc}", Choreography(config2, start, SolveReport(phase1=record1))) from None
    path2 = unpack_vars(result2.x)
    choreo = Choreography(config2, path2, SolveReport(phase1=record1, phase2=_phase_record(result2, path2, config2)))
    if result2.failed:
        raise SolveFailure(f"phase 2 failed: {result2.message}", choreo)
    if not result2.converged:
        steps = f"relative gradient {result2.gradient_rel_norm:.2e} after {result2.iterations} Newton steps"
        raise _Unconverged(f"phase 2 did not converge: {steps}", choreo)
    return choreo
