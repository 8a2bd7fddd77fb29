"""Two-phase minimization of the discretized action.

Phase 1 runs BFGS with the exact gradient on a moderate number of
coefficients until the relative gradient norm reaches _BFGS_TOLERANCE
(1e-7), for at most _BFGS_MAX_ITERATIONS (500) iterations, or until it
stalls: 100 iterations without a smaller relative gradient, over which
the value fell by at most 1e-8 relative.  Phase 2 pads the coefficient
vector (typically doubling the bandwidth) and runs Newton's method with
the exact Hessian, which converges quadratically to near machine
precision in a handful of steps: at most _NEWTON_MAX_STEPS (10), to
_NEWTON_TOLERANCE (1e-13).  These stopping rules, and the reuse ratio
below, are module constants, read at call time.

Because the action is invariant under rotations of the disk and time
shifts of the path (and under boosts for some configurations), its
Hessian is singular along those directions at every minimizer.  Each
Newton step therefore solves with H shifted by tau I, tau = 1e-10 +
1e-12 ||H||_1, factored once by Cholesky and solved on that factor by
blocked triangular substitution (the modified Newton step of Nocedal
and Wright, section 3.4): the shift only damps the pure-symmetry
components of the step and leaves quadratic convergence in the remaining
directions intact.  Only when the factorization fails, because H has
negative curvature beyond the shift, does the step go through an
eigendecomposition H = V diag(lam) V^T and divide by max(|lam|, 1e-10 +
1e-12 max|lam|), which turns negative curvature into descent; Phase 2's
message counts those steps and their index, the number of eigenvalues
below minus the floor.

In the endgame a step may skip the Hessian: while the last step cut the
relative gradient by at least _NEWTON_REUSE_RATIO (1e-3), the next one
solves on the last Hessian's factor (a simplified-Newton step, the
Jacobian-reuse rule of Hairer and Wanner, Solving ODEs II, section IV.8).
Otherwise the factor is freed before the next Hessian is assembled, so
a kept factor and a new Hessian are never alive at once.  A reused step
counts as a Newton step and repeats its factor's index.

Newton stops when the relative gradient norm reaches the tolerance or
the rounding floor that float64 coefficients put under it, estimated
from the last assembled Hessian; at that floor the gradient is noise, so
it counts as convergence and not as divergence.  Its gradients are the
long-double ones, which action.evaluate keeps for the latest point, so
the verification right after a solve reads the last one again without
computing it.

Infeasible trajectories (a node outside the disk, a collision) make the
action non-finite, which the Armijo backtracking line search rejects
like any other failed decrease; no constraint handling is needed.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from .action import Configuration, _NodeState, _check_integer, _transform, action_value, evaluate
from .trigpath import TrigPath, _fit_bandwidth, pack_vars, unpack_vars
from .verify import PhaseRecord, SolveReport, _rel_gradient_norm, coefficient_decay, path_residual

__all__ = [
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


# Stopping rules: iteration caps and relative gradient tolerances of
# Phase 1 (BFGS) and Phase 2 (Newton).
_BFGS_MAX_ITERATIONS = 500
_BFGS_TOLERANCE = 1e-7
_NEWTON_MAX_STEPS = 10
_NEWTON_TOLERANCE = 1e-13

# Simplified-Newton reuse of Phase 2: the next step solves on the last
# Hessian's factor, with no new Hessian, while the last step cut the
# relative gradient by at least this ratio (0 forms every step afresh).
_NEWTON_REUSE_RATIO = 1e-3

# Armijo backtracking of Phase 1: sufficient-decrease constant, step
# reduction per trial, and trials per line search.
_ARMIJO_C1 = 1e-4
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 60

# Stall test of Phase 1: the run stops when no iterate in the last
# _STALL_WINDOW has a smaller relative gradient than the smallest seen,
# and the value fell by at most _STALL_DECREASE relative over them.
_STALL_WINDOW = 100
_STALL_DECREASE = 1e-8

# Absolute part of the Newton step's floor under the gauge null modes: the
# diagonal shift of the Cholesky step, and the eigenvalue floor of the
# eigh step it falls back to on negative curvature.  A relative part
# 1e-12 ||H|| is always added.
_EIGENVALUE_FLOOR = 1e-10

# Width of the diagonal blocks of the triangular solves on a Cholesky
# factor (_cholesky_solve).
_SOLVE_BLOCK = 64

# Machine epsilon of float64, for the rounding resolutions of both phases.
_FLOAT_EPS = np.finfo(float).eps


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


@dataclass(frozen=True)
class Phase2Options:
    """Phase 2's padded bandwidth K2, an integer >= 1 (None means 2 K1).

    Newton's stopping rules are the module constants _NEWTON_MAX_STEPS
    and _NEWTON_TOLERANCE (see phase2_newton).
    """

    K2: int | None = None

    def __post_init__(self):
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
    curvature_indices holds the index of every Newton step Phase 2 took:
    the number of eigenvalues below minus the floor of the Hessian whose
    factor it solved on, 0 for a Cholesky factor.
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


def _bfgs_update(Hinv: np.ndarray, s: np.ndarray, y: np.ndarray, sy: float, work) -> None:
    """Inverse-BFGS update of Hinv in place, for the step s, the gradient
    change y and their curvature sy = s.y (Nocedal and Wright, section 6.1):

        H+ = (I - s y'/sy) H (I - y s'/sy) + s s'/sy = H + u s' + s u',
        u = ((sy + y.Hy) / (2 sy^2)) s - Hy / sy,

    the symmetric rank-2 form, added as one (dim, 2) by (2, dim) product.
    work holds its buffers, C-ordered arrays of shapes (dim, 2), (2, dim)
    and (dim, dim), which every update of a run reuses, so no update
    allocates a dim^2 temporary.
    """
    left, right, product = work
    Hy = Hinv @ y
    u = ((sy + float(y @ Hy)) / (2.0 * sy * sy)) * s - Hy / sy
    left[:, 0] = right[1] = u
    left[:, 1] = right[0] = s
    np.matmul(left, right, out=product)
    Hinv += product


def minimize_bfgs(fun, grad, x0) -> PhaseResult:
    """Dense inverse-BFGS with Armijo backtracking, to _BFGS_TOLERANCE in
    at most _BFGS_MAX_ITERATIONS iterations.

    fun may return +inf to mark infeasible points; such trial steps are
    backtracked past.  Where both the decrease Armijo asks for and the
    change of fun lie below fun's rounding resolution, a trial is accepted
    when its slope along the step shows the quadratic model's sufficient
    decrease, so the rounding of fun does not steer the endgame.  The
    inverse Hessian approximation is rescaled to (s.y / y.y) I after the
    first accepted step and updates are skipped when the curvature s.y is
    too small to be trustworthy.  Each update is the inverse-BFGS formula
    in its symmetric rank-2 form H + u s' + s u', added in place as one
    product into buffers allocated once per run (_bfgs_update).

    The run stalls when no iterate in the last _STALL_WINDOW has a
    smaller relative gradient than the smallest seen and the value fell by
    at most _STALL_DECREASE relative over them; it stops there, as at the
    iteration limit, with the last iterate.  The value test keeps a run
    that is still descending, however slowly its gradient falls.

    The result's message names the verdict: converged at the tolerance,
    stalled (with the smallest relative gradient and its iteration), the
    iteration limit (with the same), the rounding floor of fun, an
    accepted step too small to move x, or a line search that found no
    feasible decrease (the only one that sets failed).
    """
    t0 = time.perf_counter()
    x = np.array(x0, dtype=float)
    f = float(fun(x))
    if not math.isfinite(f):
        raise InfeasibleSeedError("starting point is infeasible")
    g = np.asarray(grad(x), dtype=float)
    dim = x.size
    identity = np.eye(dim)
    Hinv = identity.copy()
    work = (np.empty((dim, 2)), np.empty((2, dim)), np.empty((dim, dim)))
    first_update = True
    values = [f]
    gnorms = [_rel_gradient_norm(g, x)]
    best = 0  # iteration of the smallest relative gradient

    iteration = 0
    message = ""
    while iteration < _BFGS_MAX_ITERATIONS:
        grel = gnorms[-1]
        if grel <= _BFGS_TOLERANCE:
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
        resolution = 8.0 * _FLOAT_EPS * max(1.0, abs(f))
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
        if not s.any():
            message = "stopped: the accepted step is too small to move x"
            break
        if g_new is None:
            g_new = np.asarray(grad(x_new), dtype=float)
        y = g_new - g
        sy = float(s @ y)
        if first_update and sy > 0.0:
            Hinv = (sy / float(y @ y)) * identity
            first_update = False
        # The 2-norms as sqrt(v.v), which is how np.linalg.norm forms them.
        if sy > 1e-10 * math.sqrt(s.dot(s)) * math.sqrt(y.dot(y)):
            _bfgs_update(Hinv, s, y, sy, work)
        x, f, g = x_new, f_new, g_new
        values.append(f)
        gnorms.append(_rel_gradient_norm(g, x))
        iteration += 1
        if gnorms[-1] < gnorms[best]:
            best = iteration
        elif iteration - best >= _STALL_WINDOW and (
            values[-1 - _STALL_WINDOW] - f <= _STALL_DECREASE * abs(values[-1 - _STALL_WINDOW])
        ):
            message = (
                f"stalled: smallest relative gradient {gnorms[best]:.2e} at iteration {best},"
                f" none smaller in {_STALL_WINDOW} iterations"
            )
            break

    grel = gnorms[-1]
    converged = grel <= _BFGS_TOLERANCE
    if converged:
        message = f"converged at tolerance {_BFGS_TOLERANCE:.1e}"
    elif not message:
        message = (
            f"iteration limit {_BFGS_MAX_ITERATIONS} reached at relative gradient {grel:.2e};"
            f" smallest {gnorms[best]:.2e} at iteration {best}"
        )
    return PhaseResult(
        x, f, grel, iteration, converged, message=message,
        seconds=time.perf_counter() - t0, values=values, gradient_norms=gnorms,
    )


def phase1_bfgs(x0, config: Configuration) -> PhaseResult:
    """BFGS on the action at the configuration's own bandwidth."""
    return minimize_bfgs(
        lambda x: evaluate(x, config, order=0).value,
        lambda x: evaluate(x, config, order=1).gradient,
        x0,
    )


def _cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution x of L L^T x = b, for a lower triangular factor L.

    numpy has no triangular solve, so this is blocked forward and back
    substitution (Golub and Van Loan, section 4.2): each _SOLVE_BLOCK-wide
    diagonal block of L, or of L^T, is solved by np.linalg.solve, and the
    blocks already solved enter by one matrix-vector product per block.
    That is O(dim^2 + dim _SOLVE_BLOCK^2) work, against the O(dim^3) of
    factoring L L^T again.
    """
    dim = b.size
    starts = range(0, dim, _SOLVE_BLOCK)
    y = np.empty(dim)
    for i in starts:
        j = min(i + _SOLVE_BLOCK, dim)
        y[i:j] = np.linalg.solve(L[i:j, i:j], b[i:j] - L[i:j, :i] @ y[:i])
    x = np.empty(dim)
    for i in reversed(starts):
        j = min(i + _SOLVE_BLOCK, dim)
        x[i:j] = np.linalg.solve(L[i:j, i:j].T, y[i:j] - L[j:, i:j].T @ x[j:])
    return x


def _newton_step(H: np.ndarray) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """Factor of H under the gauge floor: the solve g -> -H^-1 g, and its index.

    Factors H + tau I with tau = _EIGENVALUE_FLOOR + 1e-12 ||H||_1
    (||H||_1 >= max|lam|, so tau is never below the eigh floor) by
    Cholesky when it can, and solves on the factor L itself
    (_cholesky_solve); the index is then 0.  Otherwise H has negative
    curvature, and the solve is the saddle-free eigh step, which divides
    by max(|lam|, _EIGENVALUE_FLOOR + 1e-12 max|lam|); the index counts
    the eigenvalues below minus that floor.  The solve holds only the
    factor (L, or the eigenvectors and floored eigenvalues), so each step
    on it costs O(dim^2) and no assembly or factorization.  H is shifted
    in place, not copied, and comes back bit for bit.
    """
    diagonal = H.diagonal().copy()
    H.flat[:: H.shape[0] + 1] += _EIGENVALUE_FLOOR + 1e-12 * float(np.linalg.norm(H, 1))
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        L = None
    finally:
        np.fill_diagonal(H, diagonal)
    if L is not None:
        return lambda g: _cholesky_solve(L, -g), 0
    lam, vecs = np.linalg.eigh(H)
    lam_floor = _EIGENVALUE_FLOOR + 1e-12 * float(np.max(np.abs(lam)))
    # Saddle-free step: descend along negative-curvature directions by
    # their magnitude, and floor the gauge-symmetry null modes so their
    # noise components produce no step to speak of.
    lam_eff = np.maximum(np.abs(lam), lam_floor)
    return lambda g: -vecs @ ((vecs.T @ g) / lam_eff), int(np.count_nonzero(lam < -lam_floor))


def phase2_newton(x0, config: Configuration) -> PhaseResult:
    """Regularized Newton iteration with the exact Hessian and a floor-aware stop.

    Rounding x to float64 alone moves the gradient by about eps |H| |x|,
    so each Hessian the iteration assembles also gives the rounding floor
    of the relative gradient, eps || |H| |x| || / ||x|| with eps the
    machine epsilon.  Each iterate converges when its relative gradient
    reaches _NEWTON_TOLERANCE or, failing that, the floor of the last
    assembled Hessian; only an iterate that must step assembles a new
    Hessian, and is judged against its floor too.  An iterate whose step
    cut the relative gradient by at least _NEWTON_REUSE_RATIO assembles
    none: its step solves on the last Hessian's factor (_newton_step),
    and its floor stays that Hessian's.  Otherwise the kept factor is
    freed before the next Hessian is assembled.  Below the floor the
    gradient is rounding noise, so only growth above the floor counts
    toward divergence.  A relative gradient that grows above the floor on
    two consecutive steps stops the run as failed, as does a step that
    finds no feasible decrease; both return the best iterate seen.  The
    run stops after _NEWTON_MAX_STEPS steps.  The message of the result
    names the verdict, and the steps that met negative curvature when
    there were any.  iterations counts the Newton steps taken, reused or
    not, and curvature_indices holds each step's factor's index, so a
    reused step repeats it.
    """
    t0 = time.perf_counter()
    x = np.array(x0, dtype=float)
    f = float(action_value(x, config))
    if not math.isfinite(f):
        raise InfeasibleSeedError("starting point is infeasible")
    g = evaluate(x, config, order=1, precise=True).gradient
    grel = _rel_gradient_norm(g, x)
    values = [f]
    gnorms = [grel]
    best = (grel, x.copy(), f)
    floor = 0.0  # until the first Hessian
    growth_streak = 0
    indices: list[int] = []
    solve = None  # the last Hessian's factor, while the steps on it contract fast enough

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

    for iteration in range(_NEWTON_MAX_STEPS + 1):
        if grel <= _NEWTON_TOLERANCE:
            return result(x, f, grel, iteration, True, f"converged at tolerance {_NEWTON_TOLERANCE:.1e}")
        if grel <= floor:
            return result(x, f, grel, iteration, True, f"converged at the rounding floor {floor:.2e}")
        if iteration == _NEWTON_MAX_STEPS:
            break

        if solve is None:
            H = evaluate(x, config, order=2).hessian
            floor = _FLOAT_EPS * float(np.linalg.norm(np.abs(H) @ np.abs(x))) / float(np.linalg.norm(x))
            if grel <= floor:
                return result(x, f, grel, iteration, True, f"converged at the rounding floor {floor:.2e}")
            solve, index = _newton_step(H)
            del H
        step = solve(g)
        indices.append(index)

        # Halve the step while it leaves the feasible region or increases
        # the value; the tolerance leaves endgame steps alone, which reduce
        # the gradient without a measurable change of the value.
        x_new = x + step
        f_new = float(action_value(x_new, config))
        f_tol = 64.0 * _FLOAT_EPS * max(1.0, abs(f))
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
        if not grel_new <= _NEWTON_REUSE_RATIO * grel:
            solve = None  # free the factor before the next Hessian is assembled
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

    if best[0] < grel:
        grel, x, f = best
    return result(x, f, grel, _NEWTON_MAX_STEPS, False, f"iteration limit reached above the rounding floor {floor:.2e}")


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


def solve(config: Configuration, seed: TrigPath, options2: Phase2Options | None = None) -> Choreography:
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

    result1 = phase1_bfgs(pack_vars(seed.pad(config.K)), config)
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
    config2 = _phase2_config(config, options2)
    start = _fit_bandwidth(start, config2.K)
    try:
        result2 = phase2_newton(pack_vars(start), config2)
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
