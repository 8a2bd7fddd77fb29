"""Action of n equal bodies sharing one orbit, on the hyperbolic disk or the plane.

The shared trajectory is a trigonometric polynomial q(t); body j follows
q(t + 2*pi*j/n).  In a frame rotating at angular velocity omega about the
origin, the action over one period on the disk of curvature radius R is

    A = (n/2)   Int lam(q) |q' + i w q|^2 dt
      + (n/2R)  sum_{j=1..n-1} Int (2R^2 + D_j^2) / (D_j sqrt(4R^2 + D_j^2)) dt,

where lam(z) = 4R^4/(R^2 - |z|^2)^2 is the conformal factor and D_j(t) is
the chordal separation between q(t) and q_j(t) = q(t + 2*pi*j/n).  Both
terms are positive: the second is the (negated) cotangent pair potential,
which is attractive and negative.  The flat variant (R = inf) replaces
lam by 1 and the pair integrand by the Newtonian 1/|q - q_j|.

Integrals are discretized by the trapezoidal rule on M = 2(2K+1) + 1
equispaced nodes, twice the coefficient count, which keeps aliasing of
the smooth nonlinear integrands far below the optimization tolerances.
Gradient and Hessian are the exact derivatives of this discrete sum with
respect to the packed real coefficient vector.

Derivative assembly: every integrand is a pointwise function of node
values y = E c under linear maps E (evaluation, time shift, velocity).
First derivatives pull back through E^T; second derivatives need the node
-diagonal forms E^T diag(d) E and E^T diag(d) conj(E), which on a uniform
grid are a Hankel and a Toeplitz matrix read off the FFT of d.  Each
Hessian therefore costs O(n (M log M + K^2)) instead of O(n K^2 M).
Each stage stacks its rows into one inverse FFT along the last axis: the
node values of q, its velocity and the n-1 shifted copies; the kinetic
and pair rows of the gradient pull-back; the Hankel and Toeplitz sources
of the Hessian.  An evaluation thus makes one FFT call per stage for any
n, and every row keeps the digits it would get alone.  evaluate keeps
the node state and value of the latest point, so a gradient or Hessian
asked for right after the value at the same point skips the first stage.

The gradient formula is written once and runs on the same FFT transform
in one of two precisions, each built once per (K, precise) and cached:
double precision, or long double for the Newton endgame and the final
verification, whose rounding floor lies far below the double-precision
gradient's (about 1e-12 relative at converged solutions) wherever long
double is wider than double.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .trigpath import NodeValues, TrigPath

__all__ = [
    "Configuration",
    "ActionEvaluation",
    "CollisionError",
    "quadrature_size",
    "action_value",
    "action_gradient",
    "action_hessian",
    "evaluate",
    "pairwise_separations",
    "hyperboloid_energies",
]

# Node values this close to the boundary (relatively) make the evaluation
# infeasible; the optimizer treats the non-finite value as a rejected step.
DISK_MARGIN = 1e-12

# Pair separations at or below this threshold count as collisions.
COLLISION_THRESHOLD = 1e-13

# pi to extended (80-bit) precision, for the long-double transform.
_PI_EXTENDED = np.longdouble("3.14159265358979323846264338327950288")


class CollisionError(ValueError):
    """Two bodies closer than the collision threshold."""


@dataclass(frozen=True)
class Configuration:
    """Problem data: body count, curvature radius, frame rotation, bandwidth.

    R = math.inf selects the flat (planar) problem; any finite R > 0
    selects the hyperbolic disk of that radius.  omega is the angular
    velocity of the rotating frame (0 for absolute choreographies).  K is
    the bandwidth of the trajectory ansatz, 2K+1 complex coefficients.
    """

    n: int
    R: float
    K: int
    omega: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least two bodies")
        if not self.R > 0.0:
            raise ValueError("curvature radius must be positive (math.inf for planar)")
        if self.K < 1:
            raise ValueError("bandwidth K must be at least 1")

    @property
    def is_planar(self) -> bool:
        return math.isinf(self.R)

    @property
    def n_coefficients(self) -> int:
        return 2 * self.K + 1

    @property
    def n_vars(self) -> int:
        return 2 * self.n_coefficients


@dataclass
class ActionEvaluation:
    """Value and requested derivatives at one coefficient vector.

    For infeasible points (boundary contact or collision) value is +inf
    and the derivative arrays are NaN-filled.
    """

    value: float
    gradient: np.ndarray | None = None
    hessian: np.ndarray | None = None


def quadrature_size(K: int) -> int:
    """Number of trapezoidal nodes used for bandwidth K: 2(2K+1) + 1."""
    return 2 * (2 * K + 1) + 1


class _Spectral:
    """FFT transforms for one (bandwidth, grid) pair in one real dtype:
    float64, or long double for the precise gradient (numpy >= 2 runs its
    FFT natively in long double).

    values, transform and adjoint act on the last axis, so a stacked
    (rows, .) array goes through one inverse FFT; each row gets exactly
    the digits it would get alone.

    values:    node values of sum_k c_k exp(i k t_m)
    transform: f_r = sum_m d_m exp(+i r t_m), r = 0..M-1
    adjoint:   (E^T g)_k      = sum_m g_m exp(+i k t_m)
    hank:      (E^T D E)_kl   = sum_m d_m exp(+i (k+l) t_m), from f = transform(d)
    toep:      (E^T D Ebar)_kl = sum_m d_m exp(+i (k-l) t_m), from f = transform(d)
    shift_phases: exp(2 pi i j k / n), row j-1 for j = 1..n-1, the factors
        that turn the coefficients of q(t) into those of q(t + 2 pi j / n);
        computed once per n and read-only
    """

    def __init__(self, K: int, M: int, real):
        self.M = M
        self.real = real
        self.pi = np.pi if real is np.float64 else _PI_EXTENDED
        k = np.arange(-K, K + 1)
        # k in the transform's dtype, so that dw * c keeps its precision.
        self.k = k.astype(real)
        self._kmod = k % M
        self._hidx = (k[:, None] + k[None, :]) % M
        self._tidx = (k[:, None] - k[None, :]) % M
        self._phases: dict[int, np.ndarray] = {}

    def values(self, c: np.ndarray) -> np.ndarray:
        spectrum = np.zeros(c.shape[:-1] + (self.M,), dtype=np.result_type(self.real, 1j))
        spectrum[..., self._kmod] = c
        return self.transform(spectrum)

    def transform(self, d: np.ndarray) -> np.ndarray:
        return self.M * np.fft.ifft(d, axis=-1)

    def adjoint(self, d: np.ndarray) -> np.ndarray:
        return self.transform(d)[..., self._kmod]

    def hank(self, f: np.ndarray) -> np.ndarray:
        return f[self._hidx]

    def toep(self, f: np.ndarray) -> np.ndarray:
        return f[self._tidx]

    def shift_phases(self, n: int) -> np.ndarray:
        if n not in self._phases:
            phases = np.array([np.exp(2j * self.pi * j * self.k / n) for j in range(1, n)])
            phases.flags.writeable = False
            self._phases[n] = phases
        return self._phases[n]


@functools.lru_cache(maxsize=32)
def _transform(K: int, precise: bool) -> _Spectral:
    """The transform for bandwidth K on its quadrature grid, built once."""
    return _Spectral(K, quadrature_size(K), np.longdouble if precise else np.float64)


def _coefficients(x, config: Configuration) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.size != config.n_vars:
        raise ValueError(f"expected {config.n_vars} variables, got {x.size}")
    half = x.size // 2
    return x[:half] + 1j * x[half:]


def _separations_squared(q: np.ndarray, shifted: np.ndarray, R2=None) -> np.ndarray:
    """Squared chordal separations 4R^4 |q - q_j|^2 / (s0 s_j) from each
    shifted copy (one row each), s = R^2 - |.|^2; squared Euclidean ones
    when R2 is None."""
    if R2 is None:
        return np.abs(q - shifted) ** 2
    s0 = R2 - np.abs(q) ** 2
    return 4.0 * R2 * R2 * np.abs(q - shifted) ** 2 / (s0 * (R2 - np.abs(shifted) ** 2))


class _NodeState:
    """Node values of the path, its shifted copies, and the rotating velocity,
    in the dtype of the transform (long double when precise).

    q, u and the n-1 shifted copies qj come from one stacked transform;
    qj and everything derived per pair (seps_sq, kernels) are (n-1, M)
    arrays with one row per shift j = 1..n-1.
    """

    def __init__(self, c: np.ndarray, config: Configuration, precise: bool = False):
        K = (c.size - 1) // 2
        self.sp = sp = _transform(K, precise)
        self.config = config
        self.dw = 1j * (sp.k + config.omega)
        self.sigmas = sp.shift_phases(config.n)
        nodes = sp.values(np.vstack((c, self.dw * c, self.sigmas * c)))
        self.q, self.u, self.qj = nodes[0], nodes[1], nodes[2:]
        self.uu = np.abs(self.u) ** 2
        # Trapezoid weights of the kinetic and the pair integrals.
        self.w_kin = 0.5 * config.n * (2.0 * sp.pi / sp.M)
        if config.is_planar:
            self.R2 = None
            self.w_pot = self.w_kin
        else:
            R = sp.real(config.R)
            self.R2 = R * R
            self.s0 = self.R2 - np.abs(self.q) ** 2
            self.w_pot = self.w_kin / R

    @functools.cached_property
    def lam(self) -> np.ndarray:
        """Conformal factor 4R^4/s0^2 at the nodes (ones when planar)."""
        if self.R2 is None:
            return np.ones(self.sp.M, dtype=self.sp.real)
        return 4.0 * self.R2 * self.R2 / (self.s0 * self.s0)

    def out_of_disk(self) -> bool:
        if self.config.is_planar:
            return False
        return bool(np.max(np.abs(self.q)) >= self.config.R * (1.0 - DISK_MARGIN))

    @functools.cached_property
    def seps_sq(self) -> np.ndarray:
        """Squared chordal (hyperbolic) or Euclidean (planar) separations."""
        return _separations_squared(self.q, self.qj, self.R2)

    def collided(self) -> bool:
        # Row by row, so that a NaN row cannot mask a collided one.
        return bool(np.any(np.min(self.seps_sq, axis=-1) <= COLLISION_THRESHOLD ** 2))

    @functools.cached_property
    def kernels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(F, F', F'') of every pair; only defined once no pair has collided."""
        return _pair_kernel(self.seps_sq, self.R2, self.config.is_planar)

    def value(self) -> float | None:
        """The action; None when a node leaves the disk or a pair collides."""
        if self.out_of_disk() or self.collided():
            return None
        value = self.w_kin * float(np.sum(self.lam * self.uu))
        for pair_sum in np.sum(self.kernels[0], axis=-1):
            value += self.w_pot * float(pair_sum)
        return value


@functools.lru_cache(maxsize=1)
def _state_and_value(data: bytes, config: Configuration) -> tuple[_NodeState, float | None]:
    """Float64 node state and action (None if infeasible) at the
    coefficients with these bytes.

    Keeping the latest one lets a gradient or Hessian request right after
    a value request at the same point (BFGS's fun then grad, Newton's
    value then precise gradient) reuse the node values.
    """
    state = _NodeState(np.frombuffer(data, dtype=complex), config)
    return state, state.value()


def _pair_kernel(P: np.ndarray, R2, planar: bool):
    """Pair integrand F and derivatives as functions of the squared separation.

    Hyperbolic: F(P) = (2R^2 + P)/sqrt(P (4R^2 + P)); its derivative
    collapses to F' = -4R^4 (P^2 + 4R^2 P)^(-3/2).  Planar: F(P) = P^(-1/2).
    """
    if planar:
        F = P ** -0.5
        Fp = -0.5 * P ** -1.5
        Fpp = 0.75 * P ** -2.5
    else:
        G = P * (P + 4.0 * R2)
        F = (2.0 * R2 + P) / np.sqrt(G)
        Fp = -4.0 * R2 * R2 * G ** -1.5
        Fpp = 12.0 * R2 * R2 * (P + 2.0 * R2) * G ** -2.5
    return F, Fp, Fpp


def _first_order(state: _NodeState) -> tuple[np.ndarray, tuple]:
    """Packed gradient, pulled back through the state's transform, and the
    per-pair first-order terms (w, a0, a1, P a0, P a1) the Hessian reuses,
    each an (n-1, M) array.

    The kinetic rows and the two rows of every pair go through one stacked
    adjoint; their pull-backs are summed in a fixed order: kinetic, then
    pair by pair.
    """
    sp, planar = state.sp, state.config.is_planar
    q, u, qj, P, w_kin, w_pot = state.q, state.u, state.qj, state.seps_sq, state.w_kin, state.w_pot
    Fp = state.kernels[1]

    # Wirtinger derivatives of the kinetic integrand lam(q) |u|^2.
    rows = [w_kin * (state.lam * np.conj(u))]
    if not planar:
        R2, s0 = state.R2, state.s0
        g_q = 8.0 * R2 * R2 * state.uu * np.conj(q) / s0 ** 3
        rows.append(w_kin * g_q)

    # Pair terms: P is a rational function of z0 = q(t) and z1 = q_j(t);
    # alpha_a = d log P / d z_a.
    w = q - qj
    if planar:
        a0 = 1.0 / w
        a1 = -a0
    else:
        sj = R2 - np.abs(qj) ** 2
        a0 = 1.0 / w + np.conj(q) / s0
        a1 = -1.0 / w + np.conj(qj) / sj
    Pa = P * a0
    Pb = P * a1
    kinetic = len(rows)
    rows += [w_pot * Fp * Pa, w_pot * Fp * Pb]

    pulled = sp.adjoint(np.vstack(rows))
    v = pulled[0] * state.dw
    if not planar:
        v = v + pulled[1]
    pair_a, pair_b = np.split(pulled[kinetic:], 2)
    for ga, gb, sig in zip(pair_a, pair_b, state.sigmas):
        v = v + ga
        v = v + sig * gb
    return np.concatenate([2.0 * v.real, -2.0 * v.imag]).astype(float, copy=False), (w, a0, a1, Pa, Pb)


def evaluate(x, config: Configuration, order: int = 2, precise: bool = False) -> ActionEvaluation:
    """Action value and, for order >= 1/2, its exact gradient/Hessian.

    order = 0 computes the value alone, 1 adds the gradient, 2 the Hessian.
    Infeasible points (node outside the disk margin, or a pair separation
    at the collision threshold) yield value = +inf and NaN derivatives.
    The value, the Hessian and by default the gradient are computed with
    double-precision FFTs.  precise = True runs the same gradient formula
    on long-double FFTs instead (slower, with a rounding floor far below
    the double-precision gradient's).  Each transform is built once per
    (K, precise) and cached, and the node state and value of the latest
    point are kept, keyed by its coefficient bytes and configuration, so
    a second call at the same point starts from them.
    """
    c = _coefficients(x, config)
    state, value = _state_and_value(c.tobytes(), config)
    nc = c.size
    planar = config.is_planar

    if value is None:
        grad = np.full(2 * nc, np.nan) if order >= 1 else None
        hess = np.full((2 * nc, 2 * nc), np.nan) if order >= 2 else None
        return ActionEvaluation(math.inf, grad, hess)

    if order < 1:
        return ActionEvaluation(value)
    if precise:
        gradient = _first_order(_NodeState(c, config, precise=True))[0]
        if order < 2:
            return ActionEvaluation(value, gradient)
    fast_gradient, (w, a0, a1, Pa, Pb) = _first_order(state)
    if not precise:
        gradient = fast_gradient
    if order < 2:
        return ActionEvaluation(value, gradient)

    # Holomorphic-holomorphic block T and Hermitian block Wm; the real
    # Hessian of sum f(y, ybar) with y = E c is assembled from
    #   dx' H dx = 2 Re(dc' T dc) + 2 dc' Wm conj(dc).
    # Every Hankel/Toeplitz source row goes through one stacked transform;
    # the nc x nc blocks are gathered and added one at a time.
    sp, w_kin, w_pot = state.sp, state.w_kin, state.w_pot
    q, qj, u, uu, lam, dw = state.q, state.qj, state.u, state.uu, state.lam, state.dw
    P, (_, Fp, Fpp) = state.seps_sq, state.kernels
    dwc = np.conj(dw)
    T = np.zeros((nc, nc), dtype=complex)
    Wm = np.zeros((nc, nc), dtype=complex)

    # Kinetic second derivatives.
    rows = [w_kin * lam]
    if not planar:
        R2, s0 = state.R2, state.s0
        f_qq = 24.0 * R2 * R2 * uu * np.conj(q) ** 2 / s0 ** 4
        f_qu = 8.0 * R2 * R2 * np.conj(u) * np.conj(q) / s0 ** 3
        f_qqb = 8.0 * R2 * R2 * uu / s0 ** 3 + 24.0 * R2 * R2 * uu * np.abs(q) ** 2 / s0 ** 4
        f_qub = 8.0 * R2 * R2 * u * np.conj(q) / s0 ** 3
        rows += [w_kin * f_qq, w_kin * f_qu, w_kin * f_qqb, w_kin * f_qub, w_kin * np.conj(f_qub)]
    kinetic = len(rows)

    # Pair second derivatives, one row per pair in each (n-1, M) array.
    winv2 = 1.0 / (w * w)
    if planar:
        da00 = da11 = -winv2
        h0 = h1 = 0.0
    else:
        sj = R2 - np.abs(qj) ** 2
        da00 = -winv2 + np.conj(q) ** 2 / (s0 * s0)
        da11 = -winv2 + np.conj(qj) ** 2 / (sj * sj)
        h0 = R2 / (s0 * s0)
        h1 = R2 / (sj * sj)
    da01 = winv2

    A00 = Fpp * Pa * Pa + Fp * P * (a0 * a0 + da00)
    A01 = Fpp * Pa * Pb + Fp * P * (a0 * a1 + da01)
    A11 = Fpp * Pb * Pb + Fp * P * (a1 * a1 + da11)
    B00 = Fpp * np.abs(Pa) ** 2 + Fp * P * (np.abs(a0) ** 2 + h0)
    B01 = Fpp * Pa * np.conj(Pb) + Fp * P * (a0 * np.conj(a1))
    B11 = Fpp * np.abs(Pb) ** 2 + Fp * P * (np.abs(a1) ** 2 + h1)
    rows += [w_pot * A01, w_pot * A00, w_pot * A11, w_pot * B00, w_pot * B01, w_pot * np.conj(B01), w_pot * B11]

    f = sp.transform(np.vstack(rows))
    Wm += dw[:, None] * sp.toep(f[0]) * dwc[None, :]
    if not planar:
        T += sp.hank(f[1])
        Hqu = sp.hank(f[2])
        T += Hqu * dw[None, :] + dw[:, None] * Hqu
        Wm += sp.toep(f[3])
        Wm += sp.toep(f[4]) * dwc[None, :]
        Wm += dw[:, None] * sp.toep(f[5])

    for f01, f00, f11, g00, g01, g10, g11, sig in zip(*np.split(f[kinetic:], 7), state.sigmas):
        sigc = np.conj(sig)
        H01 = sp.hank(f01)
        T += sp.hank(f00)
        T += H01 * sig[None, :] + sig[:, None] * H01
        T += sig[:, None] * sp.hank(f11) * sig[None, :]
        Wm += sp.toep(g00)
        Wm += sp.toep(g01) * sigc[None, :]
        Wm += sig[:, None] * sp.toep(g10)
        Wm += sig[:, None] * sp.toep(g11) * sigc[None, :]

    # Both blocks are symmetric / Hermitian analytically; enforce exactly.
    T = 0.5 * (T + T.T)
    Wm = 0.5 * (Wm + Wm.conj().T)
    Haa = 2.0 * (T.real + Wm.real)
    Hbb = 2.0 * (Wm.real - T.real)
    Hab = 2.0 * (Wm.imag - T.imag)
    hessian = np.block([[Haa, Hab], [Hab.T, Hbb]])
    return ActionEvaluation(value, gradient, hessian)


def action_value(x, config: Configuration) -> float:
    """Discretized action; +inf for infeasible coefficient vectors."""
    return evaluate(x, config, order=0).value


def action_gradient(x, config: Configuration, precise: bool = False) -> np.ndarray:
    """Exact gradient of the discretized action in the packed variables."""
    return evaluate(x, config, order=1, precise=precise).gradient


def action_hessian(x, config: Configuration) -> np.ndarray:
    """Exact, exactly symmetric Hessian of the discretized action."""
    return evaluate(x, config, order=2).hessian


def pairwise_separations(path: TrigPath, config: Configuration) -> list[NodeValues]:
    """Separations D_j(t), j = 1..n-1, on the quadrature grid.

    Returns chordal separations on the disk (Euclidean for planar runs).

    Raises
    ------
    OutOfDiskError
        If the path leaves the allowed disk margin.
    CollisionError
        If some pair separation is at or below the collision threshold.
    """
    state = _NodeState(path.coeffs, config)
    if state.out_of_disk():
        from .geometry import OutOfDiskError

        raise OutOfDiskError("trajectory leaves the disk")
    if state.collided():
        raise CollisionError("pair separation at the collision threshold")
    return [NodeValues(np.sqrt(p).astype(complex)) for p in state.seps_sq]


def hyperboloid_energies(path: TrigPath, config: Configuration, times) -> tuple[np.ndarray, np.ndarray]:
    """Kinetic and potential energy of the lifted motion at given times.

    The disk trajectory is lifted to the hyperboloid sheet; body j moves as
    Rot(omega t) X(t + 2*pi*j/n) where Rot is the rotation about the x3
    axis, so its velocity is X' + omega J X with J the rotation generator.
    Returns (K, U) with

        K(t) = 1/2 sum_j V_j . V_j,
        U(t) = -(1/R) sum_{i<j} coth(dist(X_i, X_j) / R),

    using the indefinite product and geodesic distance of the sheet.  The
    integral of K - U over one period equals the action.
    """
    if config.is_planar:
        raise ValueError("hyperboloid energies are undefined for planar configurations")
    from . import geometry

    t = np.asarray(times, dtype=float)
    R = config.R
    deriv = path.derivative()
    pos = []
    vel = []
    for j in range(config.n):
        tau = 2.0 * np.pi * j / config.n
        zj = path.eval(t + tau)
        zdj = deriv.eval(t + tau)
        X = geometry.lift_coords(zj, R)
        V = geometry.lift_velocity(zj, zdj, R)
        if config.omega != 0.0:
            # omega * J X with J = rotation generator about the x3 axis.
            V = V + config.omega * np.stack([-X[..., 1], X[..., 0], np.zeros_like(X[..., 2])], axis=-1)
        pos.append(X)
        vel.append(V)

    kinetic = np.zeros_like(t)
    for V in vel:
        kinetic += 0.5 * (V[..., 0] ** 2 + V[..., 1] ** 2 - V[..., 2] ** 2)

    potential = np.zeros_like(t)
    for i in range(config.n):
        for j in range(i + 1, config.n):
            dist = geometry.geodesic_hyperboloid(pos[i], pos[j], R)
            potential -= 1.0 / (R * np.tanh(dist / R))
    return kinetic, potential
