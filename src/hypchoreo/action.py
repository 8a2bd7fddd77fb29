"""Action of n equal bodies sharing one orbit, on the hyperbolic disk or the plane.

The shared trajectory is a trigonometric polynomial q(t); body j follows
q(t + 2*pi*j/n).  In a frame rotating at angular velocity omega about the
origin, the action over one period on the disk of curvature radius R is

    A = (n/2)   Int lam(q) |q' + i w q|^2 dt
      + (n/2R)  sum_{j=1..n-1} Int (2R^2 + D_j^2) / (D_j sqrt(4R^2 + D_j^2)) dt,

where lam(z) = 4R^4/(R^2 - |z|^2)^2 is the conformal factor and D_j(t) is
the chordal separation between q(t) and q_j(t) = q(t + 2*pi*j/n).  Both
terms are positive: the second is the (negated) cotangent pair potential,
which is attractive and negative.  The flat problem (R = inf) has lam = 1
and the Newtonian pair integrand 1/|q - q_j|.

Both are one action in the curvature eps = 1/R^2 (0 for R = inf) and the
coordinate p = sigma q, with sigma = 2 on the disk and 1 on the plane
(Configuration.sigma).  With a = 1 - eps |p|^2/4 and the squared
separation d_j^2 = |p - p_j|^2 / (a a_j), which equals D_j^2 on the disk,

    A = (n/2) Int |p' + i w p|^2 / a^2 dt + (n/2) sum_j Int F(d_j^2) dt,
    F(P) = (1 + eps P/2) / sqrt(G),   G = P (1 + eps P/4).

At eps = 0 this is the flat Newtonian action, so the disk action of q
tends to the flat action of 2q as R grows, at the rate 1/R^2.  No power
of R appears, so the evaluation stays finite for any R.  evaluate maps
the packed coefficients of q to those of p at entry, and the derivatives
back at exit (gradient times sigma, Hessian times sigma^2, both exact).

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
Only the symmetric part of the holomorphic block and the Hermitian part
of the mixed block count, so each mirrored pair of terms is added once,
doubled.
Each stage stacks its rows into one inverse FFT along the last axis: the
node values of p, its velocity and the n-1 shifted copies; the kinetic
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
    def sigma(self) -> float:
        """Scale of the coordinate p = sigma q of the action: 2 on the disk,
        1 on the plane, so that the disk orbit tends to the flat one halved."""
        return 1.0 if self.is_planar else 2.0

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
    """Coefficients of p = sigma q from the packed coefficients of q."""
    x = np.asarray(x, dtype=float)
    if x.size != config.n_vars:
        raise ValueError(f"expected {config.n_vars} variables, got {x.size}")
    half = x.size // 2
    return config.sigma * (x[:half] + 1j * x[half:])


def _scale(z: np.ndarray, eps) -> np.ndarray:
    """a = 1 - eps |z|^2 / 4, the disk's conformal scale at z (1 on the plane)."""
    return 1.0 - 0.25 * eps * np.abs(z) ** 2


def _separations_squared(z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Squared separations d^2 = |z_0 - z_j|^2 / (a_0 a_j) of row 0 of z from
    each later row, given the scales a = _scale(z, eps): chordal on the
    disk of curvature eps = 1/R^2, Euclidean at eps = 0."""
    return np.abs(z[0] - z[1:]) ** 2 / (a[0] * a[1:])


def _out_of_disk(p: np.ndarray, eps) -> bool:
    """Whether some node value of p comes within DISK_MARGIN (relatively)
    of the disk's boundary |p| = 2R; never on the plane (eps = 0)."""
    return bool(np.max(np.abs(p)) * np.sqrt(eps) / 2 >= 1.0 - DISK_MARGIN)


def _collided(seps_sq: np.ndarray) -> bool:
    """Whether some pair's squared separation reaches COLLISION_THRESHOLD^2.
    Row by row, so that a NaN row cannot mask a collided one."""
    return bool(np.any(np.min(seps_sq, axis=-1) <= COLLISION_THRESHOLD ** 2))


class _NodeState:
    """Node values of p, its shifted copies, and the rotating velocity, in
    the dtype of the transform (long double when precise).

    p, its n-1 shifted copies and u come from one stacked transform.  z
    holds p (row 0) and the copies pj (rows 1..n-1); pj and everything
    derived per pair (seps_sq, kernels) are (n-1, M) arrays with one row
    per shift j = 1..n-1.
    """

    def __init__(self, p: np.ndarray, config: Configuration, precise: bool = False):
        K = (p.size - 1) // 2
        self.sp = sp = _transform(K, precise)
        self.config = config
        self.eps = (1 / sp.real(config.R)) ** 2
        self.dw = 1j * (sp.k + config.omega)
        self.sigmas = sp.shift_phases(config.n)
        nodes = sp.values(np.vstack((p, self.sigmas * p, self.dw * p)))
        self.z, self.u = nodes[:-1], nodes[-1]
        self.p, self.pj = self.z[0], self.z[1:]
        self.uu = np.abs(self.u) ** 2
        # Scale a of every row of z, conformal factor 1/a^2 at p, and the
        # squared chordal (disk) or Euclidean (plane) pair separations.
        self.a = _scale(self.z, self.eps)
        self.lam = 1.0 / (self.a[0] * self.a[0])
        self.seps_sq = _separations_squared(self.z, self.a)
        # Trapezoid weight of every integral.
        self.w = 0.5 * config.n * (2.0 * sp.pi / sp.M)

    @functools.cached_property
    def kernels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(F, F', F'') of every pair; only defined once no pair has collided."""
        return _pair_kernel(self.seps_sq, self.eps)

    def value(self) -> float | None:
        """The action; None when a node leaves the disk or a pair collides."""
        if _out_of_disk(self.p, self.eps) or _collided(self.seps_sq):
            return None
        value = self.w * float(np.sum(self.lam * self.uu))
        for pair_sum in np.sum(self.kernels[0], axis=-1):
            value += self.w * float(pair_sum)
        return value


@functools.lru_cache(maxsize=1)
def _state_and_value(data: bytes, config: Configuration) -> tuple[_NodeState, float | None]:
    """Float64 node state and action (None if infeasible) at the
    coefficients of p with these bytes.

    Keeping the latest one lets a gradient or Hessian request right after
    a value request at the same point (BFGS's fun then grad, Newton's
    value then precise gradient) reuse the node values.
    """
    state = _NodeState(np.frombuffer(data, dtype=complex), config)
    return state, state.value()


def _pair_kernel(P: np.ndarray, eps):
    """Pair integrand F and its derivatives as functions of the squared
    separation P, at curvature eps:

        F = (1 + eps P/2) G^(-1/2),  F' = -G^(-3/2) / 2,
        F'' = (3/4) (1 + eps P/2) G^(-5/2),  with G = P (1 + eps P/4);

    at eps = 0 these are the Newtonian P^(-1/2), -P^(-3/2)/2, (3/4) P^(-5/2).
    """
    b = 1.0 + 0.5 * eps * P
    G = P * (1.0 + 0.25 * eps * P)
    return b * G ** -0.5, -0.5 * G ** -1.5, 0.75 * b * G ** -2.5


def _first_order(state: _NodeState) -> tuple[np.ndarray, tuple]:
    """Gradient in the packed coefficients of p, pulled back through the
    state's transform, and the first-order terms the Hessian reuses:
    kappa = d log(1/a) / dz = eps conj(z) / (4a) by row of z, and per pair
    p - p_j, a0, a1, P a0 and P a1, each an (n-1, M) array.

    The kinetic rows and the two rows of every pair go through one stacked
    adjoint; their pull-backs are summed in a fixed order: kinetic, then
    pair by pair.
    """
    sp, w, lam, P = state.sp, state.w, state.lam, state.seps_sq
    kappa = 0.25 * state.eps * np.conj(state.z) / state.a
    Fp = state.kernels[1]

    # Wirtinger derivatives of the kinetic integrand lam(p) |u|^2, with
    # d lam / dp = 2 lam kappa.
    rows = [w * (lam * np.conj(state.u)), w * (2.0 * lam * kappa[0] * state.uu)]

    # Pair terms: P is a function of z0 = p(t) and z1 = p_j(t);
    # alpha_a = d log P / d z_a.
    dp = state.p - state.pj
    a0 = 1.0 / dp + kappa[0]
    a1 = -1.0 / dp + kappa[1:]
    Pa = P * a0
    Pb = P * a1
    rows += [w * Fp * Pa, w * Fp * Pb]

    pulled = sp.adjoint(np.vstack(rows))
    v = pulled[0] * state.dw + pulled[1]
    pair_a, pair_b = np.split(pulled[2:], 2)
    for ga, gb, sig in zip(pair_a, pair_b, state.sigmas):
        v = v + ga
        v = v + sig * gb
    gradient = np.concatenate([2.0 * v.real, -2.0 * v.imag]).astype(float, copy=False)
    return gradient, (kappa, dp, a0, a1, Pa, Pb)


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
    p = _coefficients(x, config)
    state, value = _state_and_value(p.tobytes(), config)
    nc = p.size
    sigma = config.sigma

    if value is None:
        grad = np.full(2 * nc, np.nan) if order >= 1 else None
        hess = np.full((2 * nc, 2 * nc), np.nan) if order >= 2 else None
        return ActionEvaluation(math.inf, grad, hess)

    if order < 1:
        return ActionEvaluation(value)
    if precise:
        gradient = sigma * _first_order(_NodeState(p, config, precise=True))[0]
        if order < 2:
            return ActionEvaluation(value, gradient)
    fast_gradient, (kappa, dp, a0, a1, Pa, Pb) = _first_order(state)
    if not precise:
        gradient = sigma * fast_gradient
    if order < 2:
        return ActionEvaluation(value, gradient)

    # Holomorphic-holomorphic block T and Hermitian block Wm; the real
    # Hessian of sum f(y, ybar) with y = E c is assembled from
    #   dx' H dx = 2 Re(dc' T dc) + 2 dc' Wm conj(dc).
    # Only the symmetric part of T and the Hermitian part of Wm count, so
    # a term X + X' is added as 2X.  Every Hankel/Toeplitz source row goes
    # through one stacked transform; the nc x nc blocks are gathered and
    # added one at a time.
    sp, w, dw, uu, lam = state.sp, state.w, state.dw, state.uu, state.lam
    h = 0.25 * state.eps / (state.a * state.a)  # d kappa / dzbar, by row of z
    P, (_, Fp, Fpp) = state.seps_sq, state.kernels
    dwc = np.conj(dw)

    # Kinetic second derivatives of lam |u|^2 in p and u, from d lam / dp =
    # m = 2 lam kappa, d kappa / dp = kappa^2 and d kappa / dpbar = h.
    k0 = kappa[0]
    m = 2.0 * lam * k0
    f_ppb = (2.0 * np.conj(k0) * m + 2.0 * lam * h[0]) * uu
    rows = [w * f for f in (lam, 3.0 * k0 * m * uu, m * np.conj(state.u), f_ppb, m * state.u)]

    # Pair second derivatives, one row per pair in each (n-1, M) array.
    winv2 = 1.0 / (dp * dp)
    A00 = Fpp * Pa * Pa + Fp * P * (a0 * a0 - winv2 + k0 * k0)
    A01 = Fpp * Pa * Pb + Fp * P * (a0 * a1 + winv2)
    A11 = Fpp * Pb * Pb + Fp * P * (a1 * a1 - winv2 + kappa[1:] * kappa[1:])
    B00 = Fpp * np.abs(Pa) ** 2 + Fp * P * (np.abs(a0) ** 2 + h[0])
    B01 = Fpp * Pa * np.conj(Pb) + Fp * P * (a0 * np.conj(a1))
    B11 = Fpp * np.abs(Pb) ** 2 + Fp * P * (np.abs(a1) ** 2 + h[1:])
    rows += [w * A01, w * A00, w * A11, w * B00, w * B01, w * B11]

    f = sp.transform(np.vstack(rows))
    Wm = dw[:, None] * sp.toep(f[0]) * dwc[None, :]
    T = sp.hank(f[1]) + 2.0 * sp.hank(f[2]) * dw[None, :]
    Wm += sp.toep(f[3])
    Wm += 2.0 * sp.toep(f[4]) * dwc[None, :]

    for f01, f00, f11, g00, g01, g11, sig in zip(*np.split(f[5:], 6), state.sigmas):
        sigc = np.conj(sig)
        T += sp.hank(f00)
        T += 2.0 * sp.hank(f01) * sig[None, :]
        T += sig[:, None] * sp.hank(f11) * sig[None, :]
        Wm += sp.toep(g00)
        Wm += 2.0 * sp.toep(g01) * sigc[None, :]
        Wm += sig[:, None] * sp.toep(g11) * sigc[None, :]

    T = 0.5 * (T + T.T)
    Wm = 0.5 * (Wm + Wm.conj().T)
    Haa = 2.0 * (T.real + Wm.real)
    Hbb = 2.0 * (Wm.real - T.real)
    Hab = 2.0 * (Wm.imag - T.imag)
    hessian = sigma * sigma * np.block([[Haa, Hab], [Hab.T, Hbb]])
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
    state = _NodeState(config.sigma * path.coeffs, config)
    if _out_of_disk(state.p, state.eps):
        from .geometry import OutOfDiskError

        raise OutOfDiskError("trajectory leaves the disk")
    if _collided(state.seps_sq):
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
