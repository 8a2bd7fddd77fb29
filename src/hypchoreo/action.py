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

    values:  node values of sum_k c_k exp(i k t_m)
    adjoint: (E^T g)_k      = sum_m g_m exp(+i k t_m)
    hank:    (E^T D E)_kl   = sum_m d_m exp(+i (k+l) t_m)
    toep:    (E^T D Ebar)_kl = sum_m d_m exp(+i (k-l) t_m)
    shift_phases: exp(2 pi i j k / n), j = 1..n-1, the factors that turn
        the coefficients of q(t) into those of q(t + 2 pi j / n)
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

    def values(self, c: np.ndarray) -> np.ndarray:
        spectrum = np.zeros(self.M, dtype=np.result_type(self.real, 1j))
        spectrum[self._kmod] = c
        return self.M * np.fft.ifft(spectrum)

    def _transform(self, d: np.ndarray) -> np.ndarray:
        return self.M * np.fft.ifft(d)

    def adjoint(self, d: np.ndarray) -> np.ndarray:
        return self._transform(d)[self._kmod]

    def hank(self, d: np.ndarray) -> np.ndarray:
        return self._transform(d)[self._hidx]

    def toep(self, d: np.ndarray) -> np.ndarray:
        return self._transform(d)[self._tidx]

    def shift_phases(self, n: int) -> list[np.ndarray]:
        return [np.exp(2j * self.pi * j * self.k / n) for j in range(1, n)]


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


def _separations_squared(q: np.ndarray, shifted: list[np.ndarray], R2=None) -> list[np.ndarray]:
    """Squared chordal separations 4R^4 |q - q_j|^2 / (s0 s_j) from each
    shifted copy, s = R^2 - |.|^2; squared Euclidean ones when R2 is None."""
    if R2 is None:
        return [np.abs(q - qj) ** 2 for qj in shifted]
    s0 = R2 - np.abs(q) ** 2
    return [4.0 * R2 * R2 * np.abs(q - qj) ** 2 / (s0 * (R2 - np.abs(qj) ** 2)) for qj in shifted]


class _NodeState:
    """Node values of the path, its shifted copies, and the rotating velocity,
    in the dtype of the transform (long double when precise)."""

    def __init__(self, c: np.ndarray, config: Configuration, precise: bool = False):
        K = (c.size - 1) // 2
        self.sp = sp = _transform(K, precise)
        self.config = config
        self.q = sp.values(c)
        self.dw = 1j * (sp.k + config.omega)
        self.u = sp.values(self.dw * c)
        self.sigmas = sp.shift_phases(config.n)
        self.qj = [sp.values(sig * c) for sig in self.sigmas]
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
    def seps_sq(self) -> list[np.ndarray]:
        """Squared chordal (hyperbolic) or Euclidean (planar) separations."""
        return _separations_squared(self.q, self.qj, self.R2)

    def collided(self) -> bool:
        return any(bool(np.min(p) <= COLLISION_THRESHOLD ** 2) for p in self.seps_sq)

    @functools.cached_property
    def kernels(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """(F, F', F'') of each pair; only defined once no pair has collided."""
        return [_pair_kernel(P, self.R2, self.config.is_planar) for P in self.seps_sq]


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


def _first_order(state: _NodeState) -> tuple[np.ndarray, list[tuple]]:
    """Packed gradient, pulled back through the state's transform, and the
    per-pair first-order terms (w, a0, a1, P a0, P a1) the Hessian reuses.
    """
    sp, planar = state.sp, state.config.is_planar
    q, u, w_kin, w_pot = state.q, state.u, state.w_kin, state.w_pot

    # Wirtinger derivatives of the kinetic integrand lam(q) |u|^2.
    v = sp.adjoint(w_kin * (state.lam * np.conj(u))) * state.dw
    if not planar:
        R2, s0 = state.R2, state.s0
        g_q = 8.0 * R2 * R2 * state.uu * np.conj(q) / s0 ** 3
        v = v + sp.adjoint(w_kin * g_q)

    # Pair terms: P is a rational function of z0 = q(t) and z1 = q_j(t);
    # alpha_a = d log P / d z_a.
    pair_first = []
    for P, (_, Fp, _), qj, sig in zip(state.seps_sq, state.kernels, state.qj, state.sigmas):
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
        v = v + sp.adjoint(w_pot * Fp * Pa)
        v = v + sig * sp.adjoint(w_pot * Fp * Pb)
        pair_first.append((w, a0, a1, Pa, Pb))
    return np.concatenate([2.0 * v.real, -2.0 * v.imag]).astype(float, copy=False), pair_first


def evaluate(x, config: Configuration, order: int = 2, precise: bool = False) -> ActionEvaluation:
    """Action value and, for order >= 1/2, its exact gradient/Hessian.

    order = 0 computes the value alone, 1 adds the gradient, 2 the Hessian.
    Infeasible points (node outside the disk margin, or a pair separation
    at the collision threshold) yield value = +inf and NaN derivatives.
    The value, the Hessian and by default the gradient are computed with
    double-precision FFTs.  precise = True runs the same gradient formula
    on long-double FFTs instead (slower, with a rounding floor far below
    the double-precision gradient's).  Each transform is built once per
    (K, precise) and cached.
    """
    c = _coefficients(x, config)
    state = _NodeState(c, config)
    sp = state.sp
    nc = c.size
    planar = config.is_planar

    if state.out_of_disk() or state.collided():
        grad = np.full(2 * nc, np.nan) if order >= 1 else None
        hess = np.full((2 * nc, 2 * nc), np.nan) if order >= 2 else None
        return ActionEvaluation(math.inf, grad, hess)

    w_kin, w_pot = state.w_kin, state.w_pot
    value = w_kin * float(np.sum(state.lam * state.uu))
    for F, _, _ in state.kernels:
        value += w_pot * float(np.sum(F))

    if order < 1:
        return ActionEvaluation(value)
    if precise:
        gradient = _first_order(_NodeState(c, config, precise=True))[0]
        if order < 2:
            return ActionEvaluation(value, gradient)
    fast_gradient, pair_first = _first_order(state)
    if not precise:
        gradient = fast_gradient
    if order < 2:
        return ActionEvaluation(value, gradient)

    # Holomorphic-holomorphic block T and Hermitian block Wm; the real
    # Hessian of sum f(y, ybar) with y = E c is assembled from
    #   dx' H dx = 2 Re(dc' T dc) + 2 dc' Wm conj(dc).
    q, u, uu, lam, dw = state.q, state.u, state.uu, state.lam, state.dw
    dwc = np.conj(dw)
    T = np.zeros((nc, nc), dtype=complex)
    Wm = np.zeros((nc, nc), dtype=complex)

    # Kinetic second derivatives.
    Wm += dw[:, None] * sp.toep(w_kin * lam) * dwc[None, :]
    if not planar:
        R2, s0 = state.R2, state.s0
        f_qq = 24.0 * R2 * R2 * uu * np.conj(q) ** 2 / s0 ** 4
        f_qu = 8.0 * R2 * R2 * np.conj(u) * np.conj(q) / s0 ** 3
        f_qqb = 8.0 * R2 * R2 * uu / s0 ** 3 + 24.0 * R2 * R2 * uu * np.abs(q) ** 2 / s0 ** 4
        f_qub = 8.0 * R2 * R2 * u * np.conj(q) / s0 ** 3
        T += sp.hank(w_kin * f_qq)
        Hqu = sp.hank(w_kin * f_qu)
        T += Hqu * dw[None, :] + dw[:, None] * Hqu
        Wm += sp.toep(w_kin * f_qqb)
        Wm += sp.toep(w_kin * f_qub) * dwc[None, :]
        Wm += dw[:, None] * sp.toep(w_kin * np.conj(f_qub))

    for P, (_, Fp, Fpp), qj, sig, (w, a0, a1, Pa, Pb) in zip(
        state.seps_sq, state.kernels, state.qj, state.sigmas, pair_first
    ):
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

        sigc = np.conj(sig)
        H01 = sp.hank(w_pot * A01)
        T += sp.hank(w_pot * A00)
        T += H01 * sig[None, :] + sig[:, None] * H01
        T += sig[:, None] * sp.hank(w_pot * A11) * sig[None, :]
        Wm += sp.toep(w_pot * B00)
        Wm += sp.toep(w_pot * B01) * sigc[None, :]
        Wm += sig[:, None] * sp.toep(w_pot * np.conj(B01))
        Wm += sig[:, None] * sp.toep(w_pot * B11) * sigc[None, :]

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
