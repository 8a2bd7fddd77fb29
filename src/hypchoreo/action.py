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
grid are a Hankel and a Toeplitz matrix read off the FFT of d.  A pair's
blocks are framed by its shift phases w_j^k, w_j = exp(2 pi i j / n).
Since the signed indices k + l and k - l stay within 2K < M/2, the phases
fold into the FFT of d, so the blocks of all pairs sum into one Hankel
and one Toeplitz source; the cross blocks keep a factor w_j^-k that sees
k only through k mod n, and an n-point DFT over the pairs turns them into
n source rows, row k mod n feeding row k.  One Hessian thus makes four
nc x nc gathers for any n (two of them for the kinetic Toeplitz blocks)
and costs O(n M log M + K^2) instead of O(n K^2 M); the DFT adds n^2 M.
Only the symmetric part of the holomorphic block and the Hermitian part
of the mixed block count, so each is gathered as a half whose mirror
completes it, and a term already symmetric at half weight.
Each stage stacks its rows into one inverse FFT along the last axis: the
node values of p, its n-1 shifted copies and its velocity, from p times
a cached multiplier table (1, shift phases, i(k + omega)); the integrand's
derivatives in those rows, pulled back through the same table; the
Hankel and Toeplitz sources of the Hessian.  An evaluation thus makes one
FFT call per stage for any n, and every row keeps the digits it would
get alone.  The value reads F, the gradient F', the Hessian F''.
An evaluate request returns the value and only the derivative it names
(order 2 the Hessian, no gradient), so it runs the node-value stage and
at most one other; an infeasible point returns +inf and no derivative.
evaluate keeps the node state and value of the latest point, so a
gradient or Hessian asked for right after the value at the same point
skips the first stage.  That state also keeps the point's long-double
gradient once computed, read-only, so a second precise gradient at the
same point (Newton's last one, then the verification of its orbit)
costs no transform at all.

The gradient formula is written once and runs on the same FFT transform
in one of two precisions, each built once per (K, precise) and cached:
double precision, or long double for the Newton endgame and the final
verification, whose rounding floor lies far below the double-precision
gradient's (about 1e-12 relative at converged solutions) wherever long
double is wider than double.  The node state computes the pointwise
terms kappa and the pair log-derivatives a0, a1 once, for the gradient,
the Hessian and, on its own grid of M nodes, verify.path_residual, which
also reads its node values and feasibility tests; optimizer.random_seed
reads the separations of its draws.

What is computed when.  Once per (K, precise, M): the transform, with
its multiplier table per (n, omega) and the Hessian's tables on a
Hessian's first use (_transform).  Once per configuration on a
transform: eps and the trapezoid weight (_constants).  Once per point,
when the node state is built: the node values and their conjugates,
squared moduli, scales, conformal factor and pair separations; with the
value, the kernel's G, 1/sqrt(G) and F.  On demand, then kept with the
state: the first-order terms (F', kappa, a0, a1) and the precise
gradient; F'' is formed by each Hessian.  Each kept term is a pure
function of the state's arrays, stored by one assignment once complete,
so the state takes no lock: two threads that ask at once compute the
term twice and keep equal arrays, and none sees it half built.  Every
other buffer is allocated per call, so evaluate shares nothing mutable
between calls or threads.  A state is small numpy work on (n+1) x M
arrays, at a few microseconds per call, so the hot path calls ufuncs
directly (np.add.reduce for a sum) and forms each term once.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import geometry
from .trigpath import TrigPath

__all__ = [
    "Configuration",
    "ActionEvaluation",
    "CollisionError",
    "quadrature_size",
    "action_value",
    "evaluate",
    "pairwise_separations",
    "hyperboloid_energies",
]

# Pair separations at or below this threshold count as collisions.
COLLISION_THRESHOLD = 1e-13

# pi to extended (80-bit) precision, for the long-double transform.
_PI_EXTENDED = np.longdouble("3.14159265358979323846264338327950288")


class CollisionError(ValueError):
    """Two bodies closer than the collision threshold."""


def _check_integer(name: str, value) -> None:
    """Raise TypeError unless value is an integer; a bool does not count."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {value!r}")


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
        _check_integer("n", self.n)
        _check_integer("K", self.K)
        if self.n < 2:
            raise ValueError("need at least two bodies")
        if not self.R > 0.0:
            raise ValueError("curvature radius must be positive (math.inf for planar)")
        if not math.isfinite((1.0 / self.R) * (1.0 / self.R)):
            raise ValueError(f"curvature 1/R^2 overflows at R = {self.R!r}")
        if self.K < 1:
            raise ValueError("bandwidth K must be at least 1")
        if not math.isfinite(self.omega):
            raise ValueError("frame rotation omega must be finite")

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
    """Value and the requested derivative at one coefficient vector: the
    gradient for order 1, the Hessian for order 2, the other None.

    For infeasible points (boundary contact or collision) value is +inf
    and both derivatives are None.
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
    transform: f_r = sum_m d_m exp(+i r t_m), r = 0..M-1, the unscaled
        inverse FFT (norm="forward"), so no 1/M is applied and undone
    adjoint:   (E^T g)_k      = sum_m g_m exp(+i k t_m)
    multipliers: rows exp(2 pi i j k / n), j = 0..n-1, that turn the
        coefficients of q(t) into those of q(t + 2 pi j / n), read off the
        n-th roots of unity at (j k) mod n, and i (k + omega) for the
        rotating velocity; computed once per (n, omega) and read-only
    fold:      the Hessian's tables for n bodies, built once per n on first
        use (by a Hessian; needs M > 4K):
        hank, toep: gather tables (k mod n) M + (k +- l) mod M, so that
            F.flat[hank] with F[c] = f for every c is the Hankel matrix
            (E^T D E)_kl = f_(k+l), and F.flat[toep] the Toeplitz matrix
            (E^T D Ebar)_kl = f_(k-l), from f = transform(d); a source
            whose rows differ gathers row k mod n into row k
        phases: w_j^r, w_j = exp(2 pi i j / n), at the signed index
            r = k +- l of every slot, row j-1 for j = 1..n-1
        dft:    w^(-j c), row c = 0..n-1, column j-1 for j = 1..n-1
        r:      the signed index of every slot, in the transform's dtype
    """

    def __init__(self, K: int, M: int, real):
        self.M = M
        self.real = real
        self.complex = np.result_type(real, 1j)
        self.pi = np.pi if real is np.float64 else _PI_EXTENDED
        self.K = K
        k = np.arange(-K, K + 1)
        # k in the transform's dtype, so that i (k + omega) c keeps its precision.
        self.k = k.astype(real)
        self._kmod = k % M
        self._multipliers: dict[tuple[int, float], np.ndarray] = {}
        self._folds: dict[int, tuple[np.ndarray, ...]] = {}

    # Slots M-K..M-1 of a transform hold k = -K..-1 and slots 0..K hold
    # k = 0..K, so two slices move the coefficients in and out.
    def values(self, c: np.ndarray) -> np.ndarray:
        K, M = self.K, self.M
        spectrum = np.zeros(c.shape[:-1] + (M,), dtype=self.complex)
        spectrum[..., M - K:] = c[..., :K]
        spectrum[..., :K + 1] = c[..., K:]
        return self.transform(spectrum)

    def transform(self, d: np.ndarray) -> np.ndarray:
        return np.fft.ifft(d, axis=-1, norm="forward")

    def adjoint(self, d: np.ndarray) -> np.ndarray:
        f = self.transform(d)
        return np.concatenate((f[..., self.M - self.K:], f[..., :self.K + 1]), axis=-1)

    def _roots(self, n: int) -> np.ndarray:
        """The n-th roots of unity exp(2 pi i m / n), m = 0..n-1, in the
        transform's dtype; exponents reduced mod n index them, so every
        phase drawn from them is exact to rounding."""
        return np.exp(2j * self.pi * np.arange(n, dtype=self.real) / n)

    def multipliers(self, n: int, omega: float) -> np.ndarray:
        if (n, omega) not in self._multipliers:
            shifts = self._roots(n)[np.arange(n)[:, None] * self.k.astype(int) % n]
            table = np.vstack((shifts, 1j * (self.k + omega)))
            table.flags.writeable = False
            self._multipliers[n, omega] = table
        return self._multipliers[n, omega]

    def fold(self, n: int) -> tuple[np.ndarray, ...]:
        """(hank, toep, phases, dft, r) for n bodies; see the class docstring."""
        if n not in self._folds:
            K, M = self.K, self.M
            # Slot m of a transform holds the signed index r = m or m - M;
            # k + l and k - l lie in [-2K, 2K], one slot each only if M > 4K.
            if M <= 4 * K:
                raise ValueError(f"Hessian tables need M > 4K nodes, got M = {M} for K = {K}")
            r = np.arange(M)
            r[r > M // 2] -= M
            rows = (np.arange(-K, K + 1) % n * M)[:, None]
            kmod = self._kmod
            hank = rows + (kmod[:, None] + kmod[None, :]) % M
            toep = rows + (kmod[:, None] - kmod[None, :]) % M
            roots = self._roots(n)
            j = np.arange(1, n)
            phases = roots[j[:, None] * r[None, :] % n]
            dft = roots[-np.arange(n)[:, None] * j[None, :] % n]
            tables = (hank, toep, phases, dft, r.astype(self.real))
            for table in tables:
                table.flags.writeable = False
            self._folds[n] = tables
        return self._folds[n]


@functools.lru_cache(maxsize=32)
def _transform(K: int, precise: bool, M: int | None = None) -> _Spectral:
    """The transform for bandwidth K on M nodes (default its quadrature
    grid), built once."""
    return _Spectral(K, quadrature_size(K) if M is None else M, np.longdouble if precise else np.float64)


def _coefficients(x, config: Configuration) -> np.ndarray:
    """Coefficients of p = sigma q from the packed coefficients of q."""
    x = np.asarray(x, dtype=float)
    if x.size != config.n_vars:
        raise ValueError(f"expected {config.n_vars} variables, got {x.size}")
    half = x.size // 2
    return config.sigma * (x[:half] + 1j * x[half:])


@functools.lru_cache(maxsize=32)
def _constants(config: Configuration, K: int, precise: bool, M: int | None) -> tuple:
    """What a node state of bandwidth K on M nodes (default the quadrature
    grid) takes from its configuration, looked up once: the transform, the
    curvature eps = 1/R^2 in its dtype, the multiplier table for (n, omega)
    and the trapezoid weight (n/2) (2 pi / M) of every integral."""
    # Without M, the same cache entry as _transform(K, precise).
    sp = _transform(K, precise) if M is None else _transform(K, precise, M)
    eps = (1 / sp.real(config.R)) ** 2
    return sp, eps, sp.multipliers(config.n, config.omega), 0.5 * config.n * (2.0 * sp.pi / sp.M)


def _pair_kernel(P: np.ndarray, eps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair integrand F as a function of the squared separation P, at
    curvature eps, with the terms its derivatives are formed from:

        F = (1 + eps P/2) G^(-1/2),  F' = -G^(-3/2) / 2 (_pair_slope),
        F'' = (3/4) (1 + eps P/2) G^(-5/2) = (3/4) F / G^2 (_pair_curvature),

    with G = P (1 + eps P/4); at eps = 0 the Newtonian P^(-1/2), -P^(-3/2)/2
    and (3/4) P^(-5/2).  Returns (G, 1/sqrt(G), F): one square root instead
    of fractional powers (powl in long double), each within a few roundings.
    """
    G = P * (1.0 + 0.25 * eps * P)
    inv_root = 1.0 / np.sqrt(G)
    return G, inv_root, (1.0 + 0.5 * eps * P) * inv_root


def _pair_slope(G: np.ndarray, inv_root: np.ndarray) -> np.ndarray:
    """F' = -G^(-3/2) / 2 from the terms of _pair_kernel."""
    return -0.5 * inv_root / G


def _pair_curvature(G: np.ndarray, F: np.ndarray) -> np.ndarray:
    """F'' = (3/4) F / G^2 from the terms of _pair_kernel."""
    return 0.75 * F / (G * G)


class _NodeState:
    """Node values of p, its shifted copies, and the rotating velocity
    u = p' + i w p, in the dtype of the transform (long double when
    precise), on the quadrature grid or on M nodes.

    p, its n-1 shifted copies and u are the transform of p times the
    multiplier table.  z holds p (row 0) and the copies pj (rows 1..n-1),
    zc and uc the conjugates of z and u; everything derived per pair
    (dp = p - pj, seps_sq, the kernel, a0, a1) is an (n-1, M) array with
    one row per shift j = 1..n-1.  Squared moduli, zz of z and uu of u,
    are taken as re^2 + im^2.  The kernel, the first-order terms and the
    precise gradient are computed on first request and kept, without a
    lock (see the module docstring).
    """

    __slots__ = (
        "coefficients", "config", "sp", "eps", "multipliers", "w",
        "z", "u", "zc", "uc", "p", "zz", "uu", "a", "lam", "dp", "seps_sq",
        "_kernel", "_first", "_precise",
    )

    def __init__(self, p: np.ndarray, config: Configuration, precise: bool = False, M: int | None = None):
        self.coefficients = p
        self.config = config
        sp, eps, multipliers, self.w = _constants(config, (p.size - 1) // 2, precise, M)
        self.sp, self.eps, self.multipliers = sp, eps, multipliers
        nodes = sp.values(multipliers * p)
        conj = nodes.conj()
        squares = (nodes * conj).real
        self.z, self.u = nodes[:-1], nodes[-1]
        self.zc, self.uc = conj[:-1], conj[-1]
        self.p = self.z[0]
        # zz, and below the separations' numerators, are copied out of
        # their strided .real views, on which numpy's elementwise ops run
        # at half speed.  uu stays a view: the summation order of the dot
        # lam @ uu, and so its bits, follow its stride.
        self.zz, self.uu = squares[:-1].copy(), squares[-1]
        # Scale a = 1 - eps |z|^2 / 4 of every row of z (1 on the plane),
        # conformal factor 1/a^2 at p, and the squared pair separations
        # |p - pj|^2 / (a0 aj): chordal on the disk, Euclidean on the plane.
        self.a = a = 1.0 - 0.25 * eps * self.zz
        scale = a[0] * a  # a0^2, then a0 aj
        self.lam = 1.0 / scale[0]
        self.dp = self.p - self.z[1:]
        self.seps_sq = (self.dp * self.dp.conj()).real.copy() / scale[1:]
        self._kernel = self._first = self._precise = None

    def kernel(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(G, 1/sqrt(G), F) of _pair_kernel at seps_sq; only defined once
        no pair has collided."""
        if self._kernel is None:
            self._kernel = _pair_kernel(self.seps_sq, self.eps)
        return self._kernel

    def first_order_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(F', kappa, a0, a1): the kernel's slope at seps_sq; kappa =
        d log(1/a) / dz = eps conj(z) / (4a), one row per row of z; and per
        pair the log-derivatives a0 = d log P / dp = 1/(p - pj) + kappa_0
        and a1 = d log P / dpj = kappa_j - 1/(p - pj) of P = seps_sq."""
        if self._first is None:
            G, inv_root, _ = self.kernel()
            kappa = self.zc * (0.25 * self.eps / self.a)
            inv_dp = 1.0 / self.dp
            self._first = (_pair_slope(G, inv_root), kappa, inv_dp + kappa[0], kappa[1:] - inv_dp)
        return self._first

    def precise_gradient(self) -> np.ndarray:
        """The action's gradient at these coefficients from long-double node
        values on the quadrature grid, read-only.  Only defined once the
        point is feasible."""
        if self._precise is None:
            gradient = _first_order(_NodeState(self.coefficients, self.config, precise=True))
            gradient.flags.writeable = False
            self._precise = gradient
        return self._precise

    def check(self) -> None:
        """Raise OutOfDiskError when eps |p|^2 / 4 >= (1 - BOUNDARY_MARGIN)^2
        at some node, i.e. p comes within BOUNDARY_MARGIN (relatively) of the
        disk's boundary |p| = 2R, never on the plane (eps = 0); and
        CollisionError when a squared pair separation at some node reaches
        COLLISION_THRESHOLD^2 (node by node, so a NaN cannot mask it)."""
        if self.zz[0].max() * (0.25 * self.eps) >= (1.0 - geometry.BOUNDARY_MARGIN) ** 2:
            raise geometry.OutOfDiskError("trajectory leaves the disk")
        # fmin skips NaNs: the least separation among the nodes that have one.
        if np.fmin.reduce(self.seps_sq, axis=None) <= COLLISION_THRESHOLD ** 2:
            raise CollisionError("pair separation at the collision threshold")

    def value(self) -> float | None:
        """The action; None when a node leaves the disk or a pair collides."""
        try:
            self.check()
        except (geometry.OutOfDiskError, CollisionError):
            return None
        return self.w * (float(self.lam @ self.uu) + float(np.add.reduce(self.kernel()[2], axis=None)))


@functools.lru_cache(maxsize=1)
def _state_and_value(data: bytes, config: Configuration) -> tuple[_NodeState, float | None]:
    """Float64 node state and action (None if infeasible) at the packed
    coefficients of q with these bytes.

    Keeping the latest one lets a gradient or Hessian request right after
    a value request at the same point (BFGS's fun then grad, Newton's
    value then precise gradient) reuse the node values, and a second
    precise gradient reuse the first (_NodeState.precise_gradient).
    """
    state = _NodeState(_coefficients(np.frombuffer(data), config), config)
    return state, state.value()


def _first_order(state: _NodeState) -> np.ndarray:
    """Gradient in the packed coefficients of q.

    One stack holds the integrand's derivatives in each row of the node
    state (p, each p_j, u), with w F' P formed once and the exact factor
    2 sigma folded into w; one adjoint, the multiplier table and a sum over
    the rows pull it back.
    """
    sp, n = state.sp, state.config.n
    dF, kappa, a0, a1 = state.first_order_terms()
    w = 2.0 * state.config.sigma * state.w
    wFpP = w * dF * state.seps_sq

    # Wirtinger derivatives of the kinetic integrand, with d lam / dp =
    # 2 lam kappa, and of the pairs, whose P depends on p and p_j.
    wlam = w * state.lam
    rows = np.empty((n + 1, sp.M), dtype=kappa.dtype)
    np.multiply(2.0 * wlam * state.uu, kappa[0], out=rows[0])
    rows[0] += np.add.reduce(wFpP * a0, axis=0)
    np.multiply(wFpP, a1, out=rows[1:-1])
    np.multiply(wlam, state.uc, out=rows[-1])

    v = np.add.reduce(sp.adjoint(rows) * state.multipliers, axis=0)
    return np.concatenate([v.real, -v.imag]).astype(float, copy=False)


def _second_order(state: _NodeState) -> tuple[tuple, tuple]:
    """Node values of the second Wirtinger derivatives, unweighted, from the
    first-order terms of the node state (F', kappa, a0, a1).

    Kinetic: (lam, f1, f2, f3, f4), the sources of the blocks
    dw toep(lam) dwc, hank(f1), 2 hank(f2) dw, toep(f3) and 2 toep(f4) dwc.
    Pairs: (A00, A01, A11, B00, B01, B11), each (n-1, M), of d^2 F / dz_a dz_b
    (A) and d^2 F / dz_a dzbar_b (B) with z_0 = p and z_1 = p_j.
    """
    h = 0.25 * state.eps / (state.a * state.a)  # d kappa / dzbar, by row of z
    Fp, kappa, a0, a1 = state.first_order_terms()
    G, _, F = state.kernel()
    P, Fpp = state.seps_sq, _pair_curvature(G, F)
    lam, uu, dp = state.lam, state.uu, state.dp
    Pa, Pb = P * a0, P * a1

    # Kinetic second derivatives of lam |u|^2 in p and u, from d lam / dp =
    # m = 2 lam kappa, d kappa / dp = kappa^2 and d kappa / dpbar = h.
    k0 = kappa[0]
    m = 2.0 * lam * k0
    f_ppb = (2.0 * np.conj(k0) * m + 2.0 * lam * h[0]) * uu
    kinetic = (lam, 3.0 * k0 * m * uu, m * np.conj(state.u), f_ppb, m * state.u)

    winv2 = 1.0 / (dp * dp)
    A00 = Fpp * Pa * Pa + Fp * P * (a0 * a0 - winv2 + k0 * k0)
    A01 = Fpp * Pa * Pb + Fp * P * (a0 * a1 + winv2)
    A11 = Fpp * Pb * Pb + Fp * P * (a1 * a1 - winv2 + kappa[1:] * kappa[1:])
    B00 = Fpp * np.abs(Pa) ** 2 + Fp * P * (np.abs(a0) ** 2 + h[0])
    B01 = Fpp * Pa * np.conj(Pb) + Fp * P * (a0 * np.conj(a1))
    B11 = Fpp * np.abs(Pb) ** 2 + Fp * P * (np.abs(a1) ** 2 + h[1:])
    return kinetic, (A00, A01, A11, B00, B01, B11)


def evaluate(x, config: Configuration, order: int, precise: bool = False) -> ActionEvaluation:
    """Action value and the one exact derivative that order names.

    order = 0 computes the value alone, 1 the value and the gradient, 2
    the value and the Hessian.  An infeasible point (a node outside the
    disk margin, or a pair separation at the collision threshold) yields
    value = +inf and no derivative.  The value, the Hessian and by default
    the gradient are computed with double-precision FFTs.  precise = True
    runs the same gradient formula on long-double FFTs instead (slower,
    with a rounding floor far below the double-precision gradient's); it
    only applies to order 1.  Each transform is built once per
    (K, precise) and cached, and the node state and value of the latest
    point are kept, keyed by the bytes of x and the configuration, so a
    second call at the same point starts from them.  The precise gradient
    is kept with that state and returned read-only: a second precise call
    at the same point returns the same array without recomputing it.
    """
    x = np.asarray(x, dtype=float)
    state, value = _state_and_value(x.tobytes(), config)
    if value is None:
        return ActionEvaluation(math.inf)
    if order < 1:
        return ActionEvaluation(value)
    if order < 2:
        return ActionEvaluation(value, state.precise_gradient() if precise else _first_order(state))
    nc, sigma = config.n_coefficients, config.sigma

    # Holomorphic-holomorphic block T and Hermitian block Wm; the real
    # Hessian of sum f(y, ybar) with y = E c is assembled from
    #   dx' H dx = 2 Re(dc' T dc) + 2 dc' Wm conj(dc).
    # Only the symmetric part of T and the Hermitian part of Wm count, so
    # they are gathered as halves, 2 sigma^2 T = Th + Th' and 2 sigma^2 Wm =
    # Wh + Wh^H; the power of two 2 sigma^2 goes, exactly, into the weights.
    sp, dw = state.sp, state.multipliers[-1]
    hank, toep, phases, dft, r = sp.fold(config.n)
    (lam, f1, f2, f3, f4), (A00, A01, A11, B00, B01, B11) = _second_order(state)
    w = sigma * sigma * state.w

    # The pair blocks fold over the shifts (module docstring): at the signed
    # index r, sigma_j,k hank(f) sigma_j,l = hank(f w_j^r) sums over j into
    # one source, and hank(f) sigma_j,l = w_j^-k hank(f w_j^r) into row
    # k mod n of an n-point DFT over j; Toeplitz blocks likewise, with the
    # conjugate on the right.  The symmetric part of 2 hank(f2) diag(dw) is
    # hank(f2 i (r + 2 omega)).  Every source goes through one transform.
    f = sp.transform(np.vstack((
        w * lam, 2.0 * w * f4, w * f2,
        w * (f1 + np.sum(A00, axis=0)), w * (f3 + np.sum(B00, axis=0)),
        w * A11, w * B11, 2.0 * w * A01, 2.0 * w * B01,
    )))
    f11, g11, f01, g01 = f[5:].reshape(4, config.n - 1, -1) * phases
    hank_source = dft @ f01 + (f[3] + np.sum(f11, axis=0) + 1j * (r + 2.0 * config.omega) * f[2])
    toep_source = dft @ g01 + (f[4] + np.sum(g11, axis=0))

    # Four gathers for any n: the two kinetic Toeplitz sources, broadcast
    # to n rows, and the two folded sources; in place, so that few nc x nc
    # arrays are alive at once.
    kinetic = np.tile(f[:2], config.n)
    Wh = np.take(kinetic[0], toep)
    Wh *= dw[:, None]
    Wh += np.take(kinetic[1], toep)
    Wh *= np.conj(dw)
    Wh += np.take(toep_source, toep)
    Th = np.take(hank_source, hank)
    S = Wh + Th
    D = np.subtract(Wh, Th, out=Wh)
    del Th
    # With S = Wh + Th and D = Wh - Th, the real blocks are
    #   H_aa = Re S + Re S',  H_bb = Re D + Re D',  H_ab = Im D - Im S',
    # and H_ba = H_ab', so the Hessian is exactly symmetric.
    hessian = np.empty((2 * nc, 2 * nc))
    np.add(S.real, S.real.T, out=hessian[:nc, :nc])
    np.add(D.real, D.real.T, out=hessian[nc:, nc:])
    np.subtract(D.imag, S.imag.T, out=hessian[:nc, nc:])
    hessian[nc:, :nc] = hessian[:nc, nc:].T
    return ActionEvaluation(value, hessian=hessian)


def action_value(x, config: Configuration) -> float:
    """Discretized action; +inf for infeasible coefficient vectors."""
    return evaluate(x, config, order=0).value


def pairwise_separations(path: TrigPath, config: Configuration) -> np.ndarray:
    """Separations D_j(t), j = 1..n-1, on the quadrature grid.

    Returns the real (n-1, M) array of chordal separations on the disk
    (Euclidean for planar runs), row j-1 for the pair (0, j).

    Raises
    ------
    OutOfDiskError
        If the path leaves the allowed disk margin.
    CollisionError
        If some pair separation is at or below the collision threshold.
    """
    state = _NodeState(config.sigma * path.coeffs, config)
    state.check()
    return np.sqrt(state.seps_sq)


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
        kinetic += 0.5 * geometry.lorentz_inner(V, V)

    potential = np.zeros_like(t)
    for i in range(config.n):
        for j in range(i + 1, config.n):
            dist = geometry.geodesic_hyperboloid(pos[i], pos[j], R)
            potential -= 1.0 / (R * np.tanh(dist / R))
    return kinetic, potential
