"""The circular orbit q = r e^{it}: its path, closed-form action and
force-balance radius, written independently of the package's node/FFT
machinery."""

import math

import numpy as np
from scipy.optimize import brentq

from hypchoreo.trigpath import TrigPath


def circle_path(r, K):
    """Bandwidth-K path of q(t) = r e^{it}."""
    c = np.zeros(2 * K + 1, dtype=complex)
    c[K + 1] = r
    return TrigPath(c)


def circle_action(r, config):
    """Closed-form action of the circular orbit q = r e^{it}.

    Every integrand is constant in time for this orbit, so the action is
    2 pi times the integrand: kinetic (n/2) lam(r) r^2 (1 + omega)^2 plus,
    per pair offset j, the potential kernel at the constant separation
    D_j = lam(r)^{1/2} r |1 - e^{2 pi i j / n}| (chordal; Euclidean when
    planar).
    """
    n, R, w = config.n, config.R, config.omega
    kinetic_density = r * r * (1.0 + w) ** 2
    total = 0.0
    if math.isinf(R):
        total += 0.5 * n * kinetic_density * 2.0 * math.pi
        for j in range(1, n):
            d = 2.0 * r * math.sin(math.pi * j / n)
            total += 0.5 * n * 2.0 * math.pi / d
        return total
    lam = 4.0 * R ** 4 / (R * R - r * r) ** 2
    total = 0.5 * n * lam * kinetic_density * 2.0 * math.pi
    for j in range(1, n):
        chord = 2.0 * r * math.sin(math.pi * j / n)
        d = math.sqrt(lam) * chord  # equals 2R^2 chord / (R^2 - r^2)
        kernel = (2.0 * R * R + d * d) / (d * math.sqrt(4.0 * R * R + d * d))
        total += (0.5 * n / R) * kernel * 2.0 * math.pi
    return total


def critical_circle_radius(n, R, speed=1.0):
    """Radius at which the circular orbit traversed at angular speed
    `speed` (k + omega in a frame rotating at omega) balances centrifugal
    and attractive terms, derived from the radial derivative of the action
    of the one-parameter circle family; flat case in closed form."""
    chi = [2.0 * math.sin(math.pi * j / n) for j in range(1, n)]
    if math.isinf(R):
        return (sum(1.0 / x for x in chi) / (2.0 * speed ** 2)) ** (1.0 / 3.0)

    def balance(r):
        u = r * r
        lam = 4.0 * R ** 4 / (R * R - u) ** 2
        total = speed ** 2
        for x in chi:
            D = lam * u * x * x
            total += (1.0 / R) * x * x * (-4.0 * R ** 4) * (D * D + 4.0 * R * R * D) ** -1.5
        return total

    return brentq(balance, 1e-6 * R, 0.999 * R, xtol=1e-15, rtol=8.9e-16)
