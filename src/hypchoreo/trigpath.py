"""Trigonometric interpolation utilities for 2*pi-periodic complex paths.

A path is stored by the centered coefficients (c_{-K}, ..., c_K) of the
polynomial q(t) = sum_k c_k exp(i k t).  The natural collocation grid for
bandwidth K has N = 2K + 1 equispaced nodes t_m = 2*pi*m/N, on which
interpolation is an invertible FFT pair.  The trapezoidal rule on such a
grid integrates any trigonometric polynomial of bandwidth < N exactly and
is spectrally accurate for smooth periodic integrands.

Optimization routines work on a packed real vector of the coefficients,
laid out as [Re c_{-K} .. Re c_K, Im c_{-K} .. Im c_K].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrigPath",
    "nodes",
    "trapezoid_integral",
    "pack_vars",
    "unpack_vars",
]


def nodes(count: int) -> np.ndarray:
    """Equispaced grid t_m = 2*pi*m/count, m = 0..count-1."""
    if count < 1:
        raise ValueError("node count must be positive")
    return 2.0 * np.pi * np.arange(count) / count


def trapezoid_integral(values) -> complex:
    """Integral over one period by the trapezoidal rule, (2*pi/N) * sum.

    Exact (up to roundoff) whenever the sampled function is a trigonometric
    polynomial of bandwidth < N; exponentially accurate for analytic
    periodic integrands.
    """
    vals = np.asarray(values, dtype=complex)
    return 2.0 * np.pi * complex(np.sum(vals)) / vals.size


@dataclass(frozen=True)
class TrigPath:
    """Complex trigonometric polynomial q(t) = sum_{|k| <= K} c_k exp(i k t).

    Parameters
    ----------
    coeffs : array_like
        Centered coefficient vector (c_{-K}, ..., c_K); the length must be
        odd.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size < 1 or c.size % 2 == 0:
            raise ValueError("coefficients must be a 1-d array of odd length")
        object.__setattr__(self, "coeffs", c)

    @property
    def K(self) -> int:
        return (self.coeffs.size - 1) // 2

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.K, self.K + 1)

    @classmethod
    def from_samples(cls, values) -> "TrigPath":
        """Interpolate samples on nodes(N), N odd, by a bandwidth-(N-1)/2 path."""
        vals = np.asarray(values, dtype=complex)
        if vals.ndim != 1 or vals.size % 2 == 0:
            raise ValueError("interpolation needs an odd number of samples")
        return cls(np.fft.fftshift(np.fft.fft(vals)) / vals.size)

    def at_nodes(self, N: int) -> np.ndarray:
        """Evaluate on nodes(N) by zero-padded inverse FFT; requires N >= 2K+1."""
        if N < self.coeffs.size:
            raise ValueError(
                f"grid of {N} nodes undersamples bandwidth {self.K} (need >= {self.coeffs.size})"
            )
        spectrum = np.zeros(N, dtype=complex)
        spectrum[self.wavenumbers % N] = self.coeffs
        return N * np.fft.ifft(spectrum)

    def eval(self, t) -> np.ndarray:
        """Evaluate at arbitrary times by direct summation."""
        t = np.asarray(t, dtype=float)
        phases = np.exp(1j * np.multiply.outer(t, self.wavenumbers))
        return phases @ self.coeffs

    def derivative(self) -> "TrigPath":
        """Time derivative: c_k -> i k c_k."""
        return TrigPath(self.coeffs * (1j * self.wavenumbers))

    def shift(self, tau: float) -> "TrigPath":
        """Time shift q(. + tau): c_k -> c_k exp(i k tau)."""
        return TrigPath(self.coeffs * np.exp(1j * self.wavenumbers * tau))

    def pad(self, K2: int) -> "TrigPath":
        """Embed into bandwidth K2 >= K with zero high modes."""
        if K2 < self.K:
            raise ValueError("padding cannot reduce the bandwidth")
        extra = K2 - self.K
        return TrigPath(np.pad(self.coeffs, (extra, extra)))


def _fit_bandwidth(path: TrigPath, K: int) -> TrigPath:
    """Pad or truncate the centered coefficient vector to bandwidth K."""
    if path.K == K:
        return path
    if path.K < K:
        return path.pad(K)
    mid = path.K
    return TrigPath(path.coeffs[mid - K : mid + K + 1])


def pack_vars(path: TrigPath) -> np.ndarray:
    """Flatten to the real optimization vector [Re c, Im c]."""
    return np.concatenate([path.coeffs.real, path.coeffs.imag])


def unpack_vars(x: np.ndarray) -> TrigPath:
    """Inverse of pack_vars."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size % 2 != 0 or (x.size // 2) % 2 == 0:
        raise ValueError("packed vector must have length 2*(2K+1)")
    half = x.size // 2
    return TrigPath(x[:half] + 1j * x[half:])
