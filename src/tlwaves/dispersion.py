"""Exact linear theory of the two-layer system.

The linearized equations for (zeta, u) decouple per Fourier mode into
d/dt (zeta_hat, u_hat) = -i*k*A(k) (zeta_hat, u_hat) with

    A(k) = [[0, omega(k)], [1 - gamma, 0]],
    omega(k) = 1 / ((delta + gamma) * (1 + beta k^2)).

Since A(k)^2 = sigma(k)^2 I with sigma = sqrt((1 - gamma) * omega), the
propagator exp(-i k A t) is closed form and is applied analytically per
mode (on the rfft modes 0..n/2 of a grid); no time stepping is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import SpectralGrid, half_spectrum
from .params import ModelParameters


@dataclass(frozen=True)
class DispersionSymbols:
    params: ModelParameters

    def omega(self, k):
        """omega(k); positive for all real k, no poles or zeros on the axis."""
        p = self.params
        return 1.0 / ((p.delta + p.gamma) * (1.0 + p.beta * np.asarray(k, dtype=float) ** 2))

    def sigma(self, k):
        """Phase speed symbol sigma(k) = sqrt((1 - gamma) * omega(k))."""
        return np.sqrt((1.0 - self.params.gamma) * self.omega(k))


def _rotation(symbols: DispersionSymbols, k, t: float):
    """c = cos(k sigma t), s = sin(k sigma t) and r = sqrt(omega/(1-gamma)) per wavenumber k."""
    gamma = symbols.params.gamma
    om = symbols.omega(k)
    phase = k * np.sqrt((1.0 - gamma) * om) * t
    return np.cos(phase), np.sin(phase), np.sqrt(om / (1.0 - gamma))


def propagator(symbols: DispersionSymbols, k: float, t: float) -> np.ndarray:
    """2x2 propagator matrix exp(-i k A(k) t) for a single mode.

    With s = sin(k sigma t), c = cos(k sigma t) and r = sqrt(omega/(1-gamma)):

        [[c, -i r s], [-i s / r, c]]

    Unit determinant (c^2 + s^2 = 1).
    """
    c, s, r = _rotation(symbols, k, t)
    return np.array([[c, -1j * r * s], [-1j * s / r, c]], dtype=complex)


def evolve_linear(
    symbols: DispersionSymbols,
    grid: SpectralGrid,
    zeta0: np.ndarray,
    u0: np.ndarray,
    t: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve (zeta, u) for time t under the linearized system.

    Applies the closed-form propagator to the rfft modes 0..n/2, using the
    grid's scaled wavenumbers k'.  Exact up to round-off: for each mode the
    quadratic form (1-gamma)|zeta_hat|^2 + omega(k)|u_hat|^2 is conserved.

    The Nyquist mode n/2 of a real field has no quadrature partner to
    rotate into, so it is held fixed (same convention as the odd-order
    pseudospectral derivative).
    """
    c, s, r = _rotation(symbols, grid.half_wavenumbers, t)
    c[-1], s[-1] = 1.0, 0.0
    zh, uh = half_spectrum(grid, zeta0), half_spectrum(grid, u0)
    zh_t = c * zh - 1j * r * s * uh
    uh_t = -1j * s / r * zh + c * uh
    return np.fft.irfft(zh_t, grid.n), np.fft.irfft(uh_t, grid.n)


def mode_energy(symbols: DispersionSymbols, grid: SpectralGrid, zeta: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-mode invariant (1-gamma)|zeta_hat|^2 + omega(k)|u_hat|^2 on the n/2 + 1 rfft modes."""
    zh, uh = half_spectrum(grid, zeta), half_spectrum(grid, u)
    om = symbols.omega(grid.half_wavenumbers)
    return (1.0 - symbols.params.gamma) * np.abs(zh) ** 2 + om * np.abs(uh) ** 2


def sigma_order(symbols: DispersionSymbols) -> tuple[int, int, int]:
    """Growth order l of sigma(k) as |k| -> inf, with the Sobolev shifts.

    For beta > 0, sigma(k) ~ |k|^(-1), so l = -1 and the well-posedness
    indices are m1 = max(0, -l) = 1, m2 = max(0, l) = 0.
    """
    if not symbols.params.beta > 0.0:
        raise ValueError("sigma_order requires beta > 0")
    l = -1
    return l, max(0, -l), max(0, l)
