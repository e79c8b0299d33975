"""Exact linear theory of the two-layer system.

The linearized equations for (zeta, u) decouple per Fourier mode into
d/dt (zeta_hat, u_hat) = -i*k*A(k) (zeta_hat, u_hat) with

    A(k) = [[0, omega(k)], [1 - gamma, 0]],
    omega(k) = 1 / ((delta + gamma) * (1 + beta k^2)).

Since A(k)^2 = sigma(k)^2 I with sigma = sqrt((1 - gamma) * omega), the
propagator exp(-i k A t) is closed form and is applied analytically per
mode (on the rfft modes 0..n/2 of a grid); no time stepping is involved.
It is written once, in ``_linear_flow``: :func:`propagator` is that flow at
rest applied to the identity, and :func:`evolve_linear` and
``evolve.evolve`` run it on the grid's ``odd_wavenumbers``.
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


def _linear_flow(symbols: DispersionSymbols, speed: float, k: np.ndarray, sym, t: float):
    """The linear flow over time t in the frame moving at ``speed``, on stacked (zeta_hat, v_hat) of shape (2, modes).

    exp(i k speed t) times the propagator, with u_hat = sym v_hat; sym = 1 flows (zeta_hat, u_hat).
    With c = cos(k sigma t), s = sin(k sigma t) and r = sqrt(omega/(1-gamma)), the propagator is
    [[c, -i r s], [-i s / r, c]] on (zeta_hat, u_hat).
    """
    phase = k * symbols.sigma(k) * t
    c, s, r = np.cos(phase), np.sin(phase), np.sqrt(symbols.omega(k) / (1.0 - symbols.params.gamma))
    shift = np.exp(1j * speed * k * t)
    diagonal, upper, lower = shift * c, -1j * shift * r * s * sym, -1j * shift * s / (r * sym)
    return lambda x: np.array([diagonal * x[0] + upper * x[1], lower * x[0] + diagonal * x[1]])


def propagator(symbols: DispersionSymbols, k: float, t: float) -> np.ndarray:
    """2x2 propagator matrix exp(-i k A(k) t) for a single mode: the linear flow at rest applied to
    the identity.  Unit determinant (c^2 + s^2 = 1)."""
    return _linear_flow(symbols, 0.0, k, 1.0, t)(np.eye(2))


def evolve_linear(
    symbols: DispersionSymbols,
    grid: SpectralGrid,
    zeta0: np.ndarray,
    u0: np.ndarray,
    t: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve (zeta, u) for time t under the linearized system.

    Applies the closed-form propagator to the rfft modes 0..n/2 on the grid's
    :attr:`~tlwaves.grid.SpectralGrid.odd_wavenumbers`, so the Nyquist mode is
    held fixed.  Exact up to round-off: for each mode the quadratic form
    (1-gamma)|zeta_hat|^2 + omega(k)|u_hat|^2 is conserved.
    """
    flow = _linear_flow(symbols, 0.0, grid.odd_wavenumbers, 1.0, t)
    zh, uh = flow(np.array([half_spectrum(grid, zeta0), half_spectrum(grid, u0)]))
    return np.fft.irfft(zh, grid.n), np.fft.irfft(uh, grid.n)


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
