"""Time evolution of the full two-layer system, in the frame moving at c_s.

In xi = x - c_s t, per rfft mode k (the grid's half wavenumbers k'), the
system of the README reads

    d/dt (zeta_hat, u_hat) = i k c_s (zeta_hat, u_hat) - i k A(k) (zeta_hat, u_hat)
                             - i k K ((zeta v)^, (v^2)^ / 2),

with u_hat = (1 + beta k^2) v_hat and A(k) the matrix of
:mod:`tlwaves.dispersion`.  A solitary wave that travels at c_s is a
steady state here, so evolving a computed wave checks it against the
time-dependent system without the solver or the oracle.

The linear part is integrated exactly by the flow that
:func:`tlwaves.dispersion.evolve_linear` also runs: exp(i k c_s t) times the
closed-form propagator, written for (zeta_hat, v_hat).
The quadratic part goes through the integrating-factor RK4 scheme (Cox &
Matthews, J. Comput. Phys. 176 (2002); Kassam & Trefethen, SIAM J. Sci.
Comput. 26 (2005)).  Both run on the grid's ``odd_wavenumbers``: the
Nyquist mode gets no odd derivative, so its nonlinear term is zero and the
propagator holds it fixed.
"""

from __future__ import annotations

import numpy as np

from .dispersion import DispersionSymbols, _linear_flow
from .grid import half_spectrum, helmholtz_symbol, quadratic_spectra
from .params import ModelParameters
from .solver import WaveState


def evolve(params: ModelParameters, state: WaveState, speed: float, t_end: float, dt: float) -> WaveState:
    """The state after time t_end in the frame moving at ``speed``, by integrating-factor RK4 with step dt."""
    steps = round(t_end / dt) if dt > 0.0 and np.isfinite(t_end / dt) else 0
    if not (steps >= 1 and abs(steps * dt - t_end) <= 1e-9 * t_end):
        raise ValueError(f"t_end {t_end} must be a positive whole number of steps dt {dt}")
    grid = state.grid
    n = grid.n
    k = grid.odd_wavenumbers
    sym = helmholtz_symbol(grid, params)
    symbols = DispersionSymbols(params)
    half, full = (_linear_flow(symbols, speed, k, sym, t) for t in (0.5 * dt, dt))
    coeff = -1j * dt * params.k_coeff * k
    coeff_v = 0.5 * coeff / sym

    def nonlinear(x):
        zv, vv = quadratic_spectra(grid, x[0], x[1])
        return np.array([coeff * zv, coeff_v * vv])

    x = np.array([half_spectrum(grid, state.zeta), half_spectrum(grid, state.v)])
    for _ in range(steps):
        a = nonlinear(x)
        b = nonlinear(half(x + 0.5 * a))
        c = nonlinear(half(x) + 0.5 * b)
        x_full = full(x)
        d = nonlinear(x_full + half(c))
        x = x_full + (full(a) + 2.0 * half(b + c) + d) / 6.0
    zeta, v = np.fft.irfft(x, n)
    return WaveState.from_zeta_v(grid, params, zeta, v)
