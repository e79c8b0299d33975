"""Real fields go through rfft half spectra: the full complex FFT is only the public DFT."""

import numpy as np
import pytest

from tlwaves import analysis, solver
from tlwaves.dispersion import DispersionSymbols, evolve_linear, mode_energy
from tlwaves.grid import SpectralGrid, differentiate, helmholtz_apply, helmholtz_solve
from tlwaves.solver import SolverConfig


@pytest.fixture
def no_complex_fft(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a compute path used the full complex FFT")

    monkeypatch.setattr(np.fft, "fft", refuse)
    monkeypatch.setattr(np.fft, "ifft", refuse)


@pytest.mark.parametrize("settings", [{}, {"mpe_cycle": 6}, {"dealias": True}])
def test_solve_uses_half_spectra(no_complex_fft, elevation_params, settings):
    grid = SpectralGrid(half_length=64.0, n=512)
    config = SolverConfig(speed=elevation_params.c_crit + 0.05, **settings)
    state, report = solver.solve(grid, elevation_params, config)
    assert report.converged
    assert analysis.phase_portrait(state, grid).shape == (grid.n, 2)
    kp, mags = analysis.spectrum_magnitudes(grid, state.zeta)
    assert kp.shape == mags.shape == (grid.n // 2 + 1,)


def test_operators_use_half_spectra(no_complex_fft, elevation_params):
    grid = SpectralGrid(half_length=10.0, n=64)
    f = np.random.default_rng(7).standard_normal(grid.n)
    symbols = DispersionSymbols(elevation_params)
    zeta, u = evolve_linear(symbols, grid, f, 0.5 * f, 1.5)
    assert mode_energy(symbols, grid, zeta, u).shape == (grid.n // 2 + 1,)
    assert np.max(np.abs(helmholtz_solve(grid, elevation_params, helmholtz_apply(grid, elevation_params, f)) - f)) < 1e-12
    for order in (1, 2, 3):
        assert differentiate(grid, f, order).shape == (grid.n,)
