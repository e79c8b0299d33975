import numpy as np
import pytest

from tlwaves.dispersion import DispersionSymbols, evolve_linear
from tlwaves.evolve import evolve
from tlwaves.grid import SpectralGrid, helmholtz_solve
from tlwaves.params import make_parameters
from tlwaves.solver import WaveState


@pytest.fixture(scope="module")
def grid():
    return SpectralGrid(half_length=20.0, n=128)


def test_linear_system_at_rest_is_the_closed_form_propagator(grid):
    # K = 0 (delta^2 = gamma) and c_s = 0: the integrating factor is the whole flow
    params = make_parameters(0.25, 0.5)
    assert params.k_coeff == 0.0
    rng = np.random.default_rng(3)
    zeta0, u0 = rng.standard_normal(grid.n), rng.standard_normal(grid.n)
    state = WaveState.from_zeta_v(grid, params, zeta0, helmholtz_solve(grid, params, u0))
    end = evolve(params, state, 0.0, 2.0, 0.5)
    zeta, u = evolve_linear(DispersionSymbols(params), grid, zeta0, u0, 2.0)
    assert np.max(np.abs(end.zeta - zeta)) < 1e-12
    assert np.max(np.abs(end.u - u)) < 1e-12


def test_moving_frame_translates_the_linear_flow(grid):
    # in the frame moving at c, the rest frame's flow is seen shifted by -c t; c t is two grid spacings
    params = make_parameters(0.25, 0.5)
    zeta0 = np.exp(-grid.nodes**2)
    state = WaveState.from_zeta_v(grid, params, zeta0, np.zeros(grid.n))
    t = 1.0
    speed = 2.0 * grid.spacing / t
    moving = evolve(params, state, speed, t, 0.25)
    rest = evolve(params, state, 0.0, t, 0.25)
    assert np.max(np.abs(moving.zeta - np.roll(rest.zeta, -2))) < 1e-12


def test_mass_is_conserved(grid):
    params = make_parameters(0.5, 0.8)
    bump = 0.3 * np.exp(-grid.nodes**2)
    state = WaveState.from_zeta_v(grid, params, bump, 0.5 * bump)
    end = evolve(params, state, 0.7, 5.0, 0.05)
    assert abs(end.zeta.sum() - bump.sum()) < 1e-12 * abs(bump.sum())


@pytest.mark.parametrize("t_end, dt", [(1.0, 0.3), (1.0, 0.0), (0.0, 0.1), (1.0, -0.5),
                                       (np.inf, 0.1), (1.0, 1e-320), (np.nan, 0.1)])
def test_rejects_a_step_that_does_not_divide_the_time(grid, t_end, dt):
    # t_end / dt of inf or nan is no whole number of steps either
    params = make_parameters(0.5, 0.8)
    state = WaveState.from_zeta_v(grid, params, np.zeros(grid.n), np.zeros(grid.n))
    with pytest.raises(ValueError, match=f"t_end {t_end} must be a positive whole number of steps dt {dt}"):
        evolve(params, state, 0.7, t_end, dt)

