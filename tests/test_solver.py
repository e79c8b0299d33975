import numpy as np
import pytest

from tlwaves import oracle, solver
from tlwaves.errors import (
    DegenerateInnerProductError,
    DomainTooSmallError,
    DomainTooSmallWarning,
    NoSolitaryWaveError,
    NotConvergedError,
    SingularModeError,
)
from tlwaves.extrapolation import extrapolate
from tlwaves.grid import SpectralGrid
from tlwaves.params import make_parameters
from tlwaves.solver import SolverConfig, WaveState


@pytest.fixture(scope="module")
def small_grid():
    return SpectralGrid(half_length=64.0, n=512)


def test_mode_determinant_at_k0(elevation_params, small_grid):
    cs = elevation_params.c_crit + 0.05
    det = solver.mode_determinants(small_grid, elevation_params, cs)
    assert det[0] == pytest.approx(cs**2 - elevation_params.c_crit**2, rel=1e-14)
    assert np.all(det > 0.0)


def test_mode_determinant_at_first_mode(elevation_params):
    # on l = pi the first mode has k' = 1, so det = cs^2 (1 + beta) - c_crit^2
    g = SpectralGrid(half_length=np.pi, n=16)
    cs = 0.6702
    det = solver.mode_determinants(g, elevation_params, cs)
    expected = cs**2 * (1 + elevation_params.beta) - elevation_params.c_crit**2
    assert det[1] == pytest.approx(expected, rel=1e-14)
    assert expected > 0.0


def test_singular_mode_at_critical_speed(elevation_params, small_grid):
    state = WaveState.from_zeta_v(
        small_grid, elevation_params, np.zeros(small_grid.n), np.zeros(small_grid.n)
    )
    with pytest.raises(SingularModeError):
        solver.petviashvili_step(small_grid, elevation_params, SolverConfig(speed=elevation_params.c_crit), state)


def test_nonlinear_rhs_zero_state(elevation_params, small_grid):
    state = WaveState.from_zeta_v(
        small_grid, elevation_params, np.zeros(small_grid.n), np.zeros(small_grid.n)
    )
    n1, n2 = solver.nonlinear_rhs(elevation_params, state)
    assert np.all(n1 == 0.0) and np.all(n2 == 0.0)


def test_nonlinear_rhs_degenerate_params(small_grid):
    degenerate = make_parameters(0.25, 0.5)
    ones = np.ones(small_grid.n)
    state = WaveState.from_zeta_v(small_grid, degenerate, ones, ones)
    n1, n2 = solver.nonlinear_rhs(degenerate, state)
    assert np.all(n1 == 0.0) and np.all(n2 == 0.0)


def test_nonlinear_rhs_constants(elevation_params, small_grid):
    ones = np.ones(small_grid.n)
    state = WaveState.from_zeta_v(small_grid, elevation_params, ones, ones)
    n1, n2 = solver.nonlinear_rhs(elevation_params, state)
    K = elevation_params.k_coeff
    assert np.allclose(n1, K, rtol=1e-14)
    assert np.allclose(n2, K / 2, rtol=1e-14)


def test_stabilizing_factor_homogeneity(elevation_params, small_grid):
    cs = elevation_params.c_crit + 0.05
    state = solver.auto_initial_guess(small_grid, elevation_params, cs)
    m_base = solver.stabilizing_factor(small_grid, elevation_params, cs, state)
    alpha = 2.5
    scaled = WaveState.from_zeta_v(
        small_grid, elevation_params, alpha * state.zeta, alpha * state.v
    )
    m_scaled = solver.stabilizing_factor(small_grid, elevation_params, cs, scaled)
    assert m_scaled == pytest.approx(m_base / alpha, rel=1e-12)


def test_stabilizing_factor_degenerate_state(elevation_params, small_grid):
    zero = WaveState.from_zeta_v(
        small_grid, elevation_params, np.zeros(small_grid.n), np.zeros(small_grid.n)
    )
    with pytest.raises(DegenerateInnerProductError):
        solver.stabilizing_factor(
            small_grid, elevation_params, elevation_params.c_crit + 0.05, zero
        )


def test_converged_state_is_fixed_point(elevation_params, default_grid, elevation_solution):
    state, report = elevation_solution
    cs = elevation_params.c_crit + 0.05
    cfg = SolverConfig(speed=cs)
    new_state, m = solver.petviashvili_step(default_grid, elevation_params, cfg, state)
    assert abs(m - 1.0) < 1e-8
    scale = np.max(np.abs(state.zeta))
    assert np.max(np.abs(new_state.zeta - state.zeta)) < 1e-8 * scale
    assert np.max(np.abs(new_state.v - state.v)) < 1e-8 * scale


def test_tight_residual_forces_m_to_one(elevation_params, small_grid):
    cfg = SolverConfig(
        speed=elevation_params.c_crit + 0.05,
        tol_residual=1e-12,
        tol_update=1e-12,
        max_iter=400,
    )
    state, report = solver.solve(small_grid, elevation_params, cfg)
    assert report.residual_history[-1] <= 1e-12
    assert abs(report.m_final - 1.0) <= 1e-10


def test_stabilizing_factor_settles_monotonically(elevation_solution):
    _, report = elevation_solution
    err = np.abs(np.array(report.m_history) - 1.0)
    assert np.all(np.diff(err[3:]) < 0.0)  # monotone toward 1 after the transient
    assert err[-1] < 1e-10


def test_solve_elevation_profile(elevation_params, elevation_solution):
    state, report = elevation_solution
    assert report.converged
    assert report.iterations <= 300
    assert report.residual_history[-1] <= 1e-10
    assert len(report.residual_history) == report.iterations
    assert state.zeta.max() > 0.0
    assert state.zeta.min() >= -1e-10 * state.zeta.max()
    assert report.boundary_ratio <= 1e-10


def test_solve_matches_oracle_turning_point(elevation_solution, elevation_curve):
    state, _ = elevation_solution
    zeta_star = oracle.reconstruct_zeta(elevation_curve, elevation_curve.turning_point)
    u_star = oracle.reconstruct_u(elevation_curve, elevation_curve.turning_point)
    assert state.v.max() == pytest.approx(elevation_curve.turning_point, abs=1e-6)
    assert state.zeta.max() == pytest.approx(zeta_star, abs=1e-6)
    assert state.u.max() == pytest.approx(u_star, abs=1e-6)


def test_solve_depression_profile(depression_solution):
    state, report = depression_solution
    assert report.converged
    assert state.zeta.min() < 0.0
    assert state.zeta.max() <= 1e-10 * abs(state.zeta.min())


def test_converged_profile_is_even(elevation_solution):
    state, _ = elevation_solution
    for comp in (state.zeta, state.v, state.u):
        asym = np.max(np.abs(comp[1:] - comp[:0:-1]))
        assert asym <= 1e-10 * np.max(np.abs(comp))


def test_algebraic_reconstruction_identities(elevation_params, elevation_solution, elevation_curve):
    state, _ = elevation_solution
    zeta_alg = oracle.reconstruct_zeta(elevation_curve, state.v)
    assert np.max(np.abs(state.zeta - zeta_alg)) <= 1e-10 * np.max(np.abs(state.zeta))
    u_alg = elevation_params.beta * np.asarray(elevation_curve.G_prime(state.v))
    assert np.max(np.abs(state.u - u_alg)) <= 1e-8 * np.max(np.abs(state.u))


def test_solve_rejects_subsonic(elevation_params, small_grid):
    with pytest.raises(NoSolitaryWaveError):
        solver.solve(small_grid, elevation_params, SolverConfig(speed=0.9 * elevation_params.c_crit))


def test_solve_rejects_degenerate(small_grid):
    degenerate = make_parameters(0.25, 0.5)
    with pytest.raises(NoSolitaryWaveError):
        solver.solve(small_grid, degenerate, SolverConfig(speed=2.0))


def test_solve_rejects_negative_speed(elevation_params, small_grid):
    with pytest.raises(ValueError):
        solver.solve(
            small_grid, elevation_params, SolverConfig(speed=-(elevation_params.c_crit + 0.05))
        )


def test_not_converged_carries_report(elevation_params, small_grid):
    cfg = SolverConfig(speed=elevation_params.c_crit + 0.05, max_iter=3)
    with pytest.raises(NotConvergedError) as excinfo:
        solver.solve(small_grid, elevation_params, cfg)
    assert excinfo.value.report.iterations == 3


def test_domain_too_small_warning(elevation_params):
    tiny = SpectralGrid(half_length=20.0, n=256)
    cfg = SolverConfig(speed=elevation_params.c_crit + 0.05, max_iter=400)
    with pytest.warns(DomainTooSmallWarning):
        _, report = solver.solve(tiny, elevation_params, cfg)
    assert report.boundary_ratio > 1e-10
    strict = SolverConfig(speed=elevation_params.c_crit + 0.05, max_iter=400, strict_domain=True)
    with pytest.raises(DomainTooSmallError):
        solver.solve(tiny, elevation_params, strict)


def test_provided_initial_guess(elevation_params, small_grid):
    cs = elevation_params.c_crit + 0.05
    seed = solver.auto_initial_guess(small_grid, elevation_params, cs)
    cfg = SolverConfig(speed=cs, initial_guess=seed)
    state, report = solver.solve(small_grid, elevation_params, cfg)
    assert report.converged


def test_dealias_option_reaches_same_wave(elevation_params, small_grid):
    cs = elevation_params.c_crit + 0.05
    plain, _ = solver.solve(small_grid, elevation_params, SolverConfig(speed=cs))
    dealiased, _ = solver.solve(small_grid, elevation_params, SolverConfig(speed=cs, dealias=True))
    assert np.max(np.abs(plain.zeta - dealiased.zeta)) < 1e-8


def test_mpe_accelerates(elevation_params, default_grid, elevation_solution):
    _, plain_report = elevation_solution
    cfg = SolverConfig(
        speed=elevation_params.c_crit + 0.05,
        tol_residual=1e-10,
        tol_update=1e-10,
        max_iter=300,
        mpe_cycle=6,
    )
    _, mpe_report = solver.solve(default_grid, elevation_params, cfg)
    assert mpe_report.converged
    assert mpe_report.iterations < plain_report.iterations


def test_wave_state_shape_validation(elevation_params, small_grid):
    with pytest.raises(ValueError):
        WaveState.from_zeta_v(small_grid, elevation_params, np.zeros(3), np.zeros(small_grid.n))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(speed=1.0, tol_residual=0.0)
    with pytest.raises(ValueError):
        SolverConfig(speed=1.0, max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(speed=1.0, mpe_cycle=1)


def _reference_solve(grid, params, config):
    """The iteration rebuilt from the step helpers: (state, residual history, m history)."""
    state = solver.auto_initial_guess(grid, params, config.speed)
    history = [np.concatenate([state.zeta, state.v])]
    residuals, ms = [], []
    for _ in range(config.max_iter):
        new_state, m = solver.petviashvili_step(grid, params, config, state)
        res = solver.residual_norm(grid, params, config.speed, new_state, dealias=config.dealias)
        upd = max(np.max(np.abs(new_state.zeta - state.zeta)), np.max(np.abs(new_state.v - state.v)))
        residuals.append(res)
        ms.append(m)
        state = new_state
        if res <= config.tol_residual and upd <= config.tol_update:
            return state, residuals, ms
        if config.mpe_cycle is not None:
            history.append(np.concatenate([state.zeta, state.v]))
            if len(history) == config.mpe_cycle + 2:
                stacked = extrapolate(history, config.mpe_cycle)
                state = WaveState.from_zeta_v(grid, params, stacked[: grid.n], stacked[grid.n:])
                history = [stacked]
    raise AssertionError("reference iteration did not converge")


@pytest.mark.parametrize("options", [{}, {"mpe_cycle": 6}, {"dealias": True}], ids=["plain", "mpe6", "dealias"])
def test_core_matches_reference_iteration(elevation_params, default_grid, options):
    cfg = SolverConfig(speed=elevation_params.c_crit + 0.05, max_iter=300, **options)
    state, report = solver.solve(default_grid, elevation_params, cfg)
    ref_state, ref_residuals, ref_ms = _reference_solve(default_grid, elevation_params, cfg)
    assert report.iterations == len(ref_residuals)
    assert np.max(np.abs(np.array(report.residual_history) - ref_residuals)) <= 1e-12
    assert np.max(np.abs(np.array(report.m_history) - ref_ms)) <= 1e-12
    for got, want in ((state.zeta, ref_state.zeta), (state.v, ref_state.v), (state.u, ref_state.u)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_non_finite_seed_fails_at_first_iteration(elevation_params, small_grid):
    cs = elevation_params.c_crit + 0.05
    seed = solver.auto_initial_guess(small_grid, elevation_params, cs)
    zeta = seed.zeta.copy()
    zeta[small_grid.n // 2] = np.nan
    cfg = SolverConfig(speed=cs, initial_guess=WaveState.from_zeta_v(small_grid, elevation_params, zeta, seed.v))
    with pytest.raises(NotConvergedError, match="non-finite iterate at iteration 1") as excinfo:
        solver.solve(small_grid, elevation_params, cfg)
    assert excinfo.value.report.iterations == 1
    assert not excinfo.value.report.converged
