import math
import tracemalloc
import warnings

import numpy as np
import pytest

from tlwaves import oracle, solver
from tlwaves.errors import (
    DegenerateInnerProductError,
    DomainTooSmallError,
    DomainTooSmallWarning,
    NoSolitaryWaveError,
    NotConvergedError,
    ParameterDomainError,
    SingularModeError,
)
from tlwaves.extrapolation import extrapolate
from tlwaves.grid import SpectralGrid, half_spectrum, helmholtz_symbol
from tlwaves.params import make_parameters
from tlwaves.solver import SolverConfig, WaveState


def petviashvili_step(grid, params, config, state):
    """One update of the stabilized fixed-point iteration, from the physical-space helpers."""
    speed = config.speed
    det = solver._checked_determinants(grid, params, speed)
    m = solver.stabilizing_factor(grid, params, speed, state, dealias=config.dealias)
    n1, n2 = solver.nonlinear_rhs(params, state, dealias=config.dealias)
    r1 = m * m * half_spectrum(grid, n1)
    r2 = m * m * half_spectrum(grid, n2)
    sym = helmholtz_symbol(grid, params)
    # closed-form 2x2 inverse per mode
    zh = (speed * sym * r1 + r2 / (params.delta + params.gamma)) / det
    vh = ((1.0 - params.gamma) * r1 + speed * r2) / det
    zeta = np.fft.irfft(zh, grid.n)
    v = np.fft.irfft(vh, grid.n)
    return WaveState.from_zeta_v(grid, params, zeta, v), m


def residual_norm(grid, params, speed, state, dealias=False):
    """Max norm of L x - N(x) over both rows, in physical space."""
    l1, l2 = solver._lhs_physical(grid, params, speed, state)
    n1, n2 = solver.nonlinear_rhs(params, state, dealias=dealias)
    return max(float(np.max(np.abs(l1 - n1))), float(np.max(np.abs(l2 - n2))))


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
        petviashvili_step(small_grid, elevation_params, SolverConfig(speed=elevation_params.c_crit), state)


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
    new_state, m = petviashvili_step(default_grid, elevation_params, cfg, state)
    assert abs(m - 1.0) < 1e-8
    scale = np.max(np.abs(state.zeta))
    assert np.max(np.abs(new_state.zeta - state.zeta)) < 1e-8 * scale
    assert np.max(np.abs(new_state.v - state.v)) < 1e-8 * scale


def test_tight_residual_forces_m_to_one(elevation_params, small_grid):
    cfg = SolverConfig(
        speed=elevation_params.c_crit + 0.05,
        tol_residual=1e-12,
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


@pytest.mark.parametrize("speed", [np.inf, -np.inf, np.nan])
def test_solve_rejects_a_speed_that_is_not_finite(elevation_params, small_grid, speed):
    with pytest.raises(ParameterDomainError, match=f"speed {speed} is not finite"):
        solver.solve(small_grid, elevation_params, SolverConfig(speed=speed))


@pytest.mark.parametrize("gamma, delta", [(0.5, 0.8), (0.5, 0.5)], ids=["elevation", "depression"])
@pytest.mark.parametrize("mpe_cycle, dealias, sech2", [(None, False, False), (6, False, False), (None, True, False),
                                                       (6, False, True)],
                         ids=["plain", "mpe6", "dealiased", "mpe6-sech2-seeded"])
def test_a_left_moving_solve_is_the_mirror_image_of_the_right_moving_one(small_grid, gamma, delta, mpe_cycle, dealias,
                                                                          sech2):
    # the iteration is odd in (c_s, v, u): det takes c_s^2, a11, a22 and zeta v change sign, and v^2, m, the
    # residual and the update do not; the oracle seed at -c_s is (zeta, -v), and the sech^2 seed's
    # v = c_s (gamma + delta) zeta
    params = make_parameters(gamma, delta)
    speed = params.c_crit + 0.3
    (right, right_report), (left, left_report) = (
        solver.solve(small_grid, params, SolverConfig(
            speed=cs, mpe_cycle=mpe_cycle, dealias=dealias,
            initial_guess=solver.auto_initial_guess(small_grid, params, cs) if sech2 else None))
        for cs in (speed, -speed))
    assert right_report.iterations > 1
    assert np.array_equal(left.zeta, right.zeta) and np.array_equal(left.v, -right.v)
    assert np.array_equal(left.u, -right.u)
    for key in ("iterations", "residual_history", "m_history", "seed", "boundary_ratio", "warnings"):
        assert getattr(left_report, key) == getattr(right_report, key), key


def test_not_converged_carries_report(elevation_params, small_grid):
    cs = elevation_params.c_crit + 0.05
    cfg = SolverConfig(speed=cs, max_iter=3, initial_guess=solver.auto_initial_guess(small_grid, elevation_params, cs))
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
    cs = elevation_params.c_crit + 0.05
    cfg = SolverConfig(
        speed=cs,
        tol_residual=1e-10,
        max_iter=300,
        mpe_cycle=6,
        initial_guess=solver.auto_initial_guess(default_grid, elevation_params, cs),
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
    with pytest.raises(ValueError, match="tolerance must be finite, got inf"):
        SolverConfig(speed=1.0, tol_residual=np.inf)
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
        new_state, m = petviashvili_step(grid, params, config, state)
        res = residual_norm(grid, params, config.speed, new_state, dealias=config.dealias)
        upd = max(np.max(np.abs(new_state.zeta - state.zeta)), np.max(np.abs(new_state.v - state.v)))
        residuals.append(res)
        ms.append(m)
        state = new_state
        if res <= config.tol_residual and upd <= config.tol_residual:
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
    cs = elevation_params.c_crit + 0.05
    seed = solver.auto_initial_guess(default_grid, elevation_params, cs)
    cfg = SolverConfig(speed=cs, max_iter=300, initial_guess=seed, **options)
    state, report = solver.solve(default_grid, elevation_params, cfg)
    ref_state, ref_residuals, ref_ms = _reference_solve(default_grid, elevation_params, cfg)
    assert report.iterations == len(ref_residuals)
    assert np.max(np.abs(np.array(report.residual_history) - ref_residuals)) <= 1e-12
    assert np.max(np.abs(np.array(report.m_history) - ref_ms)) <= 1e-12
    for got, want in ((state.zeta, ref_state.zeta), (state.v, ref_state.v), (state.u, ref_state.u)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _step_out_of_place(core, x, m):
    """The state of _Core.step and the (residual, num, den) of its evaluate, as the whole-array expressions that
    the core evaluates in place: the reference for its bits."""
    grid, params, speed, n = core.grid, core.params, core.config.speed, core.grid.n
    s1, s2 = x.spectra if x.spectra is not None else (np.fft.rfft(x.n1), np.fft.rfft(x.n2))
    r1 = m * m * s1
    r2 = m * m * s2
    zh = core.a11 * r1 + core.a12 * r2
    vh = core.a21 * r1 + core.a22 * r2
    zeta, v, u = np.fft.irfft(zh, n), np.fft.irfft(vh, n), np.fft.irfft(core.sym * vh, n)
    products = core.evaluate(WaveState(grid=grid, zeta=zeta, v=v, u=u), zh, vh)
    n1, n2 = products.n1, products.n2
    l1 = speed * zeta - v / (params.delta + params.gamma)
    l2 = (params.gamma - 1.0) * zeta + speed * u
    residual = max(float(np.max(np.abs(l1 - n1))), float(np.max(np.abs(l2 - n2))))
    return (zeta, v, u), (residual, float(l1 @ zeta + l2 @ v), float(n1 @ zeta + n2 @ v))


@pytest.mark.parametrize("dealias", [False, True], ids=["plain", "dealias"])
def test_core_step_is_the_out_of_place_step_bit_for_bit(elevation_params, default_grid, dealias):
    cs = elevation_params.c_crit + 0.05
    core = solver._Core(default_grid, elevation_params, SolverConfig(speed=cs, dealias=dealias))
    x = core.evaluate(solver.auto_initial_guess(default_grid, elevation_params, cs))
    for _ in range(3):
        m = solver._stabilizing_ratio(x.num, x.den, x.state.zeta, x.state.v)
        fields, scalars = _step_out_of_place(core, x, m)
        x = core.step(x, m)
        for got, want in zip((x.state.zeta, x.state.v, x.state.u), fields):
            assert got.tobytes() == want.tobytes()
        assert (x.residual, x.num, x.den) == scalars


def test_dealiased_core_step_holds_little_above_its_result():
    # the 3/2 rule reuses one padded buffer and forms the fine products in place; each fine array is 0.19 MiB here
    grid = SpectralGrid(half_length=2048.0, n=16384)
    params = make_parameters(0.5, 0.8)
    cs = params.c_crit + 0.2
    core = solver._Core(grid, params, SolverConfig(speed=cs, dealias=True))
    x = core.evaluate(solver.auto_initial_guess(grid, params, cs))
    x = core.step(x, solver._stabilizing_ratio(x.num, x.den, x.state.zeta, x.state.v))  # first-use allocations
    m = solver._stabilizing_ratio(x.num, x.den, x.state.zeta, x.state.v)
    tracemalloc.start()
    try:
        new = core.step(x, m)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert new.spectra is not None
    assert peak - current <= 0.65 * 2**20, (peak - current) / 2**20


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


@pytest.mark.parametrize("gamma, delta", [(0.5, 0.8), (0.5, 0.5)], ids=["elevation", "depression"])
@pytest.mark.parametrize("offset", [0.02, 0.05, 0.10])
def test_oracle_seed_reaches_the_sech2_seeded_wave(default_grid, gamma, delta, offset):
    # the two seeds converge to the same wave within the tolerance scale (worst: depression at 0.02)
    params = make_parameters(gamma, delta)
    cs = params.c_crit + offset
    sech2_seed = solver.auto_initial_guess(default_grid, params, cs)
    sech2, _ = solver.solve(default_grid, params, SolverConfig(speed=cs, initial_guess=sech2_seed))
    seed = solver.oracle_initial_guess(default_grid, params, cs)
    seeded, report = solver.solve(default_grid, params, SolverConfig(speed=cs, initial_guess=seed))
    assert report.converged and report.iterations <= 2
    assert report.seed == "given"
    for name in ("zeta", "v", "u"):
        a, b = getattr(seeded, name), getattr(sech2, name)
        assert np.max(np.abs(a - b)) <= 5e-10 * np.max(np.abs(b))


def test_oracle_seed_is_the_oracle_profile(default_grid, elevation_params, elevation_curve, elevation_oracle_profile):
    # the seed's short integration agrees with the oracle at x_max = l, step 1e-3 on every node
    seed = solver.oracle_initial_guess(default_grid, elevation_params, elevation_curve.problem.speed)
    v = elevation_oracle_profile.sample_v(default_grid.nodes)
    assert np.max(np.abs(seed.v - v)) <= 1e-12 * abs(elevation_curve.turning_point)
    assert np.array_equal(seed.zeta, oracle.reconstruct_zeta(elevation_curve, seed.v))


@pytest.mark.parametrize("gamma, delta, offset", [(0.5, 0.8, 0.05), (0.5, 0.5, 0.05), (0.5, 0.8, 0.3)],
                         ids=["elevation", "depression", "elevation-fast"])
def test_oracle_seed_is_the_whole_profile_sampled_at_the_nodes(default_grid, monkeypatch, gamma, delta, offset):
    # one integration that keeps every node, whatever its drift, sampled at the grid nodes, bit for bit
    params = make_parameters(gamma, delta)
    speed = params.c_crit + offset
    integrate, calls = oracle.integrate_profile, []

    def spied(curve, x_max, step, samples=None, drift_bound=1e-10):
        calls.append((curve, x_max, step, samples, drift_bound))
        return integrate(curve, x_max, step, samples, drift_bound)

    monkeypatch.setattr(oracle, "integrate_profile", spied)
    seed = solver.oracle_initial_guess(default_grid, params, speed)
    (curve, x_max, step, samples, drift_bound), = calls
    assert samples is None and drift_bound == math.inf
    v = integrate(curve, x_max, step, drift_bound=math.inf).sample_v(default_grid.nodes)
    assert seed.v.tobytes() == v.tobytes()
    assert seed.zeta.tobytes() == oracle.reconstruct_zeta(curve, v).tobytes()


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_a_seed_that_drifts_far_above_the_tolerance_seeds_the_solve(default_grid, monkeypatch, tol):
    # (0.9, 2.0) at c_crit + 0.5 lies 0.06 |v_pole| below the pole, and its seed's energy drift is 6.3e-6: the
    # oracle-seeded solve still lands on the sech^2-seeded wave (3.4e-12 apart at tol 1e-10), in fewer iterations
    params = make_parameters(0.9, 2.0)
    speed = params.c_crit + 0.5
    integrate, drifts = oracle.integrate_profile, []

    def spied(*args, **kwargs):
        profile = integrate(*args, **kwargs)
        drifts.append(profile.energy_max)
        return profile

    monkeypatch.setattr(oracle, "integrate_profile", spied)
    config = SolverConfig(speed=speed, tol_residual=tol, mpe_cycle=6)
    sech2_config = SolverConfig(speed=speed, tol_residual=tol, mpe_cycle=6,
                                initial_guess=solver.auto_initial_guess(default_grid, params, speed))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainTooSmallWarning)
        seeded, report = solver.solve(default_grid, params, config)
        sech2, sech2_report = solver.solve(default_grid, params, sech2_config)
    assert report.converged and report.seed == "oracle"
    assert drifts == [pytest.approx(6.3e-6, rel=1e-2)]
    assert report.iterations < sech2_report.iterations
    for name in ("zeta", "v", "u"):
        a, b = getattr(seeded, name), getattr(sech2, name)
        assert np.max(np.abs(a - b)) <= 5e-10 * np.max(np.abs(b))


@pytest.mark.parametrize("gamma, delta", [(0.5, 0.8), (0.5, 0.5)], ids=["elevation", "depression"])
def test_oracle_seed_sorts_no_samples(monkeypatch, gamma, delta):
    # the seed integrates the whole profile and samples it at the nodes, whose |x| falls to the crest and rises
    # again, without sorting them: a process's first np.sort pages in ~256 kB of numpy code
    grid = SpectralGrid(100.0, 1000)
    params = make_parameters(gamma, delta)
    integrate, calls = oracle.integrate_profile, []

    def spied(curve, x_max, step, samples=None, drift_bound=1e-10):
        calls.append((curve, x_max, step, drift_bound))
        return integrate(curve, x_max, step, samples, drift_bound)

    def no_sort(*args, **kwargs):
        raise AssertionError("np.sort on the seed path")

    monkeypatch.setattr(oracle, "integrate_profile", spied)
    monkeypatch.setattr(np, "sort", no_sort)
    seed = solver.oracle_initial_guess(grid, params, params.c_crit + 0.05)
    monkeypatch.undo()
    (curve, x_max, step, drift_bound), = calls
    v = integrate(curve, x_max, step, drift_bound=drift_bound).sample_v(grid.nodes)
    assert seed.v.tobytes() == v.tobytes()


@pytest.mark.parametrize("gamma, delta, speed, seed", [
    (0.5, 0.8, make_parameters(0.5, 0.8).c_crit + 0.05, "oracle"),
    # so close to the pole that U's round-off makes -2U < 0 on the orbit: the oracle raises PoleProximityError and
    # the solve falls back to sech^2
    (0.95, 0.8, 1.2, "sech2"),
], ids=["reference", "near-pole"])
def test_default_seed_is_labelled_oracle(default_grid, gamma, delta, speed, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DomainTooSmallWarning)  # the near-pole wave reaches 5.5e-10 at l=128
        _, report = solver.solve(default_grid, make_parameters(gamma, delta), SolverConfig(speed=speed))
    assert report.converged
    assert report.seed == seed
    assert report.to_dict()["seed"] == seed


def test_plane_scan_seeds_every_wave_from_the_oracle(default_grid):
    # a fixed scan of the parameter plane with MPE(6): every solve converges from the oracle's seed, the five near
    # 0.06 |v_pole| below the pole included, whose seeds drift by 4.5e-8 to 6.3e-6
    for gamma in (0.1, 0.3, 0.5, 0.7, 0.9):
        for delta in (0.2, 0.5, 0.8, 1.2, 2.0):
            params = make_parameters(gamma, delta)
            for offset in (0.01, 0.05, 0.2, 0.5):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DomainTooSmallWarning)
                    _, report = solver.solve(default_grid, params,
                                             SolverConfig(speed=params.c_crit + offset, mpe_cycle=6))
                assert report.converged and report.seed == "oracle", (gamma, delta, offset, report.seed)
