"""Acceptance gate: every criterion at its stated tolerance.

Each test asserts the quantitative gate and records a pass/fail line that
the terminal summary prints (see conftest.pytest_terminal_summary).
"""

import numpy as np
import pytest

from conftest import REF_OFFSET, record_criterion
from tlwaves import analysis, oracle, solver
from tlwaves.dispersion import DispersionSymbols, evolve_linear, mode_energy, propagator, sigma_order
from tlwaves.errors import NoSolitaryWaveError
from tlwaves.evolve import evolve
from tlwaves.extrapolation import extrapolate
from tlwaves.grid import SpectralGrid, helmholtz_apply, helmholtz_solve
from tlwaves.params import make_parameters
from tlwaves.solver import SolverConfig, WaveState


def test_criterion_1_solver_convergence(elevation_params, default_grid, elevation_solution):
    state, report = elevation_solution
    residual = report.residual_history[-1]
    m_err = abs(report.m_final - 1.0)
    # from the sech^2 seed, as the plain solve of the fixture
    speed = elevation_params.c_crit + REF_OFFSET
    cfg = SolverConfig(
        speed=speed,
        tol_residual=1e-10,
        max_iter=300,
        mpe_cycle=6,
        initial_guess=solver.auto_initial_guess(default_grid, elevation_params, speed),
    )
    _, mpe_report = solver.solve(default_grid, elevation_params, cfg)
    ok = (
        report.converged
        and residual <= 1e-10
        and m_err <= 1e-8
        and report.iterations <= 300
        and report.wall_time <= 10.0
        and mpe_report.converged
        and mpe_report.iterations < report.iterations
    )
    record_criterion(
        1,
        "solver converges on the reference configuration, faster with MPE(6)",
        ok,
        f"plain {report.iterations} it / mpe {mpe_report.iterations} it, residual {residual:.2e}, "
        f"|m-1| {m_err:.2e}, {report.wall_time:.2f} s",
    )
    assert ok


def test_criterion_2_oracle_equivalence(
    default_grid, elevation_solution, elevation_curve, elevation_oracle_profile
):
    state, _ = elevation_solution
    v_oracle = elevation_oracle_profile.sample_v(default_grid.nodes)
    dv = float(np.max(np.abs(state.v - v_oracle)))
    zeta_oracle = oracle.reconstruct_zeta(elevation_curve, v_oracle)
    dz = float(np.max(np.abs(state.zeta - zeta_oracle)))
    ok = dv <= 1e-6 and dz <= 1e-6
    record_criterion(
        2,
        "spectral solution matches the independent ODE oracle on all grid nodes",
        ok,
        f"max|dv| {dv:.2e}, max|dzeta| {dz:.2e}",
    )
    assert ok


def test_criterion_3_sign_classification(elevation_solution, depression_solution):
    elev, _ = elevation_solution
    depr, _ = depression_solution
    elev_ok = elev.zeta.min() >= -1e-10 * elev.zeta.max() and elev.zeta.max() > 0
    depr_ok = depr.zeta.min() < 0 and depr.zeta.max() <= 1e-10 * abs(depr.zeta.min())
    ok = elev_ok and depr_ok
    record_criterion(
        3,
        "gamma=0.5, delta=0.8 gives elevation; gamma=delta=0.5 gives depression",
        ok,
        f"elevation min/max {elev.zeta.min():.2e}/{elev.zeta.max():.3f}, "
        f"depression min/max {depr.zeta.min():.3f}/{depr.zeta.max():.2e}",
    )
    assert ok


def test_criterion_4_existence_boundary(elevation_params, default_grid):
    p = elevation_params
    solver_sub = oracle_sub = False
    try:
        solver.solve(default_grid, p, SolverConfig(speed=0.99 * p.c_crit))
    except NoSolitaryWaveError:
        solver_sub = True
    try:
        oracle.potential(oracle.TravelingWaveProblem(params=p, speed=0.99 * p.c_crit))
    except NoSolitaryWaveError:
        oracle_sub = True

    _, sup_report = solver.solve(default_grid, p, SolverConfig(speed=1.01 * p.c_crit))
    curve = oracle.potential(oracle.TravelingWaveProblem(params=p, speed=1.01 * p.c_crit))
    profile = oracle.integrate_profile(curve, x_max=40.0, step=1e-3)
    oracle_sup = profile.v[0] > 0 and profile.energy_max < 1e-10

    ok = solver_sub and oracle_sub and sup_report.converged and oracle_sup
    record_criterion(
        4,
        "both routes refuse c_s = 0.99 c_crit and succeed at c_s = 1.01 c_crit",
        ok,
        f"supersonic solve {sup_report.iterations} it, oracle energy {profile.energy_max:.1e}",
    )
    assert ok


def test_criterion_5_algebraic_identities(elevation_params, elevation_solution, elevation_curve):
    state, _ = elevation_solution
    zeta_alg = oracle.reconstruct_zeta(elevation_curve, state.v)
    rz = float(np.max(np.abs(state.zeta - zeta_alg))) / float(np.max(np.abs(state.zeta)))
    u_alg = elevation_params.beta * np.asarray(elevation_curve.G_prime(state.v))
    ru = float(np.max(np.abs(state.u - u_alg))) / float(np.max(np.abs(state.u)))
    ok = rz <= 1e-10 and ru <= 1e-8
    record_criterion(
        5,
        "converged state satisfies the interface and velocity reconstruction identities",
        ok,
        f"zeta identity {rz:.2e} (<=1e-10), u identity {ru:.2e} (<=1e-8)",
    )
    assert ok


def test_criterion_6_monotone_amplitude_and_power_fit(elevation_params, default_grid):
    offsets = np.linspace(0.01, 0.3, 10)
    speeds = elevation_params.c_crit + offsets
    amps = []
    for speed in speeds:
        state, _ = solver.solve(
            default_grid,
            elevation_params,
            SolverConfig(speed=float(speed), tol_residual=1e-10),
        )
        amps.append(analysis.amplitude(state))
    amps = np.asarray(amps)
    monotone = all(np.all(np.diff(amps[:, i]) > 0) for i in range(3))
    fit = analysis.fit_speed_amplitude(list(zip(speeds, amps[:, 0])))
    b = fit.coefficients["B"]
    ok = monotone and fit.r_squared >= 0.9999 and 1.5 <= b <= 4.5
    record_criterion(
        6,
        "amplitudes increase strictly with speed; power fit passes its quality gates",
        ok,
        f"R^2 {fit.r_squared:.6f}, B {b:.3f}, A {fit.coefficients['A']:.3f}, C {fit.coefficients['C']:.3f}",
    )
    assert ok


def test_criterion_7_decay_fits(
    elevation_params, default_grid, elevation_solution, elevation_curve, elevation_oracle_profile
):
    state, _ = elevation_solution
    x = default_grid.nodes
    mask = x > 0
    sw = analysis.default_space_window(x[mask], state.zeta[mask], default_grid.half_length)
    space_fit = analysis.fit_decay_space(x[mask], state.zeta[mask], sw)
    kp, mags = analysis.spectrum_magnitudes(default_grid, state.zeta)
    kw = analysis.default_spectrum_window(kp, mags)
    spec_fit = analysis.fit_decay_spectrum(kp, mags, kw)

    xs = np.linspace(30.0, 50.0, 200)
    slope = float(np.polyfit(xs, np.log(np.abs(elevation_oracle_profile.sample_v(xs))), 1)[0])
    target = -elevation_curve.saddle_rate
    slope_ok = abs(slope - target) <= 0.02 * abs(target)

    ok = (
        space_fit.coefficients["c"] < 0
        and space_fit.r_squared >= 0.999
        and spec_fit.coefficients["c"] < 0
        and spec_fit.r_squared >= 0.999
        and slope_ok
    )
    record_criterion(
        7,
        "spatial and spectral decay fits are exponential; oracle decay matches the saddle rate",
        ok,
        f"space c {space_fit.coefficients['c']:.3f} R^2 {space_fit.r_squared:.5f}; "
        f"spectrum c {spec_fit.coefficients['c']:.3f} R^2 {spec_fit.r_squared:.5f}; "
        f"slope {slope:.6f} vs {target:.6f}",
    )
    assert ok


def test_criterion_8_fit_recovery_oracles():
    x = np.linspace(5.0, 40.0, 80)
    space = analysis.fit_decay_space(x, 2.8176 * x**0.0114 * np.exp(-0.5323 * x), (5.0, 40.0))
    k = np.linspace(1.0, 60.0, 120)
    spec = analysis.fit_decay_spectrum(k, 1261.4 * k**-0.1728 * np.exp(-0.1023 * k), (1.0, 60.0))
    speeds = np.linspace(0.65, 1.2, 12)
    power = analysis.fit_speed_amplitude(list(zip(speeds, 18.0 * speeds**2.75 - 4.626)))

    def rel(got, want):
        return abs(got - want) / abs(want)

    errs = [
        rel(space.coefficients["a"], 2.8176),
        rel(space.coefficients["b"], 0.0114),
        rel(space.coefficients["c"], -0.5323),
        rel(spec.coefficients["a"], 1261.4),
        rel(spec.coefficients["b"], -0.1728),
        rel(spec.coefficients["c"], -0.1023),
        rel(power.coefficients["A"], 18.0),
        rel(power.coefficients["B"], 2.75),
        rel(power.coefficients["C"], -4.626),
    ]
    ok = max(errs) <= 1e-6
    record_criterion(
        8,
        "noiseless synthetic data from the reference coefficient sets is recovered",
        ok,
        f"worst relative error {max(errs):.2e}",
    )
    assert ok


def test_criterion_9_linear_theory(elevation_params):
    symbols = DispersionSymbols(elevation_params)
    grid = SpectralGrid(half_length=30.0, n=256)
    rng = np.random.default_rng(101)
    zeta0 = rng.standard_normal(grid.n)
    u0 = rng.standard_normal(grid.n)
    before = mode_energy(symbols, grid, zeta0, u0)
    zeta, u = evolve_linear(symbols, grid, zeta0, u0, 5.0)
    after = mode_energy(symbols, grid, zeta, u)
    conservation = float(np.max(np.abs(after - before) / np.max(before)))

    group = 0.0
    for k in (0.5, 2.0, 11.0):
        prod = propagator(symbols, k, 1.3) @ propagator(symbols, k, 2.9)
        direct = propagator(symbols, k, 4.2)
        group = max(group, float(np.max(np.abs(prod - direct))))

    orders_ok = all(
        sigma_order(DispersionSymbols(make_parameters(g, d))) == (-1, 1, 0)
        for g, d in [(0.5, 0.8), (0.1, 0.3), (0.9, 2.0), (0.0, 1.0), (0.5, 0.5)]
    )
    ok = conservation < 1e-12 and group < 1e-11 and orders_ok
    record_criterion(
        9,
        "per-mode invariant conserved, propagator group property, sigma order (-1, 1, 0)",
        ok,
        f"conservation {conservation:.2e}, group {group:.2e}",
    )
    assert ok


def test_criterion_10_property_suite(elevation_params, default_grid):
    rng = np.random.default_rng(202)
    g = SpectralGrid(half_length=12.0, n=128)
    f = rng.standard_normal(g.n)
    fft_rt = float(np.max(np.abs(np.fft.ifft(np.fft.fft(f)).real - f)))
    fft_ok = fft_rt <= 1e-13 * np.max(np.abs(f))

    h = rng.standard_normal(g.n)
    helm_rt = float(
        np.max(np.abs(helmholtz_solve(g, elevation_params, helmholtz_apply(g, elevation_params, h)) - h))
    )
    helm_ok = helm_rt <= 1e-13 * np.max(np.abs(h))

    cs = elevation_params.c_crit + REF_OFFSET
    seed_state = solver.auto_initial_guess(default_grid, elevation_params, cs)
    m_base = solver.stabilizing_factor(default_grid, elevation_params, cs, seed_state)
    alpha = 3.7
    scaled = WaveState.from_zeta_v(
        default_grid, elevation_params, alpha * seed_state.zeta, alpha * seed_state.v
    )
    m_scaled = solver.stabilizing_factor(default_grid, elevation_params, cs, scaled)
    homog = abs(m_scaled - m_base / alpha) / abs(m_base / alpha)
    homog_ok = homog <= 1e-12

    state, _ = solver.solve(
        default_grid, elevation_params, SolverConfig(speed=cs, tol_residual=1e-10)
    )
    evenness = max(
        float(np.max(np.abs(c[1:] - c[:0:-1]))) / float(np.max(np.abs(c)))
        for c in (state.zeta, state.v, state.u)
    )
    even_ok = evenness <= 1e-10

    m = rng.standard_normal((6, 6))
    m *= 0.9 / np.max(np.abs(np.linalg.eigvals(m)))
    b = rng.standard_normal(6)
    fix = np.linalg.solve(np.eye(6) - m, b)
    x = rng.standard_normal(6)
    hist = [x.copy()]
    for _ in range(7):
        x = m @ x + b
        hist.append(x.copy())
    mpe_err = float(np.max(np.abs(extrapolate(hist, 6) - fix)))
    mpe_ok = mpe_err <= 1e-10

    ok = fft_ok and helm_ok and homog_ok and even_ok and mpe_ok
    record_criterion(
        10,
        "round-trip, homogeneity, evenness, and extrapolation property gates",
        ok,
        f"fft {fft_rt:.1e}, helmholtz {helm_rt:.1e}, homogeneity {homog:.1e}, "
        f"evenness {evenness:.1e}, mpe {mpe_err:.1e}",
    )
    assert ok


def test_criterion_11_time_dependent_steadiness(elevation_params, depression_params, default_grid):
    # the oracle-seeded waves, evolved by the time-dependent system in the frame moving at c_s, stay put
    def shape_error(params, speed, state, dt):
        end = evolve(params, state, speed, 20.0, dt)
        return max(float(np.max(np.abs(a - b)) / np.max(np.abs(b)))
                   for a, b in ((end.zeta, state.zeta), (end.v, state.v)))

    rows = []
    for label, params in (("elevation", elevation_params), ("depression", depression_params)):
        speed = params.c_crit + REF_OFFSET
        state, report = solver.solve(default_grid, params, SolverConfig(speed=speed))
        assert report.seed == "oracle"
        coarse, fine = (shape_error(params, speed, state, dt) for dt in (0.1, 0.05))
        scaled = WaveState.from_zeta_v(default_grid, params, 1.001 * state.zeta, 1.001 * state.v)
        drift = shape_error(params, speed, scaled, 0.05)
        rows.append((label, fine, coarse / fine, drift))
    ok = all(fine <= 1e-9 and ratio >= 10.0 and drift >= 1e-5 for _, fine, ratio, drift in rows)
    record_criterion(
        11,
        "the oracle-seeded waves are steady under the time-dependent system (integrating-factor RK4, T = 20)",
        ok,
        ", ".join(f"{label} {fine:.1e} at dt 0.05, ratio {ratio:.1f}, 1.001x drift {drift:.1e}"
                  for label, fine, ratio, drift in rows),
    )
    assert ok
