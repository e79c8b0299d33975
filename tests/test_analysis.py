import numpy as np
import pytest

from tlwaves import analysis, solver
from tlwaves.analysis import (
    FitResult,
    amplitude,
    amplitude_vs_k_study,
    default_space_window,
    default_spectrum_window,
    fit_decay_space,
    fit_decay_spectrum,
    fit_speed_amplitude,
    phase_portrait,
    spectrum_magnitudes,
)
from tlwaves.errors import InsufficientDataError, NoBracketError, SignChangeError
from tlwaves.grid import SpectralGrid
from tlwaves.solver import SolverConfig, WaveState

# the study replaces the speed of this configuration with each wave's own
STUDY_CONFIG = SolverConfig(speed=1.0)


def test_amplitude_zero_state(elevation_params):
    g = SpectralGrid(half_length=10.0, n=64)
    state = WaveState.from_zeta_v(g, elevation_params, np.zeros(g.n), np.zeros(g.n))
    assert amplitude(state) == (0.0, 0.0, 0.0)


def test_amplitude_negation_symmetry(elevation_params):
    g = SpectralGrid(half_length=10.0, n=64)
    rng = np.random.default_rng(2)
    zeta = rng.standard_normal(g.n)
    v = rng.standard_normal(g.n)
    state = WaveState.from_zeta_v(g, elevation_params, zeta, v)
    flipped = WaveState.from_zeta_v(g, elevation_params, -zeta, -v)
    assert amplitude(flipped) == tuple(-a for a in amplitude(state))


def test_amplitude_elevation_all_positive(elevation_solution):
    state, _ = elevation_solution
    z, v, u = amplitude(state)
    assert z > 0 and v > 0 and u > 0


def test_amplitude_depression_all_negative(depression_solution):
    state, _ = depression_solution
    z, v, u = amplitude(state)
    assert z < 0 and v < 0 and u < 0


def test_power_fit_recovers_reference_triple():
    speeds = np.linspace(0.65, 1.2, 12)
    data = 18.0 * speeds**2.75 - 4.626
    fit = fit_speed_amplitude(list(zip(speeds, data)))
    assert fit.coefficients["A"] == pytest.approx(18.0, rel=1e-6)
    assert fit.coefficients["B"] == pytest.approx(2.75, rel=1e-6)
    assert fit.coefficients["C"] == pytest.approx(-4.626, rel=1e-6)
    assert fit.r_squared > 1 - 1e-12


def test_power_fit_linear_data():
    speeds = np.linspace(0.7, 1.5, 8)
    data = 3.0 * speeds + 0.5
    fit = fit_speed_amplitude(list(zip(speeds, data)))
    assert fit.coefficients["B"] == pytest.approx(1.0, abs=1e-8)


def test_power_fit_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_speed_amplitude([(0.7, 1.0), (0.8, 2.0), (0.9, 3.0)])


@pytest.mark.parametrize("speeds", [(0.7, 0.7, 0.7, 0.7), (0.7, 0.7, 0.9, 0.9), (0.7, 0.8, 0.9, 0.9, 0.8, 0.7)],
                         ids=["one", "two", "three"])
def test_power_fit_needs_4_distinct_speeds(speeds):
    # three parameters fit the means at fewer distinct speeds exactly, with R^2 = 1
    with pytest.raises(InsufficientDataError, match="4 distinct speeds"):
        fit_speed_amplitude([(cs, 2.0 * cs**2 + 0.01 * i) for i, cs in enumerate(speeds)])


def test_power_fit_no_bracket():
    speeds = np.linspace(1.1, 2.0, 10)
    data = speeds**9.0
    with pytest.raises(NoBracketError):
        fit_speed_amplitude(list(zip(speeds, data)))


def test_decay_fit_exact_recovery_space():
    x = np.linspace(5.0, 40.0, 80)
    y = 2.8176 * x**0.0114 * np.exp(-0.5323 * x)
    fit = fit_decay_space(x, y, window=(5.0, 40.0))
    assert fit.coefficients["a"] == pytest.approx(2.8176, rel=1e-10)
    assert fit.coefficients["b"] == pytest.approx(0.0114, rel=1e-10)
    assert fit.coefficients["c"] == pytest.approx(-0.5323, rel=1e-10)
    assert fit.sse < 1e-20


def test_decay_fit_pure_exponential():
    x = np.linspace(1.0, 20.0, 60)
    fit = fit_decay_space(x, np.exp(-x), window=(1.0, 20.0))
    assert fit.coefficients["a"] == pytest.approx(1.0, abs=1e-12)
    assert fit.coefficients["b"] == pytest.approx(0.0, abs=1e-12)
    assert fit.coefficients["c"] == pytest.approx(-1.0, abs=1e-12)


def test_decay_fit_negative_data_keeps_goodness():
    x = np.linspace(2.0, 30.0, 50)
    y = -1.7 * x**0.2 * np.exp(-0.4 * x)
    fit = fit_decay_space(x, y, window=(2.0, 30.0))
    assert fit.coefficients["a"] == pytest.approx(1.7, rel=1e-10)
    assert fit.r_squared > 1 - 1e-12


def test_decay_fit_spectrum_recovery():
    k = np.linspace(1.0, 60.0, 120)
    mags = 1261.4 * k**-0.1728 * np.exp(-0.1023 * k)
    fit = fit_decay_spectrum(k, mags, window=(1.0, 60.0))
    assert fit.coefficients["a"] == pytest.approx(1261.4, rel=1e-10)
    assert fit.coefficients["b"] == pytest.approx(-0.1728, rel=1e-10)
    assert fit.coefficients["c"] == pytest.approx(-0.1023, rel=1e-10)


def test_decay_fit_flat_spectrum():
    k = np.linspace(1.0, 10.0, 30)
    fit = fit_decay_spectrum(k, np.full(30, 4.0), window=(1.0, 10.0))
    assert fit.coefficients["b"] == pytest.approx(0.0, abs=1e-13)
    assert fit.coefficients["c"] == pytest.approx(0.0, abs=1e-13)
    assert fit.r_squared == 1.0


def test_decay_fit_sign_change_rejected():
    x = np.linspace(1.0, 10.0, 40)
    y = np.exp(-x) * np.sin(x)
    with pytest.raises(SignChangeError):
        fit_decay_space(x, y, window=(1.0, 10.0))


def test_decay_fit_insufficient_points():
    with pytest.raises(InsufficientDataError):
        fit_decay_space(np.array([1.0, 2.0]), np.array([1.0, 0.5]), window=(1.0, 2.0))


def test_solver_profile_space_decay(elevation_solution, default_grid):
    state, _ = elevation_solution
    x = default_grid.nodes
    mask = x > 0
    window = default_space_window(x[mask], state.zeta[mask], default_grid.half_length)
    fit = fit_decay_space(x[mask], state.zeta[mask], window)
    assert fit.coefficients["c"] < 0.0
    assert fit.r_squared >= 0.999


def test_default_fit_windows_are_robust_to_round_off(elevation_solution, default_grid):
    # a perturbation of 1e-15 of the peak, the size of the solver's round-off, must not
    # move the fitted exponents beyond 1e-8 relative
    state, _ = elevation_solution
    x = default_grid.nodes
    mask = x > 0
    noise = np.random.default_rng(3).standard_normal(default_grid.n)
    perturbed = state.zeta + 1e-15 * np.max(np.abs(state.zeta)) * noise / np.max(np.abs(noise))

    def fits(zeta):
        window = default_space_window(x[mask], zeta[mask], default_grid.half_length)
        kp, mags = spectrum_magnitudes(default_grid, zeta)
        spectral_window = default_spectrum_window(kp, mags)
        return fit_decay_space(x[mask], zeta[mask], window), fit_decay_spectrum(kp, mags, spectral_window)

    for fit, moved in zip(fits(state.zeta), fits(perturbed)):
        for name in ("b", "c"):
            assert moved.coefficients[name] == pytest.approx(fit.coefficients[name], rel=1e-8, abs=0.0)


def test_solver_profile_spectrum_decay(elevation_solution, default_grid):
    state, _ = elevation_solution
    kp, mags = spectrum_magnitudes(default_grid, state.zeta)
    window = default_spectrum_window(kp, mags)
    fit = fit_decay_spectrum(kp, mags, window)
    assert fit.coefficients["c"] < 0.0
    assert fit.r_squared >= 0.999


def test_amplitude_vs_k_study(default_grid):
    # at fixed speed offset the amplitude scales like 1/K: signed amplitude
    # shares the sign of K, and the magnitude grows as |K| shrinks on
    # either branch (cross-checked against the ODE oracle turning points)
    columns, skipped = amplitude_vs_k_study(0.5, [0.55, 0.6, 0.8, 0.9, 1.0], 0.05, default_grid, STUDY_CONFIG,
                                            solver.solve)
    assert list(columns) == ["k_coeff", "zeta_max", "delta"]
    assert skipped == []
    ks = columns["k_coeff"]
    amps = columns["zeta_max"]
    assert ks.size == 5
    assert np.all(np.diff(ks) > 0)
    assert np.all(np.sign(amps) == np.sign(ks))
    depression = ks < 0
    elevation = ks > 0
    assert np.all(np.diff(np.abs(amps[depression])) > 0)  # |amp| grows toward K -> 0-
    assert np.all(np.diff(np.abs(amps[elevation])) < 0)  # and shrinks away from K -> 0+
    assert np.all(np.abs(amps * ks) < 0.2)
    assert np.all(np.abs(amps * ks) > 0.05)


def test_amplitude_vs_k_single_point(default_grid):
    columns, _ = amplitude_vs_k_study(0.5, [0.8], 0.05, default_grid, STUDY_CONFIG, solver.solve)
    assert columns["k_coeff"].size == 1
    assert columns["k_coeff"][0] > 0
    assert columns["delta"].tolist() == [0.8]


def test_amplitude_vs_k_includes_depression(default_grid):
    columns, _ = amplitude_vs_k_study(0.5, [0.8, 0.5], 0.05, default_grid, STUDY_CONFIG, solver.solve)
    ks = columns["k_coeff"]
    amps = columns["zeta_max"]
    assert columns["delta"].tolist() == [0.5, 0.8]  # the rows ascend in k_coeff, whatever the order of the deltas
    assert ks[0] < 0 < ks[1]
    assert amps[0] < 0 < amps[1]


def test_amplitude_vs_k_records_failures(default_grid):
    columns, skipped = amplitude_vs_k_study(0.25, [0.5, 0.8], 0.05, default_grid, STUDY_CONFIG, solver.solve)
    assert columns["delta"].tolist() == [0.8]
    assert len(skipped) == 1
    assert skipped[0][0] == 0.5  # the degenerate depth ratio


def test_phase_portrait_zero_state(elevation_params):
    g = SpectralGrid(half_length=10.0, n=64)
    state = WaveState.from_zeta_v(g, elevation_params, np.zeros(g.n), np.zeros(g.n))
    portrait = phase_portrait(state.v, g)
    assert list(portrait) == ["v", "v_prime"]
    assert portrait["v_prime"].shape == (g.n,)
    assert np.all(portrait["v"] == 0.0) and np.all(portrait["v_prime"] == 0.0)


def test_phase_portrait_symmetry_and_peak(elevation_solution, elevation_curve, default_grid):
    state, _ = elevation_solution
    portrait = phase_portrait(state.v, default_grid)
    v, vp = portrait["v"], portrait["v_prime"]
    assert v.max() == pytest.approx(elevation_curve.turning_point, abs=1e-6)
    # even profile: mirrored nodes carry opposite slopes
    assert np.max(np.abs(v[1:] - v[:0:-1])) <= 1e-8
    assert np.max(np.abs(vp[1:] + vp[:0:-1])) <= 1e-8


def test_phase_portrait_zero_energy(elevation_solution, elevation_curve, default_grid):
    state, _ = elevation_solution
    portrait = phase_portrait(state.v, default_grid)
    energy = 0.5 * portrait["v_prime"] ** 2 + np.asarray(elevation_curve.U(portrait["v"]))
    assert np.max(np.abs(energy)) <= 1e-6


def test_fit_result_serialization():
    fit = FitResult(
        model="power_plus_constant",
        coefficients={"A": 1.0, "B": 2.0, "C": 3.0},
        sse=0.5,
        r_squared=0.99,
        rmse=0.1,
        window=(0.6, 1.0),
    )
    payload = fit.to_dict()
    assert payload["coefficients"]["B"] == 2.0
    assert payload["window"] == [0.6, 1.0]
