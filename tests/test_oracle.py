import math

import numpy as np
import pytest

from tlwaves import oracle, solver
from tlwaves.errors import (NoSolitaryWaveError, ParameterDomainError, PoleProximityError, StepSizeTooLargeError,
                            WaveError)
from tlwaves.grid import SpectralGrid
from tlwaves.params import make_parameters


@pytest.fixture(scope="module")
def elev_curve():
    p = make_parameters(0.5, 0.8)
    return oracle.potential(oracle.TravelingWaveProblem(params=p, speed=p.c_crit + 0.05))


@pytest.fixture(scope="module")
def depr_curve():
    p = make_parameters(0.5, 0.5)
    return oracle.potential(oracle.TravelingWaveProblem(params=p, speed=p.c_crit + 0.05))


@pytest.fixture(scope="module")
def elev_profile(elev_curve):
    return oracle.integrate_profile(elev_curve, x_max=60.0, step=1e-3)


@pytest.mark.parametrize("speed", [0.0, math.inf, -math.inf, math.nan], ids=["zero", "inf", "-inf", "nan"])
def test_potential_refuses_a_speed_with_the_error_of_solve(speed):
    # one check, params.require_solitary_wave, for the oracle and the solver
    p = make_parameters(0.5, 0.8)
    problem = oracle.TravelingWaveProblem(params=p, speed=speed)
    with pytest.raises(WaveError) as refused:
        oracle.potential(problem)
    with pytest.raises(WaveError) as solved:
        solver.solve(SpectralGrid(half_length=64.0, n=512), p, solver.SolverConfig(speed=speed))
    assert type(refused.value) is type(solved.value) is (NoSolitaryWaveError if speed == 0.0 else ParameterDomainError)
    assert str(refused.value) == str(solved.value)


def test_turning_point_elevation(elev_curve):
    vstar = elev_curve.turning_point
    assert vstar > 0.0
    assert 0.0 < vstar < elev_curve.v_pole
    assert abs(elev_curve.U(vstar)) < 1e-14
    # potential is strictly negative between the saddle and the turning point
    inner = np.linspace(1e-6, vstar * (1 - 1e-9), 500)
    assert np.all(elev_curve.U(inner) < 0.0)


def test_turning_point_depression(depr_curve):
    assert depr_curve.turning_point < 0.0
    assert abs(depr_curve.U(depr_curve.turning_point)) < 1e-14


def test_no_wave_below_critical_speed():
    p = make_parameters(0.5, 0.8)
    with pytest.raises(NoSolitaryWaveError):
        oracle.potential(oracle.TravelingWaveProblem(params=p, speed=0.9 * p.c_crit))


def test_no_wave_for_degenerate_nonlinearity():
    p = make_parameters(0.25, 0.5)
    with pytest.raises(NoSolitaryWaveError):
        oracle.potential(oracle.TravelingWaveProblem(params=p, speed=2.0))


def test_existence_boundary_is_sharp():
    p = make_parameters(0.5, 0.8)
    with pytest.raises(NoSolitaryWaveError):
        oracle.potential(oracle.TravelingWaveProblem(params=p, speed=0.99 * p.c_crit))
    curve = oracle.potential(oracle.TravelingWaveProblem(params=p, speed=1.01 * p.c_crit))
    assert curve.turning_point > 0.0


def test_saddle_curvature_matches_finite_differences(elev_curve):
    p = elev_curve.problem.params
    cs = elev_curve.problem.speed
    expected = -(cs**2 - p.c_crit**2) / (p.beta * cs**2)
    h = 1e-4
    second_diff = (elev_curve.U(h) - 2.0 * elev_curve.U(0.0) + elev_curve.U(-h)) / h**2
    assert second_diff == pytest.approx(expected, rel=1e-6)


def test_potential_series_matches_closed_form(elev_curve):
    # both branches of U agree with the closed form where they meet
    p = elev_curve.problem.params
    beta, K, cs = p.beta, p.k_coeff, elev_curve.problem.speed
    for val in (1.1e-3 * elev_curve.v_pole, 0.9e-3 * elev_curve.v_pole):  # just outside and just inside the cutoff
        # G = int_0^v G' = K v^3 / (6 beta c_s) + c_crit^2 / (beta c_s) (-v / K - c_s / K^2 log(1 - K v / c_s))
        log_term = -val / K - cs / K**2 * math.log1p(-K * val / cs)
        G = K * val**3 / (6 * beta * cs) + p.c_crit**2 / (beta * cs) * log_term
        direct = -val**2 / (2 * beta) + G
        assert elev_curve.U(val) == pytest.approx(direct, rel=1e-10, abs=1e-18)


def _where_G_U(curve, v):
    """G and U with both branches evaluated on every sample and selected by np.where."""
    p = curve.problem.params
    cs = abs(curve.problem.speed)
    K, pole = p.k_coeff, curve.v_pole
    c2 = p.c_crit**2 / (p.beta * cs * K)
    v = np.asarray(v, dtype=float)
    r = v / pole
    small = np.abs(r) < oracle._SERIES_CUTOFF
    with np.errstate(invalid="ignore"):
        s_exact = -v - pole * np.log1p(-r)
    s_series = pole * (r * r * (1 / 2 + r * (1 / 3 + r * (1 / 4 + r * (1 / 5 + r * (1 / 6 + r / 7))))))
    G = K * (v * v * v) / (6.0 * p.beta * cs) + c2 * np.where(small, s_series, s_exact)
    u_exact = -v * v / (2.0 * p.beta) + G
    cubic = K / (6.0 * p.beta * cs) + c2 / (3.0 * pole**2)
    tail = c2 * ((r * r) * (r * r) * (1 / 4 + r * (1 / 5 + r * (1 / 6 + r / 7)))) * pole
    u_series = -0.5 * curve.saddle_rate**2 * v * v + cubic * (v * v * v) + tail
    return G, np.where(small, u_series, u_exact)


@pytest.mark.parametrize("curve_name", ["elev_curve", "depr_curve"])
def test_potential_branches_match_where_formulation(request, curve_name):
    # U evaluates each branch only on its own samples; the values are the bits of np.where over both
    curve = request.getfixturevalue(curve_name)
    vstar = curve.turning_point
    v = vstar * np.logspace(-7, 0, 4001)  # from 1e-7 v* to the turning point, across the series cutoff
    assert np.any(np.abs(v / curve.v_pole) < oracle._SERIES_CUTOFF)
    assert np.any(np.abs(v / curve.v_pole) >= oracle._SERIES_CUTOFF)
    _, U = _where_G_U(curve, v)
    assert curve.U(v).tobytes() == U.tobytes()
    for k in range(0, v.size, 97):
        got_U = curve.U(v[k])
        assert isinstance(got_U, float) and got_U == U[k]
    # arrays wholly in one branch: the series below the cutoff, the closed form above it
    below = np.abs(v / curve.v_pole) < oracle._SERIES_CUTOFF
    for part in (v[below], v[~below]):
        assert part.size > 1
        assert curve.U(part).tobytes() == _where_G_U(curve, part)[1].tobytes()


def test_profile_initial_conditions(elev_curve, elev_profile):
    assert elev_profile.x[0] == 0.0
    assert elev_profile.v[0] == pytest.approx(elev_curve.turning_point, abs=1e-12)
    assert elev_profile.v_prime[0] == 0.0


@pytest.mark.parametrize("x_max, step", [(2 * oracle._BLOCK * 1e-3, 1e-3), (0.05, 0.01)],
                         ids=["last-block-of-one-node", "few-nodes"])
def test_a_full_profile_keeps_every_node(elev_curve, x_max, step):
    # without samples every node is kept: n + 1 of them, strictly increasing from the crest at x = 0
    prof = oracle.integrate_profile(elev_curve, x_max=x_max, step=step)
    n = int(x_max / step) + 1
    for name in ("x", "v", "v_prime", "v_second", "v_third"):
        assert getattr(prof, name).shape == (n + 1,), name
    assert prof.x[0] == 0.0 and np.all(np.diff(prof.x) > 0.0)
    assert prof.x[-1] >= x_max


@pytest.mark.parametrize("delta", [0.8, 0.5], ids=["elevation", "depression"])
@pytest.mark.parametrize("x_max, step", [(1e-6, 1e-6), (1e-5, 1e-6), (1e-5, 1e-7)])
def test_a_profile_within_a_hair_of_the_crest(delta, x_max, step):
    # every z-panel point of the coarse map lies within ~1e-6 of the crest, where U's closed form cancels
    p = make_parameters(0.5, delta)
    curve = oracle.potential(oracle.TravelingWaveProblem(params=p, speed=p.c_crit + 0.05))
    prof = oracle.integrate_profile(curve, x_max=x_max, step=step)
    assert prof.x.size == int(x_max / step) + 2
    assert prof.x[0] == 0.0 and prof.v[0] == curve.turning_point and prof.v_prime[0] == 0.0
    assert np.all(np.diff(prof.x) > 0.0) and prof.x[-1] >= x_max
    assert np.all(np.diff(np.abs(prof.v)) < 0.0)
    assert prof.energy_max <= 1e-14


def test_profile_decay_and_energy(elev_profile):
    assert abs(elev_profile.sample_v(60.0)) < 1e-8
    assert elev_profile.energy_max < 1e-10


def test_profile_strictly_decreasing(elev_profile):
    mags = np.abs(elev_profile.v)
    assert np.all(np.diff(mags) < 0.0)


def test_profile_decay_rate(elev_curve, elev_profile):
    xs = np.linspace(30.0, 50.0, 200)
    slope = np.polyfit(xs, np.log(np.abs(elev_profile.sample_v(xs))), 1)[0]
    assert slope == pytest.approx(-elev_curve.saddle_rate, rel=0.01)


def test_profile_even_extension_satisfies_ode(elev_curve, elev_profile):
    h = 0.01
    xs = np.arange(-40.0, 40.0 + h / 2, h)
    v = elev_profile.sample_v(xs)
    second = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
    residual = second - np.asarray(elev_curve.ode_rhs(v[1:-1]))
    assert np.max(np.abs(residual)) < 1e-5


def test_profile_tail_where_v_squared_underflows():
    # lambda * x_max = 551: far out -2U(v) = v'^2 underflows, and there v'/v = -lambda to round-off
    p = make_parameters(0.5, 0.8)
    curve = oracle.potential(oracle.TravelingWaveProblem(params=p, speed=p.c_crit + 0.3))
    prof = oracle.integrate_profile(curve, x_max=500.0, step=2e-3)
    assert prof.x[-1] > 500.0 and np.all(np.diff(prof.x) > 0.0)
    assert np.all(np.diff(prof.v) < 0.0) and prof.v[-1] < 1e-200
    far = prof.x > 400.0
    assert np.max(np.abs(prof.v_prime[far] / prof.v[far] + curve.saddle_rate)) < 1e-12
    slope = np.polyfit(prof.x[far], np.log(prof.v[far]), 1)[0]
    assert slope == pytest.approx(-curve.saddle_rate, rel=1e-9)


def test_step_size_monitor():
    p = make_parameters(0.5, 0.8)
    curve = oracle.potential(oracle.TravelingWaveProblem(params=p, speed=p.c_crit + 0.3))
    with pytest.raises(StepSizeTooLargeError):
        oracle.integrate_profile(curve, x_max=30.0, step=0.05)


def test_reconstruct_zeta_basics(elev_curve):
    assert oracle.reconstruct_zeta(elev_curve, 0.0) == 0.0
    v = 1e-6 * elev_curve.v_pole
    p = elev_curve.problem.params
    linearized = v / (elev_curve.problem.speed * (p.gamma + p.delta))
    assert oracle.reconstruct_zeta(elev_curve, v) == pytest.approx(linearized, rel=1e-4)
    with pytest.raises(PoleProximityError):
        oracle.reconstruct_zeta(elev_curve, elev_curve.v_pole * (1 - 1e-14))


def test_reconstruct_zeta_sign(elev_curve, depr_curve):
    assert oracle.reconstruct_zeta(elev_curve, elev_curve.turning_point) > 0.0
    assert oracle.reconstruct_zeta(depr_curve, depr_curve.turning_point) < 0.0


def test_reconstruct_u_basics(elev_curve):
    assert oracle.reconstruct_u(elev_curve, 0.0) == 0.0
    assert oracle.reconstruct_u(elev_curve, elev_curve.turning_point) > 0.0


def test_reconstruct_u_consistent_with_trajectory(elev_curve, elev_profile):
    # u = v - beta v'' along the orbit, with v'' from the three-point second difference
    # on the stored nodes, which are spaced by the step up to ~1e-7 of it
    x = elev_profile.x
    v = elev_profile.v
    h0, h1 = x[1:-1] - x[:-2], x[2:] - x[1:-1]
    second = 2.0 * ((v[2:] - v[1:-1]) / h1 - (v[1:-1] - v[:-2]) / h0) / (h0 + h1)
    beta = elev_curve.problem.params.beta
    u = oracle.reconstruct_u(elev_curve, v[1:-1])
    assert np.max(np.abs(u - v[1:-1] + beta * second)) < 1e-8


def test_turning_point_monotone_in_speed():
    p = make_parameters(0.5, 0.8)
    offsets = [0.02, 0.05, 0.1, 0.2, 0.3]
    vstars = []
    for off in offsets:
        curve = oracle.potential(oracle.TravelingWaveProblem(params=p, speed=p.c_crit + off))
        vstars.append(curve.turning_point)
    assert np.all(np.diff(vstars) > 0.0)


def test_negative_speed_sign_map():
    # a -c_s problem keeps its speed, and its curve is the +c_s one bit for bit
    for delta in (0.8, 0.5):
        p = make_parameters(0.5, delta)
        speed = p.c_crit + 0.05
        pos = oracle.potential(oracle.TravelingWaveProblem(params=p, speed=speed))
        neg = oracle.potential(oracle.TravelingWaveProblem(params=p, speed=-speed))
        assert neg.problem.speed == -speed
        assert (neg.v_pole, neg.turning_point, neg.saddle_rate) == (pos.v_pole, pos.turning_point, pos.saddle_rate)
        assert (neg.cs, neg.c2, neg.cubic) == (pos.cs, pos.c2, pos.cubic)
    # the left-moving wave is the map's image: the interface deviation is unchanged, velocities flip
    zeta, v, u = oracle.negative_speed_map(1.5, 2.0, 3.0)
    assert (zeta, v, u) == (1.5, -2.0, -3.0)


def test_profile_negative_speed():
    # the -c_s profile is the +c_s one bit for bit, and so are its samples and reconstructions
    xs = np.linspace(-25.0, 25.0, 401)
    for delta in (0.8, 0.5):
        p = make_parameters(0.5, delta)
        speed = p.c_crit + 0.05
        pos, neg = (oracle.potential(oracle.TravelingWaveProblem(params=p, speed=s)) for s in (speed, -speed))
        prof_pos = oracle.integrate_profile(pos, x_max=20.0, step=1e-3)
        prof_neg = oracle.integrate_profile(neg, x_max=20.0, step=1e-3)
        for name in ("x", "v", "v_prime", "v_second", "v_third"):
            assert getattr(prof_neg, name).tobytes() == getattr(prof_pos, name).tobytes(), name
        assert prof_neg.energy_max == prof_pos.energy_max
        assert prof_neg.sample_v(xs).tobytes() == prof_pos.sample_v(xs).tobytes()
        assert prof_neg.sample_v_prime(xs).tobytes() == prof_pos.sample_v_prime(xs).tobytes()
        v = prof_pos.v
        assert oracle.reconstruct_zeta(neg, v).tobytes() == oracle.reconstruct_zeta(pos, v).tobytes()
        assert oracle.reconstruct_u(neg, v).tobytes() == oracle.reconstruct_u(pos, v).tobytes()


@pytest.mark.parametrize(
    "gamma, delta, sign",
    [(0.5, 0.8, 1.0), (0.5, 0.5, 1.0), (0.5, 0.8, -1.0), (0.5, 0.5, -1.0)],
    ids=["elevation", "depression", "elevation-negative-speed", "depression-negative-speed"],
)
def test_hermite_sampling_matches_cubic_spline(gamma, delta, sign):
    # the not-a-knot spline of the even/odd mirrored samples is the independent reference
    from scipy.interpolate import CubicSpline

    p = make_parameters(gamma, delta)
    curve = oracle.potential(oracle.TravelingWaveProblem(params=p, speed=sign * (p.c_crit + 0.05)))
    prof = oracle.integrate_profile(curve, x_max=20.0, step=1e-3)
    xm = np.concatenate([-prof.x[:0:-1], prof.x])
    spline_v = CubicSpline(xm, np.concatenate([prof.v[:0:-1], prof.v]))
    spline_vp = CubicSpline(xm, np.concatenate([-prof.v_prime[:0:-1], prof.v_prime]))
    x_end = prof.x[-1]
    midpoints = 0.5 * (prof.x[1:] + prof.x[:-1])
    xq = np.concatenate([midpoints, -midpoints[::7], np.linspace(-30.0, 30.0, 2401)])
    xa = np.abs(xq)
    inside = xa <= x_end
    decay = np.exp(-curve.saddle_rate * (xa - x_end))
    want_v = np.where(inside, spline_v(np.clip(xq, -x_end, x_end)), prof.v[-1] * decay)
    want_vp = np.where(inside, spline_vp(np.clip(xq, -x_end, x_end)), np.sign(xq) * prof.v_prime[-1] * decay)
    scale = np.max(np.abs(prof.v))
    assert np.max(np.abs(prof.sample_v(xq) - want_v)) <= 1e-12 * scale
    assert np.max(np.abs(prof.sample_v_prime(xq) - want_vp)) <= 1e-12 * scale
    # scalars in, floats out; the crest and the odd derivative
    assert isinstance(prof.sample_v(1.5), float)
    assert prof.sample_v(0.0) == prof.v[0]
    assert prof.sample_v_prime(0.0) == 0.0
    assert prof.sample_v_prime(-1.5) == -prof.sample_v_prime(1.5)


def test_sampling_v_prime_reads_the_stored_v_second(elev_curve, monkeypatch):
    # the profile keeps v'' = ode_rhs(v) and v''' = -U''(v) v' from its blocks, so sampling v' evaluates no ODE
    prof = oracle.integrate_profile(elev_curve, x_max=20.0, step=1e-3)
    assert prof.v_second.tobytes() == elev_curve.ode_rhs(prof.v).tobytes()
    assert prof.v_third.tobytes() == (-(elev_curve.U_second(prof.v) * prof.v_prime)).tobytes()
    xs = np.linspace(-25.0, 25.0, 401)
    want = prof.sample_v_prime(xs)

    def evaluated(self, v):
        raise AssertionError("sample_v_prime evaluated the ODE")

    monkeypatch.setattr(oracle.PotentialCurve, "ode_rhs", evaluated)
    assert prof.sample_v_prime(xs).tobytes() == want.tobytes()


def test_the_quintic_interpolant_reproduces_a_quintic():
    # the two-point Taylor form against the polynomial itself, on uneven nodes, at the nodes and between them
    rng = np.random.default_rng(7)
    poly = np.polynomial.Polynomial(rng.normal(size=6))
    x = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, 6)), [3.0]])
    t = np.concatenate([x, np.linspace(0.0, 3.0, 1001)])
    got = oracle._quintic(x, poly(x), poly.deriv()(x), poly.deriv(2)(x), t)
    assert np.max(np.abs(got - poly(t))) <= 1e-13 * np.max(np.abs(poly(t)))
    assert got[: x.size].tobytes() == poly(x).tobytes()


def test_samples_are_the_interpolant_inside_and_the_tail_beyond_bit_for_bit(elev_curve):
    # the one expression over both branches, as the reference: the quintic at |x| clipped to the last node, the
    # tail continuation beyond it
    prof = oracle.integrate_profile(elev_curve, x_max=20.0, step=1e-3)
    x_end = prof.x[-1]
    xq = np.concatenate([np.linspace(-30.0, 30.0, 2001), [x_end, -x_end, np.nextafter(x_end, np.inf), 0.0]])
    xa = np.abs(xq)
    for got, rows, sign in ((prof.sample_v(xq), (prof.v, prof.v_prime, prof.v_second), 1.0),
                            (prof.sample_v_prime(xq), (prof.v_prime, prof.v_second, prof.v_third), np.sign(xq))):
        values = rows[0]
        inside = oracle._quintic(prof.x, *rows, np.clip(xa, 0.0, x_end))
        tail = values[-1] * np.exp(-elev_curve.saddle_rate * (xa - x_end))
        assert got.tobytes() == (sign * np.where(xa <= x_end, inside, tail)).tobytes()


@pytest.mark.parametrize("gamma, delta, sign, x_max, step, dx", [
    (0.5, 0.8, 1.0, 20.0, 1e-3, 0.25),
    (0.5, 0.5, 1.0, 20.0, 1e-3, 0.25),
    (0.5, 0.8, -1.0, 20.0, 1e-3, 0.25),
    (0.5, 0.5, 1.0, 20.0, 1e-3, 0.37),
    (0.5, 0.8, 1.0, 1.3, 1e-3, 0.1),
    (0.5, 0.5, -1.0, oracle._BLOCK * 0.004, 0.004, 0.004),
], ids=["elevation", "depression", "negative-speed", "dx-not-dividing", "below-one-block", "node-on-block-edge"])
def test_a_profile_kept_for_its_samples_samples_them_as_the_full_one(gamma, delta, sign, x_max, step, dx):
    # the kept nodes are the ends of the pieces that hold a sample, and the last two; _BLOCK * 0.004 / 0.004 puts
    # the last node alone in the last block
    p = make_parameters(gamma, delta)
    curve = oracle.potential(oracle.TravelingWaveProblem(params=p, speed=sign * (p.c_crit + 0.05)))
    full = oracle.integrate_profile(curve, x_max=x_max, step=step)
    xs = np.arange(0.0, x_max + 0.5 * dx, dx)
    # out of order: nodes on the block edges and the last two, and abscissae beyond the last node
    extra = np.concatenate([-full.x[:: oracle._BLOCK], full.x[-2:], [full.x[-1] + 1e-9, 1.5 * x_max]])
    # the middle of each block's last piece, whose right end is the next block's first node
    edges = full.x[oracle._BLOCK :: oracle._BLOCK]
    last_pieces = 0.5 * (full.x[oracle._BLOCK - 1 :: oracle._BLOCK][: edges.size] + edges)
    # |x| of grid nodes, which falls to the crest and rises again
    v_shaped = np.abs(SpectralGrid(x_max, 64).nodes)
    for samples in (xs, np.concatenate([xs, extra]), last_pieces, full.x[-1:] * [1.0, 2.0], v_shaped):
        kept = oracle.integrate_profile(curve, x_max=x_max, step=step, samples=samples)
        assert kept.x.size <= 2 * samples.size + 2
        if not (samples < full.x[-1]).any():  # at and beyond the last node: the last two nodes alone
            assert kept.x.tobytes() == full.x[-2:].tobytes()
        assert kept.energy_max == full.energy_max
        for xq in (samples, -samples):
            assert kept.sample_v(xq).tobytes() == full.sample_v(xq).tobytes()
            assert kept.sample_v_prime(xq).tobytes() == full.sample_v_prime(xq).tobytes()


def test_oracle_matches_solver_to_its_tolerance(default_grid, elevation_solution, elevation_oracle_profile):
    # the interpolant adds nothing visible to the solver-vs-oracle gap (8.8e-11 on this configuration)
    state, _ = elevation_solution
    assert np.max(np.abs(state.v - elevation_oracle_profile.sample_v(default_grid.nodes))) <= 1e-10


def test_the_quintic_samples_four_times_the_old_seed_step_to_round_off(default_grid, elevation_curve,
                                                                        elevation_oracle_profile):
    # nodes 0.016 min(1/lambda, dx/dz at the crest) apart, 4x the step the seed took with a cubic interpolant,
    # which read 1.5e-10 here; the quintic stays at round-off of the step-1e-3 profile on every grid node
    lam = elevation_curve.saddle_rate
    step = 0.016 * min(1.0 / lam, elevation_curve.crest_dxdz())
    nodes = default_grid.nodes
    coarse = oracle.integrate_profile(elevation_curve, x_max=default_grid.half_length, step=step, samples=nodes)
    bound = 1e-12 * abs(elevation_curve.turning_point)
    assert np.max(np.abs(coarse.sample_v(nodes) - elevation_oracle_profile.sample_v(nodes))) <= bound
    assert np.max(np.abs(coarse.sample_v_prime(nodes) - elevation_oracle_profile.sample_v_prime(nodes))) <= bound


def _rk4_step(f, w, wp, h):
    """One classical RK4 step of w'' = f(w)."""
    k1w, k1p = wp, f(w)
    k2w, k2p = wp + 0.5 * h * k1p, f(w + 0.5 * h * k1w)
    k3w, k3p = wp + 0.5 * h * k2p, f(w + 0.5 * h * k2w)
    k4w, k4p = wp + h * k3p, f(w + h * k3w)
    return (
        w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w),
        wp + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
    )


def _reference_profile(curve, x_max, step):
    """The orbit by RK4 shooting, a plain loop of _rk4_step calls over Python lists.

    Seeded in the tail on the saddle's stable eigendirection and integrated toward
    the crest, which a bisection on the last substep locates; returns an
    OracleProfile on the RK4 samples.
    """
    p = curve.problem.params
    lam = curve.saddle_rate
    vstar = curve.turning_point
    crest_sign = 1.0 if vstar > 0 else -1.0
    K, beta, cs, ccrit2 = p.k_coeff, p.beta, abs(curve.problem.speed), p.c_crit**2

    def rhs(v):
        return v / beta - (0.5 * K * v * v + ccrit2 * v / (cs - K * v)) / (beta * cs)

    def rhs_slope(v):
        """d rhs / dv, so that v''' = rhs_slope(v) v'."""
        return 1.0 / beta - (K * v + ccrit2 * cs / (cs - K * v) ** 2) / (beta * cs)

    margin = max(8.0, 4.0 / lam)
    while True:
        w = vstar * math.exp(-lam * (x_max + margin))
        wp = lam * w
        s, s_list, w_list, wp_list = 0.0, [0.0], [w], [wp]
        for _ in range(int((x_max + margin + 24.0 / lam) / step) + 8):
            w, wp = _rk4_step(rhs, w, wp, step)
            s += step
            s_list.append(s)
            w_list.append(w)
            wp_list.append(wp)
            if crest_sign * wp <= 0.0:
                break
        if crest_sign * wp <= 0.0 and s > x_max:
            break
        margin *= 2.0
    lo, hi = 0.0, step
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if crest_sign * _rk4_step(rhs, w_list[-2], wp_list[-2], mid)[1] > 0.0:
            lo = mid
        else:
            hi = mid
    sub = 0.5 * (lo + hi)
    w_crest = _rk4_step(rhs, w_list[-2], wp_list[-2], sub)[0]
    x = (s_list[-2] + sub) - np.asarray(s_list[:-1])
    order = np.argsort(x)
    x, w_arr, wp_arr = x[order], np.asarray(w_list[:-1])[order], np.asarray(wp_list[:-1])[order]
    pos = x > 1e-9
    x_full = np.concatenate([[0.0], x[pos]])
    v_full = np.concatenate([[w_crest], w_arr[pos]])
    vp_full = np.concatenate([[0.0], -wp_arr[pos]])
    energy_max = float(np.max(np.abs(0.5 * vp_full**2 + curve.U(v_full))))
    keep = x_full <= x_max + 5.0 * step
    x_full, v_full, vp_full = x_full[keep], v_full[keep], vp_full[keep]
    return oracle.OracleProfile(curve, x_full, v_full, vp_full, rhs(v_full), rhs_slope(v_full) * vp_full, energy_max)


@pytest.mark.parametrize(
    "gamma, delta, sign",
    [(0.5, 0.8, 1.0), (0.5, 0.5, 1.0), (0.5, 0.8, -1.0), (0.5, 0.5, -1.0)],
    ids=["elevation", "depression", "elevation-negative-speed", "depression-negative-speed"],
)
@pytest.mark.parametrize("offset", [0.01, 0.05, 0.2])
def test_fused_loop_matches_rk4_step_reference(gamma, delta, sign, offset):
    # the quadrature against RK4 shooting, at the quadrature's nodes and on a dx = 0.25 grid; the
    # reference runs to x_max = 40 because its tail seed shifts the profile by ~1e-11 at x_max = 20
    p = make_parameters(gamma, delta)
    curve = oracle.potential(oracle.TravelingWaveProblem(params=p, speed=sign * (p.c_crit + offset)))
    prof = oracle.integrate_profile(curve, x_max=20.0, step=1e-3)
    ref = _reference_profile(curve, 40.0, 1e-3)
    bound = 1e-11 * abs(curve.turning_point)
    xs = np.arange(0.0, 20.0 + 0.125, 0.25)
    assert np.max(np.abs(prof.v - ref.sample_v(prof.x))) <= bound
    assert np.max(np.abs(prof.v_prime - ref.sample_v_prime(prof.x))) <= bound
    assert np.max(np.abs(prof.sample_v(xs) - ref.sample_v(xs))) <= bound
    assert np.max(np.abs(prof.sample_v_prime(xs) - ref.sample_v_prime(xs))) <= bound
    # the nodes are spaced by the step; the crest is the turning point
    assert np.max(np.abs(np.diff(prof.x) / 1e-3 - 1.0)) < 1e-5
    assert prof.x[-1] > 20.0 and prof.v[0] == curve.turning_point


@pytest.mark.parametrize("gamma, delta", [(0.5, 0.8), (0.5, 0.5)], ids=["elevation", "depression"])
def test_halving_the_step_moves_the_profile_below_round_off(gamma, delta):
    p = make_parameters(gamma, delta)
    curve = oracle.potential(oracle.TravelingWaveProblem(params=p, speed=p.c_crit + 0.05))
    coarse = oracle.integrate_profile(curve, x_max=20.0, step=1e-3)
    fine = oracle.integrate_profile(curve, x_max=20.0, step=5e-4)
    xs = np.arange(0.0, 20.0 + 0.125, 0.25)
    bound = 1e-11 * abs(curve.turning_point)
    assert np.max(np.abs(coarse.sample_v(xs) - fine.sample_v(xs))) <= bound
    assert np.max(np.abs(coarse.sample_v_prime(xs) - fine.sample_v_prime(xs))) <= bound


def _reference_turning_point(problem):
    """The turning-point bisection evaluated with the vectorised PotentialCurve.U, or None where
    its bracket reaches the pole (t = 1)."""
    p = problem.params
    cs = abs(problem.speed)
    pole = cs / p.k_coeff
    lam = math.sqrt((cs * cs - p.c_crit**2) / (p.beta * cs * cs))
    curve = oracle.PotentialCurve(problem=problem, v_pole=pole, turning_point=math.nan, saddle_rate=lam)
    lo, hi = 1e-12, 1.0 - 1e-9
    for _ in range(3):
        if curve.U(hi * pole) > 0.0:
            break
        hi = 1.0 - (1.0 - hi) * 1e-3
        if hi == 1.0:
            return None
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if curve.U(mid * pole) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi) * pole


def test_turning_point_matches_vectorised_bisection():
    # potential() evaluates U's branches on floats; the turning point must be the vectorised bisection's,
    # bit for bit, and where that bisection's bracket reaches the pole potential() raises instead
    checked, at_pole = 0, []
    for gamma in (0.02, 0.2, 0.45, 0.7, 0.95):
        for delta in (0.2, 0.5, 0.8, 1.3, 2.0):
            p = make_parameters(gamma, delta)
            if p.k_coeff == 0.0:
                continue
            for offset in (1e-4, 0.01, 0.05, 0.3, 2.0):
                for sign in (1.0, -1.0):
                    problem = oracle.TravelingWaveProblem(params=p, speed=sign * (p.c_crit + offset))
                    want = _reference_turning_point(problem)
                    if want is None:
                        with pytest.raises(PoleProximityError, match="turning point within 1e-15"):
                            oracle.potential(problem)
                        at_pole.append((gamma, offset, sign))
                    else:
                        assert oracle.potential(problem).turning_point == want
                    checked += 1
    assert checked == 250
    assert len(at_pole) == 10 and set(at_pole) == {(0.95, 2.0, 1.0), (0.95, 2.0, -1.0)}


def test_gauss_legendre_literals_are_leggauss():
    # the coarse map's rule, mirrored from its positive half, is numpy's 16-point rule bit for bit
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(16)
    half_nodes, half_weights = np.array(oracle._GL_HALF_NODES), np.array(oracle._GL_HALF_WEIGHTS)
    assert np.concatenate([-half_nodes[::-1], half_nodes]).tobytes() == nodes.tobytes()
    assert np.concatenate([half_weights[::-1], half_weights]).tobytes() == weights.tobytes()


# The kernels that the block loop calls were rewritten to run in fewer, wider numpy passes.  Their former
# expressions are kept here as references, and each rewritten kernel must give their values bit for bit.


def _U_reference(curve, v):
    """U as first written: each branch on its own masked samples, the closed form as A + (B + C)."""
    p = curve.problem.params
    v = np.asarray(v, dtype=float)
    r = v / curve.v_pole
    small = np.abs(r) < oracle._SERIES_CUTOFF
    out = np.empty_like(v)
    vs, rs, vc, rc = v[small], r[small], v[~small], r[~small]
    with np.errstate(invalid="ignore"):
        out[~small] = -vc * vc / (2.0 * p.beta) + (
            p.k_coeff * (vc * vc * vc) / (6.0 * p.beta * curve.cs) + curve.c2 * (-vc - curve.v_pole * np.log1p(-rc))
        )
    tail = curve.c2 * ((rs * rs) * (rs * rs) * (1 / 4 + rs * (1 / 5 + rs * (1 / 6 + rs / 7)))) * curve.v_pole
    out[small] = -0.5 * curve.saddle_rate**2 * vs * vs + curve.cubic * (vs * vs * vs) + tail
    return out if out.ndim else float(out)


def _hermite_reference(x, y, dy, t):
    """The cubic Hermite interpolant as first written: np.clip of a search for every t, and gathers."""
    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
    h = x[i + 1] - x[i]
    s = (t - x[i]) / h
    r = 1.0 - s
    return (y[i] * (1.0 + 2.0 * s) + h * dy[i] * s) * r * r + (y[i + 1] * (3.0 - 2.0 * s) - h * dy[i + 1] * r) * s * s


@pytest.mark.parametrize("curve_name", ["elev_curve", "depr_curve"])
@pytest.mark.parametrize("where", ["below", "above", "straddling-mostly-below", "straddling-mostly-above"])
def test_U_on_a_block_is_the_masked_reference_bit_for_bit(request, curve_name, where):
    # a block of the quadrature's width wholly on one side of the cutoff takes one branch in one pass; one that
    # straddles it runs the branch of most samples on all and the other on its own
    curve = request.getfixturevalue(curve_name)
    cut = oracle._SERIES_CUTOFF * curve.v_pole
    lo, hi = {"below": (1e-9, 0.99), "above": (1.01, 900.0), "straddling-mostly-below": (0.01, 1.2),
              "straddling-mostly-above": (0.8, 500.0)}[where]
    v = cut * np.geomspace(lo, hi, oracle._BLOCK + 1)
    small = np.abs(v / curve.v_pole) < oracle._SERIES_CUTOFF
    assert {"below": small.all(), "above": not small.any(), "straddling-mostly-below": 0.5 < small.mean() < 1.0,
            "straddling-mostly-above": 0.0 < small.mean() < 0.5}[where]
    assert curve.U(v).tobytes() == _U_reference(curve, v).tobytes()
    assert curve.U(v[::-1]).tobytes() == _U_reference(curve, v[::-1]).tobytes()
    for k in (0, oracle._BLOCK // 2, oracle._BLOCK):  # floats take the same branch as the arrays
        assert curve.U(v[k]) == _U_reference(curve, v[k])


def test_the_curve_kernels_with_a_shared_gap_are_the_former_expressions_bit_for_bit(elev_curve, depr_curve):
    for curve in (elev_curve, depr_curve):
        p, cs = curve.problem.params, curve.cs
        K, c2crit = p.k_coeff, p.c_crit**2
        v = curve.turning_point * np.linspace(0.0, 1.0, oracle._BLOCK + 1)
        g_prime = (0.5 * K * v * v + c2crit * v / (cs - K * v)) / (p.beta * cs)
        u_second = -1.0 / p.beta + (K * v + c2crit * cs / (cs - K * v) ** 2) / (p.beta * cs)
        rhs = v / p.beta - g_prime
        gap = cs - K * v
        for gapped in (None, gap):
            assert curve.G_prime(v, gapped).tobytes() == g_prime.tobytes()
            assert curve.U_second(v, gapped).tobytes() == u_second.tobytes()
            assert curve.ode_rhs(v, gapped).tobytes() == rhs.tobytes()
        assert curve.crest_dxdz() == math.sqrt(2.0 * curve.turning_point / -float(rhs[-1]))


@pytest.mark.parametrize("curve_name, x_max, step", [("elev_curve", 128.0, 1e-3), ("depr_curve", 128.0, 1e-3),
                                                     ("elev_curve", 1e-5, 1e-6)])
def test_hermite_on_the_coarse_map_is_the_clipped_reference_bit_for_bit(request, monkeypatch, curve_name, x_max,
                                                                         step):
    # the coarse map's panels as integrate_profile builds them; t covers blocks of nodes, each panel edge and
    # t = x_edges[-1], which the reference's np.clip puts in the last piece
    curve = request.getfixturevalue(curve_name)
    panels = []
    hermite = oracle._hermite

    def spied(x, y, dy, t):
        panels.append((x, y, dy))
        return hermite(x, y, dy, t)

    monkeypatch.setattr(oracle, "_hermite", spied)
    oracle.integrate_profile(curve, x_max=x_max, step=step)
    x, y, dy = panels[0]
    assert x.size == oracle._PANELS + 1
    for t in (np.linspace(0.0, x[-1], oracle._BLOCK + 1), x, np.sort(np.concatenate([x, 0.5 * (x[1:] + x[:-1])])),
              x[-1:], x[:1], np.arange(0, oracle._BLOCK + 1) * (x[-1] / 7000)):
        assert hermite(x, y, dy, t).tobytes() == _hermite_reference(x, y, dy, t).tobytes()


@pytest.mark.parametrize("gamma, delta", [(0.5, 0.8), (0.5, 0.5)], ids=["elevation", "depression"])
def test_the_profile_does_not_depend_on_the_block_width_beyond_round_off(monkeypatch, gamma, delta):
    # the oracle workload's case: 128001 nodes in blocks of 2048 and of the default width.  Only the grouping of
    # the running sums moves with the block; the samples at the table's rows agree to 2e-15 of their maxima
    p = make_parameters(gamma, delta)
    curve = oracle.potential(oracle.TravelingWaveProblem(params=p, speed=p.c_crit + 0.05))
    xs = np.arange(0.0, 128.0 + 0.125, 0.25)
    wide = oracle.integrate_profile(curve, x_max=128.0, step=1e-3, samples=xs)
    monkeypatch.setattr(oracle, "_BLOCK", 2048)
    narrow = oracle.integrate_profile(curve, x_max=128.0, step=1e-3, samples=xs)
    assert narrow.x.size == wide.x.size
    for sample in ("sample_v", "sample_v_prime"):
        a, b = getattr(narrow, sample)(xs), getattr(wide, sample)(xs)
        assert np.max(np.abs(a - b)) <= 2e-15 * np.max(np.abs(a)), sample
    # the drift is ~5e-15 (elevation) and ~4e-16 (depression); it moves by at most a round-off of U's scale
    assert abs(narrow.energy_max - wide.energy_max) <= 1e-16
