import math
import re
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tlwaves.errors import NoSolitaryWaveError, ParameterDomainError
from tlwaves.params import (
    WaveType,
    make_parameters,
    params_to_config,
    require_solitary_wave,
    wave_type,
)


def test_surface_wave_limit():
    p = make_parameters(0.0, 1.0)
    assert p.beta == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert p.k_coeff == pytest.approx(1.0, rel=1e-15)
    assert p.c_crit == pytest.approx(1.0, rel=1e-15)


def test_reference_elevation_constants():
    p = make_parameters(0.5, 0.8)
    assert p.k_coeff == pytest.approx(0.082840, abs=5e-7)
    assert p.c_crit == pytest.approx(0.620174, abs=5e-7)
    # full-precision recomputation via an independent arithmetic path
    assert p.beta == pytest.approx((1 + 0.4) / (3 * 0.8 * 1.3), rel=1e-14)
    assert p.c_crit == pytest.approx(math.sqrt(0.5 / 1.3), rel=1e-14)


def test_reference_depression_constants():
    p = make_parameters(0.5, 0.5)
    assert p.k_coeff == pytest.approx(-0.25, rel=1e-15)


@pytest.mark.parametrize(
    "gamma,delta",
    [(-0.1, 1.0), (1.0, 1.0), (1.5, 1.0), (0.5, 0.0), (0.5, -2.0), (float("nan"), 1.0)],
)
def test_domain_errors(gamma, delta):
    with pytest.raises(ParameterDomainError):
        make_parameters(gamma, delta)


@pytest.mark.parametrize(
    "gamma,delta,expected",
    [
        (0.5, 0.8, WaveType.ELEVATION),
        (0.5, 0.5, WaveType.DEPRESSION),
        (0.25, 0.5, WaveType.DEGENERATE),
    ],
)
def test_wave_type(gamma, delta, expected):
    assert wave_type(make_parameters(gamma, delta)) is expected


@given(
    gamma=st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    delta=st.floats(min_value=1e-4, max_value=1e4),
)
def test_derived_constants_admissible(gamma, delta):
    p = make_parameters(gamma, delta)
    assert p.beta > 0.0
    assert 0.0 < p.c_crit < math.inf
    kind = wave_type(p)
    excess = delta * delta - gamma
    if abs(excess) <= 2.0 * sys.float_info.epsilon * gamma:  # the rounding of delta * delta alone
        assert kind is WaveType.DEGENERATE
    elif excess > 0:
        assert kind is WaveType.ELEVATION
    else:
        assert kind is WaveType.DEPRESSION


@pytest.mark.parametrize("gamma, delta", [(0.64, 0.8), (0.49, 0.7), (0.16, 0.4), (0.04, 0.2), (0.01, 0.1)])
def test_a_delta_squared_that_misses_gamma_by_rounding_alone_is_degenerate(gamma, delta):
    # 0.8 * 0.8 is 0.64 + 1.1e-16: a K of 5.4e-17 would put v_pole near 1e16 and the turning point near 1e15
    assert delta * delta != gamma
    p = make_parameters(gamma, delta)
    assert p.k_coeff == 0.0
    assert wave_type(p) is WaveType.DEGENERATE
    with pytest.raises(NoSolitaryWaveError, match="nonlinearity coefficient is zero"):
        require_solitary_wave(p, 2.0 * p.c_crit)


@pytest.mark.parametrize("gamma, delta", [(0.0, 1e-9), (0.64, 0.80001)])
def test_a_small_nonlinearity_above_rounding_is_kept(gamma, delta):
    p = make_parameters(gamma, delta)
    assert p.k_coeff == (delta * delta - gamma) / (delta + gamma) ** 2 > 0.0
    require_solitary_wave(p, p.c_crit + 0.05)


def test_config_round_trip():
    p = make_parameters(0.37, 1.25)
    block = params_to_config(p)
    assert set(block) == {"gamma", "delta"}
    assert make_parameters(**block) == p


@pytest.mark.parametrize("gamma, delta, speed, message", [
    (0.5, 0.8, 0.6, "speed 0.6 is not supersonic: c_s^2 <= c_crit^2"),
    (0.5, 0.8, -0.6, "speed -0.6 is not supersonic: c_s^2 <= c_crit^2"),
    (0.25, 0.5, 2.0, "nonlinearity coefficient is zero"),
], ids=["subsonic", "subsonic-leftward", "zero-K"])
def test_require_solitary_wave_rejects(gamma, delta, speed, message):
    with pytest.raises(NoSolitaryWaveError, match=re.escape(message)):
        require_solitary_wave(make_parameters(gamma, delta), speed)


@pytest.mark.parametrize("gamma, delta", [(0.5, 1e200), (0.5, 1e-310), (0.0, 1e-200)])
def test_make_parameters_rejects_a_delta_whose_constants_overflow(gamma, delta):
    # (delta + gamma)^2 overflows, beta's denominator is subnormal, and beta's denominator underflows to 0
    with pytest.raises(ParameterDomainError, match=re.escape(f"depth ratio delta = {delta} is out of range")):
        make_parameters(gamma, delta)


@pytest.mark.parametrize("speed", [1e300, -1e300])
def test_require_solitary_wave_rejects_a_speed_whose_square_overflows(speed):
    with pytest.raises(ParameterDomainError, match=re.escape(f"speed {speed} is out of range: c_s^2 overflows")):
        require_solitary_wave(make_parameters(0.5, 0.8), speed)


@pytest.mark.parametrize("gamma, delta", [(0.5, 0.8), (0.25, 0.5)], ids=["elevation", "zero-K"])
@pytest.mark.parametrize("speed", [math.inf, -math.inf, math.nan])
def test_require_solitary_wave_rejects_a_speed_that_is_not_finite(gamma, delta, speed):
    # checked before the nonlinearity and the supersonic test: nan is not subsonic, and inf is no grid's fault
    with pytest.raises(ParameterDomainError, match=re.escape(f"speed {speed} is not finite")):
        require_solitary_wave(make_parameters(gamma, delta), speed)


def test_require_solitary_wave_accepts_either_direction():
    p = make_parameters(0.5, 0.8)
    for speed in (1.01 * p.c_crit, -1.01 * p.c_crit):
        require_solitary_wave(p, speed)
