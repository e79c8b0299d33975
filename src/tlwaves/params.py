"""Physical parameters of the two-layer internal wave model.

The model is posed in nondimensional variables on the density ratio
``gamma = rho_1/rho_2`` and depth ratio ``delta = d_1/d_2`` of the two
fluid layers.  Every derived constant used elsewhere in the package is
computed here once:

* ``beta``    dispersion coefficient, (1 + gamma*delta) / (3*delta*(gamma + delta))
* ``k_coeff`` quadratic nonlinearity coefficient, (delta^2 - gamma) / (delta + gamma)^2, or 0 within 2 eps gamma
* ``c_crit``  critical wave speed, sqrt((1 - gamma) / (delta + gamma))

Solitary waves exist only for speeds with ``c_s^2 > c_crit^2`` and a
nonzero ``k_coeff`` (:func:`require_solitary_wave` checks both), and their
polarity (elevation vs. depression) is the sign of ``k_coeff``.

The paper's reference configuration is here too: the command line's
defaults and ``reproduce`` both read it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import NoSolitaryWaveError, ParameterDomainError

# the reference configuration: the (gamma, delta) of the elevation and the depression wave, their speed
# c_s - c_crit, and the offsets of the reference sweep, np.linspace(first, last, count)
ELEVATION_PAIR, DEPRESSION_PAIR = (0.5, 0.8), (0.5, 0.5)
REFERENCE_OFFSET = 0.05
SWEEP_OFFSETS = (0.01, 0.3, 10)


class WaveType(enum.Enum):
    ELEVATION = "elevation"
    DEPRESSION = "depression"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ModelParameters:
    """Immutable bundle of the two ratios and all derived constants.

    Use :func:`make_parameters` instead of constructing directly; it
    validates the regime and fills in the derived fields.
    """

    gamma: float
    delta: float
    beta: float
    k_coeff: float
    c_crit: float


def make_parameters(gamma: float, delta: float) -> ModelParameters:
    """Validate (gamma, delta) and compute the derived constants.

    gamma = 0 is accepted as the surface-wave limit (single active layer);
    gamma >= 1 would invert the stable stratification and is rejected.

    Raises
    ------
    ParameterDomainError
        If gamma is outside [0, 1), delta <= 0, or beta or k_coeff overflows.
    """
    gamma = float(gamma)
    delta = float(delta)
    if not (0.0 <= gamma < 1.0) or not math.isfinite(gamma):
        raise ParameterDomainError(f"density ratio gamma must lie in [0, 1), got {gamma}")
    if not (delta > 0.0) or not math.isfinite(delta):
        raise ParameterDomainError(f"depth ratio delta must be positive, got {delta}")

    try:
        beta = (1.0 + gamma * delta) / (3.0 * delta * (gamma + delta))
        excess = delta * delta - gamma  # 0.8 * 0.8 rounds to 0.64 + 1.1e-16: no nonlinearity at (0.64, 0.8)
        k_coeff = 0.0 if abs(excess) <= 2.0 * math.ulp(1.0) * gamma else excess / (delta + gamma) ** 2
    except (OverflowError, ZeroDivisionError):
        beta = k_coeff = math.inf
    if not math.isfinite(beta + k_coeff):
        raise ParameterDomainError(f"depth ratio delta = {delta} is out of range: beta or k_coeff overflows")
    c_crit = math.sqrt((1.0 - gamma) / (delta + gamma))
    return ModelParameters(gamma=gamma, delta=delta, beta=beta, k_coeff=k_coeff, c_crit=c_crit)


def wave_type(params: ModelParameters) -> WaveType:
    """Polarity of the solitary wave carried by these parameters.

    Elevation for k_coeff > 0, depression for k_coeff < 0.  The degenerate
    case delta^2 == gamma (up to the rounding of delta^2, see
    :func:`make_parameters`) kills the quadratic nonlinearity entirely,
    so no solitary wave exists there.
    """
    if params.k_coeff > 0.0:
        return WaveType.ELEVATION
    if params.k_coeff < 0.0:
        return WaveType.DEPRESSION
    return WaveType.DEGENERATE


def require_solitary_wave(params: ModelParameters, speed: float) -> None:
    """Raise :class:`NoSolitaryWaveError` unless k_coeff != 0 and c_s^2 > c_crit^2 (either direction), and
    :class:`ParameterDomainError` for a speed that is not finite or whose square overflows."""
    if not math.isfinite(speed):
        raise ParameterDomainError(f"speed {speed} is not finite")
    if params.k_coeff == 0.0:
        raise NoSolitaryWaveError("nonlinearity coefficient is zero (delta^2 == gamma)")
    try:
        supersonic = speed**2 > params.c_crit**2
    except OverflowError:
        raise ParameterDomainError(f"speed {speed} is out of range: c_s^2 overflows") from None
    if not supersonic:
        raise NoSolitaryWaveError(
            f"speed {speed} is not supersonic: c_s^2 <= c_crit^2 = {params.c_crit ** 2:.6g}"
        )


def saddle_rate(params: ModelParameters, speed: float) -> float:
    """The decay rate lambda = sqrt((c_s^2 - c_crit^2) / (beta c_s^2)) of the solitary wave at a supersonic c_s."""
    return math.sqrt((speed * speed - params.c_crit**2) / (params.beta * speed * speed))


def params_to_config(params: ModelParameters) -> dict:
    """JSON-ready config block. Derived fields are never serialized."""
    return {"gamma": params.gamma, "delta": params.delta}

