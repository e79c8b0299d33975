"""Independent solitary-wave oracle from the traveling-wave ODE.

Eliminating the interface deviation from the traveling-wave system leaves
a planar conservative ODE for the smoothed velocity profile,

    v'' = v/beta - G'(v),      E = (v')^2 / 2 + U(v),   U(v) = -v^2/(2 beta) + G(v),

whose solitary wave is the zero-energy orbit homoclinic to the saddle at
the origin.  The profile starts at the turning point v* (the nonzero root
of U) with v'(0) = 0 and decays like exp(-lambda |x|) with
lambda = sqrt((c_s^2 - c_crit^2) / (beta c_s^2)).

Numerical strategy: the orbit is traced with classical RK4, but seeded in
the *tail* on the stable eigendirection of the saddle and integrated
toward the crest.  Shooting in that direction is numerically stable: the
mode that is unstable in forward x decays along the integration, so the
computed orbit tracks the homoclinic at relative accuracy near round-off
over arbitrarily many e-foldings.  (Forward shooting from the crest loses
the tail to the unstable mode once |v| reaches roughly sqrt(eps) times the
amplitude; it cannot reach the decay levels this oracle certifies.)  The
crest is located on the trajectory and relabeled as x = 0, which is
legitimate because the ODE is autonomous and the orbit is even about its
turning point.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NoSolitaryWaveError, PoleProximityError, StepSizeTooLargeError, WaveError
from .params import ModelParameters

_SERIES_CUTOFF = 1e-3  # |v/v_pole| below which log1p cancellation kicks in


@dataclass(frozen=True)
class TravelingWaveProblem:
    """A parameter set together with a nonzero traveling-wave speed."""

    params: ModelParameters
    speed: float

    def __post_init__(self) -> None:
        if self.speed == 0.0 or not math.isfinite(self.speed):
            raise ValueError(f"traveling-wave speed must be finite and nonzero, got {self.speed}")


def negative_speed_map(zeta, v, u):
    """Solution map (c_s, zeta, v, u) -> (-c_s, zeta, -v, -u)."""
    return zeta, -v, -u


@dataclass(frozen=True)
class PotentialCurve:
    """Closed-form potential data for one traveling-wave problem.

    All internal formulas live in the positive-speed frame; for
    problems with speed < 0 the velocity-like outputs are sign-flipped
    (see :func:`negative_speed_map`).  ``turning_point`` is reported in
    the signed frame.
    """

    problem: TravelingWaveProblem
    v_pole: float
    turning_point: float
    saddle_rate: float
    v_sign: float = 1.0

    # -- scalar/vectorized potential algebra (positive frame) --------------

    def _cs(self) -> float:
        return abs(self.problem.speed)

    def g(self, v):
        """Force kernel g(v) = K v^2 / 2 + c_crit^2 v / (c_s - K v)."""
        p = self.problem.params
        cs = self._cs()
        v = np.asarray(v, dtype=float)
        out = 0.5 * p.k_coeff * v * v + p.c_crit**2 * v / (cs - p.k_coeff * v)
        return out if out.ndim else float(out)

    def G_prime(self, v):
        """G'(v) = g(v) / (beta c_s)."""
        p = self.problem.params
        return self.g(v) / (p.beta * self._cs())

    def G(self, v):
        """Antiderivative of G'; series branch avoids log cancellation."""
        p = self.problem.params
        cs = self._cs()
        K = p.k_coeff
        pole = self.v_pole
        c2 = p.c_crit**2 / (p.beta * cs * K)
        v = np.asarray(v, dtype=float)
        r = v / pole
        small = np.abs(r) < _SERIES_CUTOFF
        # S(v) = -v - pole*log1p(-v/pole) = pole * sum_{n>=2} r^n / n
        with np.errstate(invalid="ignore"):
            s_exact = -v - pole * np.log1p(-r)
        s_series = pole * (r * r * (1 / 2 + r * (1 / 3 + r * (1 / 4 + r * (1 / 5 + r * (1 / 6 + r / 7))))))
        s = np.where(small, s_series, s_exact)
        out = K * v**3 / (6.0 * p.beta * cs) + c2 * s
        return out if out.ndim else float(out)

    def U(self, v):
        """Potential energy U(v) = -v^2/(2 beta) + G(v)."""
        p = self.problem.params
        cs = self._cs()
        K = p.k_coeff
        pole = self.v_pole
        c2 = p.c_crit**2 / (p.beta * cs * K)
        v = np.asarray(v, dtype=float)
        r = v / pole
        small = np.abs(r) < _SERIES_CUTOFF
        with np.errstate(invalid="ignore"):
            u_exact = -v * v / (2.0 * p.beta) + self.G(v)
        # assemble the small-v branch from the series so that the exact
        # quadratic coefficient -lambda^2/2 is used without cancellation
        cubic = K / (6.0 * p.beta * cs) + c2 / (3.0 * pole**2)
        tail = c2 * (r**4 * (1 / 4 + r * (1 / 5 + r * (1 / 6 + r / 7)))) * pole
        u_series = -0.5 * self.saddle_rate**2 * v * v + cubic * v**3 + tail
        out = np.where(small, u_series, u_exact)
        return out if out.ndim else float(out)

    def ode_rhs(self, v):
        """Acceleration v'' = v/beta - G'(v)."""
        return v / self.problem.params.beta - self.G_prime(v)


def potential(problem: TravelingWaveProblem) -> PotentialCurve:
    """Build the potential curve and locate the turning point v*.

    Raises
    ------
    NoSolitaryWaveError
        If c_s^2 <= c_crit^2 (the origin is not a saddle) or the
        nonlinearity coefficient vanishes.
    """
    p = problem.params
    cs = abs(problem.speed)
    if p.k_coeff == 0.0:
        raise NoSolitaryWaveError("nonlinearity coefficient is zero (delta^2 == gamma)")
    if not cs * cs > p.c_crit**2:
        raise NoSolitaryWaveError(
            f"speed {problem.speed} is not supersonic: c_s^2 = {cs * cs:.6g} <= c_crit^2 = {p.c_crit ** 2:.6g}"
        )

    pole = cs / p.k_coeff
    lam = math.sqrt((cs * cs - p.c_crit**2) / (p.beta * cs * cs))
    sign = 1.0 if problem.speed > 0 else -1.0
    K, beta = p.k_coeff, p.beta
    c2 = p.c_crit**2 / (beta * cs * K)
    cubic = K / (6.0 * beta * cs) + c2 / (3.0 * pole**2)

    def U(v: float) -> float:
        # PotentialCurve.U on one float: the branch its np.where selects, the same operations
        # in the same order; powers and log1p go through numpy, whose last bit can differ
        # from Python's ** and math.log1p
        r = v / pole
        v3 = float(np.power(v, 3))
        if abs(r) < _SERIES_CUTOFF:
            tail = c2 * (float(np.power(r, 4)) * (1 / 4 + r * (1 / 5 + r * (1 / 6 + r / 7)))) * pole
            return -0.5 * lam**2 * v * v + cubic * v3 + tail
        return -v * v / (2.0 * beta) + (K * v3 / (6.0 * beta * cs) + c2 * (-v - pole * float(np.log1p(-r))))

    # U(t*pole) changes sign exactly once on (0, 1): negative near the
    # saddle, positive near the pole where G blows up logarithmically.
    lo, hi = 1e-12, 1.0 - 1e-9
    f_lo = U(lo * pole)
    f_hi = U(hi * pole)
    bumps = 0
    while f_hi <= 0.0 and bumps < 3:
        hi = 1.0 - (1.0 - hi) * 1e-3
        f_hi = U(hi * pole)
        bumps += 1
    if f_lo >= 0.0 or f_hi <= 0.0:
        raise WaveError(
            f"turning-point bracket failed: U({lo * pole:.3g}) = {f_lo:.3g}, U({hi * pole:.3g}) = {f_hi:.3g}"
        )
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if U(mid * pole) < 0.0:
            lo = mid
        else:
            hi = mid
    vstar = 0.5 * (lo + hi) * pole
    return PotentialCurve(
        problem=problem, v_pole=pole, turning_point=sign * vstar, saddle_rate=lam, v_sign=sign
    )


def _hermite(x: np.ndarray, y: np.ndarray, dy: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Piecewise cubic Hermite interpolant of values y and slopes dy at nodes x, at t in [x[0], x[-1]]."""
    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
    h = x[i + 1] - x[i]
    s = (t - x[i]) / h
    r = 1.0 - s
    return (y[i] * (1.0 + 2.0 * s) + h * dy[i] * s) * r * r + (y[i + 1] * (3.0 - 2.0 * s) - h * dy[i + 1] * r) * s * s


@dataclass
class OracleProfile:
    """Half-line samples of the solitary profile with cubic Hermite evaluation.

    ``x`` is ascending on [0, x_max] with x[0] = 0 at the crest; ``v`` and
    ``v_prime`` are in the signed (physical) frame.  Between samples, v is
    the cubic Hermite interpolant of the stored (v, v') and v' that of
    (v', v''), with v'' from the ODE.  Each cubic piece uses only its two end
    samples, so evaluating at |x| (times sign(x) for v') is the interpolant
    of the even/odd mirrored samples.  Sampling outside the stored range
    continues the tail as C exp(-lambda (|x| - x_max)).
    """

    curve: PotentialCurve
    x: np.ndarray
    v: np.ndarray
    v_prime: np.ndarray
    energy_max: float
    _v_second: np.ndarray = field(init=False, repr=False, default=None)

    def _sample(self, xq, values: np.ndarray, slopes: np.ndarray) -> np.ndarray:
        xa = np.abs(np.asarray(xq, dtype=float))
        x_end = self.x[-1]
        vals = _hermite(self.x, values, slopes, np.clip(xa, 0.0, x_end))
        tail = values[-1] * np.exp(-self.curve.saddle_rate * (xa - x_end))
        return np.where(xa <= x_end, vals, tail)

    def sample_v(self, xq) -> np.ndarray:
        out = self._sample(xq, self.v, self.v_prime)
        return out if out.ndim else float(out)

    def sample_v_prime(self, xq) -> np.ndarray:
        if self._v_second is None:
            # v'' = ode_rhs(v) holds in the positive frame; v' and v'' flip with the speed sign
            sign = self.curve.v_sign
            self._v_second = sign * np.asarray(self.curve.ode_rhs(sign * self.v))
        # stored arrays are d/dx on x > 0; oddness via the sign factor
        out = np.sign(np.asarray(xq, dtype=float)) * self._sample(xq, self.v_prime, self._v_second)
        return out if out.ndim else float(out)


def _rk4_step(f: Callable[[float], float], w: float, wp: float, h: float) -> tuple[float, float]:
    k1w, k1p = wp, f(w)
    k2w, k2p = wp + 0.5 * h * k1p, f(w + 0.5 * h * k1w)
    k3w, k3p = wp + 0.5 * h * k2p, f(w + 0.5 * h * k2w)
    k4w, k4p = wp + h * k3p, f(w + h * k3w)
    return (
        w + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w),
        wp + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p),
    )


def integrate_profile(curve: PotentialCurve, x_max: float, step: float = 1e-3) -> OracleProfile:
    """Trace the homoclinic orbit and return samples on [0, x_max].

    RK4 with fixed step, seeded in the tail on the stable eigendirection
    and integrated up to the crest (see module docstring).  The maximum
    of |E| along the trajectory is the accuracy monitor.

    Raises
    ------
    StepSizeTooLargeError
        If the energy drift exceeds 1e-10 times the potential scale.
    """
    if not (x_max > 0.0 and step > 0.0):
        raise ValueError("x_max and step must be positive")
    p = curve.problem.params
    lam = curve.saddle_rate
    vstar_pos = curve.v_sign * curve.turning_point  # positive-frame turning point
    crest_sign = 1.0 if vstar_pos > 0 else -1.0

    # the hot loop is _rk4_step on rhs inlined, with the same operations in the same order, so
    # its samples are the same bits; 0.5*K, 0.5*h, h/6 and beta*c_s are hoisted because Python
    # evaluates those products first in the original expressions anyway
    K = p.k_coeff
    hK = 0.5 * K
    beta = p.beta
    cs = abs(curve.problem.speed)
    bcs = beta * cs
    ccrit2 = p.c_crit**2
    hh = 0.5 * step
    h6 = step / 6.0

    def rhs(v: float) -> float:
        return v / beta - (hK * v * v + ccrit2 * v / (cs - K * v)) / bcs

    margin = max(8.0, 4.0 / lam)
    for _attempt in range(4):
        w = vstar_pos * math.exp(-lam * (x_max + margin))
        wp = lam * w
        w_buf = array("d", [w])
        wp_buf = array("d", [wp])
        add_w, add_wp = w_buf.append, wp_buf.append
        cap = int((x_max + margin + 24.0 / lam) / step) + 8
        crest_hit = False
        for _ in range(cap):
            k1p = w / beta - (hK * w * w + ccrit2 * w / (cs - K * w)) / bcs
            a = w + hh * wp
            k2w = wp + hh * k1p
            k2p = a / beta - (hK * a * a + ccrit2 * a / (cs - K * a)) / bcs
            a = w + hh * k2w
            k3w = wp + hh * k2p
            k3p = a / beta - (hK * a * a + ccrit2 * a / (cs - K * a)) / bcs
            a = w + step * k3w
            k4w = wp + step * k3p
            k4p = a / beta - (hK * a * a + ccrit2 * a / (cs - K * a)) / bcs
            w, wp = w + h6 * (wp + 2.0 * k2w + 2.0 * k3w + k4w), wp + h6 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            add_w(w)
            add_wp(wp)
            if crest_sign * wp <= 0.0:
                crest_hit = True
                break
        # arc length s_j: the steps summed one at a time from 0, as s += step would
        s_arr = np.full(len(w_buf), step)
        s_arr[0] = 0.0
        s_arr = np.cumsum(s_arr)
        if crest_hit and s_arr[-1] > x_max:
            break
        margin *= 2.0
    else:
        raise WaveError("oracle integration failed to bracket the crest; seed margin exhausted")

    # refine the crest position inside the final step by bisection on the
    # substep length; the substep map is the same RK4 scheme
    w0, wp0 = w_buf[-2], wp_buf[-2]
    lo, hi = 0.0, step
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if crest_sign * _rk4_step(rhs, w0, wp0, mid)[1] > 0.0:
            lo = mid
        else:
            hi = mid
    sub = 0.5 * (lo + hi)
    s_crest = s_arr[-2] + sub
    w_crest, _ = _rk4_step(rhs, w0, wp0, sub)

    # drop the overshoot past the crest
    s_arr = s_arr[:-1]
    w_arr = np.frombuffer(w_buf, dtype=float)[:-1]
    wp_arr = np.frombuffer(wp_buf, dtype=float)[:-1]

    x_arr = s_crest - s_arr
    order = np.argsort(x_arr)
    x_arr, w_arr, wp_arr = x_arr[order], w_arr[order], wp_arr[order]
    pos = x_arr > 1e-9  # crest sample is prepended separately
    x_arr, w_arr, wp_arr = x_arr[pos], w_arr[pos], wp_arr[pos]

    x_full = np.concatenate([[0.0], x_arr])
    v_full = np.concatenate([[w_crest], w_arr])
    vp_full = np.concatenate([[0.0], -wp_arr])  # dv/dx = -dw/ds

    u_full = curve.U(v_full)
    energy = 0.5 * vp_full**2 + u_full
    with np.errstate(invalid="ignore"):
        scale = max(1.0, float(np.nanmax(np.abs(u_full))))
        energy_max = float(np.max(np.abs(energy)))
    if not energy_max <= 1e-10 * scale:  # NaN-safe: NaN fails the comparison
        raise StepSizeTooLargeError(
            f"energy drift {energy_max:.3e} exceeds 1e-10 * {scale:.3g}; reduce the step"
        )

    keep = x_full <= x_max + 5.0 * step
    sign = curve.v_sign
    return OracleProfile(
        curve=curve,
        x=x_full[keep],
        v=sign * v_full[keep],
        v_prime=sign * vp_full[keep],
        energy_max=energy_max,
    )


def reconstruct_zeta(curve: PotentialCurve, v_beta):
    """Interface deviation from the velocity profile (first-row algebra).

    zeta = v / ((gamma + delta) (c_s - K v)) in the positive frame; the
    sign map makes the result independent of the speed sign.
    """
    p = curve.problem.params
    cs = abs(curve.problem.speed)
    v_pos = np.asarray(v_beta, dtype=float) * curve.v_sign
    if np.any(np.abs(v_pos - curve.v_pole) < 1e-12 * abs(curve.v_pole)):
        raise PoleProximityError("velocity value within 1e-12 of the reconstruction pole")
    out = v_pos / ((p.gamma + p.delta) * (cs - p.k_coeff * v_pos))
    return out if out.ndim else float(out)


def reconstruct_u(curve: PotentialCurve, v_beta):
    """Unsmoothed velocity u = beta * G'(v) along the orbit."""
    p = curve.problem.params
    v_pos = np.asarray(v_beta, dtype=float) * curve.v_sign
    if np.any(np.abs(v_pos - curve.v_pole) < 1e-12 * abs(curve.v_pole)):
        raise PoleProximityError("velocity value within 1e-12 of the reconstruction pole")
    out = curve.v_sign * p.beta * np.asarray(curve.G_prime(v_pos))
    return out if out.ndim else float(out)
