"""Amplitude extraction, decay fits, and speed-amplitude studies.

Two fit families are used.  The speed-amplitude law  zeta_max = A c^B + C
is solved by nested least squares: for fixed B the problem is linear in
(A, C), and the outer one-dimensional search over B uses golden-section
on a bracketed minimum of the SSE.  The decay laws  a x^b exp(c x)  (in
space, and in wavenumber for the spectrum) are exactly log-linear in
(log a, b, c) for single-signed data, so they reduce to one linear
least-squares solve; goodness of fit is always reported in the original
(non-log) scale.

This module owns the derived tables that ``sweep``, ``analyze`` and
``reproduce`` write, as columns: :func:`speed_sweep` (:func:`speed_fit`),
:func:`amplitude_vs_k_study`, :func:`phase_portrait` and :func:`decay_table`.
The studies solve through the caller's ``solve``; the solver is never imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import InputFormatError, InsufficientDataError, NoBracketError, SignChangeError, WaveError
from .grid import SpectralGrid, differentiate, half_spectrum
from .params import make_parameters

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# the interval of exponents B the speed-amplitude fit searches
_EXPONENT_BRACKET = (0.5, 6.0)
# The default decay-fit windows keep values above this fraction of the peak.
# The profiles' round-off is about 1e-16 of the peak, i.e. 1e-10 of a value
# at the floor; a perturbation of 1e-15 of the peak then moves the fitted
# exponents by about 1e-9 relative (at 1e-9 it is still 2e-6).
_FIT_FLOOR = 1e-6


@dataclass(frozen=True)
class FitResult:
    model: str
    coefficients: dict
    sse: float
    r_squared: float
    rmse: float
    window: tuple

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "coefficients": dict(self.coefficients),
            "sse": self.sse,
            "r_squared": self.r_squared,
            "rmse": self.rmse,
            "window": list(self.window),
        }


def _goodness(y: np.ndarray, y_fit: np.ndarray) -> tuple[float, float, float]:
    sse = float(np.sum((y - y_fit) ** 2))
    sst = float(np.sum((y - np.mean(y)) ** 2))
    scale = float(np.sum(y * y))
    if sst > 1e-24 * scale:
        r2 = 1.0 - sse / sst
    else:
        # constant data up to round-off: define R^2 by whether the fit is exact
        r2 = 1.0 if sse <= 1e-24 * scale + 1e-300 else 0.0
    rmse = math.sqrt(sse / y.size)
    return sse, r2, rmse


def amplitude(state) -> tuple[float, float, float]:
    """Signed extremum of largest magnitude for (zeta, v, u) of a ``solver.WaveState``."""

    def signed_extremum(f: np.ndarray) -> float:
        return float(f[int(np.argmax(np.abs(f)))]) if f.size else 0.0

    return signed_extremum(state.zeta), signed_extremum(state.v), signed_extremum(state.u)


def _power_sse(cs: np.ndarray, y: np.ndarray, b: float) -> tuple[float, float, float]:
    design = np.column_stack([cs**b, np.ones_like(cs)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    return float(resid @ resid), float(coef[0]), float(coef[1])


def fit_speed_amplitude(samples: Sequence[tuple[float, float]]) -> FitResult:
    """Fit zeta_max = A c_s^B + C to (speed, amplitude) samples.

    Raises
    ------
    InsufficientDataError
        Fewer than 4 distinct speeds: three parameters fit any fewer exactly.
    NoBracketError
        SSE(B) is monotone over the exponent search interval.
    """
    pts = np.asarray(list(samples), dtype=float)
    if pts.ndim != 2 or len(set(pts[:, 0].tolist())) < 4:  # a set: np.unique's first call pages in ~1.7 MiB
        raise InsufficientDataError("speed-amplitude fit needs samples at 4 distinct speeds")
    cs, y = pts[:, 0], pts[:, 1]
    if np.any(cs <= 0.0):
        raise WaveError("speeds must be positive for the power fit")

    b_lo, b_hi = _EXPONENT_BRACKET
    scan = np.linspace(b_lo, b_hi, 56)
    sse_scan = np.array([_power_sse(cs, y, b)[0] for b in scan])
    i_min = int(np.argmin(sse_scan))
    if i_min == 0 or i_min == scan.size - 1:
        raise NoBracketError(
            f"SSE is monotone over B in [{b_lo}, {b_hi}]; no interior minimum to bracket"
        )

    lo, hi = scan[i_min - 1], scan[i_min + 1]
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = _power_sse(cs, y, x1)[0]
    f2 = _power_sse(cs, y, x2)[0]
    while hi - lo > 1e-10:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = _power_sse(cs, y, x1)[0]
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = _power_sse(cs, y, x2)[0]
    b_best = 0.5 * (lo + hi)
    _, a_best, c_best = _power_sse(cs, y, b_best)
    y_fit = a_best * cs**b_best + c_best
    sse, r2, rmse = _goodness(y, y_fit)
    return FitResult(
        model="power_plus_constant",
        coefficients={"A": a_best, "B": b_best, "C": c_best},
        sse=sse,
        r_squared=r2,
        rmse=rmse,
        window=(float(cs.min()), float(cs.max())),
    )


def power_exponential(t: np.ndarray, a: float, b: float, c: float, sign: float) -> np.ndarray:
    """The decay law sign * a t^b exp(c t)."""
    return sign * a * t**b * np.exp(c * t)


def _fit_power_exponential(t: np.ndarray, y: np.ndarray, window: tuple[float, float], model: str) -> FitResult:
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    t_w, y_w = t[mask], y[mask]
    if t_w.size < 3:
        raise InsufficientDataError(f"decay fit needs at least 3 points in window [{lo}, {hi}]")
    if np.any(t_w <= 0.0):
        raise WaveError("decay-fit window must contain only positive abscissae")
    signs = np.sign(y_w)
    if np.any(signs == 0.0) or (signs.max() != signs.min()):
        raise SignChangeError(f"data changes sign inside window [{lo}, {hi}]")
    sign = signs[0]

    design = np.column_stack([np.ones_like(t_w), np.log(t_w), t_w])
    coef, *_ = np.linalg.lstsq(design, np.log(np.abs(y_w)), rcond=None)
    a = math.exp(coef[0])
    b, c = float(coef[1]), float(coef[2])
    y_fit = power_exponential(t_w, a, b, c, sign)
    sse, r2, rmse = _goodness(y_w, y_fit)
    return FitResult(
        model=model,
        coefficients={"a": a, "b": b, "c": c},
        sse=sse,
        r_squared=r2,
        rmse=rmse,
        window=(float(lo), float(hi)),
    )


def fit_decay_space(x: np.ndarray, zeta: np.ndarray, window: tuple[float, float]) -> FitResult:
    """Fit |zeta| = a x^b exp(c x) on a single-signed window of x > 0."""
    return _fit_power_exponential(x, zeta, window, model="power_times_exponential_space")


def fit_decay_spectrum(k: np.ndarray, magnitudes: np.ndarray, window: tuple[float, float]) -> FitResult:
    """Fit |zeta_hat| = a k^b exp(c k) over a wavenumber window."""
    return _fit_power_exponential(k, magnitudes, window, model="power_times_exponential_spectrum")


def spectrum_magnitudes(grid: SpectralGrid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k', |fhat|) on the rfft modes 0..n/2, Nyquist included."""
    return grid.half_wavenumbers.copy(), np.abs(half_spectrum(grid, values))


def _floor_edge(t: np.ndarray, values: np.ndarray) -> float:
    """Largest t > 0 at which |values| exceeds _FIT_FLOOR times its peak (0 when none does)."""
    t = np.asarray(t)
    mags = np.abs(np.asarray(values))
    usable = t[(t > 0.0) & (mags > _FIT_FLOOR * float(np.max(mags)))]
    return float(usable.max()) if usable.size else 0.0


def default_space_window(x: np.ndarray, values: np.ndarray, half_length: float) -> tuple[float, float]:
    """x in [5, 0.8 l], shrunk to where |values| exceeds the fit floor of the peak."""
    return (5.0, min(0.8 * half_length, _floor_edge(x, values)))


def default_spectrum_window(kp: np.ndarray, magnitudes: np.ndarray) -> tuple[float, float]:
    """k' in [1, k'_max / 2], shrunk to where the magnitudes exceed the fit floor of the peak."""
    return (1.0, min(float(kp.max()) / 2.0, _floor_edge(kp, magnitudes)))


def decay_table(mode: str, x: np.ndarray, values: np.ndarray, window=None, source="the profile"):
    """The decay law fitted to ``values`` at the nodes ``x``, in space (mode "decay") or in their half spectrum.

    In space the abscissae are the nodes x > 0 and the default window ends at most at 0.8 max|x|
    (0.8 l on a solver grid); the spectrum is taken on ``SpectralGrid.from_nodes(x)``.  ``source``
    names the profile in errors.  Returns the windowed abscissae, values and fitted curve, and the fit.
    """
    if mode == "decay":
        t, values = x[x > 0.0], values[x > 0.0]
        if not t.size:
            raise InputFormatError(f"{source} has no node at x > 0 to fit the decay on")
        window = window or default_space_window(t, values, float(np.max(np.abs(x))))
        fit = fit_decay_space(t, values, window)
    else:
        t, values = spectrum_magnitudes(SpectralGrid.from_nodes(x), values)
        window = window or default_spectrum_window(t, values)
        fit = fit_decay_spectrum(t, values, window)
    mask = (t >= window[0]) & (t <= window[1])
    t, values = t[mask], values[mask]
    return t, values, power_exponential(t, **fit.coefficients, sign=np.sign(values[0])), fit


def speed_sweep(solve: Callable, grid: SpectralGrid, params, config, offsets: np.ndarray) -> dict:
    """The cs, zeta_max, v_max and u_max columns of one ``solve`` at each speed c_crit + offset."""
    speeds = params.c_crit + offsets
    amps = np.array([amplitude(solve(grid, params, replace(config, speed=float(speed)))[0]) for speed in speeds])
    return {"cs": speeds, "zeta_max": amps[:, 0], "v_max": amps[:, 1], "u_max": amps[:, 2]}


def speed_fit(columns: dict) -> FitResult:
    """The power law of |zeta_max| against |cs| over the columns of a speed sweep in either direction."""
    return fit_speed_amplitude(list(zip(np.abs(columns["cs"]), np.abs(columns["zeta_max"]))))


def amplitude_vs_k_study(
    gamma: float,
    deltas: Iterable[float],
    speed_offset: float,
    grid: SpectralGrid,
    config,
    solve: Callable,
) -> tuple[dict, list]:
    """Amplitude against the nonlinearity coefficient at fixed speed offset.

    Each depth ratio is solved by ``solve`` (the signature of
    :func:`solver.solve`) with the caller's ``config`` at the speed
    c_s = c_crit(gamma, delta) + speed_offset; failures are recorded and
    skipped rather than aborting the sweep.  Returns the k_coeff, zeta_max
    and delta columns, ascending in k_coeff, and the skipped
    (delta, message) pairs.
    """
    rows = []
    skipped = []
    for delta in deltas:
        try:
            params = make_parameters(gamma, delta)
            state, _ = solve(grid, params, replace(config, speed=params.c_crit + speed_offset))
            rows.append((params.k_coeff, amplitude(state)[0], float(delta)))
        except WaveError as exc:
            skipped.append((float(delta), str(exc)))
    rows.sort(key=lambda row: row[0])
    return dict(zip(("k_coeff", "zeta_max", "delta"), np.array(rows, dtype=float).reshape(-1, 3).T)), skipped


def phase_portrait(v: np.ndarray, grid: SpectralGrid) -> dict:
    """The v and v' columns of a velocity profile on ``grid``, v' by pseudospectral differentiation."""
    return {"v": v, "v_prime": differentiate(grid, v)}
