"""Petviashvili iteration for the discrete traveling-wave system.

The pseudospectral discretization of the traveling-wave equations couples
the pair (zeta_h, v_h) through a linear operator that is diagonal per
Fourier mode,

    [[c_s, -1/(delta+gamma)], [gamma-1, c_s (1 + beta k'^2)]],

against the quadratic right-hand side K (zeta_h . v_h, v_h . v_h / 2),
taken pointwise or, with ``dealias``, by the 3/2 rule of
:func:`tlwaves.grid.quadratic_spectra`.  Each iteration computes the
stabilizing factor

    m = <L x, x> / <N(x), x>        (Euclidean inner product in R^{2N})

and solves  L x_new = m^2 N(x_old)  mode by mode.  At a solution m = 1;
for the quadratic nonlinearity the squared exponent makes the iteration a
contraction near the wave while suppressing the trivial zero attractor.
Optional acceleration restarts the iteration from a minimal-polynomial
extrapolation of the recent iterates.

:func:`solve` runs one iteration core (:class:`_Core`) on real half
spectra (``rfft`` modes 0..n/2, see :mod:`tlwaves.grid`) that
builds the symbols, determinants and inverse coefficients once per solve.
The products N(x_k) of each iterate are formed once and serve three uses:
the residual check of x_k, and the stabilizing factor and right-hand side
of the next step.  One iteration costs 2 ``rfft`` (the products) and 3
``irfft`` (zeta, v and u, the last two from the same v-hat); a dealiased
one costs 9, 4 of them of length 3n/2 (see :class:`_Core`).
:func:`stabilizing_factor` computes m in physical space from
:func:`nonlinear_rhs`; the acceptance gate checks its homogeneity, and
the tests rebuild the plain step and residual from it as the reference
the core is checked against.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import oracle
from .errors import (
    DegenerateInnerProductError,
    DomainTooSmallError,
    DomainTooSmallWarning,
    NotConvergedError,
    SingularModeError,
    WaveError,
)
from .extrapolation import extrapolate
from .grid import SpectralGrid, helmholtz_apply, helmholtz_symbol, quadratic_spectra
from .params import ModelParameters, require_solitary_wave, saddle_rate

# a converged profile warns (or, under strict_domain, fails) when its boundary value exceeds
# this fraction of its peak
BOUNDARY_DECAY_TOL = 1e-10


@dataclass
class WaveState:
    """Discrete wave candidate: interface deviation, smoothed and raw velocity.

    ``u`` is derived from ``v`` through the Helmholtz symbol and is
    recomputed whenever ``v`` changes; use :meth:`from_zeta_v`.
    """

    grid: SpectralGrid
    zeta: np.ndarray
    v: np.ndarray
    u: np.ndarray

    @classmethod
    def from_zeta_v(cls, grid: SpectralGrid, params: ModelParameters, zeta: np.ndarray, v: np.ndarray) -> "WaveState":
        zeta = np.asarray(zeta, dtype=float)
        v = np.asarray(v, dtype=float)
        if zeta.shape != (grid.n,) or v.shape != (grid.n,):
            raise ValueError(f"state components must have shape ({grid.n},)")
        return cls(grid=grid, zeta=zeta, v=v, u=helmholtz_apply(grid, params, v))


@dataclass(frozen=True)
class SolverConfig:
    """Iteration controls.

    ``tol_residual`` bounds both the residual and the last update (max norm).
    ``mpe_cycle = None`` runs the plain iteration; an integer K >= 2
    restarts from a minimal-polynomial extrapolation every K + 1 steps.
    ``initial_guess = None`` starts from the ODE oracle's profile at the
    grid nodes, or from the scaled sech^2 seed where the oracle fails (see
    :func:`solve`).
    """

    speed: float
    tol_residual: float = 1e-10
    max_iter: int = 500
    mpe_cycle: int | None = None
    initial_guess: WaveState | None = None
    dealias: bool = False
    strict_domain: bool = False

    def __post_init__(self) -> None:
        if not self.tol_residual > 0.0:
            raise ValueError("tolerance must be positive")
        if not math.isfinite(self.tol_residual):
            raise ValueError(f"tolerance must be finite, got {self.tol_residual}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.mpe_cycle is not None and self.mpe_cycle < 2:
            raise ValueError("extrapolation cycle length must be >= 2")


@dataclass
class SolveReport:
    converged: bool = False
    iterations: int = 0
    residual_history: list = field(default_factory=list)
    m_history: list = field(default_factory=list)
    wall_time: float = 0.0
    boundary_ratio: float = 0.0
    warnings: list = field(default_factory=list)
    seed: str = "given"  # "oracle" or "sech2" when solve built the seed, "given" for a caller's initial_guess

    @property
    def m_final(self) -> float:
        return self.m_history[-1] if self.m_history else float("nan")

    def to_dict(self) -> dict:
        """The deterministic fields: wall_time is left out, so equal solves give equal dicts."""
        return {
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_final": self.residual_history[-1] if self.residual_history else None,
            "m_final": self.m_final if self.m_history else None,
            "boundary_ratio": self.boundary_ratio,
            "warnings": list(self.warnings),
            "seed": self.seed,
        }


def mode_determinants(grid: SpectralGrid, params: ModelParameters, speed: float) -> np.ndarray:
    """det(k) = c_s^2 (1 + beta k'^2) - c_crit^2 per rfft mode 0..n/2; positive iff supersonic."""
    return speed**2 * helmholtz_symbol(grid, params) - params.c_crit**2


def _checked_determinants(grid: SpectralGrid, params: ModelParameters, speed: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        det = mode_determinants(grid, params, speed)
    if not np.isfinite(det[-1]):  # the symbol grows with k', so the top mode overflows first
        raise ValueError(f"1 + beta k'^2 overflows at the top mode k' = {grid.half_wavenumbers[-1]:.3g} of l = "
                         f"{grid.half_length:g}, n = {grid.n}: raise --half-length or lower --modes")
    worst = np.min(np.abs(det))
    if worst < 1e-14:
        k_bad = int(np.argmin(np.abs(det)))
        raise SingularModeError(f"mode k = {k_bad} is singular (|det| = {worst:.3e}) at speed {speed}")
    return det


def nonlinear_rhs(
    params: ModelParameters, state: WaveState, dealias: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic right-hand side K (zeta v, v^2 / 2) as grid functions; with ``dealias`` the products are
    those of :func:`~tlwaves.grid.quadratic_spectra`, moved to the nodes before K scales them."""
    if dealias:
        grid = state.grid
        spectra = quadratic_spectra(grid, np.fft.rfft(state.zeta), np.fft.rfft(state.v), dealias=True)
        zv, vv = (np.fft.irfft(spectrum, grid.n) for spectrum in spectra)
    else:
        zv = state.zeta * state.v
        vv = state.v * state.v
    return params.k_coeff * zv, 0.5 * params.k_coeff * vv


def _lhs_physical(grid, params, speed, state):
    row1 = speed * state.zeta - state.v / (params.delta + params.gamma)
    row2 = (params.gamma - 1.0) * state.zeta + speed * helmholtz_apply(grid, params, state.v)
    return row1, row2


def stabilizing_factor(grid: SpectralGrid, params: ModelParameters, speed: float, state: WaveState,
                       dealias: bool = False) -> float:
    """m = <L x, x> / <N(x), x> on the stacked real 2N-vector."""
    l1, l2 = _lhs_physical(grid, params, speed, state)
    n1, n2 = nonlinear_rhs(params, state, dealias=dealias)
    num = float(l1 @ state.zeta + l2 @ state.v)
    den = float(n1 @ state.zeta + n2 @ state.v)
    return _stabilizing_ratio(num, den, state.zeta, state.v)


def _stabilizing_ratio(num: float, den: float, zeta: np.ndarray, v: np.ndarray) -> float:
    scale = float(np.max(np.abs(zeta)) + np.max(np.abs(v)))
    if abs(den) < 1e-300 * max(1.0, scale):
        raise DegenerateInnerProductError("nonlinearity inner product has collapsed to zero")
    return num / den


@dataclass
class _Iterate:
    """An iterate with the products and inner products the next step reuses."""

    state: WaveState
    n1: np.ndarray  # N(x), physical
    n2: np.ndarray
    residual: float  # max norm of L x - N(x)
    num: float  # <L x, x>
    den: float  # <N(x), x>
    spectra: tuple | None = None  # rfft of (n1, n2) when the dealiased products came from them; step uses them up


class _Core:
    """Per-solve constants of the iteration on the rfft modes 0..n/2.

    The symbol and singular-mode checks run once, here.  :meth:`step` costs 2 ``rfft``
    of the products and 3 ``irfft`` (zeta, v, and u from the same v-hat).
    With dealiasing, :func:`~tlwaves.grid.quadratic_spectra` forms the
    products from the half spectra of zeta and v that the step already
    holds (v moved to the fine grid once for both products), and their
    truncated spectra, scaled by K in place, feed the next step directly:
    2 fine ``irfft``, 2 fine ``rfft`` and 2 ``irfft`` for the physical
    products, in place of the two ``rfft`` of the step.

    Both work in place, element by element in the order of the whole-array
    expressions, so the bits are theirs.  :meth:`step` scales the products'
    spectra into the right-hand side, which it consumes, and forms zh, vh and
    the symbol times vh through one scratch array, so the three ``irfft`` hold
    three half spectra besides the iterate.  :meth:`evaluate` forms the rows
    l1 and l2 of L x in turn in one array, with their residuals through one
    scratch array.
    """

    def __init__(self, grid: SpectralGrid, params: ModelParameters, config: SolverConfig):
        speed = config.speed
        det = _checked_determinants(grid, params, speed)
        self.grid, self.params, self.config = grid, params, config
        self.sym = helmholtz_symbol(grid, params)
        # closed-form 2x2 inverse per mode
        self.a11 = speed * self.sym / det
        self.a12 = 1.0 / ((params.delta + params.gamma) * det)
        self.a21 = (1.0 - params.gamma) / det
        self.a22 = speed / det

    def evaluate(self, state: WaveState, zh: np.ndarray | None = None, vh: np.ndarray | None = None) -> _Iterate:
        """Products N(x) once, then the residual and the two inner products of m.

        ``zh`` and ``vh`` are the rfft of zeta and v when the caller has them.
        """
        grid, params, speed = self.grid, self.params, self.config.speed
        zeta, v = state.zeta, state.v
        spectra = None
        if self.config.dealias:
            if zh is None:
                zh, vh = np.fft.rfft(zeta), np.fft.rfft(v)
            spectra = quadratic_spectra(grid, zh, vh, dealias=True)
            np.multiply(params.k_coeff, spectra[0], out=spectra[0])
            np.multiply(0.5 * params.k_coeff, spectra[1], out=spectra[1])
            n1, n2 = (np.fft.irfft(spectrum, grid.n) for spectrum in spectra)
        else:
            n1, n2 = nonlinear_rhs(params, state)
        row = np.multiply(speed, zeta)
        scratch = np.divide(v, params.delta + params.gamma)
        row -= scratch  # l1
        lx = row @ zeta
        res1 = float(np.max(np.abs(np.subtract(row, n1, out=scratch), out=scratch)))
        np.multiply(params.gamma - 1.0, zeta, out=row)
        row += np.multiply(speed, state.u, out=scratch)  # l2
        lv = row @ v
        res2 = float(np.max(np.abs(np.subtract(row, n2, out=scratch), out=scratch)))
        return _Iterate(state, n1, n2, max(res1, res2), float(lx + lv), float(n1 @ zeta + n2 @ v), spectra)

    def step(self, x: _Iterate, m: float) -> _Iterate:
        """Solve L x_new = m^2 N(x) mode by mode and evaluate x_new."""
        n = self.grid.n
        r1, r2 = x.spectra if x.spectra is not None else (np.fft.rfft(x.n1), np.fft.rfft(x.n2))
        x.spectra = None  # consumed: scaled in place into the right-hand side m^2 N(x)
        np.multiply(m * m, r1, out=r1)
        np.multiply(m * m, r2, out=r2)
        zh = self.a11 * r1
        scratch = np.multiply(self.a12, r2)
        zh += scratch
        vh = np.multiply(self.a21, r1, out=r1)
        vh += np.multiply(self.a22, r2, out=scratch)
        del r2
        state = WaveState(grid=self.grid, zeta=np.fft.irfft(zh, n), v=np.fft.irfft(vh, n),
                          u=np.fft.irfft(np.multiply(self.sym, vh, out=scratch), n))
        del scratch
        return self.evaluate(state, zh, vh)


def auto_initial_guess(grid: SpectralGrid, params: ModelParameters, speed: float) -> WaveState:
    """sech^2 seed scaled from the ODE oracle's turning point: :func:`solve`'s fallback
    where :func:`oracle_initial_guess` raises.

    Amplitude zeta_s(v*), which has the sign of K, width 1/lambda from the saddle rate, and the
    long-wave proportionality v = c_s (gamma + delta) zeta.
    """
    problem = oracle.TravelingWaveProblem(params=params, speed=speed)
    curve = oracle.potential(problem)
    amp = oracle.reconstruct_zeta(curve, curve.turning_point)
    lam = curve.saddle_rate
    # sech^2 via exp to avoid cosh overflow on wide domains
    e = np.exp(-np.abs(grid.nodes) * lam)
    sech2 = (2.0 * e / (1.0 + e * e)) ** 2
    zeta = amp * sech2
    v = speed * (params.gamma + params.delta) * zeta
    return WaveState.from_zeta_v(grid, params, zeta, v)


def oracle_initial_guess(grid: SpectralGrid, params: ModelParameters, speed: float) -> WaveState:
    """The ODE oracle's whole solitary profile at the grid nodes, zeta by the first-row algebra.

    The profile is integrated to x_max = min(l, 16/lambda), beyond which its exponential
    tail continuation is exact to ~1e-14 |v*|, with nodes 0.016/lambda or 0.008 of the
    crest's dx/dz apart, whichever is shorter, and at most 20000 of them: close to the
    pole dx/dz at the crest tends to 0.  The quintic interpolant between them is exact
    to ~3e-13 |v*| on the reference wave.  No drift bound applies: a seed that drifts
    still starts the iteration closer to the wave than the sech^2 seed.  The oracle solves the
    signed speed, so the seed at -c_s is (zeta, -v) of the seed at c_s, to the bit.  Raises
    what the oracle raises, a :class:`WaveError` (``PoleProximityError`` where -2U < 0 on the orbit).
    """
    curve = oracle.potential(oracle.TravelingWaveProblem(params=params, speed=speed))
    lam = curve.saddle_rate
    x_max = min(grid.half_length, 16.0 / lam)
    step = max(min(0.016 / lam, 0.008 * curve.crest_dxdz()), x_max / 20000)
    v = oracle.integrate_profile(curve, x_max=x_max, step=step, drift_bound=math.inf).sample_v(grid.nodes)
    return WaveState.from_zeta_v(grid, params, oracle.reconstruct_zeta(curve, v), v)


def solve(grid: SpectralGrid, params: ModelParameters, config: SolverConfig) -> tuple[WaveState, SolveReport]:
    """Run the iteration until both the residual and the update are within ``tol_residual``.

    Without ``config.initial_guess`` the iteration starts from
    :func:`oracle_initial_guess`, or from :func:`auto_initial_guess` where
    the oracle raises a :class:`WaveError`; ``SolveReport.seed`` records
    which (``"oracle"`` or ``"sech2"``).  The iteration is odd in (c_s, v, u):
    at c_s < 0 it returns exactly (zeta, -v, -u) of the solve at |c_s|.

    Raises
    ------
    NoSolitaryWaveError
        If c_s^2 <= c_crit^2 or the nonlinearity coefficient is zero.
    ParameterDomainError
        If c_s is not finite or c_s^2 overflows.
    ValueError
        If the grid's node spacing exceeds the wave's decay length 1/lambda.
    NotConvergedError
        If max_iter is reached, or at the first non-finite stabilizing
        factor or residual; the partial report rides on the exception.
    DomainTooSmallError
        Under ``strict_domain`` when the converged profile does not decay
        below ``BOUNDARY_DECAY_TOL`` (relative) at the boundary.
    """
    speed = config.speed
    require_solitary_wave(params, speed)
    lam = saddle_rate(params, speed)
    if grid.spacing * lam > 1.0:  # the wave would lie between a few nodes
        raise ValueError(f"node spacing {grid.spacing:.3g} of l = {grid.half_length:g}, n = {grid.n} exceeds the "
                         f"wave's decay length 1/lambda = {1.0 / lam:.3g}: lower --half-length or raise --modes")

    started = time.perf_counter()
    report = SolveReport()
    core = _Core(grid, params, config)  # checks the grid's modes before a seed is sampled on it
    state = config.initial_guess
    if state is None:
        try:
            state = oracle_initial_guess(grid, params, speed)
            report.seed = "oracle"
        except WaveError:
            state = auto_initial_guess(grid, params, speed)
            report.seed = "sech2"
    else:
        # a given guess is checked against the grid and its u rebuilt from v
        state = WaveState.from_zeta_v(grid, params, state.zeta, state.v)

    n = grid.n
    x = core.evaluate(state)
    cycle = config.mpe_cycle
    if cycle is not None:
        # iterates are written straight into the rows extrapolate reads
        history = np.empty((cycle + 2, 2 * n))
        np.concatenate([state.zeta, state.v], out=history[0])
        stored = 1

    converged = False
    failure = None
    for _ in range(config.max_iter):
        m = _stabilizing_ratio(x.num, x.den, x.state.zeta, x.state.v)
        new = core.step(x, m)
        report.iterations += 1
        upd = max(
            float(np.max(np.abs(new.state.zeta - x.state.zeta))),
            float(np.max(np.abs(new.state.v - x.state.v))),
        )
        report.residual_history.append(new.residual)
        report.m_history.append(m)
        if not (math.isfinite(m) and math.isfinite(new.residual)):
            failure = f"non-finite iterate at iteration {report.iterations} (m {m:.3e}, residual {new.residual:.3e})"
            break
        x = new
        if x.residual <= config.tol_residual and upd <= config.tol_residual:
            converged = True
            break
        if cycle is not None:
            np.concatenate([x.state.zeta, x.state.v], out=history[stored])
            stored += 1
            if stored == cycle + 2:
                stacked = extrapolate(history, cycle)
                x = core.evaluate(WaveState.from_zeta_v(grid, params, stacked[:n], stacked[n:]))
                history[0] = stacked
                stored = 1

    state = x.state
    report.wall_time = time.perf_counter() - started
    report.converged = converged
    peak = float(np.max(np.abs(state.zeta)))
    edge = float(np.abs(state.zeta[0]))
    report.boundary_ratio = edge / peak if peak > 0 else 0.0

    if not converged:
        raise NotConvergedError(
            failure or f"no convergence in {config.max_iter} iterations "
            f"(residual {report.residual_history[-1]:.3e})",
            report=report,
        )

    if report.boundary_ratio > BOUNDARY_DECAY_TOL:
        msg = (
            f"profile decays only to {report.boundary_ratio:.3e} of its peak at the boundary; "
            f"the domain half-length {grid.half_length} is too small"
        )
        if config.strict_domain:
            raise DomainTooSmallError(msg)
        report.warnings.append(msg)
        warnings.warn(msg, DomainTooSmallWarning)

    return state, report
