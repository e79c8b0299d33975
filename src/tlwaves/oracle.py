"""Independent solitary-wave oracle from the traveling-wave ODE.

Eliminating the interface deviation from the traveling-wave system leaves
a planar conservative ODE for the smoothed velocity profile,

    v'' = v/beta - G'(v),      E = (v')^2 / 2 + U(v),   U(v) = -v^2/(2 beta) + G(v),

whose solitary wave is the zero-energy orbit homoclinic to the saddle at
the origin.  The profile starts at the turning point v* (the nonzero root
of U) with v'(0) = 0 and decays like exp(-lambda |x|) with
lambda = sqrt((c_s^2 - c_crit^2) / (beta c_s^2)).

The system is symmetric under (c_s, zeta, v, u) -> (-c_s, zeta, -v, -u),
so the oracle computes one wave, the right-moving one at |c_s|, for either
sign of the speed; the left-moving wave is its image under
:func:`negative_speed_map`, as is the solver's.  The problem keeps the speed
as given, so every error names it; :func:`potential` checks it with
``params.require_solitary_wave``, as ``solver.solve`` does.

:class:`PotentialCurve` derives its constants once and writes each branch
of U once, valid on floats and arrays: a series for |v / v_pole| < 1e-3,
where log1p cancels, and the closed form elsewhere.  ``U`` applies them to
arrays, and :func:`potential` bisects for v* with them on floats, so the
search and the profile evaluate one U.  U is never evaluated at the pole:
if it keeps its sign up to (1 - 1e-15) v_pole, PoleProximityError.

Numerical strategy: on the zero-energy orbit the first integral gives the
slope exactly, v' = -sign(v*) sqrt(-2U(v)) for x > 0, and position is a
quadrature, x(v) = int_v^{v*} dw / sqrt(-2U(w)).  The substitution
v = v* exp(-z^2), z >= 0, turns it into x(z) = int_0^z f with

    f = dx/dz = 2 z |v| / sqrt(-2U(v)),    f(0) = sqrt(2 v* / U'(v*)),

which is smooth on [0, inf): the crest's inverse square root and the
tail's logarithm are both gone, and f ~ 2 z / lambda far out.  A coarse
map x(z) by 16-point Gauss-Legendre on 256 z-panels, with its C1 cubic
Hermite inverse, places the nodes at x ~ i * step, so ``step`` is the node
spacing (f(0) where -2U rounds to <= 0 next to the crest); the nodes' own x
then follows from a trapezoid in z with the end-point derivative correction,
with f' in closed form.  Within 0.2 |v*| of the crest, U(v) cancels, so -2U
is the running integral 2 int_v^{v*} U' over the nodes (trapezoid in v with
the U'' end correction).  The nodes are evaluated in blocks of 4096 in one
scratch buffer, with v'' = ode_rhs(v) and v''' = -U''(v) v' (the x and v'''
rows hold z and U''(v) until these replace them), in a few dozen numpy passes
per block.  The kernels order their terms so that at most about six more
arrays of the block's length are live, so a block's peak (~0.44 MiB by
tracemalloc) stays near that of half as wide a block with all its
temporaries (~0.38 MiB).  One sampler serves every caller: v is the quintic Hermite
interpolant of (v, v', v'') and v' that of (v', v'', v'''), whose error falls
like step^6 where a cubic's fell like step^4, so a seed's nodes can lie 4x
further apart at the same accuracy.  ``energy_max`` is max |v'^2/2 + U(v)|
of that interpolant at the node midpoints, where it reads
v_mid = (v0 + v1)/2 + 5h/32 (v0' - v1') + h^2/64 (v0'' + v1''), and v'_mid
the same one derivative up.  A mask picks the nodes kept: all of them (the
solver's seed), or, given the abscissae a caller will sample (the ``oracle``
command's rows), the two end nodes of each piece that holds one and the last
two nodes, which serve those beyond them.  Each quintic piece reads only its
end nodes, so the samples are the full profile's to the byte, and the memory
kept follows the sample count.  The samples are taken ascending: as given, or
sorted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import PoleProximityError, StepSizeTooLargeError, WaveError
from .params import ModelParameters, require_solitary_wave, saddle_rate

_SERIES_CUTOFF = 1e-3  # |v/v_pole| below which log1p cancellation kicks in
_PANELS = 256  # uniform z-panels of the coarse map x(z) that places the nodes
_CREST_BAND = 0.2  # |v* - v| < 0.2 |v*|: -2U from the running integral of U'
_BLOCK = 4096  # nodes per block: beside 5 scratch rows, at most ~6 temporaries of this length (~0.44 MiB)
# the positive nodes and their weights of 16-point Gauss-Legendre on [-1, 1], as
# numpy.polynomial.legendre.leggauss(16) gives them; the rule is exactly symmetric
_GL_HALF_NODES = (0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
                  0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499)
_GL_HALF_WEIGHTS = (0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
                    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176)


@dataclass(frozen=True)
class TravelingWaveProblem:
    """A parameter set together with a traveling-wave speed of either sign, which :func:`potential` checks."""

    params: ModelParameters
    speed: float


def negative_speed_map(zeta, v, u):
    """Solution map (c_s, zeta, v, u) -> (-c_s, zeta, -v, -u)."""
    return zeta, -v, -u


@dataclass(frozen=True)
class PotentialCurve:
    """Closed-form potential data for one traveling-wave problem.

    The curve is that of the right-moving wave at |c_s|: a problem with
    speed < 0 gets the same curve, and its wave is the image under
    :func:`negative_speed_map`.  ``cs`` = |c_s|, ``c2`` = c_crit^2 / (beta c_s K)
    and ``cubic``, U's v^3 coefficient, are derived; ``r`` below is v / v_pole.
    """

    problem: TravelingWaveProblem
    v_pole: float
    turning_point: float
    saddle_rate: float
    cs: float = field(init=False, repr=False, compare=False)
    c2: float = field(init=False, repr=False, compare=False)
    cubic: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, cs = self.problem.params, abs(self.problem.speed)
        c2 = p.c_crit**2 / (p.beta * cs * p.k_coeff)
        object.__setattr__(self, "cs", cs)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "cubic", p.k_coeff / (6.0 * p.beta * cs) + c2 / (3.0 * self.v_pole**2))

    def _series(self, v, r):
        """U for |r| < _SERIES_CUTOFF: -lambda^2 v^2 / 2, the cubic, and the log's series from r^4 on,
        c2 ((r r) (r r) (1/4 + r (1/5 + r (1/6 + r / 7)))) v_pole.  An array r becomes r^4 in place: its callers
        pass one they drop."""
        out = -0.5 * self.saddle_rate**2 * v * v + self.cubic * (v * v * v)
        tail = 1 / 4 + r * (1 / 5 + r * (1 / 6 + r / 7))
        r *= r
        r *= r
        tail *= r
        tail *= self.c2
        tail *= self.v_pole
        out += tail
        return out

    def _closed(self, v, r):
        """U = -v^2 / (2 beta) + K v^3 / (6 beta c_s) + c2 (-v - v_pole log1p(-r)), NaN beyond the pole."""
        p = self.problem.params  # (C + B) + A is A + (B + C) to the bit, and C is built before A is live
        return (self.c2 * (-v - self.v_pole * np.log1p(-r)) + p.k_coeff * (v * v * v) / (6.0 * p.beta * self.cs)
                + -v * v / (2.0 * p.beta))

    def U(self, v):
        """Potential energy U(v) = -v^2/(2 beta) + G(v), each sample's value from its own branch.

        The branch of most samples runs on all of them in one pass, and the other, if any, overwrites its own
        samples: nearly every quadrature block lies wholly on one side of the cutoff.
        """
        v = np.asarray(v, dtype=float)
        r = v / self.v_pole
        small = np.abs(r) < _SERIES_CUTOFF  # False for NaN, which takes the closed form
        count = np.count_nonzero(small)
        series = 2 * count > small.size
        with np.errstate(invalid="ignore"):  # the closed form is NaN beyond the pole
            out = (self._series if series else self._closed)(v, r)
            del r
            if 0 < count < small.size:
                other = ~small if series else small
                w = v[other]
                out[other] = (self._closed if series else self._series)(w, w / self.v_pole)
        return out if out.ndim else float(out)

    def G_prime(self, v, gap=None):
        """G'(v) = (K v^2 / 2 + c_crit^2 v / gap) / (beta c_s), gap = c_s - K v unless the caller has it."""
        p = self.problem.params
        gap = self.cs - p.k_coeff * v if gap is None else gap
        return (0.5 * p.k_coeff * v * v + p.c_crit**2 * v / gap) / (p.beta * self.cs)

    def U_second(self, v, gap=None):
        """U''(v) = -1/beta + (K v + c_crit^2 c_s / gap^2) / (beta c_s), gap = c_s - K v unless given."""
        p = self.problem.params
        K, cs = p.k_coeff, self.cs
        gap = cs - K * v if gap is None else gap
        return -1.0 / p.beta + (K * v + p.c_crit**2 * cs / gap**2) / (p.beta * cs)

    def ode_rhs(self, v, gap=None):
        """Acceleration v'' = v/beta - G'(v)."""
        return v / self.problem.params.beta - self.G_prime(v, gap)

    def crest_dxdz(self) -> float:
        """dx/dz = sqrt(2 v* / U'(v*)) at the crest, where v = v* exp(-z^2)."""
        return math.sqrt(2.0 * self.turning_point / -self.ode_rhs(self.turning_point))


def potential(problem: TravelingWaveProblem) -> PotentialCurve:
    """Build the potential curve and locate the turning point v*.

    Raises
    ------
    NoSolitaryWaveError
        If c_s^2 <= c_crit^2 (the origin is not a saddle) or the
        nonlinearity coefficient vanishes.
    ParameterDomainError
        If c_s is not finite or c_s^2 overflows.
    PoleProximityError
        If U does not change sign below 1 - 1e-15 of the pole: v* is then
        closer to the pole than the profile can be resolved.
    """
    p = problem.params
    require_solitary_wave(p, problem.speed)
    pole = abs(problem.speed) / p.k_coeff
    curve = PotentialCurve(problem=problem, v_pole=pole, turning_point=math.nan,
                           saddle_rate=saddle_rate(p, problem.speed))
    series, closed = curve._series, curve._closed  # U's branches, bound once for the search on floats
    # U(t*pole) changes sign once on (0, 1): negative near the saddle, positive near the pole where G
    # blows up.  The bracket's ends are on either side of the cutoff; the midpoints take U's branch.
    # Each evaluation at v = t*pole takes r = v / pole, as U does.
    lo, hi = 1e-12, 1.0 - 1e-9
    f_lo = series(lo * pole, lo * pole / pole)
    f_hi = closed(hi * pole, hi * pole / pole)
    while f_hi <= 0.0 and hi < 1.0 - 1e-14:  # to 1 - 1e-12, then 1 - 1e-15; a third bump would round to 1
        hi = 1.0 - (1.0 - hi) * 1e-3
        f_hi = closed(hi * pole, hi * pole / pole)
    if f_lo >= 0.0:
        raise WaveError(f"turning-point bracket failed: U({lo * pole:.3g}) = {f_lo:.3g}, "
                        f"U({hi * pole:.3g}) = {f_hi:.3g}")
    if f_hi <= 0.0:
        raise PoleProximityError(f"speed {problem.speed:g}: turning point within 1e-15 |v_pole| of v_pole = {pole:.6g}")
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        v = mid * pole
        r = v / pole
        if (series(v, r) if abs(r) < _SERIES_CUTOFF else closed(v, r)) < 0.0:
            lo = mid
        else:
            hi = mid
    return replace(curve, turning_point=0.5 * (lo + hi) * pole)


def _hermite(x: np.ndarray, y: np.ndarray, dy: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Piecewise cubic Hermite interpolant of values y and slopes dy at nodes x, at ascending t in [x[0], x[-1]].

    The t in each piece are counted from where the inner nodes fall among them, one search per node rather than
    per t, and the piece's x0, h, y and h dy at either end are repeated that often; t = x[-1] is in the last piece.
    """
    counts = np.diff(np.concatenate(([0], t.searchsorted(x[1:-1]), [t.size])))
    h = x[1:] - x[:-1]
    s = (t - x[:-1].repeat(counts)) / h.repeat(counts)
    r = 1.0 - s
    return ((y[:-1].repeat(counts) * (1.0 + 2.0 * s) + (h * dy[:-1]).repeat(counts) * s) * r * r
            + (y[1:].repeat(counts) * (3.0 - 2.0 * s) - (h * dy[1:]).repeat(counts) * r) * s * s)


def _quintic(x: np.ndarray, y: np.ndarray, dy: np.ndarray, d2y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Piecewise quintic Hermite interpolant of values y, slopes dy and curvatures d2y at nodes x, at t in
    [x[0], x[-1]].

    Two-point Taylor form: from each end, at distance u = s or r = 1 - s in units of the piece, its quadratic
    Taylor polynomial corrected to y + u (3y + h y' + u (6y + 3h y' + h^2 y'' / 2)), with y' of the left end and
    -y' of the right one, weighted by the cube of the distance to the other end.  Each term is built in place.
    """
    i = np.clip(np.searchsorted(x, t, side="right") - 1, 0, x.size - 2)
    h = x[i + 1] - x[i]
    s = (t - x[i]) / h
    r = 1.0 - s
    hh = 0.5 * h * h
    out = np.zeros_like(s)
    for j, u, w, sign in ((i, s, r, 1.0), (i + 1, r, s, -1.0)):
        yj = y[j]
        hd = h * dy[j]
        hd *= sign
        term = hh * d2y[j]
        term += 6.0 * yj
        term += 3.0 * hd
        term *= u
        term += 3.0 * yj
        term += hd
        term *= u
        term += yj
        term *= w * w * w
        out += term
    return out


@dataclass
class OracleProfile:
    """Half-line samples of the solitary profile with quintic Hermite evaluation.

    ``x`` ascends to just beyond x_max, from x[0] = 0 at the crest; ``v``,
    ``v_prime``, ``v_second`` = v'' and ``v_third`` = v''' are the
    right-moving wave's at the nodes, v'' from the ODE and v''' = -U''(v) v'.
    Between samples, v is the quintic Hermite interpolant of the stored
    (v, v', v'') and v' that of (v', v'', v''').  Each quintic piece uses
    only its two end samples, so evaluating at |x| (times sign(x) for v') is
    the interpolant of the even/odd mirrored samples.  Sampling
    outside the stored range continues the tail as C exp(-lambda (|x| - x_max)),
    and only the samples inside it are interpolated.
    A profile built for given abscissae holds only the ends of the pieces that
    hold them and the last two nodes; it samples those abscissae, and any |x|
    beyond its last node, as the full profile does.
    """

    curve: PotentialCurve
    x: np.ndarray
    v: np.ndarray
    v_prime: np.ndarray
    v_second: np.ndarray
    v_third: np.ndarray
    energy_max: float

    def _sample(self, xq, values: np.ndarray, slopes: np.ndarray, curvatures: np.ndarray) -> np.ndarray:
        xa = np.abs(np.asarray(xq, dtype=float))
        x_end = self.x[-1]
        inside = xa <= x_end
        out = np.empty_like(xa)
        out[inside] = _quintic(self.x, values, slopes, curvatures, xa[inside])
        out[~inside] = values[-1] * np.exp(-self.curve.saddle_rate * (xa[~inside] - x_end))
        return out

    def sample_v(self, xq) -> np.ndarray:
        out = self._sample(xq, self.v, self.v_prime, self.v_second)
        return out if out.ndim else float(out)

    def sample_v_prime(self, xq) -> np.ndarray:
        # stored arrays are d/dx on x > 0; oddness via the sign factor
        out = np.sign(np.asarray(xq, dtype=float)) * self._sample(xq, self.v_prime, self.v_second, self.v_third)
        return out if out.ndim else float(out)


def integrate_profile(curve: PotentialCurve, x_max: float, step: float = 1e-3,
                      samples: np.ndarray | None = None, drift_bound: float = 1e-10) -> OracleProfile:
    """Samples of the solitary profile at nodes x_i ~ i * step, from the crest to beyond x_max.

    Quadrature of the first integral in z, where v = v* exp(-z^2) (see the
    module docstring).  ``energy_max`` is the largest |v'^2/2 + U(v)| of the
    quintic Hermite interpolant at the node midpoints, which must stay within
    ``drift_bound`` times max(1, max |U|): the ``oracle`` command keeps the
    default 1e-10, and the solver's seed passes inf, which a NaN drift alone
    fails.  It keeps every node or, given ``samples``, the abscissae the
    caller will sample, the at most 2 len(samples) + 2 nodes they read.

    Raises
    ------
    ValueError
        If x_max or step is not positive and finite.
    PoleProximityError
        If -2U(v) < 0 at a node: v* is so close to the pole that U's
        round-off changes its sign on the orbit.
    StepSizeTooLargeError
        If energy_max exceeds drift_bound times max(1, max |U|), or is NaN.
    """
    if not (0.0 < x_max < math.inf and 0.0 < step < math.inf):
        raise ValueError("x_max and step must be positive and finite")
    lam = curve.saddle_rate
    vstar = curve.turning_point
    crest_sign = math.copysign(1.0, vstar)
    linear = 1e-140 * abs(vstar)  # below this |v|, v'/v = -lam to round-off and v^2 may underflow

    def rate(av, root, tail):
        """|v'/v| on the orbit, from |v|, root = sqrt(-2U(v)) = |v'| and the mask of |v| < linear, where root / av
        may be 0/0: its callers ignore the division's warnings."""
        return np.where(tail, lam, root / av)

    # coarse map x(z) on uniform z-panels; -2U(v) <= lam^2 v^2 on the orbit, so x(z) >= z^2 / lam
    # and z_end maps beyond the last node
    n = int(x_max / step) + 1
    z_end = math.sqrt(lam * (n + 1) * step)
    z_edges = np.linspace(0.0, z_end, _PANELS + 1)
    f0 = curve.crest_dxdz()  # the limit z -> 0

    def coarse_map():
        """x at the z-panel edges by Gauss-Legendre on each panel, and dz/dx there."""
        gl_nodes = np.concatenate([-np.array(_GL_HALF_NODES[::-1]), _GL_HALF_NODES])
        gl_weights = np.concatenate([_GL_HALF_WEIGHTS[::-1], _GL_HALF_WEIGHTS])
        half = 0.5 * z_end / _PANELS
        zc = np.concatenate([(z_edges[:-1, None] + half * (1.0 + gl_nodes)).ravel(), z_edges[1:]])
        vc = vstar * np.exp(-zc * zc)
        ac = np.abs(vc)
        with np.errstate(divide="ignore", invalid="ignore"):
            fc = 2.0 * zc / rate(ac, np.sqrt(-2.0 * curve.U(vc)), ac < linear)
        # -2U rounds to <= 0 where U cancels next to the crest; the map only places the nodes, so it takes f0 there
        fc[~((0.0 < fc) & (fc < math.inf))] = f0
        x_edges = np.concatenate([[0.0], np.cumsum(half * (fc[:-_PANELS].reshape(_PANELS, -1) @ gl_weights))])
        return x_edges, 1.0 / np.concatenate([[f0], fc[-_PANELS:]])

    x_edges, z_slopes = coarse_map()

    def abscissae(z, v, vpp, root, tail, x_first):
        """x over z's row from x[0] = x_first, by the end-corrected trapezoid in z of f = dx/dz = 2 z / rate and
        its z-derivative."""
        r = rate(np.abs(v), root, tail)
        q = 1.0 - vpp / v / (r * r)
        q[tail] = 0.0
        fp = 2.0 / r * (1.0 - 2.0 * z * z * q)
        del q
        f = 2.0 * z / r
        del r
        if z[0] == 0.0:  # the crest, where f and f' take their limits z -> 0
            f[0], fp[0] = f0, 0.0
        dz = z[1:] - z[:-1]
        area = 0.5 * dz * (f[:-1] + f[1:])
        del f
        area += dz * dz / 12.0 * (fp[:-1] - fp[1:])
        area.cumsum(out=z[1:])
        z[1:] += x_first
        z[0] = x_first

    def drift(x, v, vp, vpp, vppp):
        """max |E| of the quintic Hermite interpolant at the midpoints, of (v, v', v'') and (v', v'', v''')."""
        h = x[1:] - x[:-1]
        hh = h * h / 64.0
        h *= 5.0 / 32.0
        vp_mid = 0.5 * (vp[:-1] + vp[1:]) + h * (vpp[:-1] - vpp[1:]) + hh * (vppp[:-1] + vppp[1:])
        vp_mid *= 0.5 * vp_mid  # the kinetic term (0.5 v'_mid) v'_mid
        v_mid = 0.5 * (v[:-1] + v[1:]) + h * (vp[:-1] - vp[1:]) + hh * (vpp[:-1] + vpp[1:])
        del h, hh  # so that U runs beside two arrays
        return np.abs(vp_mid + curve.U(v_mid)).max()

    # rows x, v, v', v'', v''' of the kept nodes: each block is computed in a scratch buffer and a mask picks the
    # nodes it keeps, every node without samples, else the ends of the pieces that hold a sample
    every = samples is None
    t = np.abs(np.asarray([] if every else samples, dtype=float)).ravel()
    if not (t[:-1] <= t[1:]).all():  # the samples ascending: as given, or sorted
        t = np.sort(t)
    nodes = np.empty((5, n + 1 if every else min(n + 1, 2 * t.size + 2)))
    scratch = np.empty((5, _BLOCK + 1))
    kept = 0  # the nodes kept
    carry = every  # the previous block's last node, this block's first, is kept
    band = _CREST_BAND * abs(vstar)
    in_band = True  # the previous block ended in the crest band
    x_last = m_last = 0.0
    energy_max = depth = -math.inf  # running maxima of the blocks' drift and of m
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 where the tail mask applies; m < 0 is raised below
        for i0 in range(1, n + 1, _BLOCK):
            i1 = min(i0 + _BLOCK, n + 1)
            block = scratch[:, : i1 - i0 + 1]
            x, v, vp, vpp, vppp = block
            # node i0 - 1 (the crest for the first block) again, then the block's nodes: the C1 Hermite inverse
            # z(x) places them at x ~ i * step, and the same i gives the same z in both blocks.  The x row holds
            # z until the abscissae replace it, the v''' row U''(v) until v''' = -U''(v) v' does
            np.multiply(np.arange(i0 - 1, i1), step, out=x)
            z = x
            z[:] = _hermite(x_edges, z_edges, z_slopes, x)
            np.multiply(vstar, np.exp(-z * z), out=v)
            gap = curve.cs - curve.problem.params.k_coeff * v
            vpp[:] = curve.ode_rhs(v, gap)
            vppp[:] = curve.U_second(v, gap)
            upp = vppp
            del gap  # else it lives on through the next block's Hermite inverse
            # m = -2U(v), in the v' row; inside the crest band U cancels, so m = 2 int_v^v* U' (U' = -v'') by
            # the end-corrected trapezoid
            m = vp
            m[0] = m_last
            c = 1
            if in_band:  # the band's nodes are a prefix
                c += np.count_nonzero(np.abs(v[1:] - vstar) < band)
                in_band = c == v.size
            if c > 1:
                h = v[: c - 1] - v[1:c]
                m[1:c] = m_last + np.cumsum(h * h / 6.0 * (upp[1:c] - upp[: c - 1]) - h * (vpp[: c - 1] + vpp[1:c]))
            np.multiply(curve.U(v[c:]), -2.0, out=m[c:])
            depth = np.maximum(depth, m.max())
            m_last = m[-1]
            np.sqrt(m, out=vp)  # |v'|, signed below
            tail = np.abs(v) < linear
            abscissae(z, v, vpp, vp, tail, x_last)
            vp *= -crest_sign
            vp[tail] = -lam * v[tail]
            if np.isnan(vp).any():  # m < 0: U's round-off close to the pole, which no smaller step removes
                raise PoleProximityError(f"speed {curve.problem.speed:g}: -2U < 0 on the orbit, whose turning point "
                                         f"lies {1.0 - vstar / curve.v_pole:.3g} |v_pole| below v_pole = "
                                         f"{curve.v_pole:.6g}")
            if i0 == 1:
                vp[0] = 0.0  # the crest
            vppp *= vp
            np.negative(vppp, out=vppp)  # v''' = -U''(v) v'
            x_last = x[-1]
            energy_max = np.maximum(energy_max, drift(x, v, vp, vpp, vppp))
            # the piece [x[k], x[k+1]) holds the samples of this block; the last block also keeps its last two
            # nodes, which sample |x| >= x[-1] and the tail, and any other block leaves its last node to the next
            keep = np.full(x.size, every)
            keep[0] = carry
            end = t.searchsorted(x_last)  # the samples below the block's last node, which t then loses
            k = x.searchsorted(t[:end], side="right") - 1
            keep[k] = keep[k + 1] = True
            t = t[end:]
            if i1 == n + 1:
                keep[-2:] = True
            else:
                carry, keep[-1] = keep[-1], False
            count = np.count_nonzero(keep)
            block.compress(keep, axis=1, out=nodes[:, kept : kept + count])
            kept += count

    energy_max = float(energy_max)
    scale = max(1.0, 0.5 * float(depth))  # max |U| = max(-2U) / 2 on the orbit
    if not energy_max <= drift_bound * scale:  # NaN-safe: NaN fails the comparison
        raise StepSizeTooLargeError(
            f"energy drift {energy_max:.3e} exceeds {drift_bound:g} * {scale:.3g}; reduce the step"
        )
    x_out, v_out, vp_out, vpp_out, vppp_out = nodes[:, :kept]
    return OracleProfile(curve=curve, x=x_out, v=v_out, v_prime=vp_out, v_second=vpp_out, v_third=vppp_out,
                         energy_max=energy_max)


def _off_pole(curve: PotentialCurve, v_beta) -> np.ndarray:
    """v_beta as an array; raises PoleProximityError within 1e-12 of the pole."""
    v = np.asarray(v_beta, dtype=float)
    if np.any(np.abs(v - curve.v_pole) < 1e-12 * abs(curve.v_pole)):
        raise PoleProximityError("velocity value within 1e-12 of the reconstruction pole")
    return v


def reconstruct_zeta(curve: PotentialCurve, v_beta):
    """Interface deviation from the velocity profile (first-row algebra).

    zeta = v / ((gamma + delta) (c_s - K v)) with c_s = |c_s|.
    """
    p = curve.problem.params
    v = _off_pole(curve, v_beta)
    out = v / ((p.gamma + p.delta) * (curve.cs - p.k_coeff * v))
    return out if out.ndim else float(out)


def reconstruct_u(curve: PotentialCurve, v_beta):
    """Unsmoothed velocity u = beta * G'(v) along the orbit."""
    out = curve.problem.params.beta * np.asarray(curve.G_prime(_off_pole(curve, v_beta)))
    return out if out.ndim else float(out)
