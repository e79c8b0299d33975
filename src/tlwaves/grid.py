"""Periodic Fourier collocation grid on (-l, l).

The one transform is the half spectrum (:func:`half_spectrum`): the rfft
modes 0..n/2 of a real field, Nyquist last, on
:attr:`SpectralGrid.half_wavenumbers`, unnormalized forward and ``1/N``
inverse.  Every path uses it, the ``--spectrum-out`` file format
(:func:`spectrum_columns`) included.  Parseval counts the interior modes
twice: ``sum f_j^2 == (|F_0|^2 + 2 sum_{0<k<n/2} |F_k|^2 + |F_{n/2}|^2) / n``.
All per-mode symbol operations (differentiation, Helmholtz) are
normalization-invariant.

The Nyquist mode n/2 of a real field has no quadrature partner: it gets no
odd derivative, and the linear flow of :mod:`tlwaves.dispersion` holds it
fixed.  :attr:`SpectralGrid.odd_wavenumbers` states this once, for
:func:`differentiate`, ``dispersion.evolve_linear`` and ``evolve.evolve``.

The quadratic products zeta v and v^2 of the solver and of the time
stepper are :func:`quadratic_spectra`, taken at the nodes or by the 3/2
rule; it alone states the rule and its Nyquist convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import WaveError
from .params import ModelParameters


@dataclass(frozen=True)
class SpectralGrid:
    """Uniform collocation grid with precomputed wavenumbers.

    Parameters
    ----------
    half_length : float
        Half-width l of the periodic interval (-l, l).
    n : int
        Number of collocation points, even and >= 8.

    Attributes
    ----------
    nodes : (n,) array
        x_j = -l + j*h with h = :attr:`spacing` = 2l/n, j = 0..n-1.
    half_wavenumbers : (n/2 + 1,) array
        Scaled wavenumbers k' = pi*k/l of the rfft modes k = 0..n/2.
    odd_wavenumbers : (n/2 + 1,) array
        ``half_wavenumbers`` with the Nyquist mode n/2 set to 0: the wavenumbers of
        odd derivatives and of the linear flow.
    """

    half_length: float
    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    half_wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)
    odd_wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.half_length > 0.0:
            raise ValueError(f"half_length must be positive, got {self.half_length}")
        if not self.half_length < np.inf:
            raise ValueError(f"half_length must be finite, got {self.half_length}")
        if self.n % 2 != 0 or self.n < 8:
            raise ValueError(f"mode count n must be even and >= 8, got {self.n}")
        object.__setattr__(self, "nodes", -self.half_length + self.spacing * np.arange(self.n))
        with np.errstate(over="ignore"):  # k' = inf for a tiny half_length; the solver's symbol check refuses it
            k = np.pi * np.arange(self.n // 2 + 1) / self.half_length
        object.__setattr__(self, "half_wavenumbers", k)
        object.__setattr__(self, "odd_wavenumbers", np.append(k[:-1], 0.0))

    @classmethod
    def from_nodes(cls, x: np.ndarray) -> "SpectralGrid":
        """The grid of the nodes x_j = -l + j*h: l = -x[0], exact for every profile the program
        writes ('%.17g' round-trips it), and n = x.size.  Raises :class:`WaveError` for other nodes."""
        if x.size < 8:
            raise WaveError(f"input holds {x.size} nodes; a periodic solver profile has at least 8")
        half_length = -float(x[0])
        spacing = float(x[1] - x[0])
        if x.size % 2 or abs(spacing * x.size / 2.0 - half_length) > 1e-9 * max(1.0, half_length):
            raise WaveError("input is not a periodic solver profile (expected nodes -l + j*h)")
        if float(np.max(np.abs(np.diff(x) - spacing))) > 1e-9 * spacing:
            raise WaveError("input grid is not uniformly spaced")
        return cls(half_length=half_length, n=x.size)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.n


def half_spectrum(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """rfft modes 0..n/2 (unnormalized) of a real grid function; ``np.fft.irfft(., grid.n)`` inverts it."""
    values = np.asarray(values)
    if values.shape != (grid.n,):
        raise ValueError(f"grid function must have shape ({grid.n},), got {values.shape}")
    return np.fft.rfft(values)


def differentiate(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """Pseudospectral first derivative: mode k times i k' on :attr:`SpectralGrid.odd_wavenumbers`."""
    return np.fft.irfft(1j * grid.odd_wavenumbers * half_spectrum(grid, values), grid.n)


def helmholtz_symbol(grid: SpectralGrid, params: ModelParameters) -> np.ndarray:
    """Symbol 1 + beta*k'^2 of the operator 1 - beta*d_xx on the rfft modes 0..n/2.

    Strictly >= 1 for beta > 0, so the inverse never divides by a small
    number.
    """
    return 1.0 + params.beta * grid.half_wavenumbers**2


def helmholtz_apply(grid: SpectralGrid, params: ModelParameters, values: np.ndarray) -> np.ndarray:
    """Apply 1 - beta*d_xx, i.e. recover u from the smoothed velocity v."""
    return np.fft.irfft(helmholtz_symbol(grid, params) * half_spectrum(grid, values), grid.n)


def helmholtz_solve(grid: SpectralGrid, params: ModelParameters, values: np.ndarray) -> np.ndarray:
    """Invert 1 - beta*d_xx, i.e. smooth u into v."""
    return np.fft.irfft(half_spectrum(grid, values) / helmholtz_symbol(grid, params), grid.n)


def spectrum_columns(grid: SpectralGrid, values: np.ndarray) -> dict:
    """(k, k', re, im) columns of the rfft modes k = 0..n/2 of a real grid function, Nyquist last.

    The modes -n/2+1..-1 of the full layout are the conjugates of 1..n/2-1, so the
    half holds the whole spectrum in n/2 + 1 rows.
    """
    spectrum = half_spectrum(grid, values)
    return {"k": np.arange(grid.n // 2 + 1, dtype=float), "kp": grid.half_wavenumbers.copy(),
            "re": spectrum.real, "im": spectrum.imag}


def quadratic_spectra(grid: SpectralGrid, zh: np.ndarray, vh: np.ndarray,
                      dealias: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """rfft modes 0..n/2 of the products zeta v and v^2, given those of zeta and v.

    Plain, the products are taken at the n nodes, and their modes beyond n/2 alias.
    With ``dealias``, Orszag's 3/2 rule (J. Atmos. Sci. 28, 1971): both fields are
    zero-padded to m = 3n/2 points, their values scaled by m/n and multiplied there,
    and the products' modes 0..n/2 kept, scaled by n/m.  The Nyquist mode n/2 has no
    sign partner on the n-point grid: an input's Nyquist coefficient is split evenly
    between modes +-n/2 of the fine grid (the real trigonometric interpolant), and the
    kept one is the real part of the fine grid's mode n/2 (the modes -n/2..n/2-1).
    """
    n = grid.n
    if not dealias:
        zeta, v = np.fft.irfft(zh, n), np.fft.irfft(vh, n)
        return np.fft.rfft(zeta * v), np.fft.rfft(v * v)
    half, m = n // 2, 3 * n // 2
    padded, fine = np.zeros(m // 2 + 1, dtype=complex), []
    for spectrum in (zh, vh):  # one padded buffer, each field's modes in turn
        padded[:half], padded[half] = spectrum[:half], 0.5 * spectrum[half]
        fine.append(np.fft.irfft(padded, m))
        fine[-1] *= m / n
    del padded  # freed before the products and their transforms
    fine[0] *= fine[1]  # zeta v
    fine[1] *= fine[1]  # v^2
    spectra = tuple(np.fft.rfft(values)[: half + 1] * (n / m) for values in fine)
    for spectrum in spectra:
        spectrum[half] = spectrum[half].real
    return spectra
