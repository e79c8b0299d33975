"""Periodic Fourier collocation grid on (-l, l).

DFT normalization convention used throughout the package: unnormalized
forward transform, ``1/N`` inverse.  Parseval then reads
``sum |f_j|^2 == (1/N) * sum |fhat_k|^2``.  All per-mode symbol operations
(differentiation, Helmholtz) are normalization-invariant.

Compute paths use real half spectra (rfft modes 0..n/2, Nyquist last) on
:attr:`SpectralGrid.half_wavenumbers`; the full complex layout is only the
public DFT and the ``--spectrum-out`` file format (:func:`spectrum_columns`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
        x_j = -l + j*h with h = 2l/n, j = 0..n-1.
    mode_numbers : (n,) int array
        Signed integer mode indices in FFT layout: 0..n/2-1, -n/2..-1.
    wavenumbers : (n,) array
        Scaled wavenumbers k' = pi*k/l in the same layout.
    half_wavenumbers : (n/2 + 1,) array
        k' of the rfft modes 0..n/2, i.e. ``abs(wavenumbers[:n/2 + 1])``.
    """

    half_length: float
    n: int
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    mode_numbers: np.ndarray = field(init=False, repr=False, compare=False)
    wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)
    half_wavenumbers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.half_length > 0.0:
            raise ValueError(f"half_length must be positive, got {self.half_length}")
        if self.n % 2 != 0 or self.n < 8:
            raise ValueError(f"mode count n must be even and >= 8, got {self.n}")
        h = 2.0 * self.half_length / self.n
        nodes = -self.half_length + h * np.arange(self.n)
        modes = np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "mode_numbers", modes)
        object.__setattr__(self, "wavenumbers", np.pi * modes / self.half_length)
        object.__setattr__(self, "half_wavenumbers", np.pi * np.arange(self.n // 2 + 1) / self.half_length)

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.n


def _check_size(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values)
    if values.shape != (grid.n,):
        raise ValueError(f"grid function must have shape ({grid.n},), got {values.shape}")
    return values


def forward_transform(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """Discrete Fourier coefficients of a grid function (unnormalized)."""
    return np.fft.fft(_check_size(grid, values))


def inverse_transform(grid: SpectralGrid, spectrum: np.ndarray) -> np.ndarray:
    """Inverse DFT with the 1/N factor. Returns the complex samples."""
    return np.fft.ifft(_check_size(grid, spectrum))


def half_spectrum(grid: SpectralGrid, values: np.ndarray) -> np.ndarray:
    """rfft modes 0..n/2 (unnormalized) of a real grid function; ``np.fft.irfft(., grid.n)`` inverts it."""
    return np.fft.rfft(_check_size(grid, values))


def differentiate(grid: SpectralGrid, values: np.ndarray, order: int = 1) -> np.ndarray:
    """Pseudospectral derivative of the given order.

    Multiplies mode k by (i k')^order.  For odd orders the unmatched
    Nyquist mode n/2 is zeroed so real input stays real.
    """
    if order < 1:
        raise ValueError(f"derivative order must be >= 1, got {order}")
    factor = (1j * grid.half_wavenumbers) ** order
    if order % 2 == 1:
        factor[grid.n // 2] = 0.0
    return np.fft.irfft(factor * half_spectrum(grid, values), grid.n)


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


def grid_function_columns(grid: SpectralGrid, values: np.ndarray) -> dict:
    """(x_j, value) columns for CSV serialization."""
    return {"x": grid.nodes.copy(), "value": _check_size(grid, values).astype(float).copy()}


def spectrum_columns(grid: SpectralGrid, spectrum: np.ndarray) -> dict:
    """(k, k', re, im) columns for CSV serialization of a full spectrum."""
    spectrum = _check_size(grid, spectrum)
    return {
        "k": grid.mode_numbers.astype(float),
        "kp": grid.wavenumbers.copy(),
        "re": np.real(spectrum).astype(float),
        "im": np.imag(spectrum).astype(float),
    }


def fine_grid_values(grid: SpectralGrid, half_spectrum: np.ndarray) -> np.ndarray:
    """Values on the 3n/2-point grid of the field with rfft modes 0..n/2 on the n-point grid.

    The modes are zero-padded; the Nyquist coefficient is split evenly
    between modes +-n/2 of the fine grid, so the result samples the real
    trigonometric interpolant of the field.
    """
    n, half = grid.n, grid.n // 2
    m = 3 * n // 2
    padded = np.zeros(m // 2 + 1, dtype=complex)
    padded[:half] = half_spectrum[:half]
    padded[half] = 0.5 * half_spectrum[half]
    # m/n rescales the unnormalized n-point coefficients to m points
    return np.fft.irfft(padded, m) * (m / n)


def coarse_half_spectrum(grid: SpectralGrid, fine_values: np.ndarray) -> np.ndarray:
    """rfft modes 0..n/2, on the n-point grid, of values given on the 3n/2-point grid.

    The Nyquist coefficient is the real part of the fine grid's mode n/2,
    i.e. the kept modes are -n/2..n/2-1 of the FFT layout.
    """
    n, half = grid.n, grid.n // 2
    spectrum = np.fft.rfft(fine_values)[: half + 1] * (n / (3 * n // 2))
    spectrum[half] = spectrum[half].real
    return spectrum


def padded_product(grid: SpectralGrid, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Pointwise product with 3/2-rule zero padding (alias-free quadratics).

    Optional alternative to the plain Hadamard product in the solver's
    nonlinearity; off by default since the profiles of interest decay far
    below round-off in spectrum before the Nyquist mode.  f and g are moved
    to the 3n/2 grid by :func:`fine_grid_values`, multiplied there, and the
    product's modes 0..n/2 are kept by :func:`coarse_half_spectrum`; those
    two state the Nyquist convention.  ``g is f`` transforms f once.  A
    caller that holds the half spectra already (the solver) calls the two
    helpers directly.
    """
    f = _check_size(grid, f)
    g = _check_size(grid, g)
    ff = fine_grid_values(grid, np.fft.rfft(f))
    gf = ff if g is f else fine_grid_values(grid, np.fft.rfft(g))
    return np.fft.irfft(coarse_half_spectrum(grid, ff * gf), grid.n)
