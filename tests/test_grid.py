import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlwaves.errors import WaveError
from tlwaves.grid import (
    SpectralGrid,
    differentiate,
    half_spectrum,
    helmholtz_apply,
    helmholtz_solve,
    helmholtz_symbol,
    quadratic_spectra,
    spectrum_columns,
)
from tlwaves.params import make_parameters


def test_grid_layout():
    g = SpectralGrid(half_length=10.0, n=16)
    assert g.nodes[0] == -10.0
    assert np.allclose(np.diff(g.nodes), 2 * 10.0 / 16)
    assert g.nodes[-1] == pytest.approx(10.0 - g.spacing)
    assert np.array_equal(g.half_wavenumbers, np.pi * np.arange(9) / 10.0)
    assert np.array_equal(g.odd_wavenumbers, np.append(g.half_wavenumbers[:8], 0.0))


@pytest.mark.parametrize("half_length,n", [(0.0, 16), (-1.0, 16), (np.inf, 16), (10.0, 15), (10.0, 4)])
def test_grid_validation(half_length, n):
    with pytest.raises(ValueError):
        SpectralGrid(half_length=half_length, n=n)


def test_transform_of_constant():
    g = SpectralGrid(half_length=5.0, n=32)
    spec = half_spectrum(g, np.ones(g.n))
    assert spec[0] == pytest.approx(g.n)
    assert np.max(np.abs(spec[1:])) < 1e-12


def test_transform_of_pure_harmonic():
    g = SpectralGrid(half_length=3.0, n=64)
    f = np.cos(np.pi * g.nodes / g.half_length)
    spec = half_spectrum(g, f)
    energy = np.abs(spec) ** 2
    # the rfft modes 0..n/2: mode n - 1 of the full layout is the conjugate of mode 1
    others = np.delete(energy, 1)
    assert energy.shape == (g.n // 2 + 1,) and energy[1] > 0
    assert np.max(others) < 1e-20 * energy[1]


def test_round_trip_random():
    rng = np.random.default_rng(7)
    g = SpectralGrid(half_length=12.0, n=128)
    f = rng.standard_normal(g.n)
    back = np.fft.irfft(half_spectrum(g, f), g.n)
    assert np.max(np.abs(back - f)) <= 1e-13 * np.max(np.abs(f))


def test_parseval_under_chosen_normalization():
    rng = np.random.default_rng(11)
    g = SpectralGrid(half_length=2.0, n=64)
    f = rng.standard_normal(g.n)
    energy = np.abs(half_spectrum(g, f)) ** 2
    # the interior modes 0 < k < n/2 stand for their conjugates too, so they count twice
    half_sum = energy[0] + 2.0 * np.sum(energy[1:-1]) + energy[-1]
    assert np.sum(f**2) == pytest.approx(half_sum / g.n, rel=1e-13)


def test_size_mismatch():
    g = SpectralGrid(half_length=1.0, n=16)
    with pytest.raises(ValueError, match=re.escape("grid function must have shape (16,), got (8,)")):
        half_spectrum(g, np.ones(8))
    with pytest.raises(ValueError):
        differentiate(g, np.ones(32))


def test_derivative_of_resolved_harmonic():
    g = SpectralGrid(half_length=5.0, n=64)
    f = np.sin(np.pi * g.nodes / g.half_length)
    expected = (np.pi / g.half_length) * np.cos(np.pi * g.nodes / g.half_length)
    assert np.max(np.abs(differentiate(g, f) - expected)) < 1e-12


def test_derivative_of_constant():
    g = SpectralGrid(half_length=5.0, n=32)
    assert np.max(np.abs(differentiate(g, np.ones(g.n)))) == 0.0


def test_second_derivative_of_gaussian():
    g = SpectralGrid(half_length=20.0, n=256)
    x = g.nodes
    f = np.exp(-(x**2))
    expected = (4 * x**2 - 2) * np.exp(-(x**2))
    # two first derivatives: the Nyquist mode they drop is below round-off for this resolved field
    assert np.max(np.abs(differentiate(g, differentiate(g, f)) - expected)) < 1e-10


def test_odd_order_zeroes_nyquist():
    g = SpectralGrid(half_length=1.0, n=16)
    # pure Nyquist-mode signal alternates in sign; its first derivative has
    # no representable odd counterpart and must map to zero
    f = (-1.0) ** np.arange(g.n)
    d = differentiate(g, f)
    assert np.max(np.abs(d)) < 1e-12


def test_helmholtz_constant_passthrough():
    g = SpectralGrid(half_length=4.0, n=32)
    p = make_parameters(0.5, 0.8)
    f = 3.25 * np.ones(g.n)
    assert np.allclose(helmholtz_apply(g, p, f), f, atol=1e-13)


def test_helmholtz_single_mode():
    # beta = 1/3 at the surface-wave limit; on l = pi the first mode has k' = 1
    g = SpectralGrid(half_length=np.pi, n=32)
    p = make_parameters(0.0, 1.0)
    f = np.cos(g.nodes)
    assert np.allclose(helmholtz_apply(g, p, f), (1 + 1.0 / 3.0) * f, atol=1e-13)


def test_helmholtz_round_trip():
    rng = np.random.default_rng(3)
    g = SpectralGrid(half_length=7.0, n=128)
    p = make_parameters(0.5, 0.8)
    f = rng.standard_normal(g.n)
    back = helmholtz_solve(g, p, helmholtz_apply(g, p, f))
    assert np.max(np.abs(back - f)) <= 1e-13 * np.max(np.abs(f))


def test_helmholtz_symbol_at_least_one():
    g = SpectralGrid(half_length=33.0, n=256)
    p = make_parameters(0.31, 2.7)
    assert np.all(helmholtz_symbol(g, p) >= 1.0)


@pytest.mark.parametrize("half_length, n", [(np.pi, 8), (7.0, 128), (128.0, 1024), (2048.0, 16384)])
def test_half_layout_is_bit_equal_to_the_full_layout_slice(half_length, n):
    # the rfft modes 0..n/2 carry the wavenumbers and symbols of FFT entries 0..n/2 (entry n/2 is mode -n/2)
    g = SpectralGrid(half_length=half_length, n=n)
    p = make_parameters(0.5, 0.8)
    half = n // 2 + 1
    assert g.half_wavenumbers.shape == (half,)
    wavenumbers = np.pi * np.fft.fftfreq(n, d=1.0 / n) / half_length
    assert g.half_wavenumbers.tobytes() == np.abs(wavenumbers[:half]).tobytes()
    assert helmholtz_symbol(g, p).tobytes() == (1.0 + p.beta * wavenumbers[:half] ** 2).tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    g = SpectralGrid(half_length=6.0, n=64)
    f = rng.standard_normal(g.n)
    back = np.fft.irfft(half_spectrum(g, f), g.n)
    assert np.max(np.abs(back - f)) <= 1e-13 * max(1.0, np.max(np.abs(f)))


def test_serialization_columns():
    g = SpectralGrid(half_length=4.0, n=16)
    f = np.sin(np.pi * g.nodes / 4.0) + 0.25 * (-1.0) ** np.arange(g.n)
    scols = spectrum_columns(g, f)
    assert list(scols) == ["k", "kp", "re", "im"]
    # the rfft modes 0..n/2, Nyquist last, each with its own k
    assert np.array_equal(scols["k"], np.arange(9.0))
    assert np.array_equal(scols["kp"], g.half_wavenumbers)
    rebuilt = scols["re"] + 1j * scols["im"]
    assert np.allclose(rebuilt, np.fft.fft(f)[:9], rtol=0.0, atol=1e-13)
    # the other half is the conjugate of modes 1..n/2-1, so the rows hold the whole spectrum
    assert np.allclose(np.fft.irfft(rebuilt, g.n), f, rtol=0.0, atol=1e-15)


def _padded_product(g, f, h):
    """The dealiased product f h as a grid function: the zeta v row of the 3/2 rule with zeta = f, v = h."""
    return np.fft.irfft(quadratic_spectra(g, np.fft.rfft(f), np.fft.rfft(h), dealias=True)[0], g.n)


def test_padded_product_matches_plain_on_band_limited_data():
    g = SpectralGrid(half_length=np.pi, n=64)
    f = np.cos(3 * g.nodes) + 0.5 * np.sin(5 * g.nodes)
    h = np.sin(2 * g.nodes)
    # product occupies modes up to 8 < n/3, so both routes are exact
    assert np.allclose(_padded_product(g, f, h), f * h, atol=1e-13)


def test_padded_product_removes_aliasing():
    g = SpectralGrid(half_length=np.pi, n=16)
    k_high = 6  # 2*k aliases onto -4 on the coarse grid
    f = np.cos(k_high * g.nodes)
    plain_spec = np.fft.fft(f * f)
    padded_spec = np.fft.fft(_padded_product(g, f, f))
    alias_mode = (2 * k_high) - g.n  # = -4
    idx = int(np.where(np.fft.fftfreq(g.n, d=1.0 / g.n) == alias_mode)[0][0])
    assert np.abs(plain_spec[idx]) > 1.0
    assert np.abs(padded_spec[idx]) < 1e-10


def _complex_padded_product(g, f, h):
    """The 3/2-rule product on full complex spectra, as a reference."""
    n, m, half = g.n, 3 * g.n // 2, g.n // 2
    fine = []
    for values in (f, h):
        spectrum = np.fft.fft(values)
        padded = np.zeros(m, dtype=complex)
        padded[:half] = spectrum[:half]
        padded[-half:] = spectrum[-half:]
        fine.append(np.fft.ifft(padded))
    ph = np.fft.fft(fine[0] * fine[1] * (m / n) ** 2)
    out = np.empty(n, dtype=complex)
    out[:half] = ph[:half]
    out[-half:] = ph[-half:]
    return np.fft.ifft(out).real * (n / m)


@pytest.mark.parametrize("n", [16, 18, 64, 1024])
def test_padded_product_matches_complex_formula(n):
    rng = np.random.default_rng(n)
    g = SpectralGrid(half_length=5.0, n=n)

    def band_limited():
        # every mode but the Nyquist one: the product still reaches modes up to n - 2
        spectrum = np.fft.rfft(rng.standard_normal(n))
        spectrum[n // 2] = 0.0
        return np.fft.irfft(spectrum, n)

    f, h = band_limited(), band_limited()
    for a, b in ((f, h), (f, f)):
        # both rows: zeta v with zeta = a, v = b, and v^2 = b b
        rows = quadratic_spectra(g, np.fft.rfft(a), np.fft.rfft(b), dealias=True)
        for row, (c, d) in zip(rows, ((a, b), (b, b))):
            want = _complex_padded_product(g, c, d)
            assert np.max(np.abs(np.fft.irfft(row, n) - want)) <= 1e-14 * np.max(np.abs(want))


def test_padded_product_nyquist_convention():
    g = SpectralGrid(half_length=np.pi, n=16)
    nyquist = (-1.0) ** np.arange(g.n)
    # the input's Nyquist coefficient is split between modes +-n/2 of the fine grid (a real cosine);
    # the product keeps one mode of that pair, so f * 1 returns half of f's Nyquist component
    out = _padded_product(g, nyquist, np.ones(g.n))
    assert np.max(np.abs(out - 0.5 * nyquist)) < 1e-14


def _fine_grid_values(g, spectrum):
    """The values on the 3n/2-point grid of the former solver core, as the reference for its bits."""
    n, half = g.n, g.n // 2
    m = 3 * n // 2
    padded = np.zeros(m // 2 + 1, dtype=complex)
    padded[:half] = spectrum[:half]
    padded[half] = 0.5 * spectrum[half]
    return np.fft.irfft(padded, m) * (m / n)


def _coarse_half_spectrum(g, fine_values):
    """The kept modes 0..n/2 of the former solver core, as the reference for its bits."""
    n, half = g.n, g.n // 2
    spectrum = np.fft.rfft(fine_values)[: half + 1] * (n / (3 * n // 2))
    spectrum[half] = spectrum[half].real
    return spectrum


@pytest.mark.parametrize("n", [16, 18, 64, 1024, 16384])
def test_quadratic_spectra_are_the_former_expressions_bit_for_bit(n):
    rng = np.random.default_rng(n + 1)
    g = SpectralGrid(half_length=5.0, n=n)
    zh, vh = np.fft.rfft(rng.standard_normal(n)), np.fft.rfft(rng.standard_normal(n))
    zf, vf = _fine_grid_values(g, zh), _fine_grid_values(g, vh)
    dealiased = (_coarse_half_spectrum(g, zf * vf), _coarse_half_spectrum(g, vf * vf))
    zeta, v = np.fft.irfft(zh, n), np.fft.irfft(vh, n)
    plain = (np.fft.rfft(zeta * v), np.fft.rfft(v * v))
    for dealias, want in ((True, dealiased), (False, plain)):
        got = quadratic_spectra(g, zh, vh, dealias=dealias)
        assert len(got) == 2
        for row, reference in zip(got, want):
            assert row.shape == (n // 2 + 1,)
            assert row.tobytes() == reference.tobytes()


@pytest.mark.parametrize("half_length,n", [(64.0, 512), (64.0, 500), (100.0, 1000), (2048.0, 16384), (0.3, 10)])
def test_from_nodes_rebuilds_the_grid_of_written_nodes(half_length, n):
    grid = SpectralGrid(half_length=half_length, n=n)
    # the nodes as a table holds them: '%.17g' round-trips every double
    x = np.array(["%.17g" % v for v in grid.nodes], dtype=float)
    rebuilt = SpectralGrid.from_nodes(x)
    assert rebuilt == grid
    assert np.array_equal(rebuilt.nodes, grid.nodes)
    assert np.array_equal(rebuilt.half_wavenumbers, grid.half_wavenumbers)


def _bumped(x, j, dx):
    x = x.copy()
    x[j] += dx
    return x


@pytest.mark.parametrize("x, message", [
    (np.arange(6.0) - 3.0, "input holds 6 nodes; a periodic solver profile has at least 8"),
    (np.arange(9.0) - 4.5, "input is not a periodic solver profile"),
    (np.arange(8.0), "input is not a periodic solver profile"),
    (_bumped(SpectralGrid(half_length=4.0, n=8).nodes, 5, 0.1), "input grid is not uniformly spaced"),
], ids=["too-few", "odd-count", "from-zero", "non-uniform"])
def test_from_nodes_rejects_nodes_of_no_periodic_grid(x, message):
    with pytest.raises(WaveError, match=message):
        SpectralGrid.from_nodes(x)
