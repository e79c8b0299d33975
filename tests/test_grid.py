import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tlwaves.grid import (
    SpectralGrid,
    differentiate,
    forward_transform,
    grid_function_columns,
    helmholtz_apply,
    helmholtz_solve,
    helmholtz_symbol,
    inverse_transform,
    padded_product,
    spectrum_columns,
)
from tlwaves.params import make_parameters


def test_grid_layout():
    g = SpectralGrid(half_length=10.0, n=16)
    assert g.nodes[0] == -10.0
    assert np.allclose(np.diff(g.nodes), 2 * 10.0 / 16)
    assert g.nodes[-1] == pytest.approx(10.0 - g.spacing)
    assert list(g.mode_numbers[:3]) == [0, 1, 2]
    assert g.mode_numbers[8] == -8
    assert np.allclose(g.wavenumbers, np.pi * g.mode_numbers / 10.0)


@pytest.mark.parametrize("half_length,n", [(0.0, 16), (-1.0, 16), (10.0, 15), (10.0, 4)])
def test_grid_validation(half_length, n):
    with pytest.raises(ValueError):
        SpectralGrid(half_length=half_length, n=n)


def test_transform_of_constant():
    g = SpectralGrid(half_length=5.0, n=32)
    spec = forward_transform(g, np.ones(g.n))
    assert spec[0] == pytest.approx(g.n)
    assert np.max(np.abs(spec[1:])) < 1e-12


def test_transform_of_pure_harmonic():
    g = SpectralGrid(half_length=3.0, n=64)
    f = np.cos(np.pi * g.nodes / g.half_length)
    spec = forward_transform(g, f)
    energy = np.abs(spec) ** 2
    others = np.delete(energy, [1, g.n - 1])
    assert energy[1] > 0 and energy[g.n - 1] > 0
    assert np.max(others) < 1e-20 * energy[1]


def test_round_trip_random():
    rng = np.random.default_rng(7)
    g = SpectralGrid(half_length=12.0, n=128)
    f = rng.standard_normal(g.n)
    back = inverse_transform(g, forward_transform(g, f)).real
    assert np.max(np.abs(back - f)) <= 1e-13 * np.max(np.abs(f))


def test_parseval_under_chosen_normalization():
    rng = np.random.default_rng(11)
    g = SpectralGrid(half_length=2.0, n=64)
    f = rng.standard_normal(g.n)
    spec = forward_transform(g, f)
    assert np.sum(np.abs(f) ** 2) == pytest.approx(np.sum(np.abs(spec) ** 2) / g.n, rel=1e-13)


def test_size_mismatch():
    g = SpectralGrid(half_length=1.0, n=16)
    with pytest.raises(ValueError):
        forward_transform(g, np.ones(8))
    with pytest.raises(ValueError):
        differentiate(g, np.ones(32), 1)


def test_derivative_of_resolved_harmonic():
    g = SpectralGrid(half_length=5.0, n=64)
    f = np.sin(np.pi * g.nodes / g.half_length)
    expected = (np.pi / g.half_length) * np.cos(np.pi * g.nodes / g.half_length)
    assert np.max(np.abs(differentiate(g, f, 1) - expected)) < 1e-12


def test_derivative_of_constant():
    g = SpectralGrid(half_length=5.0, n=32)
    for order in (1, 2):
        assert np.max(np.abs(differentiate(g, np.ones(g.n), order))) == 0.0


def test_second_derivative_of_gaussian():
    g = SpectralGrid(half_length=20.0, n=256)
    x = g.nodes
    f = np.exp(-(x**2))
    expected = (4 * x**2 - 2) * np.exp(-(x**2))
    assert np.max(np.abs(differentiate(g, f, 2) - expected)) < 1e-10


def test_odd_order_zeroes_nyquist():
    g = SpectralGrid(half_length=1.0, n=16)
    # pure Nyquist-mode signal alternates in sign; its first derivative has
    # no representable odd counterpart and must map to zero
    f = (-1.0) ** np.arange(g.n)
    d = differentiate(g, f, 1)
    assert np.max(np.abs(d)) < 1e-12


def test_derivative_order_validation():
    g = SpectralGrid(half_length=1.0, n=16)
    with pytest.raises(ValueError):
        differentiate(g, np.ones(g.n), 0)


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
    assert g.half_wavenumbers.tobytes() == np.abs(g.wavenumbers[:half]).tobytes()
    assert helmholtz_symbol(g, p).tobytes() == (1.0 + p.beta * g.wavenumbers[:half] ** 2).tobytes()


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    g = SpectralGrid(half_length=6.0, n=64)
    f = rng.standard_normal(g.n)
    back = inverse_transform(g, forward_transform(g, f)).real
    assert np.max(np.abs(back - f)) <= 1e-13 * max(1.0, np.max(np.abs(f)))


def test_serialization_columns():
    g = SpectralGrid(half_length=4.0, n=16)
    f = np.sin(np.pi * g.nodes / 4.0)
    cols = grid_function_columns(g, f)
    assert list(cols) == ["x", "value"]
    assert np.array_equal(cols["x"], g.nodes)
    spec = forward_transform(g, f)
    scols = spectrum_columns(g, spec)
    assert list(scols) == ["k", "kp", "re", "im"]
    assert np.array_equal(scols["kp"], g.wavenumbers)
    rebuilt = scols["re"] + 1j * scols["im"]
    assert np.allclose(rebuilt, spec)


def test_padded_product_matches_plain_on_band_limited_data():
    g = SpectralGrid(half_length=np.pi, n=64)
    f = np.cos(3 * g.nodes) + 0.5 * np.sin(5 * g.nodes)
    h = np.sin(2 * g.nodes)
    # product occupies modes up to 8 < n/3, so both routes are exact
    assert np.allclose(padded_product(g, f, h), f * h, atol=1e-13)


def test_padded_product_removes_aliasing():
    g = SpectralGrid(half_length=np.pi, n=16)
    k_high = 6  # 2*k aliases onto -4 on the coarse grid
    f = np.cos(k_high * g.nodes)
    plain_spec = forward_transform(g, f * f)
    padded_spec = forward_transform(g, padded_product(g, f, f))
    alias_mode = (2 * k_high) - g.n  # = -4
    idx = int(np.where(g.mode_numbers == alias_mode)[0][0])
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
        want = _complex_padded_product(g, a, b)
        assert np.max(np.abs(padded_product(g, a, b) - want)) <= 1e-14 * np.max(np.abs(want))


def test_padded_product_nyquist_convention():
    g = SpectralGrid(half_length=np.pi, n=16)
    nyquist = (-1.0) ** np.arange(g.n)
    # the input's Nyquist coefficient is split between modes +-n/2 of the fine grid (a real cosine);
    # the product keeps one mode of that pair, so f * 1 returns half of f's Nyquist component
    out = padded_product(g, nyquist, np.ones(g.n))
    assert np.max(np.abs(out - 0.5 * nyquist)) < 1e-14
