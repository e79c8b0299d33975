import math

import numpy as np
import pytest
from scipy.linalg import expm

from tlwaves.dispersion import DispersionSymbols, evolve_linear, mode_energy, propagator, sigma_order
from tlwaves.grid import SpectralGrid
from tlwaves.params import make_parameters


@pytest.fixture(scope="module")
def symbols():
    return DispersionSymbols(make_parameters(0.5, 0.8))


def test_symbol_values(symbols):
    p = symbols.params
    assert symbols.omega(0.0) == pytest.approx(1.0 / (p.delta + p.gamma), rel=1e-14)
    assert symbols.sigma(0.0) == pytest.approx(p.c_crit, rel=1e-14)
    ks = np.linspace(-50, 50, 501)
    assert np.all(symbols.omega(ks) > 0.0)
    # sigma is even and strictly decreasing in |k|
    half = np.linspace(0.0, 80.0, 400)
    sig = symbols.sigma(half)
    assert np.all(np.diff(sig) < 0.0)
    assert np.allclose(symbols.sigma(-half), sig, rtol=1e-14)


def test_propagator_identity_cases(symbols):
    assert np.allclose(propagator(symbols, 3.7, 0.0), np.eye(2), atol=1e-15)
    assert np.allclose(propagator(symbols, 0.0, 12.3), np.eye(2), atol=1e-15)


def test_propagator_against_matrix_exponential(symbols):
    # independent scaling-and-squaring oracle for exp(-i k A t)
    p = symbols.params
    for k, t in [(1.0, 1.0), (0.3, 4.0), (7.5, 0.7), (25.0, 2.0)]:
        a = np.array([[0.0, symbols.omega(k)], [1.0 - p.gamma, 0.0]])
        expected = expm(-1j * k * a * t)
        got = propagator(symbols, k, t)
        assert np.max(np.abs(got - expected)) < 1e-12
        assert abs(np.linalg.det(got) - 1.0) < 1e-12


def test_propagator_group_property(symbols):
    t1, t2 = 1.3, 2.9
    for k in (0.5, 2.0, 11.0):
        combined = propagator(symbols, k, t1) @ propagator(symbols, k, t2)
        direct = propagator(symbols, k, t1 + t2)
        assert np.max(np.abs(combined - direct)) < 1e-11


def test_propagator_boundedness_over_large_k(symbols):
    p = symbols.params
    t = 1.0
    ks = np.logspace(-3, 6, 200)
    cap_small = 1.0 + symbols.sigma(0.0)
    cap_21 = max((1.0 - p.gamma) * t, math.sqrt((1.0 - p.gamma) * (p.delta + p.gamma)) * max(1.0, math.sqrt(p.beta)))
    for k in ks:
        m = propagator(symbols, float(k), t)
        assert abs(m[0, 0]) <= cap_small
        assert abs(m[0, 1]) <= cap_small
        assert abs(m[1, 1]) <= cap_small
        assert abs(m[1, 0]) / (1.0 + k) <= cap_21 + 1e-9


def test_evolve_identity_at_t0(symbols):
    rng = np.random.default_rng(5)
    g = SpectralGrid(half_length=20.0, n=64)
    zeta0 = rng.standard_normal(g.n)
    u0 = rng.standard_normal(g.n)
    zeta, u = evolve_linear(symbols, g, zeta0, u0, 0.0)
    assert np.allclose(zeta, zeta0, atol=1e-14)
    assert np.allclose(u, u0, atol=1e-14)


def test_evolve_reverses(symbols):
    g = SpectralGrid(half_length=20.0, n=64)
    zeta0 = np.cos(np.pi * g.nodes / g.half_length)
    u0 = np.zeros(g.n)
    z1, u1 = evolve_linear(symbols, g, zeta0, u0, 2.5)
    z2, u2 = evolve_linear(symbols, g, z1, u1, -2.5)
    assert np.max(np.abs(z2 - zeta0)) < 1e-12
    assert np.max(np.abs(u2 - u0)) < 1e-12


def test_evolve_conserves_per_mode_energy(symbols):
    rng = np.random.default_rng(17)
    g = SpectralGrid(half_length=30.0, n=128)
    zeta0 = rng.standard_normal(g.n)
    u0 = rng.standard_normal(g.n)
    before = mode_energy(symbols, g, zeta0, u0)
    zeta, u = evolve_linear(symbols, g, zeta0, u0, 5.0)
    after = mode_energy(symbols, g, zeta, u)
    assert before.shape == (g.n // 2 + 1,)
    rel = np.abs(after - before) / np.max(before)
    assert np.max(rel) < 1e-12


@pytest.mark.parametrize("t", [0.3, 1.0, 7.5, -2.0, 1e3])
def test_evolve_holds_a_pure_nyquist_field(symbols, t):
    # the Nyquist mode has no quadrature partner on the grid, so the propagator leaves it fixed
    g = SpectralGrid(half_length=20.0, n=64)
    nyquist = np.cos(np.pi * np.arange(g.n))
    zeta, u = evolve_linear(symbols, g, nyquist, -2.0 * nyquist, t)
    assert np.max(np.abs(zeta - nyquist)) < 1e-14
    assert np.max(np.abs(u + 2.0 * nyquist)) < 1e-14


def test_evolve_group_action(symbols):
    rng = np.random.default_rng(23)
    g = SpectralGrid(half_length=10.0, n=64)
    zeta0 = rng.standard_normal(g.n)
    u0 = rng.standard_normal(g.n)
    za, ua = evolve_linear(symbols, g, *evolve_linear(symbols, g, zeta0, u0, 1.2), 3.4)
    zb, ub = evolve_linear(symbols, g, zeta0, u0, 4.6)
    assert np.max(np.abs(za - zb)) < 1e-11
    assert np.max(np.abs(ua - ub)) < 1e-11


def test_sigma_order(symbols):
    assert sigma_order(symbols) == (-1, 1, 0)


@pytest.mark.parametrize("gamma,delta", [(0.5, 0.8), (0.1, 0.3), (0.9, 2.0), (0.0, 1.0)])
def test_sigma_order_all_admissible(gamma, delta):
    assert sigma_order(DispersionSymbols(make_parameters(gamma, delta))) == (-1, 1, 0)


def test_sigma_large_k_limit(symbols):
    p = symbols.params
    limit = math.sqrt((1.0 - p.gamma) / ((p.delta + p.gamma) * p.beta))
    k = 1e6
    assert float(symbols.sigma(k)) * k == pytest.approx(limit, rel=1e-9)
