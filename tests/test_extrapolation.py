import tracemalloc

import numpy as np
import pytest

from tlwaves.extrapolation import extrapolate


def _linear_iteration(dim, radius, seed, steps):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    m *= radius / np.max(np.abs(np.linalg.eigvals(m)))
    b = rng.standard_normal(dim)
    fix = np.linalg.solve(np.eye(dim) - m, b)
    x = rng.standard_normal(dim)
    history = [x.copy()]
    for _ in range(steps):
        x = m @ x + b
        history.append(x.copy())
    return history, fix


def test_recovers_fixed_point_of_matching_dimension():
    history, fix = _linear_iteration(dim=6, radius=0.9, seed=42, steps=7)
    accelerated = extrapolate(history, cycle_length=6)
    assert np.max(np.abs(accelerated - fix)) < 1e-10


def test_uses_only_last_window():
    history, fix = _linear_iteration(dim=6, radius=0.9, seed=1, steps=20)
    accelerated = extrapolate(history, cycle_length=6)
    assert np.max(np.abs(accelerated - fix)) < 1e-10


def test_identical_iterates_fall_back():
    same = [np.full(5, 2.5)] * 8
    out = extrapolate(same, cycle_length=6)
    assert np.array_equal(out, same[-1])


def test_weights_that_sum_to_zero_fall_back_to_the_last_iterate():
    # the last step repeats the first, so the weights (-1, 0, 1) sum to zero
    history = [np.array(v, dtype=float) for v in [(0, 0), (1, 0), (1, 1), (2, 1)]]
    out = extrapolate(history, cycle_length=2)
    assert np.array_equal(out, history[-1]) and out is not history[-1]


def test_weights_that_sum_to_zero_up_to_rounding_fall_back_to_the_last_iterate():
    # constant steps: the least-squares weights are (-1/2, -1/2), so with the appended 1 they sum to
    # zero only up to rounding, and dividing by that sum would blow the iterate up
    history = [np.array([float(j)]) for j in range(4)]
    out = extrapolate(history, cycle_length=2)
    assert np.array_equal(out, history[-1]) and out is not history[-1]


def test_shape_preserved():
    history, _ = _linear_iteration(dim=6, radius=0.5, seed=3, steps=7)
    history = [h.reshape(2, 3) for h in history]
    out = extrapolate(history, cycle_length=6)
    assert out.shape == (2, 3)


def test_overlong_cycle_handles_rank_deficiency():
    # cycle longer than the dimension: the difference matrix is rank
    # deficient but the least-squares combination is still exact
    history, fix = _linear_iteration(dim=4, radius=0.9, seed=7, steps=7)
    accelerated = extrapolate(history, cycle_length=6)
    assert np.max(np.abs(accelerated - fix)) < 1e-10


def test_history_length_validation():
    history = [np.ones(4)] * 5
    with pytest.raises(ValueError):
        extrapolate(history, cycle_length=6)
    with pytest.raises(ValueError):
        extrapolate(history, cycle_length=1)


# ---- at the solver's size: 2N = 32768 rows per iterate, against the full least-squares formulation ----

ROWS = 32768


def _lstsq_reference(history, cycle_length):
    """MPE as formulated before the blockwise factor: lstsq on the whole (2N x K) difference matrix."""
    X = np.asarray(history[-(cycle_length + 2):], dtype=float).reshape(cycle_length + 2, -1)
    D = np.diff(X, axis=0)
    coeffs, *_ = np.linalg.lstsq(D[:-1].T, -D[-1], rcond=None)
    coeffs = np.append(coeffs, 1.0)
    total = coeffs.sum()
    if not np.isfinite(total) or abs(total) <= 1e-12 * np.abs(coeffs).sum():
        return X[-1].copy()
    return (coeffs / total) @ X[: coeffs.size]


def _geometric_history(modes, seed, length=8):
    """Iterates x* + sum_i a_i lam_i^j v_i, j = 0..length-1: a linear iteration with `modes` error modes."""
    rng = np.random.default_rng(seed)
    fix = rng.standard_normal(ROWS)
    rates = rng.uniform(-0.95, 0.95, modes)
    vectors = rng.standard_normal((modes, ROWS))
    return np.array([fix + (rates**j) @ vectors for j in range(length)]), fix


def _relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("modes", [6, 3, 1], ids=["geometric", "rank-3", "rank-1"])
def test_large_history_matches_the_lstsq_formulation(modes):
    # with K = 6 >= modes the extrapolation is the fixed point; below K the difference matrix is rank
    # deficient and both take the least-norm weights
    history, fix = _geometric_history(modes, seed=modes)
    out = extrapolate(history, cycle_length=6)
    assert _relative(out, _lstsq_reference(history, 6)) <= 1e-12
    assert _relative(out, fix) <= 1e-10


@pytest.mark.parametrize("factor", [0.5, 2.0], ids=["below-cut", "above-cut"])
def test_large_history_cuts_singular_values_where_lstsq_does(factor):
    # u_0 = q_0, u_1 = q_0 + s q_1 and u_2 = -q_0 + s q_1 for orthonormal q: [u_0 u_1] has singular values
    # ~sqrt(2) and ~s / sqrt(2), whose ratio s / 2 is set to factor times lstsq's cut eps * 2N.  Cut, the
    # weights are the least-norm (1/4, 1/4, 1/2); kept, they are the exact (1, -1/2, 1/2)
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.standard_normal((ROWS, 2)))
    s = 2.0 * factor * np.finfo(float).eps * ROWS
    steps = np.array([q[:, 0], q[:, 0] + s * q[:, 1], -q[:, 0] + s * q[:, 1]])
    history = np.vstack([np.zeros(ROWS), np.cumsum(steps, axis=0)]) + rng.standard_normal(ROWS)
    weights = (0.25, 0.25, 0.5) if factor < 1.0 else (1.0, -0.5, 0.5)
    out = extrapolate(history, cycle_length=2)
    # kept, the weights solve a system of condition ~ 1/s, so they hold fewer digits; the two weightings
    # give iterates 5e-3 apart
    bound = 1e-12 if factor < 1.0 else 1e-6
    assert _relative(out, np.asarray(weights) @ history[:3]) <= bound
    assert _relative(out, _lstsq_reference(history, 2)) <= bound


def test_large_identical_iterates_return_the_last():
    same = np.tile(np.random.default_rng(5).standard_normal(ROWS), (8, 1))
    out = extrapolate(same, cycle_length=6)
    assert np.array_equal(out, same[-1]) and np.array_equal(_lstsq_reference(same, 6), same[-1])


def test_large_weights_that_sum_to_zero_fall_back_to_the_last_iterate():
    # the last step repeats the first, so the weights (-1, 0, ..., 0, 1) sum to zero up to rounding
    rng = np.random.default_rng(9)
    steps = rng.standard_normal((7, ROWS))
    steps[-1] = steps[0]
    history = np.vstack([np.zeros(ROWS), np.cumsum(steps, axis=0)])
    out = extrapolate(history, cycle_length=6)
    assert np.array_equal(out, history[-1]) and out is not history[-1]
    assert np.array_equal(_lstsq_reference(history, 6), history[-1])


def test_large_history_allocates_no_copy_of_the_differences():
    # the (K+1) x 2N differences alone take 1.75 MiB at K = 6; the result is 0.25 MiB of the traced peak
    history, _ = _geometric_history(6, seed=2)
    extrapolate(history, cycle_length=6)  # first call outside the trace: numpy's lazy set-up
    tracemalloc.start()
    try:
        extrapolate(history, cycle_length=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, peak
