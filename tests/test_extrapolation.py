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
