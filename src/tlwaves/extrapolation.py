"""Minimal polynomial extrapolation for vector fixed-point sequences.

Given consecutive iterates x_0, ..., x_{K+1} of a fixed-point map, MPE
forms the difference vectors u_j = x_{j+1} - x_j, solves the least-squares
problem  min || [u_0 ... u_{K-1}] c + u_K ||,  appends c_K = 1, and returns
the affine combination sum_j (c_j / sum c) x_j over x_0..x_K.  For a
linear iteration x -> M x + b the result is the exact fixed point whenever
K is at least the degree of the minimal polynomial of M for the initial
error, so cycle length K resolves dimension K exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def extrapolate(history: Sequence[np.ndarray], cycle_length: int) -> np.ndarray:
    """Accelerated iterate from the last cycle_length + 2 iterates.

    Falls back to the most recent iterate when the combination weights sum
    to zero up to rounding (|sum c| <= 1e-12 sum |c|), as when the last step
    is an affine combination of the earlier ones with unit weight sum.  A
    rank-deficient system needs no fallback: the least-squares combination
    of least norm is used, and a history of identical iterates gets the
    weights (0, ..., 0, 1).
    """
    if cycle_length < 2:
        raise ValueError(f"cycle_length must be >= 2, got {cycle_length}")
    if len(history) < cycle_length + 2:
        raise ValueError(
            f"history holds {len(history)} iterates, need {cycle_length + 2} for cycle {cycle_length}"
        )
    # one row per iterate; a float array of iterates is used in place, a list is stacked
    X = np.asarray(history[-(cycle_length + 2):], dtype=float).reshape(cycle_length + 2, -1)
    shape = np.asarray(history[-1]).shape

    D = np.diff(X, axis=0)
    coeffs, *_ = np.linalg.lstsq(D[:-1].T, -D[-1], rcond=None)
    coeffs = np.append(coeffs, 1.0)
    total = coeffs.sum()
    if not np.isfinite(total) or abs(total) <= 1e-12 * np.abs(coeffs).sum():
        return np.asarray(history[-1], dtype=float).copy()
    weights = coeffs / total
    return (weights @ X[: weights.size]).reshape(shape)
