"""Minimal polynomial extrapolation for vector fixed-point sequences.

Given consecutive iterates x_0, ..., x_{K+1} of a fixed-point map, MPE
forms the difference vectors u_j = x_{j+1} - x_j, solves the least-squares
problem  min || [u_0 ... u_{K-1}] c + u_K ||,  appends c_K = 1, and returns
the affine combination sum_j (c_j / sum c) x_j over x_0..x_K.  For a
linear iteration x -> M x + b the result is the exact fixed point whenever
K is at least the degree of the minimal polynomial of M for the initial
error, so cycle length K resolves dimension K exactly.

The differences are never held whole.  The (K+1)x(K+1) triangular factor R
of U = [u_0 ... u_K] is built by a QR of one block of _BLOCK columns of the
iterates at a time, stacked under the R of the blocks before it.  With
R = [[R11, r], [0, rho]], the problem reads  min || R11 c + r ||, and it is
solved by the SVD with the cut lstsq applies to the full U, singular values
below eps * max(rows of U, K) of the largest, which R11 shares with
[u_0 ... u_{K-1}].  So the least-norm weights of a rank-deficient history
are kept, and no normal equations square the condition number.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_BLOCK = 4096  # iterate components per block of the QR: the temporaries are a few (K+1) x _BLOCK arrays


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

    r = np.zeros((0, cycle_length + 1))
    for j in range(0, X.shape[1], _BLOCK):
        block = X[:, j : j + _BLOCK]
        r = np.linalg.qr(np.vstack([r, (block[1:] - block[:-1]).T]), mode="r")
    rcond = np.finfo(float).eps * max(X.shape[1], cycle_length)
    coeffs, *_ = np.linalg.lstsq(r[:, :-1], -r[:, -1], rcond=rcond)
    coeffs = np.append(coeffs, 1.0)
    total = coeffs.sum()
    if not np.isfinite(total) or abs(total) <= 1e-12 * np.abs(coeffs).sum():
        return np.asarray(history[-1], dtype=float).copy()
    weights = coeffs / total
    return (weights @ X[: weights.size]).reshape(shape)
