"""Singular values of the 3x9 correlation matrix T, through which alone the
bounds depend on the state.  LAPACK's SVD works on the matrix itself rather
than on A A^T, so small singular values keep full relative accuracy; the
wrapper adds the exact rank-zero clamp that the closed forms' rank logic
relies on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["singular_values_3x9"]

RANK_TOL = 1e-12


def singular_values_3x9(a) -> np.ndarray:
    """Singular values of a 3x9 matrix, sorted non-increasing, with entries
    below 1e-12 clamped to exactly 0 so that rank logic downstream (a
    structurally zero third singular value) is exact."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 9):
        raise ValueError(f"expected shape (3, 9), got {a.shape}")
    # not compute_uv=False: LAPACK then takes another path, whose values differ
    # in the last bit on most matrices and would change printed bounds
    vals = np.linalg.svd(a, full_matrices=False)[1]
    vals[vals < RANK_TOL] = 0.0
    return vals
