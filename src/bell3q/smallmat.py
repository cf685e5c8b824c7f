"""Singular triples of the small wide matrices the bounds consume.

The bound formulas only ever need singular values and vectors of matrices
with at most 3 rows (the 3x9 correlation and coefficient matrices and their
2x4 active blocks).  LAPACK's SVD works on the matrix itself rather than on
A A^T, so small singular values keep full relative accuracy; the wrapper
adds the exact rank-zero clamp that the closed forms' rank logic relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SingularTriple", "singular_triple", "singular_values_3x9"]

RANK_TOL = 1e-12


@dataclass(frozen=True)
class SingularTriple:
    """Singular values/vectors of a wide matrix with at most 3 rows.

    ``values`` is sorted non-increasing with entries below 1e-12 clamped to
    exactly 0, so rank logic downstream (a structurally zero third singular
    value in the bound matrices) is exact.  ``left_vectors`` is m x m
    orthogonal, ``right_vectors`` is n x m with orthonormal columns.
    """

    values: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.left_vectors @ np.diag(self.values) @ self.right_vectors.T


def singular_triple(a) -> SingularTriple:
    """Thin SVD of an m x n matrix with m <= 3."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] > 3:
        raise ValueError(f"expected a matrix with at most 3 rows, got {a.shape}")
    u, vals, vt = np.linalg.svd(a, full_matrices=False)
    vals[vals < RANK_TOL] = 0.0
    return SingularTriple(values=vals, left_vectors=u, right_vectors=vt.T)


def singular_values_3x9(a) -> SingularTriple:
    """Singular triple of a 3x9 matrix (the shape the bounds consume)."""
    a = np.asarray(a, dtype=float)
    if a.shape != (3, 9):
        raise ValueError(f"expected shape (3, 9), got {a.shape}")
    return singular_triple(a)
