"""Closed-form minors of 3x3 gradient matrices, batched.

For a 3x3 gradient F the minors are the determinants of its square
submatrices:

    order 0: 1
    order 1: the nine entries
    order 2: the nine 2x2 minors
    order 3: the determinant

so |M(I)|^2 = 1 + 3 + 3 + 1 = 8.

Conventions fixed here and relied on everywhere else:

* The order-2 minors are laid out, with signs, as the cofactor matrix
  m[i][j] = (-1)^(i+j) det(F with row i and column j deleted), so that
  F @ m.T = det(F) * I holds verbatim.
* |M(F)|^2 = 1 + |F|^2 + |cof F|^2 + (det F)^2.

The helpers (det3, cross_cofactor, cofactor, minors_norm_squared) accept
arrays with arbitrary leading axes; the energy and admissibility modules
call them.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeMismatchError


def det3(F: np.ndarray) -> np.ndarray:
    """Determinant of (..., 3, 3) arrays via the closed triple product."""
    F = np.asarray(F, dtype=float)
    _require_3x3(F)
    return np.einsum("...i,...i->...", F[..., :, 0], np.cross(F[..., :, 1], F[..., :, 2], axis=-1))


def cross_cofactor(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Symmetric bilinear cofactor of (..., 3, 3) arrays.

    Column k is A_{k+1} x B_{k+2} + B_{k+1} x A_{k+2} (column indices mod 3),
    so cross_cofactor(F, F) = 2 cof F, and cross_cofactor(cof F, F) is the
    derivative of (1/2)|cof F|^2 with respect to F.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    _require_3x3(A)
    _require_3x3(B)
    out = np.empty(np.broadcast_shapes(A.shape, B.shape))
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    # entry r of each column cross product, computed operation for operation as np.cross does
    for k, i, j in cyclic:
        for r, s, t in cyclic:
            out[..., r, k] = (A[..., s, i] * B[..., t, j] - A[..., t, i] * B[..., s, j]
                              + (B[..., s, i] * A[..., t, j] - B[..., t, i] * A[..., s, j]))
    return out


def cofactor(F: np.ndarray) -> np.ndarray:
    """Cofactor matrix of (..., 3, 3) arrays: half of cross_cofactor(F, F), which is
    exact, so each column is bitwise the cross product of the other two."""
    return 0.5 * cross_cofactor(F, F)


def minors_norm_squared(F: np.ndarray) -> np.ndarray:
    """|M|^2 = 1 + |F|^2 + |cof F|^2 + (det F)^2 of (..., 3, 3) F."""
    F = np.asarray(F, dtype=float)
    _require_3x3(F)
    return (
        1.0
        + np.einsum("...ij,...ij->...", F, F)
        + np.einsum("...ij,...ij->...", cofactor(F), cofactor(F))
        + det3(F) ** 2
    )


def _require_3x3(F: np.ndarray) -> None:
    if F.ndim < 2 or F.shape[-2:] != (3, 3):
        raise ShapeMismatchError(f"expected trailing (3, 3) axes, got {F.shape}")
