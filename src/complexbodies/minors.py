"""Minor (sub-determinant) algebra for gradient matrices.

For a matrix G with shape (p, q) and multi-indices beta in I(k, p) (rows),
alpha in I(k, q) (columns), the k-th order minor is

    M(beta, alpha)(G) = det G[beta, alpha],

the determinant of the submatrix keeping rows beta and columns alpha, both
written as strictly increasing 1-based index tuples.  The order-0 minor is 1
by convention.  The full minors vector of a 3x3 gradient collects

    order 0: 1
    order 1: the nine entries
    order 2: the nine 2x2 minors
    order 3: the determinant

so |M(I)|^2 = 1 + 3 + 3 + 1 = 8.

Conventions fixed here and relied on everywhere else:

* Stored order-2 layout for a square 3x3 source: the matrix
  m[i][j] = (-1)^(i+j) det(G with row i and column j deleted), i.e. the
  cofactor matrix, so that G @ m.T = det(G) * I holds verbatim and
  m.T = adj(G).
* The sign sigma(alpha) of a multi-index alpha within {1..n} is the sign of
  the permutation (alpha, complement(alpha)); for a single row index {i} in
  {1,2,3} it is (-1)^(i+1).
* Composition obeys the Cauchy-Binet expansion
  M(beta, alpha)(G H) = sum over |gamma|=k of M(beta, gamma)(G) M(gamma, alpha)(H).

Batched closed-form helpers (det3, cross_cofactor, cofactor, adjugate,
minors_norm_squared) accept arrays with arbitrary leading axes and are the
fast path used by the energy and admissibility modules; the MinorsVector
type is the exact, introspectable form used for verification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError, SizeMismatchError, ZeroMinorsError

MAX_ORDER = 3


@dataclass(frozen=True)
class MultiIndex:
    """Strictly increasing tuple of 1-based indices, length 0..3."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) > MAX_ORDER:
            raise ShapeMismatchError(f"multi-index longer than {MAX_ORDER}: {self.entries}")
        if any(e < 1 for e in self.entries):
            raise ShapeMismatchError(f"multi-index entries must be 1-based: {self.entries}")
        if any(a >= b for a, b in zip(self.entries, self.entries[1:])):
            raise ShapeMismatchError(f"multi-index entries must strictly increase: {self.entries}")

    @property
    def order(self) -> int:
        return len(self.entries)

    def complement(self, n: int) -> "MultiIndex":
        """Complementary increasing multi-index within {1..n}."""
        if self.entries and self.entries[-1] > n:
            raise ShapeMismatchError(f"multi-index {self.entries} does not fit in 1..{n}")
        return MultiIndex(tuple(i for i in range(1, n + 1) if i not in self.entries))

    def sign(self, n: int) -> int:
        """Sign of the permutation (self, complement) of (1..n)."""
        perm = self.entries + self.complement(n).entries
        inversions = sum(
            1 for a, b in itertools.combinations(range(n), 2) if perm[a] > perm[b]
        )
        return -1 if inversions % 2 else 1


def _index_tuples(k: int, n: int) -> list[tuple[int, ...]]:
    return [tuple(c) for c in itertools.combinations(range(1, n + 1), k)]


def _subdet(G: np.ndarray, beta: tuple[int, ...], alpha: tuple[int, ...]) -> float:
    sub = G[np.ix_([b - 1 for b in beta], [a - 1 for a in alpha])]
    k = len(beta)
    if k == 1:
        return float(sub[0, 0])
    if k == 2:
        return float(sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0])
    # closed 3x3 expansion; cheaper and exact compared to LU for this size
    return float(
        sub[0, 0] * (sub[1, 1] * sub[2, 2] - sub[1, 2] * sub[2, 1])
        - sub[0, 1] * (sub[1, 0] * sub[2, 2] - sub[1, 2] * sub[2, 0])
        + sub[0, 2] * (sub[1, 0] * sub[2, 1] - sub[1, 1] * sub[2, 0])
    )


@dataclass
class MinorsVector:
    """All minors of a (rows x cols) matrix up to order 3.

    order2 and order3 are keyed by (row multi-index, column multi-index),
    1-based increasing tuples, holding the raw (unsigned) submatrix
    determinants.  order0 is 1 for any vector produced from a matrix; the
    zero vector (order0 = 0) exists only via MinorsVector.zero and feeds the
    degenerate-normalization error path.
    """

    shape: tuple[int, int]
    order0: float
    order1: np.ndarray
    order2: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = field(repr=False)
    order3: dict[tuple[tuple[int, ...], tuple[int, ...]], float] = field(repr=False)

    @classmethod
    def zero(cls, shape: tuple[int, int] = (3, 3)) -> "MinorsVector":
        p, q = shape
        kmax = min(p, q, MAX_ORDER)
        o2 = {}
        o3 = {}
        if kmax >= 2:
            o2 = {(b, a): 0.0 for b in _index_tuples(2, p) for a in _index_tuples(2, q)}
        if kmax >= 3:
            o3 = {(b, a): 0.0 for b in _index_tuples(3, p) for a in _index_tuples(3, q)}
        return cls(shape=shape, order0=0.0, order1=np.zeros(shape), order2=o2, order3=o3)

    @property
    def norm_squared(self) -> float:
        s = self.order0**2 + float(np.sum(self.order1**2))
        s += sum(v * v for v in self.order2.values())
        s += sum(v * v for v in self.order3.values())
        return s

    @property
    def norm(self) -> float:
        return float(np.sqrt(self.norm_squared))

    @property
    def det(self) -> float:
        """Top-order minor of a square 3x3 source."""
        if self.shape != (3, 3):
            raise ShapeMismatchError(f"det only defined for a 3x3 source, have {self.shape}")
        return self.order3[((1, 2, 3), (1, 2, 3))]

    def cofactor_matrix(self) -> np.ndarray:
        """Order-2 minors of a 3x3 source arranged as the cofactor matrix.

        m[i][j] = (-1)^(i+j) det(G with row i, col j deleted); m.T = adj(G).
        """
        if self.shape != (3, 3):
            raise ShapeMismatchError(f"cofactor layout needs a 3x3 source, have {self.shape}")
        m = np.empty((3, 3))
        for i in range(3):
            beta = MultiIndex((i + 1,)).complement(3).entries
            for j in range(3):
                alpha = MultiIndex((j + 1,)).complement(3).entries
                m[i, j] = (-1) ** (i + j) * self.order2[(beta, alpha)]
        return m

    def as_flat(self) -> tuple[list[tuple[int, tuple[int, ...], tuple[int, ...]]], np.ndarray]:
        """Canonical flattening: labels (order, rows, cols) and values.

        Ordering: order 0, then order 1 row-major, then orders 2 and 3 with
        keys sorted lexicographically.  Shared by graph_tangent.
        """
        labels: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = [(0, (), ())]
        values = [self.order0]
        p, q = self.shape
        for i in range(p):
            for j in range(q):
                labels.append((1, (i + 1,), (j + 1,)))
                values.append(float(self.order1[i, j]))
        for order, store in ((2, self.order2), (3, self.order3)):
            for key in sorted(store):
                labels.append((order, key[0], key[1]))
                values.append(store[key])
        return labels, np.array(values)


def minors3(G: np.ndarray) -> MinorsVector:
    """Full minors vector of a single 3x3 matrix."""
    G = np.asarray(G, dtype=float)
    if G.shape != (3, 3):
        raise ShapeMismatchError(f"minors3 expects a 3x3 matrix, got {G.shape}")
    return _minors_of(G)


def minors_stacked(F: np.ndarray, N: np.ndarray) -> MinorsVector:
    """Minors of the stacked gradient [F; N], shape (3 + m, 3).

    F is the 3x3 deformation gradient, N the (m x 3) descriptor gradient.
    All orders k = 0..3 over row subsets of the stack and column subsets of
    {1,2,3} are produced; this is the object whose magnitude enters the
    graph-area style bounds.
    """
    F = np.asarray(F, dtype=float)
    N = np.asarray(N, dtype=float)
    if F.shape != (3, 3):
        raise ShapeMismatchError(f"minors_stacked expects 3x3 F, got {F.shape}")
    if N.ndim != 2 or N.shape[1] != 3:
        raise ShapeMismatchError(f"minors_stacked expects (m, 3) N, got {N.shape}")
    return _minors_of(np.vstack([F, N]))


def _minors_of(G: np.ndarray) -> MinorsVector:
    p, q = G.shape
    order2 = {}
    order3 = {}
    if min(p, q) >= 2:
        for beta in _index_tuples(2, p):
            for alpha in _index_tuples(2, q):
                order2[(beta, alpha)] = _subdet(G, beta, alpha)
    if min(p, q) >= 3:
        for beta in _index_tuples(3, p):
            for alpha in _index_tuples(3, q):
                order3[(beta, alpha)] = _subdet(G, beta, alpha)
    return MinorsVector(shape=(p, q), order0=1.0, order1=G.copy(), order2=order2, order3=order3)


def binet_compose(MG: MinorsVector, MH: MinorsVector) -> MinorsVector:
    """Minors of the composition G H from the minors of the factors.

    Cauchy-Binet per order k:
        M(beta, alpha)(G H) = sum_{|gamma|=k} M(beta, gamma)(G) M(gamma, alpha)(H)
    with gamma ranging over increasing k-subsets of the contracted dimension.
    """
    p, n = MG.shape
    n2, q = MH.shape
    if n != n2:
        raise SizeMismatchError(f"cannot compose shapes {MG.shape} and {MH.shape}")
    order1 = MG.order1 @ MH.order1
    order2 = {}
    order3 = {}
    if min(p, q) >= 2:
        gammas2 = _index_tuples(2, n)
        for beta in _index_tuples(2, p):
            for alpha in _index_tuples(2, q):
                order2[(beta, alpha)] = sum(
                    MG.order2[(beta, g)] * MH.order2[(g, alpha)] for g in gammas2
                )
    if min(p, q) >= 3:
        gammas3 = _index_tuples(3, n)
        for beta in _index_tuples(3, p):
            for alpha in _index_tuples(3, q):
                order3[(beta, alpha)] = sum(
                    MG.order3[(beta, g)] * MH.order3[(g, alpha)] for g in gammas3
                )
    return MinorsVector(shape=(p, q), order0=1.0, order1=order1, order2=order2, order3=order3)


@dataclass
class GraphTangent:
    """Unit simple multivector orienting the gradient graph.

    xi is the minors vector normalized by its Euclidean magnitude, flattened
    in the canonical as_flat ordering; labels name each slot.  The order-0
    component of the identity-gradient tangent is 1/sqrt(8).
    """

    labels: list[tuple[int, tuple[int, ...], tuple[int, ...]]]
    xi: np.ndarray
    source_shape: tuple[int, int]

    def component(self, order: int, rows: tuple[int, ...] = (), cols: tuple[int, ...] = ()) -> float:
        key = (order, tuple(rows), tuple(cols))
        try:
            return float(self.xi[self.labels.index(key)])
        except ValueError:
            raise ShapeMismatchError(f"no component {key} in tangent of {self.source_shape}") from None

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.xi))


def graph_tangent(M: MinorsVector) -> GraphTangent:
    """Normalize a minors vector to the unit graph tangent; |M| must be > 0."""
    labels, values = M.as_flat()
    norm = float(np.linalg.norm(values))
    if norm == 0.0:
        raise ZeroMinorsError("cannot normalize an identically zero minors vector")
    return GraphTangent(labels=labels, xi=values / norm, source_shape=M.shape)


# ---------------------------------------------------------------------------
# batched closed-form helpers
# ---------------------------------------------------------------------------

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


def adjugate(F: np.ndarray) -> np.ndarray:
    """Adjugate (transposed cofactor), so F @ adjugate(F) = det(F) I."""
    return np.swapaxes(cofactor(F), -1, -2)


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
