"""Descriptor manifolds: projection, tangent calculus, retraction, rotations.

A substructural descriptor takes values on a manifold M embedded in R^d with
the flat embedding metric.  Every manifold here exposes

* project(p): nearest-point projection of an ambient point onto M,
* tangent_project(nu, v): orthogonal projection of an ambient vector onto
  the tangent space at nu (linear, idempotent, annihilates the normal space),
* retract(nu, v): first-order retraction, realized as the nearest-point
  projection of nu + v,
* rotation_generator(nu): the linear map A(nu) in Hom(R^3, T_nu M) giving the
  infinitesimal action of ambient rotations on the descriptor, when the
  descriptor transforms under observer changes.  For the unit sphere and for
  R^3-valued vector descriptors A(nu) q = q x nu; for symmetric 2-tensors it
  is the commutator [W_q, nu] with W_q the spin matrix of q; products act on
  each rotating factor with the same q.

All operations vectorize over leading axes: points are arrays shaped
(..., embed_dim).  Matrix-valued descriptors are embedded row-major.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    GeneratorUnavailableError,
    ProjectionUndefinedError,
    ShapeMismatchError,
)

# alternating symbol, used for cross-product generators and spin matrices
LEVI = np.zeros((3, 3, 3))
LEVI[0, 1, 2] = LEVI[1, 2, 0] = LEVI[2, 0, 1] = 1.0
LEVI[0, 2, 1] = LEVI[2, 1, 0] = LEVI[1, 0, 2] = -1.0

SYM_EIG_FLOOR = 1e-8


def rotation_from_vector(w: np.ndarray) -> np.ndarray:
    """Rotation matrices exp(W) (..., 3, 3) for the spin matrices W of the
    3-vectors w (..., 3); a vector shorter than 1e-300 gives the identity."""
    w = np.asarray(w, dtype=float)
    angle = np.linalg.norm(w, axis=-1)[..., None, None]
    tiny = angle < 1e-300
    k = w / np.where(tiny, 1.0, angle)[..., 0]
    K = np.einsum("ijk,...j->...ik", LEVI, k)  # K v = k x v
    R = np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)
    return np.where(tiny, np.eye(3), R)


def spin_matrix(q: np.ndarray) -> np.ndarray:
    """Matrix W with W v = q x v."""
    q = np.asarray(q, dtype=float)
    return np.array([[0.0, -q[2], q[1]], [q[2], 0.0, -q[0]], [-q[1], q[0], 0.0]])


class Manifold:
    """Base class; subclasses fill the geometry, this fixes the contracts."""

    name: str = "manifold"
    embed_dim: int = 0
    has_boundary: bool = False
    rotation_generator_defined: bool = False

    def project(self, p: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def tangent_project(self, nu: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def retract(self, nu: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Nearest-point retraction; exact on the manifold at v = 0."""
        return self.project(np.asarray(nu, dtype=float) + np.asarray(v, dtype=float))

    def rotation_generator(self, nu: np.ndarray) -> np.ndarray:
        """A(nu): (..., embed_dim, 3) with columns A e_j."""
        raise GeneratorUnavailableError(f"{self.name} has no rotation action")

    def rotation_generator_gradient(self, nu: np.ndarray) -> np.ndarray:
        """dA(nu): (..., embed_dim, 3, embed_dim), dA[A, j, B] = d A[A, j] / d nu[B]."""
        raise GeneratorUnavailableError(f"{self.name} has no rotation action")

    def constraint_violation(self, p: np.ndarray) -> np.ndarray:
        """Scalar per point measuring distance from the constraint set."""
        raise NotImplementedError

    def random_point(self, rng: np.random.Generator, size: tuple[int, ...] = ()) -> np.ndarray:
        raise NotImplementedError

    def _check_embed(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        if p.shape[-1:] != (self.embed_dim,):
            raise ShapeMismatchError(
                f"{self.name}: expected trailing dimension {self.embed_dim}, got {p.shape}"
            )
        return p


class Euclidean(Manifold):
    """Flat descriptor space R^m.  With m = 3 the descriptor transforms as a
    lab vector under observer rotations (phason-type fields)."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ShapeMismatchError("Euclidean dimension must be >= 1")
        self.embed_dim = dim
        self.name = f"euclidean{dim}"
        self.has_boundary = False
        self.rotation_generator_defined = dim == 3

    def project(self, p):
        return self._check_embed(p).copy()

    def tangent_project(self, nu, v):
        self._check_embed(nu)
        return self._check_embed(v).copy()

    def rotation_generator(self, nu):
        if not self.rotation_generator_defined:
            raise GeneratorUnavailableError(f"{self.name} has no rotation action")
        nu = self._check_embed(nu)
        # columns e_j x nu
        return np.einsum("ajc,...c->...aj", LEVI, nu)

    def rotation_generator_gradient(self, nu):
        if not self.rotation_generator_defined:
            raise GeneratorUnavailableError(f"{self.name} has no rotation action")
        nu = self._check_embed(nu)
        return np.broadcast_to(LEVI, nu.shape[:-1] + (3, 3, 3)).copy()

    def constraint_violation(self, p):
        p = self._check_embed(p)
        return np.zeros(p.shape[:-1])

    def random_point(self, rng, size=()):
        return rng.normal(size=size + (self.embed_dim,))


class UnitSphere(Manifold):
    """Unit vectors in R^3 (directors, spins)."""

    embed_dim = 3
    name = "unit-sphere"
    has_boundary = False
    rotation_generator_defined = True

    def project(self, p):
        p = self._check_embed(p)
        norms = np.linalg.norm(p, axis=-1)
        if np.any(norms < 1e-12):
            raise ProjectionUndefinedError("cannot project a (near) zero vector onto the sphere")
        return p / norms[..., None]

    def tangent_project(self, nu, v):
        nu = self._check_embed(nu)
        v = self._check_embed(v)
        return v - np.einsum("...i,...i->...", nu, v)[..., None] * nu

    def rotation_generator(self, nu):
        nu = self._check_embed(nu)
        return np.einsum("ajc,...c->...aj", LEVI, nu)

    def rotation_generator_gradient(self, nu):
        nu = self._check_embed(nu)
        return np.broadcast_to(LEVI, nu.shape[:-1] + (3, 3, 3)).copy()

    def constraint_violation(self, p):
        p = self._check_embed(p)
        return np.abs(np.linalg.norm(p, axis=-1) - 1.0)

    def random_point(self, rng, size=()):
        return self.project(rng.normal(size=size + (3,)))


class Interval(Manifold):
    """Closed interval [lo, hi], for scalar order parameters (porosity)."""

    embed_dim = 1
    has_boundary = True
    rotation_generator_defined = False

    def __init__(self, lo: float = 0.0, hi: float = 1.0):
        if not lo < hi:
            raise ShapeMismatchError(f"empty interval [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)
        self.name = f"interval[{lo:g},{hi:g}]"

    def project(self, p):
        return np.clip(self._check_embed(p), self.lo, self.hi)

    def tangent_project(self, nu, v):
        self._check_embed(nu)
        return self._check_embed(v).copy()

    def constraint_violation(self, p):
        p = self._check_embed(p)[..., 0]
        return np.maximum(self.lo - p, 0.0) + np.maximum(p - self.hi, 0.0)

    def random_point(self, rng, size=()):
        return rng.uniform(self.lo, self.hi, size=size + (1,))


class SymPositive(Manifold):
    """Symmetric positive-definite 3x3 tensors, embedded row-major in R^9.

    Projection symmetrizes and clamps eigenvalues to >= SYM_EIG_FLOOR; the
    behavior at the cone boundary is a regularization choice, not geometry.
    Rotations act by conjugation, so A(nu) q = W_q nu - nu W_q.
    """

    embed_dim = 9
    name = "sym-positive"
    has_boundary = True
    rotation_generator_defined = True

    @staticmethod
    def _as_matrix(p):
        return p.reshape(p.shape[:-1] + (3, 3))

    @staticmethod
    def _as_vector(m):
        return m.reshape(m.shape[:-2] + (9,))

    def project(self, p):
        p = self._check_embed(p)
        m = self._as_matrix(p)
        sym = 0.5 * (m + np.swapaxes(m, -1, -2))
        w, v = np.linalg.eigh(sym)
        w = np.maximum(w, SYM_EIG_FLOOR)
        clamped = np.einsum("...ik,...k,...jk->...ij", v, w, v)
        return self._as_vector(clamped)

    def tangent_project(self, nu, v):
        self._check_embed(nu)
        v = self._check_embed(v)
        m = self._as_matrix(v)
        return self._as_vector(0.5 * (m + np.swapaxes(m, -1, -2)))

    def rotation_generator(self, nu):
        nu = self._check_embed(nu)
        m = self._as_matrix(nu)
        # column j: [W_j, m] with W_j the spin matrix of e_j
        cols = []
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            W = spin_matrix(e)
            comm = np.einsum("ab,...bc->...ac", W, m) - np.einsum("...ab,bc->...ac", m, W)
            cols.append(self._as_vector(comm))
        return np.stack(cols, axis=-1)

    def rotation_generator_gradient(self, nu):
        nu = self._check_embed(nu)
        # d(W_j nu - nu W_j)_{ab} / d nu_{cd} = W_j[a,c] delta[b,d] - delta[a,c] W_j[d,b]
        eye = np.eye(3)
        dA = np.zeros((9, 3, 9))
        for j in range(3):
            e = np.zeros(3)
            e[j] = 1.0
            W = spin_matrix(e)
            block = np.einsum("ac,bd->abcd", W, eye) - np.einsum("ac,db->abcd", eye, W)
            dA[:, j, :] = block.reshape(9, 9)
        return np.broadcast_to(dA, nu.shape[:-1] + (9, 3, 9)).copy()

    def constraint_violation(self, p):
        p = self._check_embed(p)
        m = self._as_matrix(p)
        asym = np.max(np.abs(m - np.swapaxes(m, -1, -2)), axis=(-1, -2))
        w = np.linalg.eigvalsh(0.5 * (m + np.swapaxes(m, -1, -2)))
        deficit = np.maximum(0.5 * SYM_EIG_FLOOR - w[..., 0], 0.0)
        return asym + deficit

    def random_point(self, rng, size=()):
        g = rng.normal(size=size + (3, 3))
        spd = np.einsum("...ij,...kj->...ik", g, g) + 0.05 * np.eye(3)
        return self._as_vector(spd)


class Product(Manifold):
    """Direct product of descriptor manifolds, embedded by concatenation.

    The ambient rotation acts with the same q on every factor that carries a
    rotation action; factors without one (scalars) sit in a zero block.
    """

    def __init__(self, *factors: Manifold, name: str | None = None):
        if not factors:
            raise ShapeMismatchError("product of no factors")
        self.factors = factors
        self.embed_dim = sum(f.embed_dim for f in factors)
        self.name = name or "x".join(f.name for f in factors)
        self.has_boundary = any(f.has_boundary for f in factors)
        self.rotation_generator_defined = any(f.rotation_generator_defined for f in factors)
        self._offsets = []
        at = 0
        for f in factors:
            self._offsets.append((at, at + f.embed_dim))
            at += f.embed_dim

    def _blocks(self, p):
        return [p[..., a:b] for a, b in self._offsets]

    def project(self, p):
        p = self._check_embed(p)
        return np.concatenate(
            [f.project(blk) for f, blk in zip(self.factors, self._blocks(p))], axis=-1
        )

    def tangent_project(self, nu, v):
        nu = self._check_embed(nu)
        v = self._check_embed(v)
        return np.concatenate(
            [
                f.tangent_project(nb, vb)
                for f, nb, vb in zip(self.factors, self._blocks(nu), self._blocks(v))
            ],
            axis=-1,
        )

    def rotation_generator(self, nu):
        if not self.rotation_generator_defined:
            raise GeneratorUnavailableError(f"{self.name} has no rotation action")
        nu = self._check_embed(nu)
        blocks = []
        for f, nb in zip(self.factors, self._blocks(nu)):
            if f.rotation_generator_defined:
                blocks.append(f.rotation_generator(nb))
            else:
                blocks.append(np.zeros(nb.shape[:-1] + (f.embed_dim, 3)))
        return np.concatenate(blocks, axis=-2)

    def rotation_generator_gradient(self, nu):
        if not self.rotation_generator_defined:
            raise GeneratorUnavailableError(f"{self.name} has no rotation action")
        nu = self._check_embed(nu)
        lead = nu.shape[:-1]
        dA = np.zeros(lead + (self.embed_dim, 3, self.embed_dim))
        for f, (a, b), nb in zip(self.factors, self._offsets, self._blocks(nu)):
            if f.rotation_generator_defined:
                dA[..., a:b, :, a:b] = f.rotation_generator_gradient(nb)
        return dA

    def constraint_violation(self, p):
        p = self._check_embed(p)
        parts = [
            f.constraint_violation(blk) for f, blk in zip(self.factors, self._blocks(p))
        ]
        return np.max(np.stack(parts, axis=-1), axis=-1)

    def random_point(self, rng, size=()):
        return np.concatenate([f.random_point(rng, size) for f in self.factors], axis=-1)


def degree_of_orientation() -> Product:
    """Director with a scalar degree of orientation: S^2 x [-1/2, 1]."""
    return Product(UnitSphere(), Interval(-0.5, 1.0), name="degree-of-orientation")


def layer_director() -> Product:
    """Smectic descriptor: layer phase scalar paired with a unit director."""
    return Product(Euclidean(1), UnitSphere(), name="layer-director")
