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
  R^3-valued vector descriptors A(nu) q = q x nu; products act on each
  rotating factor with the same q.
* rotation_generator_gradient(): dA = dA/dnu.  Every generator above is
  linear in nu, so dA is one constant (embed_dim, 3, embed_dim) tensor;
  callers broadcast it against batched arrays.

All other operations vectorize over leading axes: points are arrays shaped
(..., embed_dim).
"""

from __future__ import annotations

import numpy as np

from .errors import (
    GeneratorUnavailableError,
    ProjectionUndefinedError,
    ShapeMismatchError,
)

# alternating symbol, used for cross-product generators
LEVI = np.zeros((3, 3, 3))
LEVI[0, 1, 2] = LEVI[1, 2, 0] = LEVI[2, 0, 1] = 1.0
LEVI[0, 2, 1] = LEVI[2, 1, 0] = LEVI[1, 0, 2] = -1.0


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


class Manifold:
    """Base class; subclasses fill the geometry, this fixes the contracts."""

    name: str = "manifold"
    embed_dim: int = 0
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

    def rotation_generator_gradient(self) -> np.ndarray:
        """dA: (embed_dim, 3, embed_dim), dA[A, j, B] = d A[A, j] / d nu[B].

        A(nu) is linear in nu, so dA is a constant; unlike every other
        operation it takes no points and carries no leading axes.
        """
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

    def rotation_generator_gradient(self):
        if not self.rotation_generator_defined:
            raise GeneratorUnavailableError(f"{self.name} has no rotation action")
        return LEVI.copy()

    def constraint_violation(self, p):
        p = self._check_embed(p)
        return np.zeros(p.shape[:-1])

    def random_point(self, rng, size=()):
        return rng.normal(size=size + (self.embed_dim,))


class UnitSphere(Manifold):
    """Unit vectors in R^3 (directors, spins)."""

    embed_dim = 3
    name = "unit-sphere"
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

    def rotation_generator_gradient(self):
        return LEVI.copy()

    def constraint_violation(self, p):
        p = self._check_embed(p)
        return np.abs(np.linalg.norm(p, axis=-1) - 1.0)

    def random_point(self, rng, size=()):
        return self.project(rng.normal(size=size + (3,)))


class Interval(Manifold):
    """Closed interval [lo, hi], for scalar order parameters (porosity)."""

    embed_dim = 1
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

    def rotation_generator_gradient(self):
        if not self.rotation_generator_defined:
            raise GeneratorUnavailableError(f"{self.name} has no rotation action")
        dA = np.zeros((self.embed_dim, 3, self.embed_dim))
        for f, (a, b) in zip(self.factors, self._offsets):
            if f.rotation_generator_defined:
                dA[a:b, :, a:b] = f.rotation_generator_gradient()
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
