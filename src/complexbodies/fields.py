"""Uniform grids, nodal fields, cell quadrature, and discrete operators.

Fields live at the nodes of a uniform Cartesian grid over a box; an optional
cell mask carves the active body out of the box (balls, annuli, split
domains).  The discretization is defined once, by tables of evaluation
points and one gather over them; every operator below is derived from those:

* A point holds rows of (corner, +-1) terms over the corners CORNERS[d] of
  a cell, which the gather (nodes to cells) sums: one gradient row per axis
  and, where its rule has one, an average row.
* MIDPOINT[d] (d = 1, 3) is one point, the cell center: the average of the
  2^d corners (sum / 2^d) and the gradient of the multilinear interpolant
  (difference / 2^(d-1) h per axis), exact for affine fields.  MIDPOINT[3]
  is the tensor cube of MIDPOINT[1], the two-point sum and difference.
* KUHN is six points, the path simplices from corner 000 to 111, one per
  axis permutation: a point's gradient along an axis is the difference
  across its path's step along it (over h, the P1 interpolant's).
  KUHN_FACETS are the simplices' 12 facets on the cell faces, oriented
  outward, each from its lowest corner, by face (x+, x-, y+, y-, z+, z-).
* The scatter (cells to nodes) is the gather's literal transpose over active
  cells.  Weighted by cell volume it gives both adjoints; the lumped nodal
  volume is the average adjoint of the active indicator, and the nodes
  incident to the body are those of positive volume.
* Integration is midpoint quadrature, and the adjoints are exact
  transposes, so summation by parts

      sum_cells T : Dh vol = sum_nodes scatter_gradient_adjoint(T) . h

  holds to round-off for every nodal h.  Over the lumped volume,
  -scatter_gradient_adjoint(T) is a nodal divergence of T, consistent to
  O(h^2) one cell inside the body.  FIELDS pairs each nodal field with its
  average and gradient slots; the minimizer's gradient scatters a density's
  partials by it and the weak residual gathers its test pair by it, so the
  two pair exactly.
* Cellwise work (gather, density, per-cell terms) runs a slab of whole
  cell rows at a time (Grid.slabs, joined by cellwise), so its temporaries
  stay small.  A cell's value depends only on its own corners, and every
  scatter and sum over cells stays whole-grid, so slabs change no bit.
* h1_solver builds the H1 metric K + M (gradient stiffness plus lumped
  volumes) from MIDPOINT[1] and inverts it by fast diagonalization: exactly
  on a box, as a symmetric positive definite approximation on a masked
  body.  It preconditions the minimizer.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ShapeMismatchError
from .manifolds import LEVI, Manifold

# cells per slab of the cellwise passes; from a sweep at 48^3 (CHANGES.md)
SLAB_CELLS = 9216


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid on a box in R^3; resolution counts cells
    per axis."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == len(self.cells)):
            raise ShapeMismatchError("lo, hi, cells must have equal length")
        if self.dim != 3:
            raise ShapeMismatchError(f"a grid has 3 axes, got {self.dim}")
        if any(c < 1 for c in self.cells):
            raise ShapeMismatchError("need at least one cell per axis")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ShapeMismatchError("box must have positive extent")

    @classmethod
    def cube(cls, resolution: int, lo: float = 0.0, hi: float = 1.0) -> "Grid":
        return cls((lo,) * 3, (hi,) * 3, (resolution,) * 3)

    @property
    def dim(self) -> int:
        return len(self.cells)

    @property
    def nodes(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cells)

    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple((h - l) / c for l, h, c in zip(self.lo, self.hi, self.cells))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @cached_property
    def slabs(self) -> tuple[slice, ...]:
        """Runs of whole cell rows along axis 0, SLAB_CELLS cells or one row
        each; cell rows lo:hi read the node rows lo:hi + 1."""
        rows = max(1, SLAB_CELLS // (self.cells[1] * self.cells[2]))
        return tuple(slice(lo, min(lo + rows, self.cells[0]))
                     for lo in range(0, self.cells[0], rows))

    def node_axes(self) -> list[np.ndarray]:
        """Node coordinates along each axis; node_coords is their tensor grid."""
        return [np.linspace(l, h, n) for l, h, n in zip(self.lo, self.hi, self.nodes)]

    def node_coords(self) -> np.ndarray:
        return np.stack(np.meshgrid(*self.node_axes(), indexing="ij"), axis=-1)

    def cell_centers(self, rows: slice = slice(None)) -> np.ndarray:
        """Centers of the cells in the cell rows rows along axis 0."""
        axes = [
            np.linspace(l + s / 2, h - s / 2, c)
            for l, h, s, c in zip(self.lo, self.hi, self.spacing, self.cells)
        ]
        axes[0] = axes[0][rows]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


@dataclass
class FieldState:
    """Nodal deformation u (always 3-valued) and descriptor nu on a grid.

    pinned masks mark Dirichlet nodes whose values are held by the data in
    u / nu; active marks the cells that belong to the body.
    """

    grid: Grid
    u: np.ndarray
    nu: np.ndarray
    pinned_u: np.ndarray
    pinned_nu: np.ndarray
    active: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        nodes = self.grid.nodes
        if self.u.shape != nodes + (3,):
            raise ShapeMismatchError(f"u must be {nodes + (3,)}, got {self.u.shape}")
        if self.nu.ndim != self.grid.dim + 1 or self.nu.shape[: self.grid.dim] != nodes:
            raise ShapeMismatchError(f"nu must be {nodes} x embed, got {self.nu.shape}")
        for name, m in (("pinned_u", self.pinned_u), ("pinned_nu", self.pinned_nu)):
            if m.shape != nodes or m.dtype != bool:
                raise ShapeMismatchError(f"{name} must be a bool mask of shape {nodes}")
        if self.active is None:
            self.active = np.ones(self.grid.cells, dtype=bool)
        if self.active.shape != self.grid.cells or self.active.dtype != bool:
            raise ShapeMismatchError(f"active must be a bool cell mask {self.grid.cells}")

    @property
    def embed_dim(self) -> int:
        return self.nu.shape[-1]

    def copy(self) -> "FieldState":
        return FieldState(
            grid=self.grid,
            u=self.u.copy(),
            nu=self.nu.copy(),
            pinned_u=self.pinned_u.copy(),
            pinned_nu=self.pinned_nu.copy(),
            active=self.active.copy(),
        )

    def constraint_violation(self, manifold: Manifold) -> float:
        """Worst nodal constraint violation over nodes touching active cells."""
        mask = incident_node_mask(self.grid, self.active)
        viol = manifold.constraint_violation(self.nu)
        return float(viol[mask].max()) if mask.any() else 0.0


def identity_state(grid: Grid, manifold: Manifold, nu0: np.ndarray) -> FieldState:
    """Reference state: u = x, descriptor constant at nu0 projected onto the
    manifold."""
    u = grid.node_coords()
    nu0 = manifold.project(np.asarray(nu0, dtype=float))
    nu = np.broadcast_to(nu0, grid.nodes + (manifold.embed_dim,)).copy()
    return FieldState(
        grid=grid,
        u=u,
        nu=nu,
        pinned_u=np.zeros(grid.nodes, dtype=bool),
        pinned_nu=np.zeros(grid.nodes, dtype=bool),
    )


# the slots of a density's state list e(x, u, F, nu, N), in argument order
SLOTS = ("x", "u", "F", "nu", "N")
# each nodal field of a FieldState: its average slot and its gradient slot
FIELDS = {"u": ("u", "F"), "nu": ("nu", "N")}


class GradientField(NamedTuple):
    """A density's argument list: cell kinematics (positions, averages,
    gradients) or sampled states (energy.sample_states, one batch axis), in
    the argument order of a density, so density.eval(*gf) evaluates it.

    A slot that gradients() was not asked for holds a zero-size float array:
    the cell axes, then one zero-length axis per component axis of the slot.
    """

    x: np.ndarray      # (cells..., 3) cell centers
    u_bar: np.ndarray  # (cells..., 3)
    F: np.ndarray      # (cells..., 3, 3)
    nu_bar: np.ndarray # (cells..., embed)
    N: np.ndarray      # (cells..., embed, 3)


# ---------------------------------------------------------------------------
# the rules: tables of evaluation points, one gather and its exact transpose
# ---------------------------------------------------------------------------

class Corner(NamedTuple):
    """A cell corner: offset (0 or 1 per axis), index into a nodal array."""

    offset: tuple[int, ...]
    index: tuple[slice, ...]


CORNERS = {
    dim: tuple(Corner(o, tuple(slice(1, None) if b else slice(0, -1) for b in o))
               for o in itertools.product((0, 1), repeat=dim))
    for dim in (1, 3)
}


class Point(NamedTuple):
    """An evaluation point of a cell rule, as rows of (corner, +-1) terms:
    its gradient, one row per axis, and its average, where its rule has one."""

    gradient: tuple[tuple[tuple[Corner, float], ...], ...]
    average: tuple[tuple[Corner, float], ...] = ()


MIDPOINT = {
    dim: Point(tuple(tuple((c, 1.0 if c.offset[a] else -1.0) for c in CORNERS[dim])
                     for a in range(dim)), tuple((c, 1.0) for c in CORNERS[dim]))
    for dim in (1, 3)
}


def _kuhn():
    """KUHN and KUHN_FACETS.  A simplex's facet opposite 000 lies where its
    first step's axis is 1, the one opposite 111 where its last step's is 0."""
    corner = {c.offset: c for c in CORNERS[3]}
    points, facets = [], []
    for perm in itertools.permutations(range(3)):
        path = [corner[tuple(int(a in perm[:k]) for a in range(3))] for k in range(4)]
        points.append(Point(tuple(((path[k], -1.0), (path[k + 1], 1.0))
                                  for k in map(perm.index, range(3)))))
        for key, tri in (((perm[0], -1), path[1:]), ((perm[2], 0), path[2::-1])):
            tri = tri if LEVI[perm] > 0 else tri[::-1]
            k = tri.index(min(tri))
            facets.append((key + (tri[(k + 1) % 3].offset,), tri[k:] + tri[:k]))
    return tuple(points), tuple(tri for _, tri in sorted(facets))


KUHN, KUHN_FACETS = _kuhn()


def gather(w: np.ndarray, row) -> np.ndarray:
    """Nodes to cells: the sum of a row's terms, each sign applied as an add
    or a subtract of its corner's values.  w is a nodal array or a block of
    its node rows (a slab); so is the result."""
    acc = np.zeros(w[row[0][0].index].shape)
    for corner, sign in row:
        if sign > 0:
            acc += w[corner.index]
        else:
            acc -= w[corner.index]
    return acc


def _scatter(v: np.ndarray, row, active: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """Cells to nodes, the exact transpose of gather, accumulated into out;
    inactive cells contribute nothing."""
    if active is not None:
        v = np.where(active[(...,) + (None,) * (v.ndim - active.ndim)], v, 0.0)
    for corner, sign in row:
        if sign > 0:
            out[corner.index] += v
        else:
            out[corner.index] -= v
    return out


def cell_average(w: np.ndarray, grid: Grid) -> np.ndarray:
    """Average of the 2^d corner values per cell of w, a nodal array or a
    block of its node rows."""
    return gather(w, MIDPOINT[grid.dim].average) / 2 ** grid.dim


def cell_gradient(w: np.ndarray, grid: Grid) -> np.ndarray:
    """Cell-center gradient (..., comp, 3) of a nodal field (..., comp), or
    of a block of its node rows, on the spacing of grid.

    Column j holds the derivative along axis j.
    """
    out = np.empty(tuple(n - 1 for n in w.shape[: grid.dim]) + w.shape[grid.dim :] + (3,))
    for axis, (h, row) in enumerate(zip(grid.spacing, MIDPOINT[grid.dim].gradient)):
        out[..., axis] = gather(w, row) * (1.0 / (2 ** (grid.dim - 1) * h))
    return out


def gradients(state: FieldState, reads=SLOTS, rows: slice = slice(None)) -> GradientField:
    """Assemble the cell-centered kinematic data for a state on the cell
    rows rows along axis 0 (a slab; by default all), building only the
    slots named in reads (see GradientField for the others)."""
    grid = state.grid
    lo, hi, _ = rows.indices(grid.cells[0])
    u, nu = state.u[lo : hi + 1], state.nu[lo : hi + 1]
    cells = tuple(n - 1 for n in u.shape[: grid.dim])
    unread = [np.empty(cells + (0,) * rank) for rank in (1, 2)]
    return GradientField(
        x=grid.cell_centers(rows) if "x" in reads else unread[0],
        u_bar=cell_average(u, grid) if "u" in reads else unread[0],
        F=cell_gradient(u, grid) if "F" in reads else unread[1],
        nu_bar=cell_average(nu, grid) if "nu" in reads else unread[0],
        N=cell_gradient(nu, grid) if "N" in reads else unread[1],
    )


def cellwise(grid: Grid, terms) -> tuple[np.ndarray, ...]:
    """The per-cell arrays that terms(rows) returns for a slab, joined over
    grid.slabs along axis 0; on a grid of one slab, terms' own arrays."""
    if len(grid.slabs) == 1:
        return terms(grid.slabs[0])
    out = ()
    for rows in grid.slabs:
        part = terms(rows)
        out = out or tuple(np.empty(grid.cells + p.shape[grid.dim :], p.dtype) for p in part)
        for whole, p in zip(out, part):
            whole[rows] = p
    return out


def integrate_cells(values: np.ndarray, grid: Grid, active: np.ndarray | None = None) -> float:
    """Midpoint quadrature of a cell field over the active region."""
    values = np.asarray(values)
    if values.shape != grid.cells:
        raise ShapeMismatchError(f"cell field must be {grid.cells}, got {values.shape}")
    if active is None:
        return float(values.sum() * grid.cell_volume)
    return float(values[active].sum() * grid.cell_volume)


# ---------------------------------------------------------------------------
# transposes: energy gradients, lumped volumes, incidence
# ---------------------------------------------------------------------------

def scatter_cell_average_adjoint(v: np.ndarray, grid: Grid, active: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of cell_average weighted by cell volume: nodal accumulation of
    sum_cells vol * v[cell] * (d avg / d node)."""
    out = np.zeros(grid.nodes + v.shape[grid.dim :])
    return _scatter(v * grid.cell_volume / (2 ** grid.dim), MIDPOINT[grid.dim].average, active, out)


def scatter_gradient_adjoint(T: np.ndarray, grid: Grid, active: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of cell_gradient weighted by cell volume.

    T has shape (cells..., comp..., 3); the result (nodes..., comp...) is
    sum_cells vol * T[cell] : (d cell_gradient / d node), the exact transpose
    of the forward stencil.
    """
    out = np.zeros(grid.nodes + T.shape[grid.dim : -1])
    for axis, (h, row) in enumerate(zip(grid.spacing, MIDPOINT[grid.dim].gradient)):
        w = T[..., axis] * (grid.cell_volume / (2 ** (grid.dim - 1) * h))
        _scatter(w, row, active, out)
    return out


def node_volumes(grid: Grid, active: np.ndarray | None = None) -> np.ndarray:
    """Lumped nodal volume: each active cell spreads vol/2^d to its corners."""
    return scatter_cell_average_adjoint(np.ones(grid.cells), grid, active)


def divide_by_volume(raw: np.ndarray, vols: np.ndarray) -> np.ndarray:
    """Nodal raw / vols where the lumped volume is positive, 0 elsewhere."""
    denom = vols[(...,) + (None,) * (raw.ndim - vols.ndim)]
    return np.where(denom > 0, raw / np.where(denom > 0, denom, 1.0), 0.0)


def incident_node_mask(grid: Grid, active: np.ndarray | None = None) -> np.ndarray:
    """Nodes touching at least one active cell: those of positive volume."""
    return node_volumes(grid, active) > 0


# ---------------------------------------------------------------------------
# the H1 metric K + M, inverted by fast diagonalization
# ---------------------------------------------------------------------------

def h1_solver(grid: Grid, free: np.ndarray):
    """The solve r -> z of (K + M) z = r on the free nodes, z = 0 elsewhere.

    K = G^T W G is the stiffness of cell_gradient over the box (W the cell
    volume) and M the lumped nodal volumes.  MIDPOINT[d] is the d-fold tensor
    product of MIDPOINT[1], so per axis a the gradient is G_a = D_a (x) A (x)
    A / h_a, with D the pair difference and A the pair average, and the
    lumped mass is B = diag(A^T 1).  Since A^T A = B - D^T D / 4, the 1-D
    generalized eigenbasis Phi of (D^T D, B) on an axis's free indices
    diagonalizes all three factors at once, and K + M on a tensor product
    of per-axis index sets is diagonal in the product basis: the solve is
    Phi diag(1/p) Phi^T, exact to round-off.  It stores one small dense
    basis per axis and no matrix over the nodes.

    free is a nodal bool mask.  The basis lives on its tensor hull (the
    per-axis indices that hold a free node); where the mask is no product
    set (a masked body, pins off a box face) the solve restricts the hull's
    inverse to the free nodes, a symmetric positive definite approximation.
    Trailing component axes of r are solved independently.
    """
    dim = grid.dim
    hull = tuple(np.flatnonzero(free.any(axis=tuple(b for b in range(dim) if b != a)))
                 for a in range(dim))
    bases, lam, mu = [], [], []
    for a, idx in enumerate(hull):
        n, h = grid.nodes[a], grid.spacing[a]
        # the rows of MIDPOINT[1] as (n - 1) x n matrices, nodal values to cells
        avg = gather(np.eye(n), MIDPOINT[1].average) / 2.0  # the cell average halves the pair sum
        diff = gather(np.eye(n), MIDPOINT[1].gradient[0]) / h  # the difference along the axis
        ix = np.ix_(idx, idx)
        stiff, avg2 = (diff.T @ diff)[ix], (avg.T @ avg)[ix]
        mass = avg.sum(axis=0)[idx]
        root = np.sqrt(mass)
        w, vec = np.linalg.eigh(stiff / np.outer(root, root))
        phi = vec / root[:, None]  # phi^T diag(mass) phi = I, phi^T stiff phi = diag(w)
        bases.append(phi)
        lam.append(w)
        mu.append(np.einsum("ij,ik,kj->j", phi, avg2, phi))

    def along(v, a):
        return v.reshape([-1 if b == a else 1 for b in range(dim)])

    # the eigenvalues p of K + M: sum over axes a of lam_a (x) mu_b (b != a), plus 1
    p = grid.cell_volume * (1.0 + sum(
        math.prod(along(lam[b] if b == a else mu[b], b) for b in range(dim))
        for a in range(dim)))
    block = np.ix_(*hull)
    inside = free[block]

    def solve(r: np.ndarray) -> np.ndarray:
        comp = (None,) * (r.ndim - dim)
        c = np.where(inside[(...,) + comp], r[block], 0.0)
        for a, phi in enumerate(bases):
            c = np.moveaxis(np.tensordot(phi, c, axes=(0, a)), 0, a)
        c /= p[(...,) + comp]
        for a, phi in enumerate(bases):
            c = np.moveaxis(np.tensordot(phi, c, axes=(1, a)), 0, a)
        z = np.zeros_like(r)
        z[block] = np.where(inside[(...,) + comp], c, 0.0)
        return z

    return solve


# ---------------------------------------------------------------------------
# node classification and Dirichlet data
# ---------------------------------------------------------------------------

def interior_node_mask(grid: Grid, active: np.ndarray | None = None, margin: int = 1) -> np.ndarray:
    """Nodes whose full (2*margin)^d cell neighborhood is active and in range;
    margin >= 1."""
    if active is None:
        active = np.ones(grid.cells, dtype=bool)
    m = margin
    inside = np.pad(np.asarray(active, dtype=bool), m)
    # the box window is a product of 1-D windows: AND 2m shifted slabs per axis
    for ax, n in enumerate(grid.nodes):
        window = [inside[(slice(None),) * ax + (slice(s, s + n),)] for s in range(2 * m)]
        inside = np.logical_and.reduce(window)
    return inside


def boundary_node_mask(grid: Grid, active: np.ndarray | None = None) -> np.ndarray:
    """Nodes carrying degrees of freedom that sit on the body boundary."""
    return incident_node_mask(grid, active) & ~interior_node_mask(grid, active, margin=1)


def pin(state: FieldState, which: str, mask: np.ndarray, values: np.ndarray,
        manifold: Manifold | None = None) -> None:
    """Pin the nodes of a nodal bool mask to values, a nodal array shaped
    like the field u or nu.  Descriptor values are projected onto the
    manifold, when one is passed, on the masked nodes only, so data off the
    mask is never projected."""
    if which not in ("u", "nu"):
        raise ShapeMismatchError(f"which must be 'u' or 'nu', got {which!r}")
    values = values[mask]
    if which == "nu" and manifold is not None:
        values = manifold.project(values)
    if which == "u":
        state.u[mask] = values
        state.pinned_u |= mask
    else:
        state.nu[mask] = values
        state.pinned_nu |= mask


def ball_mask(grid: Grid, center: tuple[float, ...] | None = None, radius: float | None = None) -> np.ndarray:
    """Cells whose centers lie inside a ball; default: largest centered ball."""
    centers = grid.cell_centers()
    if center is None:
        center = tuple((l + h) / 2 for l, h in zip(grid.lo, grid.hi))
    if radius is None:
        radius = min((h - l) / 2 for l, h in zip(grid.lo, grid.hi))
    d2 = np.sum((centers - np.asarray(center)) ** 2, axis=-1)
    return d2 < radius**2
