"""Admissibility checks and topological defect accounting.

Orientation: det F > 0 cell by cell.  Global injectivity is certified
exactly on the Kuhn (Freudenthal) P1 interpolant of u, affine on each of a
cell's 6 path simplices (fields.KUHN).  With an affine rim map of positive
determinant, det F > 0 on every simplex implies injectivity (Ball, 1981),
and the Ciarlet-Necas condition

    integral of det F <= measure(u(active region))

holds with equality, both sides being det A times the body's volume.

Defect accounting for unit-director fields: the charge density

    D_i = (1/2) eps_{ijk} nu . (d_j nu x d_k nu)

is the pullback of the sphere area form; its flux through a closed surface
counts covering degree.  Discrete charges are computed exactly as winding
numbers: the signed solid angles of the director triples on a cell's face
triangles (fields.KUHN_FACETS) are summed.  Shared faces cancel, so charges
telescope over any cell region to the degree of the region's boundary.
Cells of winding magnitude at least one half cluster into defects under full
3^d adjacency, numbered in C order of their first cell.  The clustering is
written in numpy, so the package imports no scipy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeMismatchError, WrongManifoldError
from .fields import (
    KUHN,
    KUHN_FACETS,
    FieldState,
    boundary_node_mask,
    cellwise,
    gather,
    gradients,
    incident_node_mask,
)
from .manifolds import LEVI, UnitSphere
from .minors import det3


@dataclass(frozen=True)
class OrientationReport:
    cells: int
    violations: int
    min_det: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def check_orientation(state: FieldState) -> OrientationReport:
    """Count active cells whose deformation gradient fails det F > 0; a
    NaN determinant fails too.  F is gathered a slab at a time; the count
    and the min are taken over the joined determinants."""
    (det,) = cellwise(state.grid, lambda rows: (det3(gradients(state, ("F",), rows).F),))
    dets = det[state.active]
    if dets.size == 0:
        raise ShapeMismatchError("state has no active cells")
    return OrientationReport(
        cells=int(dets.size),
        violations=int(np.sum(~(dets > 0.0))),
        min_det=float(dets.min()),
    )


# rim fit of check_ciarlet_necas: the largest residual of the affine
# least-squares fit, relative to 1 + max |u| on the rim
RIM_TOL = 1e-12


@dataclass(frozen=True)
class InjectivityReport:
    volume_integral: float
    image_volume: float
    violations: int
    min_det: float
    rim_affine: bool

    @property
    def slack(self) -> float:
        return self.image_volume - self.volume_integral

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.rim_affine and self.image_volume > 0.0


def check_ciarlet_necas(state: FieldState) -> InjectivityReport:
    """Exact injectivity certificate for the Kuhn P1 interpolant of u.

    On each path simplex of an active cell (fields.KUHN) u is affine and
    its det F exact.  If u is an affine map x -> A x + c with det A > 0 on
    the rim (boundary_node_mask) and det F > 0 on every simplex, the map is
    injective (Ball 1981) and its image volume is det A |Omega| = integral
    of det F (Ciarlet-Necas 1987), so slack is round-off.  A non-finite
    determinant counts as a violation; a rim that is not affine fails with a
    NaN image volume.  F is built a slab at a time; each path's sum, count
    and min are taken over its joined whole-grid determinants.
    """
    grid, active = state.grid, state.active
    if not active.any():
        raise ShapeMismatchError("state has no active cells")

    def simplex_dets(rows):
        u = state.u[rows.start:rows.stop + 1]
        F = np.empty(tuple(n - 1 for n in u.shape[:3]) + (3, 3))
        out = []
        for point in KUHN:
            for ax, h in enumerate(grid.spacing):
                np.divide(gather(u, point.gradient[ax]), h, out=F[..., :, ax])
            out.append(det3(F))
        return tuple(out)

    total, violations, min_det = 0.0, 0, np.inf
    with np.errstate(invalid="ignore", over="ignore"):
        for det in cellwise(grid, simplex_dets):
            dets = det[active]
            dets[~np.isfinite(dets)] = np.nan
            total += dets.sum()
            violations += int(np.sum(~(dets > 0.0)))
            min_det = np.minimum(min_det, dets.min())
    volume = float(active.sum()) * grid.cell_volume

    rim = boundary_node_mask(grid, active)
    x, y = grid.node_coords()[rim], state.u[rim]
    rim_affine, image = False, float("nan")
    if np.isfinite(y).all():
        X = np.hstack([x - x.mean(axis=0), np.ones((x.shape[0], 1))])
        coef = np.linalg.lstsq(X, y, rcond=None)[0]
        residual = np.abs(X @ coef - y).max()
        rim_affine = bool(residual <= RIM_TOL * (1.0 + np.abs(y).max()))
        if rim_affine:
            image = float(np.linalg.det(coef[:3].T)) * volume
    return InjectivityReport(
        volume_integral=float(total) * grid.cell_volume / 6.0,
        image_volume=image,
        violations=violations,
        min_det=float(min_det),
        rim_affine=rim_affine,
    )


def _label(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Connected components of mask under full 3^d adjacency (edges and
    corners connect), numbered 1..n in C order of each component's first cell.

    Union-find over the marked cells in C order: every adjacent pair with two
    roots hooks the larger root under the smaller, then each cell jumps to its
    parent's parent until all point at roots; repeated until no pair joins two
    roots.  A parent never exceeds its cell, so a component's root is its
    first cell.
    """
    cells = np.flatnonzero(mask)
    ids = np.full(mask.shape, -1, dtype=np.intp)
    ids.flat[cells] = np.arange(cells.size)
    a, b = [], []
    for off in itertools.product((0, 1, -1), repeat=mask.ndim):
        if not any(off) or off[np.flatnonzero(off)[0]] < 0:
            continue  # each unordered neighbour pair once
        src = tuple(slice(max(0, -o), n - max(0, o)) for o, n in zip(off, mask.shape))
        dst = tuple(slice(max(0, o), n - max(0, -o)) for o, n in zip(off, mask.shape))
        both = mask[src] & mask[dst]
        a.append(ids[src][both])
        b.append(ids[dst][both])
    a, b = np.concatenate(a), np.concatenate(b)
    root = np.arange(cells.size)
    while True:
        ra, rb = root[a], root[b]
        split = ra != rb
        if not split.any():
            break
        np.minimum.at(root, np.maximum(ra, rb)[split], np.minimum(ra, rb)[split])
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
    first, rank = np.unique(root, return_inverse=True)
    labels = np.zeros(mask.shape, dtype=np.int32)
    labels.flat[cells] = rank + 1
    return labels, int(first.size)


# ---------------------------------------------------------------------------
# director topology
# ---------------------------------------------------------------------------

def _require_director(state: FieldState, manifold=None) -> np.ndarray:
    """Validate and normalize a unit-director descriptor; returns unit nodes."""
    if manifold is not None and not isinstance(manifold, UnitSphere):
        raise WrongManifoldError(
            f"charge accounting needs a unit-sphere descriptor, got {manifold.name}"
        )
    if state.embed_dim != 3:
        raise WrongManifoldError(
            f"charge accounting needs a 3-component director, got {state.embed_dim}"
        )
    norms = np.linalg.norm(state.nu, axis=-1)
    incident = incident_node_mask(state.grid, state.active)
    if np.any(norms[incident] < 1e-8):
        raise WrongManifoldError("director field has near-zero nodes in the active region")
    return state.nu / np.maximum(norms, 1e-300)[..., None]


def d_field(state: FieldState, manifold=None) -> np.ndarray:
    """Cell-centered charge density D, shape (*cells, 3); zero off the mask.

    The cell-average director is renormalized and its gradient projected to
    the sphere tangent before assembling the pullback, so the algebraic
    kernel identity N @ D = 0 holds exactly.
    """
    _require_director(state, manifold)
    gf = gradients(state, ("nu", "N"))
    nb = gf.nu_bar
    norms = np.linalg.norm(nb, axis=-1)
    safe = np.maximum(norms, 1e-300)
    nhat = nb / safe[..., None]
    Nt = (gf.N - nhat[..., :, None] * np.einsum("...a,...ai->...i", nhat, gf.N)[..., None, :])
    Nt = Nt / safe[..., None, None]
    D = 0.5 * np.einsum("ijk,abc,...a,...bj,...ck->...i", LEVI, LEVI, nhat, Nt, Nt)
    D[~state.active] = 0.0
    return D


def _solid_angle(a, b, c):
    """Signed solid angle of the spherical triangle (a, b, c), unit inputs."""
    triple = np.einsum("...i,...i->...", a, np.cross(b, c))
    denom = (
        1.0
        + np.einsum("...i,...i->...", a, b)
        + np.einsum("...i,...i->...", b, c)
        + np.einsum("...i,...i->...", c, a)
    )
    return 2.0 * np.arctan2(triple, denom)


def cell_charges(state: FieldState, manifold=None) -> np.ndarray:
    """Exact per-cell winding number of the director over each cell boundary.

    Values are integers up to round-off; a nonzero entry means a point
    defect sits inside that cell.
    """
    nhat = _require_director(state, manifold)
    total = np.zeros(state.grid.cells)
    for a, b, c in KUHN_FACETS:
        total += _solid_angle(nhat[a.index], nhat[b.index], nhat[c.index])
    total /= 4.0 * np.pi
    total[~state.active] = 0.0
    return total


@dataclass(frozen=True)
class DefectCluster:
    charge: int
    center: np.ndarray


@dataclass(frozen=True)
class DefectReport:
    clusters: list[DefectCluster] = field(default_factory=list)
    total_charge: int = 0
    boundary_degree: float = 0.0

    @property
    def total_flux(self) -> float:
        """Area-form flux through the active-region boundary."""
        return 4.0 * np.pi * self.boundary_degree


def defect_charges(state: FieldState, manifold=None) -> DefectReport:
    """Locate and charge point defects of a director field.

    Cells of winding magnitude at least one half are clustered by
    adjacency; each cluster reports its net integer charge and the
    charge-cell centroid.
    """
    q = cell_charges(state, manifold)
    marked = np.abs(q) >= 0.5
    labels, n = _label(marked)
    centers = state.grid.cell_centers()
    clusters = []
    for k in range(1, n + 1):
        sel = labels == k
        charge = float(q[sel].sum())
        w = np.abs(q[sel])
        w = w / w.sum()
        center = np.einsum("m,mi->i", w, centers[sel])
        clusters.append(DefectCluster(charge=int(round(charge)), center=center))
    clusters.sort(key=lambda c: -abs(c.charge))
    boundary_degree = float(q.sum())
    return DefectReport(
        clusters=clusters,
        total_charge=int(round(sum(c.charge for c in clusters))),
        boundary_degree=boundary_degree,
    )


def d_field_boundary_flux(state: FieldState, manifold=None) -> float:
    """Quadrature flux of the charge density through the active boundary.

    Sums D . n over the outward faces of the active region with D taken from
    the inside cell, so the value approximates 4 pi times the enclosed
    charge.  Independent of the winding route: DefectReport.total_flux is
    exact combinatorics, this is midpoint quadrature of the smooth field.
    """
    D = d_field(state, manifold)
    act = state.active
    grid = state.grid
    flux = 0.0
    for ax in range(3):
        area = grid.cell_volume / grid.spacing[ax]
        padded = np.pad(act, [(1, 1) if a == ax else (0, 0) for a in range(3)])
        up = tuple(slice(2, None) if a == ax else slice(None) for a in range(3))
        down = tuple(slice(None, -2) if a == ax else slice(None) for a in range(3))
        hi_face = act & ~padded[up]
        lo_face = act & ~padded[down]
        flux += area * (D[..., ax][hi_face].sum() - D[..., ax][lo_face].sum())
    return float(flux)
