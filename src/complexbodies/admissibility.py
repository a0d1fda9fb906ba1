"""Admissibility checks and topological defect accounting.

Orientation: det F > 0 cell by cell.  Global injectivity uses the
volume-matching surrogate: a map that preserves orientation and satisfies

    measure(u(active region)) >= integral of det F

up to quadrature slack cannot fold material onto itself.  The image measure
is estimated by rasterizing stratified sample points pushed through the
multilinear interpolant, counting interior voxels fully and boundary-shell
voxels at half weight; the interior is the covered set eroded by its six face
neighbours, with voxels beyond the raster counted as uncovered.  The
interpolant is summed corner by corner in the order of the table CORNERS[3],
starting from zero, which is the order in which np.einsum adds, so the
voxels are those of an einsum push.

Defect accounting for unit-director fields: the charge density

    D_i = (1/2) eps_{ijk} nu . (d_j nu x d_k nu)

is the pullback of the sphere area form; its flux through a closed surface
counts covering degree.  Discrete charges are computed exactly as winding
numbers: each cell boundary is split into triangles and the signed solid
angles of the director triples are summed.  Shared faces cancel, so charges
telescope over any cell region to the degree of the region's boundary.
Cells of winding magnitude at least one half cluster into defects under full
3^d adjacency, numbered in C order of their first cell.  Both the erosion and
the clustering are written in numpy, so the package imports no scipy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ShapeMismatchError,
    SurfaceOutsideDomainError,
    WrongManifoldError,
)
from .fields import (
    CORNERS,
    FieldState,
    gradients,
    incident_node_mask,
    integrate_cells,
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
    NaN determinant fails too."""
    dets = det3(gradients(state, ("F",)).F)[state.active]
    if dets.size == 0:
        raise ShapeMismatchError("state has no active cells")
    return OrientationReport(
        cells=int(dets.size),
        violations=int(np.sum(~(dets > 0.0))),
        min_det=float(dets.min()),
    )


# raster of check_ciarlet_necas: voxels along the widest image axis, cap on
# samples per cell axis, deficit tolerance relative to the volume integral,
# and sample points pushed through the interpolant per block of cells
VOXELS_PER_AXIS = 128
MAX_SAMPLES_PER_AXIS = 16
TOL_REL = 0.02
_RASTER_POINTS = 2**16


@dataclass(frozen=True)
class InjectivityReport:
    volume_integral: float
    image_volume: float
    tolerance: float
    voxel_count: int
    samples_per_cell: int

    @property
    def slack(self) -> float:
        return self.image_volume - self.volume_integral

    @property
    def passed(self) -> bool:
        return self.slack >= -self.tolerance


def check_ciarlet_necas(state: FieldState) -> InjectivityReport:
    """Volume-matching injectivity surrogate on the active region.

    Folding shows up as image_volume < volume_integral beyond tolerance;
    the report fails when the deficit exceeds TOL_REL of the integral.  A
    non-finite corner of an active cell fails it with NaN volumes and no
    voxels, since such a cell has no image to rasterize.
    """
    # corners[c, ax]: coordinate ax of corner c of every active cell
    corners = np.stack([[state.u[c.index + (ax,)][state.active] for ax in range(3)]
                        for c in CORNERS[3]])
    if corners.shape[2] == 0:
        raise ShapeMismatchError("state has no active cells")
    if not np.isfinite(corners).all():
        nan = float("nan")
        return InjectivityReport(nan, nan, nan, voxel_count=0, samples_per_cell=0)
    vol_int = integrate_cells(det3(gradients(state, ("F",)).F), state.grid, state.active)

    cmin, cmax = corners.min(axis=0), corners.max(axis=0)  # (3, m), corner by corner
    lo = cmin.min(axis=1)
    extent = np.maximum(cmax.max(axis=1) - lo, 1e-300)
    # sample spacing below one voxel so a cell image has no coverage gaps;
    # if the sample cap binds, coarsen the raster instead
    vox = extent / VOXELS_PER_AXIS
    worst = np.maximum((cmax - cmin).max(axis=1), 1e-300)
    s_ax = np.clip(np.ceil(worst / (0.95 * vox)).astype(int), 2, MAX_SAMPLES_PER_AXIS)
    vox = np.maximum(vox, worst / (0.95 * s_ax))
    pad = 2
    shape = tuple(int(np.ceil(e / v)) + 2 * pad + 1 for e, v in zip(extent, vox))
    strides = (shape[1] * shape[2], shape[2], 1)

    axes = np.meshgrid(*[(np.arange(si) + 0.5) / si for si in s_ax], indexing="ij")
    locs = np.stack([a.ravel() for a in axes], axis=-1)  # (prod s, 3)
    weights = np.ones((locs.shape[0], 8))
    for c, corner in enumerate(CORNERS[3]):
        w = np.ones(locs.shape[0])
        for ax, o in enumerate(corner.offset):
            w = w * (locs[:, ax] if o else 1.0 - locs[:, ax])
        weights[:, c] = w
    weights = weights[:, :, None]  # (points, 8, 1) against a block's cell row

    # coverage is a union over cells, so blocks of cells fill it in any order
    covered = np.zeros(shape, dtype=bool)
    block = max(1, _RASTER_POINTS // locs.shape[0])
    x, term, lin = (np.empty((locs.shape[0], min(block, corners.shape[2])))
                    for _ in range(3))
    for start in range(0, corners.shape[2], block):
        cells = corners[:, :, start:start + block]
        n = cells.shape[2]
        xb, tb, lb = x[:, :n], term[:, :n], lin[:, :n]
        lb[...] = 0.0
        for ax in range(3):
            # the interpolant summed corner by corner in table order, the
            # order in which np.einsum adds from zero; 0 + w0 c0 and w0 c0
            # differ at most in the sign of a zero, which the index ignores
            np.multiply(weights[:, 0], cells[0, ax], out=xb)
            for c in range(1, 8):
                np.multiply(weights[:, c], cells[c, ax], out=tb)
                xb += tb
            # half-voxel origin shift: axis-aligned faces bisect their shell voxels
            xb -= lo[ax]
            xb /= vox[ax]
            xb += 0.5
            np.floor(xb, out=xb)
            xb += pad
            np.clip(xb, 0, shape[ax] - 1, out=xb)
            xb *= strides[ax]
            lb += xb  # whole numbers below 2^53, so the flat index is exact
        covered.reshape(-1)[lb.astype(np.intp)] = True

    # the shell is the covered set less its interior, so it is counted as
    # the difference of the two counts
    voxels = int(covered.sum())
    inner = int(_erode(covered).sum())
    voxel_vol = float(np.prod(vox))
    image_vol = (inner + 0.5 * (voxels - inner)) * voxel_vol

    tol = TOL_REL * max(abs(vol_int), 10.0 * voxel_vol)
    return InjectivityReport(
        volume_integral=float(vol_int),
        image_volume=float(image_vol),
        tolerance=float(tol),
        voxel_count=voxels,
        samples_per_cell=int(np.prod(s_ax)),
    )


def _erode(mask: np.ndarray) -> np.ndarray:
    """Cells of mask whose 2*d face neighbours are all in mask; cells beyond
    the array count as outside."""
    inside = mask.copy()
    for ax, n in enumerate(mask.shape):
        head, tail, faces = ([slice(None)] * mask.ndim for _ in range(3))
        head[ax], tail[ax], faces[ax] = slice(0, n - 1), slice(1, n), [0, n - 1]
        inside[tuple(head)] &= mask[tuple(tail)]
        inside[tuple(tail)] &= mask[tuple(head)]
        inside[tuple(faces)] = False
    return inside


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


# triangles per cell face: corner offsets ordered so normals point outward,
# with shared-face diagonals matching between neighbor cells
_FACE_QUADS = (
    (((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1))),  # x+
    (((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0))),  # x-
    (((0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0))),  # y+
    (((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1))),  # y-
    (((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1))),  # z+
    (((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0))),  # z-
)
_CELL_TRIANGLES = tuple(
    tri for quad in _FACE_QUADS for tri in ((quad[0], quad[1], quad[2]), (quad[0], quad[2], quad[3]))
)


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
    index = {c.offset: c.index for c in CORNERS[3]}
    total = np.zeros(state.grid.cells)
    for o1, o2, o3 in _CELL_TRIANGLES:
        total += _solid_angle(nhat[index[o1]], nhat[index[o2]], nhat[index[o3]])
    total /= 4.0 * np.pi
    total[~state.active] = 0.0
    return total


@dataclass(frozen=True)
class DefectCluster:
    charge: int
    center: np.ndarray
    cell_count: int
    box_lo: np.ndarray
    box_hi: np.ndarray


@dataclass(frozen=True)
class DefectReport:
    cell_charge: np.ndarray
    clusters: list[DefectCluster] = field(default_factory=list)
    total_charge: int = 0
    boundary_degree: float = 0.0

    @property
    def total_flux(self) -> float:
        """Area-form flux through the active-region boundary."""
        return 4.0 * np.pi * self.boundary_degree


def defect_charges(state: FieldState, manifold=None, threshold: float = 0.5,
                   margin: int = 3) -> DefectReport:
    """Locate and charge point defects of a director field.

    Cells whose winding magnitude exceeds threshold are clustered by
    adjacency; each cluster reports its net integer charge, the charge-cell
    centroid, and a bounding box grown by margin cells.
    """
    q = cell_charges(state, manifold)
    marked = np.abs(q) >= threshold
    labels, n = _label(marked)
    grid = state.grid
    centers = grid.cell_centers()
    h = np.asarray(grid.spacing)
    clusters = []
    for k in range(1, n + 1):
        sel = labels == k
        idx = np.argwhere(sel)
        charge = float(q[sel].sum())
        w = np.abs(q[sel])
        w = w / w.sum()
        center = np.einsum("m,mi->i", w, centers[sel])
        lo = (idx.min(axis=0) - margin) * h + np.asarray(grid.lo)
        hi = (idx.max(axis=0) + 1 + margin) * h + np.asarray(grid.lo)
        clusters.append(
            DefectCluster(
                charge=int(round(charge)),
                center=center,
                cell_count=int(sel.sum()),
                box_lo=lo,
                box_hi=hi,
            )
        )
    clusters.sort(key=lambda c: -abs(c.charge))
    boundary_degree = float(q.sum())
    return DefectReport(
        cell_charge=q,
        clusters=clusters,
        total_charge=int(round(sum(c.charge for c in clusters))),
        boundary_degree=boundary_degree,
    )


def degree_on_surface(state: FieldState, region: np.ndarray, manifold=None) -> float:
    """Covering degree of the director on the boundary of a cell region.

    region is a boolean cell mask; its cells must all be active so the
    enclosing surface carries well-defined director data.  Shared interior
    faces cancel exactly, leaving the boundary-surface degree.
    """
    region = np.asarray(region, dtype=bool)
    if region.shape != state.grid.cells:
        raise ShapeMismatchError(
            f"region mask must match cells {state.grid.cells}, got {region.shape}"
        )
    if not region.any():
        raise ShapeMismatchError("empty surface region")
    if np.any(region & ~state.active):
        raise SurfaceOutsideDomainError(
            "surface region leaves the active domain; degree undefined there"
        )
    q = cell_charges(state, manifold)
    return float(q[region].sum())


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
