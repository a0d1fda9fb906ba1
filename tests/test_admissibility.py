"""Orientation, injectivity, and defect-charge oracles."""

import numpy as np
import pytest

from complexbodies import admissibility
from complexbodies.admissibility import (
    InjectivityReport,
    cell_charges,
    check_ciarlet_necas,
    check_orientation,
    d_field,
    d_field_boundary_flux,
    defect_charges,
    degree_on_surface,
)
from complexbodies.errors import (
    ShapeMismatchError,
    SurfaceOutsideDomainError,
    WrongManifoldError,
)
from complexbodies.fields import (
    CORNERS,
    Grid,
    ball_mask,
    gradients,
    identity_state,
    integrate_cells,
)
from complexbodies.manifolds import UnitSphere, degree_of_orientation, rotation_from_vector
from complexbodies.minors import det3
from util import EZ, hedgehog_state, radial_director

# a NaN cast to an index or an invalid comparison inside a check fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _identity(res=12, lo=0.0, hi=1.0):
    grid = Grid.cube(res, lo=lo, hi=hi)
    return identity_state(grid, UnitSphere(), nu0=EZ)


class TestOrientation:
    def test_identity_passes(self):
        rep = check_orientation(_identity())
        assert rep.passed
        assert rep.min_det == pytest.approx(1.0)
        assert rep.cells == 12**3

    def test_reflection_fails_everywhere(self):
        st = _identity()
        st.u[..., 0] *= -1.0
        rep = check_orientation(st)
        assert not rep.passed
        assert rep.violations == rep.cells
        assert rep.min_det == pytest.approx(-1.0)

    def test_shear_keeps_orientation(self):
        st = _identity()
        st.u[..., 0] += 0.8 * st.u[..., 1]
        rep = check_orientation(st)
        assert rep.passed

    def test_nan_node_fails(self):
        st = _identity(res=6)
        st.u[3, 3, 3, 1] = np.nan
        rep = check_orientation(st)
        assert not rep.passed
        assert rep.violations == 8  # the cells around the node
        assert np.isnan(rep.min_det)


def _fold_slab():
    """Angle doubling (x1 + i x2) -> (x1 + i x2)^2 / r on an annular slab,
    x3 kept: orientation fine, image covered twice."""
    grid = Grid((-1.0, -1.0, 0.0), (1.0, 1.0, 1.0 / 12), (48, 48, 2))
    st = identity_state(grid, UnitSphere(), nu0=EZ)
    pts = grid.node_coords()
    r = np.maximum(np.linalg.norm(pts[..., :2], axis=-1), 1e-9)
    st.u[..., 0] = (pts[..., 0] ** 2 - pts[..., 1] ** 2) / r
    st.u[..., 1] = 2.0 * pts[..., 0] * pts[..., 1] / r
    rc = np.linalg.norm(grid.cell_centers()[..., :2], axis=-1)
    st.active = (rc > 0.35) & (rc < 0.95)
    return st


class TestInjectivity:
    def test_rigid_motion_volume_match(self):
        st = _identity(res=12)
        R = rotation_from_vector(np.array([0.3, -0.2, 0.5]))
        st.u = st.u @ R.T + np.array([0.1, 0.2, -0.3])
        rep = check_ciarlet_necas(st)
        assert rep.passed
        assert abs(rep.image_volume - 1.0) < 0.02
        assert abs(rep.volume_integral - 1.0) < 1e-10

    def test_dilation_volume_match(self):
        st = _identity(res=12)
        st.u = 2.0 * st.u
        rep = check_ciarlet_necas(st)
        assert rep.passed
        assert abs(rep.image_volume - 8.0) < 0.16
        assert abs(rep.volume_integral - 8.0) < 1e-9

    def test_angle_doubling_fold_detected(self):
        st = _fold_slab()
        assert check_orientation(st).passed
        rep = check_ciarlet_necas(st)
        volume = st.active.sum() * st.grid.cell_volume
        assert not rep.passed
        # the slab is covered twice: half the integral is overlap
        assert rep.slack == pytest.approx(-volume, rel=0.08)

    def test_empty_active_raises(self):
        st = _identity(res=4)
        st.active[:] = False
        with pytest.raises(ShapeMismatchError):
            check_ciarlet_necas(st)
        with pytest.raises(ShapeMismatchError):
            check_orientation(st)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_corner_fails_without_raster(self, value):
        st = _identity(res=6)
        st.u[3, 3, 3, 1] = value
        rep = check_ciarlet_necas(st)
        assert not rep.passed
        assert rep.voxel_count == 0 and rep.samples_per_cell == 0
        assert np.isnan(rep.image_volume)

    def test_non_finite_node_off_the_active_cells_is_ignored(self):
        st = _identity(res=6)
        st.active[:] = False
        st.active[:3, :3, :3] = True
        clean = check_ciarlet_necas(st)
        st.u[5, 5, 5, 1] = np.nan
        assert check_ciarlet_necas(st) == clean

    @pytest.mark.parametrize("grid", [
        Grid.cube(10),
        Grid((0.0, 0.0, 0.45), (1.0, 1.0, 0.55), (24, 24, 2)),
    ], ids=["cube", "slab"])
    def test_chunked_raster_equals_unchunked(self, monkeypatch, grid):
        st = identity_state(grid, UnitSphere(), nu0=EZ)
        rng = np.random.default_rng(3)
        st.u = st.u + 0.3 / max(grid.cells) * rng.normal(size=st.u.shape)
        rc = np.linalg.norm(st.grid.cell_centers() - 0.5, axis=-1)
        st.active = rc < 0.45
        monkeypatch.setattr(admissibility, "_RASTER_POINTS", 2**62)
        whole = check_ciarlet_necas(st)
        cells = int(st.active.sum())
        block = 7
        assert cells % block != 0
        monkeypatch.setattr(admissibility, "_RASTER_POINTS", block * whole.samples_per_cell)
        assert check_ciarlet_necas(st) == whole


def _einsum_raster(state):
    """The injectivity check as it rasterized before the corner-by-corner
    push: all 8 corners of a block of cells pushed at once by np.einsum."""
    grid = state.grid
    vol_int = integrate_cells(det3(gradients(state, ("F",)).F), grid, state.active)
    corners = np.stack([state.u[c.index] for c in CORNERS[3]], axis=-2)
    corners = corners[state.active]  # (m, 8, 3)
    span = corners.max(axis=1) - corners.min(axis=1)
    lo = corners.reshape(-1, 3).min(axis=0)
    hi = corners.reshape(-1, 3).max(axis=0)
    extent = np.maximum(hi - lo, 1e-300)
    vox = extent / admissibility.VOXELS_PER_AXIS
    worst = np.maximum(span.max(axis=0), 1e-300)
    s_ax = np.clip(np.ceil(worst / (0.95 * vox)).astype(int), 2,
                   admissibility.MAX_SAMPLES_PER_AXIS)
    vox = np.maximum(vox, worst / (0.95 * s_ax))
    pad = 2
    shape = tuple(int(np.ceil(e / v)) + 2 * pad + 1 for e, v in zip(extent, vox))
    axes = np.meshgrid(*[(np.arange(si) + 0.5) / si for si in s_ax], indexing="ij")
    locs = np.stack([a.ravel() for a in axes], axis=-1)
    weights = np.ones((locs.shape[0], 8))
    for c, corner in enumerate(CORNERS[3]):
        w = np.ones(locs.shape[0])
        for ax, o in enumerate(corner.offset):
            w = w * (locs[:, ax] if o else 1.0 - locs[:, ax])
        weights[:, c] = w
    covered = np.zeros(shape, dtype=bool)
    block = max(1, admissibility._RASTER_POINTS // locs.shape[0])
    for start in range(0, corners.shape[0], block):
        pts = np.einsum("pc,mci->mpi", weights, corners[start:start + block]).reshape(-1, 3)
        idx = np.floor((pts - lo) / vox + 0.5).astype(int) + pad
        idx = np.clip(idx, 0, np.array(shape) - 1)
        covered[tuple(idx.T)] = True
    interior = admissibility._erode(covered)
    shell = covered & ~interior
    voxel_vol = float(np.prod(vox))
    image_vol = (interior.sum() + 0.5 * shell.sum()) * voxel_vol
    tol = admissibility.TOL_REL * max(abs(vol_int), 10.0 * voxel_vol)
    return InjectivityReport(
        volume_integral=float(vol_int),
        image_volume=float(image_vol),
        tolerance=float(tol),
        voxel_count=int(covered.sum()),
        samples_per_cell=int(np.prod(s_ax)),
    )


def _random_raster_states(count, seed):
    """Seeded boxes of 1 to 7 cells per axis under a random affine map plus
    nodal noise, each with a random nonempty active mask."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        cells = tuple(int(n) for n in rng.integers(1, 8, size=3))
        lo = rng.uniform(-2.0, 1.0, size=3)
        grid = Grid(tuple(lo), tuple(lo + rng.uniform(0.2, 3.0, size=3)), cells)
        st = identity_state(grid, UnitSphere(), nu0=EZ)
        A = np.eye(3) + rng.uniform(-0.4, 0.4, size=(3, 3))
        st.u = st.u @ A.T + rng.normal(size=3)
        st.u += rng.uniform(0.0, 0.3) * min(grid.spacing) * rng.normal(size=st.u.shape)
        st.active = rng.random(cells) < rng.uniform(0.2, 1.0)
        st.active.flat[rng.integers(st.active.size)] = True
        yield st


class TestRasterReference:
    """The corner-by-corner raster against the einsum raster kept above:
    the whole report, image volume and voxel count included, is equal."""

    def test_perturbed_box(self):
        st = _identity(res=16)
        st.u += 0.2 / 16 * np.random.default_rng(5).normal(size=st.u.shape)
        rep = check_ciarlet_necas(st)
        assert rep.samples_per_cell >= 343
        assert rep == _einsum_raster(st)

    def test_affine_shear(self):
        st = _identity(res=48)
        st.u[..., 0] += 0.3 * st.u[..., 1]
        rep = check_ciarlet_necas(st)
        assert rep.samples_per_cell == 27
        assert rep == _einsum_raster(st)

    def test_ball(self):
        st = _identity(res=12, lo=-1.0, hi=1.0)
        st.u = st.u + 0.1 * np.sin(3.0 * st.u[..., ::-1])
        st.active = ball_mask(st.grid)
        assert check_ciarlet_necas(st) == _einsum_raster(st)

    def test_fold_slab(self):
        st = _fold_slab()
        assert check_ciarlet_necas(st) == _einsum_raster(st)

    def test_slab_flattened_onto_a_voxel_face(self):
        # the interpolant of the flat slab is exactly the face x = 59.5 voxels
        # of the 1/128 raster, so the rounding of its corner sum picks the
        # voxel: summing the corners in another order changes the report
        st = _identity(res=16)
        st.u[7:9, ..., 0] = 59.5 / 128
        st.active[:] = False
        st.active[[0, 7, 15]] = True
        rep = check_ciarlet_necas(st)
        assert rep.samples_per_cell == 729
        assert rep == _einsum_raster(st)

    def test_random_masked_states(self):
        for st in _random_raster_states(24, seed=19):
            assert check_ciarlet_necas(st) == _einsum_raster(st)


def _random_masks(count, seed):
    """Seeded boolean arrays of 1 to 3 axes, from nearly empty to nearly full;
    every other one has a True slab on a random face of the array."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        shape = tuple(rng.integers(1, 10, size=1 + k % 3))
        mask = rng.random(shape) < (0.03, 0.15, 0.4, 0.7, 0.95)[k % 5]
        if k % 2:
            ax = int(rng.integers(mask.ndim))
            face = [slice(None)] * mask.ndim
            face[ax] = int(rng.choice([0, -1]))
            mask[tuple(face)] = True
        yield mask


class TestNdimageReplacements:
    """_label and _erode against scipy.ndimage, which only the tests import."""

    def test_label_matches_ndimage(self):
        from scipy import ndimage

        for mask in _random_masks(240, seed=11):
            expected, n = ndimage.label(mask, structure=np.ones((3,) * mask.ndim, dtype=int))
            labels, m = admissibility._label(mask)
            assert m == n
            assert np.array_equal(labels, expected)

    def test_erode_matches_ndimage(self):
        from scipy import ndimage

        for mask in _random_masks(240, seed=12):
            cross = ndimage.generate_binary_structure(mask.ndim, 1)
            assert np.array_equal(admissibility._erode(mask),
                                  ndimage.binary_erosion(mask, structure=cross))


class TestChargeDensityField:
    def test_hedgehog_matches_inverse_square(self):
        st = hedgehog_state(resolution=24, ball=False)
        D = d_field(st)
        cc = st.grid.cell_centers()
        r = np.linalg.norm(cc, axis=-1)
        exact = cc / r[..., None] ** 3
        h = st.grid.spacing[0]
        far = r > 3.0 * h
        rel = np.linalg.norm(D - exact, axis=-1) / np.linalg.norm(exact, axis=-1)
        assert np.max(rel[far]) < 0.05

    def test_tangent_kernel_identity(self):
        # D annihilates the tangent-projected descriptor gradient exactly
        rng = np.random.default_rng(7)
        grid = Grid.cube(10, lo=-1.0, hi=1.0)
        st = identity_state(grid, UnitSphere(), nu0=EZ)
        pts = grid.node_coords()
        raw = np.stack(
            [
                np.sin(2.1 * pts[..., 0]) + 0.3 * pts[..., 1],
                np.cos(1.7 * pts[..., 1]) + 0.2 * pts[..., 2] ** 2,
                1.0 + 0.4 * np.sin(pts[..., 0] * pts[..., 2]),
            ],
            axis=-1,
        )
        st.nu = raw / np.linalg.norm(raw, axis=-1, keepdims=True)
        D = d_field(st)
        from complexbodies.fields import gradients

        gf = gradients(st)
        nb = gf.nu_bar / np.linalg.norm(gf.nu_bar, axis=-1, keepdims=True)
        Nt = gf.N - nb[..., :, None] * np.einsum("...a,...ai->...i", nb, gf.N)[..., None, :]
        Nt = Nt / np.linalg.norm(gf.nu_bar, axis=-1)[..., None, None]
        kernel = np.einsum("...ai,...i->...a", Nt, D)
        scale = np.max(np.linalg.norm(Nt, axis=(-2, -1)) * np.linalg.norm(D, axis=-1))
        assert np.max(np.abs(kernel)) < 1e-12 * max(scale, 1.0)
        assert rng is not None

    def test_wrong_manifold_rejected(self):
        grid = Grid.cube(4)
        man = degree_of_orientation()
        st = identity_state(grid, man, nu0=np.array([0.0, 0.0, 1.0, 0.5]))
        with pytest.raises(WrongManifoldError):
            d_field(st)
        st3 = identity_state(grid, UnitSphere(), nu0=EZ)
        with pytest.raises(WrongManifoldError):
            d_field(st3, manifold=man)

    def test_near_zero_director_rejected(self):
        st = _identity(res=4)
        st.nu = st.nu.copy()
        st.nu[2, 2, 2] = 0.0
        with pytest.raises(WrongManifoldError):
            d_field(st)


class TestCellCharges:
    def test_hedgehog_unit_charge_in_one_cell(self):
        st = hedgehog_state(resolution=16, center=(0.03, 0.02, 0.01), ball=False)
        q = cell_charges(st)
        assert q.sum() == pytest.approx(1.0, abs=1e-9)
        hot = np.abs(q) > 0.5
        assert hot.sum() == 1
        assert q[hot][0] == pytest.approx(1.0, abs=1e-9)

    def test_antipodal_hedgehog_charge_minus_one(self):
        st = hedgehog_state(resolution=16, center=(0.03, 0.02, 0.01), antipodal=True,
                            ball=False)
        q = cell_charges(st)
        assert q.sum() == pytest.approx(-1.0, abs=1e-9)

    def test_uniform_field_chargeless(self):
        st = _identity(res=8)
        q = cell_charges(st)
        assert np.max(np.abs(q)) < 1e-12

    def test_interior_faces_cancel_exactly(self):
        # winding sums over nested regions agree with boundary degrees
        st = hedgehog_state(resolution=12, center=(0.03, 0.02, 0.01), ball=False)
        q = cell_charges(st)
        cc = st.grid.cell_centers()
        inner = np.linalg.norm(cc, axis=-1) < 0.5
        assert q[inner].sum() == pytest.approx(1.0, abs=1e-9)
        assert q[~inner].sum() == pytest.approx(0.0, abs=1e-9)


class TestDefectReport:
    def test_hedgehog_located_and_charged(self):
        center = (0.11, -0.07, 0.05)
        st = hedgehog_state(resolution=24, center=center, ball=True)
        rep = defect_charges(st)
        assert rep.total_charge == 1
        assert len(rep.clusters) == 1
        cl = rep.clusters[0]
        assert cl.charge == 1
        h = st.grid.spacing[0]
        assert np.linalg.norm(cl.center - np.asarray(center)) <= 2.0 * h
        assert np.all(cl.box_lo <= np.asarray(center))
        assert np.all(cl.box_hi >= np.asarray(center))
        assert rep.total_flux == pytest.approx(4.0 * np.pi, rel=1e-9)
        assert rep.boundary_degree == pytest.approx(1.0, abs=1e-9)

    def test_antipodal_reports_minus_one(self):
        st = hedgehog_state(resolution=24, center=(0.11, -0.07, 0.05), antipodal=True)
        rep = defect_charges(st)
        assert rep.total_charge == -1
        assert rep.clusters[0].charge == -1
        assert rep.total_flux == pytest.approx(-4.0 * np.pi, rel=1e-9)

    def test_margin_grows_box(self):
        st = hedgehog_state(resolution=16, center=(0.04, 0.05, 0.03))
        tight = defect_charges(st, margin=0).clusters[0]
        wide = defect_charges(st, margin=3).clusters[0]
        h = st.grid.spacing[0]
        assert np.allclose(wide.box_lo, tight.box_lo - 3 * h)
        assert np.allclose(wide.box_hi, tight.box_hi + 3 * h)

    def test_defect_free_empty_report(self):
        st = _identity(res=8)
        rep = defect_charges(st)
        assert rep.clusters == []
        assert rep.total_charge == 0
        assert rep.total_flux == pytest.approx(0.0, abs=1e-12)


class TestSurfaceDegree:
    def test_degree_counts_enclosed_defect(self):
        st = hedgehog_state(resolution=16, center=(0.03, 0.02, 0.01), ball=False)
        cc = st.grid.cell_centers()
        region = np.linalg.norm(cc, axis=-1) < 0.6
        assert degree_on_surface(st, region) == pytest.approx(1.0, abs=1e-9)
        off = np.linalg.norm(cc - np.array([0.7, 0.0, 0.0]), axis=-1) < 0.2
        assert degree_on_surface(st, off) == pytest.approx(0.0, abs=1e-9)

    def test_region_outside_domain_raises(self):
        st = hedgehog_state(resolution=16, ball=True, radius=0.8)
        region = np.ones(st.grid.cells, dtype=bool)
        with pytest.raises(SurfaceOutsideDomainError):
            degree_on_surface(st, region)

    def test_region_validation(self):
        st = hedgehog_state(resolution=8, ball=False)
        with pytest.raises(ShapeMismatchError):
            degree_on_surface(st, np.ones((3, 3, 3), dtype=bool))
        with pytest.raises(ShapeMismatchError):
            degree_on_surface(st, np.zeros(st.grid.cells, dtype=bool))


class TestBoundaryFlux:
    def test_hedgehog_flux_approaches_full_sphere(self):
        # midpoint quadrature of D . n over the voxel sphere; first-order
        # accurate because D is sampled half a cell inside each face
        errs = []
        for res in (12, 16, 24):
            st = hedgehog_state(resolution=res)
            flux = d_field_boundary_flux(st, UnitSphere())
            errs.append(abs(flux / (4.0 * np.pi) - 1.0))
        assert errs[0] < 0.10
        assert errs[-1] < 0.05
        assert errs[0] > errs[1] > errs[2]

    def test_sign_follows_enclosed_charge(self):
        st = hedgehog_state(resolution=16, antipodal=True)
        flux = d_field_boundary_flux(st, UnitSphere())
        assert flux == pytest.approx(-4.0 * np.pi, rel=0.08)

    def test_uniform_director_carries_no_flux(self):
        st = hedgehog_state(resolution=12)
        st.nu[...] = EZ
        assert d_field_boundary_flux(st, UnitSphere()) == pytest.approx(0.0, abs=1e-12)

    def test_box_boundary_works_without_mask(self):
        st = hedgehog_state(resolution=16, ball=False)
        flux = d_field_boundary_flux(st, UnitSphere())
        assert flux == pytest.approx(4.0 * np.pi, rel=0.10)
