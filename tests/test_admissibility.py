"""Orientation, injectivity, and defect-charge oracles."""

import numpy as np
import pytest

from complexbodies import admissibility
from complexbodies.admissibility import (
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
from complexbodies.fields import Grid, ball_mask, identity_state
from complexbodies.manifolds import UnitSphere, degree_of_orientation, rotation_from_vector
from util import EZ, hedgehog_state, radial_director


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
        # (x1 + i x2) -> (x1 + i x2)^2 / r on an annular slab, x3 kept:
        # orientation fine, doubly covered image
        grid = Grid((-1.0, -1.0, 0.0), (1.0, 1.0, 1.0 / 12), (48, 48, 2))
        st = identity_state(grid, UnitSphere(), nu0=EZ)
        pts = grid.node_coords()
        r = np.maximum(np.linalg.norm(pts[..., :2], axis=-1), 1e-9)
        st.u[..., 0] = (pts[..., 0] ** 2 - pts[..., 1] ** 2) / r
        st.u[..., 1] = 2.0 * pts[..., 0] * pts[..., 1] / r
        rc = np.linalg.norm(grid.cell_centers()[..., :2], axis=-1)
        st.active = (rc > 0.35) & (rc < 0.95)
        assert check_orientation(st).passed
        rep = check_ciarlet_necas(st)
        volume = st.active.sum() * grid.cell_volume
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
