"""Orientation, injectivity, and defect-charge oracles."""

import dataclasses
import itertools

import numpy as np
import pytest

from complexbodies import admissibility, fields
from complexbodies.admissibility import (
    _solid_angle,
    cell_charges,
    check_ciarlet_necas,
    check_orientation,
    d_field,
    d_field_boundary_flux,
    defect_charges,
)
from complexbodies.errors import ShapeMismatchError, WrongManifoldError
from complexbodies.fields import Grid, ball_mask, gradients, identity_state, interior_node_mask
from complexbodies.manifolds import UnitSphere, degree_of_orientation, rotation_from_vector
from complexbodies.minimize import minimize
from complexbodies.minors import det3
from complexbodies.scenarios import materialize, preset_config
from util import EZ, hedgehog_state

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
        assert rep.passed and rep.rim_affine
        assert rep.image_volume == pytest.approx(1.0, rel=1e-12)
        assert rep.volume_integral == pytest.approx(1.0, rel=1e-12)

    def test_dilation_volume_match(self):
        st = _identity(res=12)
        st.u = 2.0 * st.u
        rep = check_ciarlet_necas(st)
        assert rep.passed
        assert rep.image_volume == pytest.approx(8.0, rel=1e-12)
        assert rep.volume_integral == pytest.approx(8.0, rel=1e-12)
        assert rep.min_det == pytest.approx(8.0, rel=1e-12)

    def test_angle_doubling_fold_detected(self):
        st = _fold_slab()
        assert check_orientation(st).passed
        rep = check_ciarlet_necas(st)
        volume = st.active.sum() * st.grid.cell_volume
        assert not rep.passed
        # the rim is not affine, so no image volume is certified ...
        assert not rep.rim_affine and np.isnan(rep.image_volume)
        # ... and the slab is covered twice
        assert rep.volume_integral == pytest.approx(2.0 * volume, rel=1e-3)

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
        assert rep.violations > 0 and np.isnan(rep.min_det)
        assert np.isnan(rep.volume_integral) and np.isnan(rep.slack)

    def test_non_finite_node_off_the_active_cells_is_ignored(self):
        st = _identity(res=6)
        st.active[:] = False
        st.active[:3, :3, :3] = True
        clean = check_ciarlet_necas(st)
        st.u[5, 5, 5, 1] = np.nan
        assert check_ciarlet_necas(st) == clean

    @pytest.mark.parametrize("res", [6, 8, 12, 24])
    def test_identity_on_the_ball_passes(self, res):
        st = _identity(res=res, lo=-1.0, hi=1.0)
        st.active = ball_mask(st.grid)
        rep = check_ciarlet_necas(st)
        volume = st.active.sum() * st.grid.cell_volume
        assert rep.passed and rep.violations == 0
        assert rep.volume_integral == pytest.approx(volume, rel=1e-12)
        assert abs(rep.slack) <= 1e-12 * volume

    def test_affine_shear_passes_on_a_coarse_grid(self):
        st = _identity(res=4)
        st.u[..., 0] += 0.3 * st.u[..., 1]
        rep = check_ciarlet_necas(st)
        assert rep.passed
        assert rep.image_volume == pytest.approx(1.0, rel=1e-12)

    def test_microcracked_minimizer_passes(self):
        cfg = dataclasses.replace(preset_config("microcracked-vector"), resolution=8)
        built = materialize(cfg)
        mres = minimize(built.density, built.state, built.manifold, cfg.minimize)
        assert mres.converged
        rep = check_ciarlet_necas(mres.state)
        assert rep.passed
        assert abs(rep.slack) <= 1e-12 * rep.volume_integral

    def test_interior_fold_fails(self):
        # one node pushed 1.5 h along x through its neighbour: every cell
        # keeps det F > 0 at its centre, yet 6 simplices turn inside out
        st = _identity(res=12)
        st.u[6, 6, 6, 0] += 1.5 / 12
        assert check_orientation(st).passed
        rep = check_ciarlet_necas(st)
        assert not rep.passed and rep.rim_affine
        assert rep.violations == 6
        assert rep.min_det == pytest.approx(-0.5, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_volume_integral_is_fixed_by_an_affine_rim(self, seed):
        rng = np.random.default_rng(seed)
        st = _identity(res=int(rng.integers(3, 10)), lo=-1.0, hi=1.0)
        if seed % 2:
            st.active = ball_mask(st.grid)
        A = np.eye(3) + rng.uniform(-0.3, 0.3, size=(3, 3))
        st.u = st.u @ A.T + rng.normal(size=3)
        inner = interior_node_mask(st.grid, st.active)
        st.u[inner] += 0.4 * st.grid.spacing[0] * rng.normal(size=(int(inner.sum()), 3))
        rep = check_ciarlet_necas(st)
        volume = st.active.sum() * st.grid.cell_volume
        assert rep.rim_affine
        assert rep.image_volume == pytest.approx(np.linalg.det(A) * volume, rel=1e-12)
        assert rep.volume_integral == pytest.approx(rep.image_volume, rel=1e-12)


def _random_masked_states(count, seed):
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


def _simplex_dets(state):
    """det F on every path simplex of every active cell, one at a time: the
    determinant of the edges from the first vertex in the image over that in
    the reference."""
    x = state.grid.node_coords()
    dets = []
    for cell in np.argwhere(state.active):
        for path in itertools.permutations(range(3)):
            verts = [np.zeros(3, dtype=int)]
            for ax in path:
                verts.append(verts[-1] + np.eye(3, dtype=int)[ax])
            nodes = [tuple(cell + v) for v in verts]
            du = np.array([state.u[n] - state.u[nodes[0]] for n in nodes[1:]])
            dx = np.array([x[n] - x[nodes[0]] for n in nodes[1:]])
            dets.append(np.linalg.det(du) / np.linalg.det(dx))
    return np.array(dets)


class TestSimplexReference:
    """The check against a loop over cells and simplices that shares none of
    its arithmetic."""

    def _agrees(self, st):
        dets = _simplex_dets(st)
        rep = check_ciarlet_necas(st)
        assert rep.violations == int(np.sum(dets <= 0.0))
        assert rep.min_det == pytest.approx(dets.min(), rel=1e-12, abs=1e-12)
        assert rep.volume_integral == pytest.approx(
            dets.sum() * st.grid.cell_volume / 6.0, rel=1e-12)

    def test_random_masked_states(self):
        for st in _random_masked_states(24, seed=19):
            self._agrees(st)

    def test_perturbed_box(self):
        st = _identity(res=6)
        st.u += 0.4 / 6 * np.random.default_rng(5).normal(size=st.u.shape)
        self._agrees(st)

    def test_fold_slab(self):
        self._agrees(_fold_slab())


def _corner(offset):
    """Nodal index (all cells at once) of the cell corner at offset."""
    return tuple(slice(1, None) if b else slice(0, -1) for b in offset)


def _whole_grid_dets(state):
    """The determinants that both checks take, gathered on the whole grid
    at once: det F at the cell centres, then on the 6 path simplices."""
    yield det3(gradients(state, ("F",)).F)
    F = np.empty(state.grid.cells + (3, 3))
    for path in itertools.permutations(range(3)):
        offset = [0, 0, 0]
        for ax in path:
            prev = state.u[_corner(offset)]
            offset[ax] = 1
            np.subtract(state.u[_corner(offset)], prev, out=F[..., :, ax])
            F[..., :, ax] /= state.grid.spacing[ax]
        yield det3(F)


class TestTwoSlabs:
    @pytest.mark.parametrize("body", ["box", "ball"])
    def test_checks_equal_the_whole_grid(self, body, monkeypatch):
        # 9^3 cells in slabs of 405 cells: two slabs, of 5 and 4 cell rows
        monkeypatch.setattr(fields, "SLAB_CELLS", 405)
        st = _identity(res=9, lo=-0.5, hi=0.5)
        assert [s.stop - s.start for s in st.grid.slabs] == [5, 4]
        st.u += 0.5 / 9 * np.random.default_rng(3).normal(size=st.u.shape)
        if body == "ball":
            st.active = ball_mask(st.grid, radius=0.45)
        centre, *paths = (d[st.active] for d in _whole_grid_dets(st))
        rep = check_orientation(st)
        assert rep.violations > 0
        assert (rep.cells, rep.violations, rep.min_det) == (
            centre.size, int(np.sum(~(centre > 0.0))), float(centre.min()))
        inj = check_ciarlet_necas(st)
        total = 0.0
        for d in paths:
            total += d.sum()
        assert inj.violations == sum(int(np.sum(~(d > 0.0))) for d in paths) > 0
        assert inj.min_det == float(min(d.min() for d in paths))
        assert inj.volume_integral == float(total) * st.grid.cell_volume / 6.0


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
    """_label against scipy.ndimage, which only the tests import."""

    def test_label_matches_ndimage(self):
        from scipy import ndimage

        for mask in _random_masks(240, seed=11):
            expected, n = ndimage.label(mask, structure=np.ones((3,) * mask.ndim, dtype=int))
            labels, m = admissibility._label(mask)
            assert m == n
            assert np.array_equal(labels, expected)


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


# the cell's face triangles as once written out: corner offsets ordered so
# normals point outward, with shared-face diagonals matching between
# neighbour cells
_FACE_QUADS = (
    ((1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)),  # x+
    ((0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)),  # x-
    ((0, 1, 0), (0, 1, 1), (1, 1, 1), (1, 1, 0)),  # y+
    ((0, 0, 0), (1, 0, 0), (1, 0, 1), (0, 0, 1)),  # y-
    ((0, 0, 1), (1, 0, 1), (1, 1, 1), (0, 1, 1)),  # z+
    ((0, 0, 0), (0, 1, 0), (1, 1, 0), (1, 0, 0)),  # z-
)
_CELL_TRIANGLES = tuple(
    tri for quad in _FACE_QUADS for tri in ((quad[0], quad[1], quad[2]), (quad[0], quad[2], quad[3]))
)


class TestKuhnFacets:
    """The face triangles derived from the Kuhn simplices against the
    written-out reference."""

    def test_derived_triangles_equal_the_literal(self):
        derived = tuple(tuple(c.offset for c in tri) for tri in fields.KUHN_FACETS)
        assert derived == _CELL_TRIANGLES

    def test_cell_charges_equal_a_loop_over_the_literal(self):
        grid = Grid.cube(5, lo=-0.5, hi=0.5)
        st = identity_state(grid, UnitSphere(), nu0=EZ)
        nu = np.random.default_rng(31).normal(size=st.nu.shape)
        st.nu = nu / np.linalg.norm(nu, axis=-1, keepdims=True)
        st.active = ball_mask(grid, radius=0.4)
        # cell_charges renormalizes the nodes as here
        nhat = st.nu / np.maximum(np.linalg.norm(st.nu, axis=-1), 1e-300)[..., None]
        total = np.zeros(grid.cells)
        for tri in _CELL_TRIANGLES:
            total += _solid_angle(*(nhat[_corner(o)] for o in tri))
        total /= 4.0 * np.pi
        total[~st.active] = 0.0
        q = cell_charges(st)
        assert np.abs(q).max() > 0.5
        assert np.array_equal(q, total)


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
        assert rep.total_flux == pytest.approx(4.0 * np.pi, rel=1e-9)
        assert rep.boundary_degree == pytest.approx(1.0, abs=1e-9)

    def test_antipodal_reports_minus_one(self):
        st = hedgehog_state(resolution=24, center=(0.11, -0.07, 0.05), antipodal=True)
        rep = defect_charges(st)
        assert rep.total_charge == -1
        assert rep.clusters[0].charge == -1
        assert rep.total_flux == pytest.approx(-4.0 * np.pi, rel=1e-9)

    def test_defect_free_empty_report(self):
        st = _identity(res=8)
        rep = defect_charges(st)
        assert rep.clusters == []
        assert rep.total_charge == 0
        assert rep.total_flux == pytest.approx(0.0, abs=1e-12)


class TestSurfaceDegree:
    def test_degree_counts_enclosed_defect(self):
        # the degree on the boundary of a cell region is its charge sum
        st = hedgehog_state(resolution=16, center=(0.03, 0.02, 0.01), ball=False)
        q = cell_charges(st)
        cc = st.grid.cell_centers()
        region = np.linalg.norm(cc, axis=-1) < 0.6
        assert q[region].sum() == pytest.approx(1.0, abs=1e-9)
        off = np.linalg.norm(cc - np.array([0.7, 0.0, 0.0]), axis=-1) < 0.2
        assert q[off].sum() == pytest.approx(0.0, abs=1e-9)


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
