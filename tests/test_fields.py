"""Grid, gradient, quadrature, and divergence contracts.

Oracles: affine fields (exact gradients), manufactured polynomial fields
(known divergence), and the summation-by-parts identity checked as an exact
algebraic statement.  The divergence is the one the minimizer's gradient
is built from: the negative gradient adjoint over the lumped volume.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexbodies.errors import ShapeMismatchError
from complexbodies.fields import (
    KUHN,
    FieldState,
    Grid,
    ball_mask,
    boundary_node_mask,
    cell_average,
    cell_gradient,
    divide_by_volume,
    gather,
    gradients,
    h1_solver,
    identity_state,
    incident_node_mask,
    integrate_cells,
    interior_node_mask,
    node_volumes,
    pin,
    scatter_cell_average_adjoint,
    scatter_gradient_adjoint,
)
from complexbodies.manifolds import Euclidean, UnitSphere


class TestGrid:
    def test_spacing_and_volume(self):
        g = Grid((0.0, 0.0, 0.0), (2.0, 1.0, 1.0), (4, 2, 2))
        assert g.spacing == (0.5, 0.5, 0.5)
        assert g.cell_volume == pytest.approx(0.125)
        assert g.nodes == (5, 3, 3)

    def test_cube(self):
        g = Grid.cube(8, -1.0, 1.0)
        assert g.dim == 3
        assert g.spacing[0] == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ShapeMismatchError):
            Grid((0.0,), (1.0,), (4,))
        with pytest.raises(ShapeMismatchError):
            Grid((0.0, 0.0), (1.0, 1.0), (4, 4))
        with pytest.raises(ShapeMismatchError):
            Grid((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), (2, 2, 2))
        with pytest.raises(ShapeMismatchError):
            Grid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (2, 0, 2))

    def test_node_and_center_coords(self):
        g = Grid.cube(2, 0.0, 1.0)
        nc = g.node_coords()
        assert nc.shape == (3, 3, 3, 3)
        assert np.allclose(nc[0, 0, 0], [0, 0, 0])
        cc = g.cell_centers()
        assert np.allclose(cc[0, 0, 0], [0.25, 0.25, 0.25])


class TestGradients:
    def test_affine_exact_3d(self):
        rng = np.random.default_rng(41)
        g = Grid.cube(5, -0.3, 1.1)
        A = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        w = np.einsum("cj,...j->...c", A, g.node_coords()) + b
        grad = cell_gradient(w, g)
        expected = np.broadcast_to(A, g.cells + (4, 3))
        assert np.allclose(grad, expected, atol=1e-12)

    def test_quadratic_second_order(self):
        errs = []
        for n in (8, 16, 32):
            g = Grid.cube(n, 0.0, 1.0)
            x = g.node_coords()
            w = (x[..., 0] ** 2 + 0.5 * x[..., 1] * x[..., 2])[..., None]
            grad = cell_gradient(w, g)
            c = g.cell_centers()
            exact = np.stack([2 * c[..., 0], 0.5 * c[..., 2], 0.5 * c[..., 1]], axis=-1)[..., None, :]
            errs.append(np.abs(grad - exact).max())
        errs = np.array(errs)
        # exact for this field: the trilinear gradient of a quadratic at the
        # cell center has no h^2 term along each axis; allow superconvergence
        assert errs[-1] <= max(errs[0] / 4.0, 1e-12)

    def test_cell_average_affine(self):
        g = Grid.cube(3, 0.0, 1.0)
        x = g.node_coords()
        w = 2.0 * x[..., :1] - 0.7 * x[..., 1:2]
        avg = cell_average(w, g)
        c = g.cell_centers()
        assert np.allclose(avg[..., 0], 2.0 * c[..., 0] - 0.7 * c[..., 1], atol=1e-13)

    def test_identity_state_has_identity_gradient(self):
        g = Grid.cube(3, 0.0, 1.0)
        st_ = identity_state(g, Euclidean(3), np.zeros(3))
        gf = gradients(st_)
        assert np.allclose(gf.F, np.broadcast_to(np.eye(3), g.cells + (3, 3)), atol=1e-13)
        assert np.allclose(gf.N, 0.0)

    def test_unread_slots_are_zero_size(self):
        g = Grid.cube(4, 0.0, 1.0)
        st_ = identity_state(g, Euclidean(3), np.zeros(3))
        rng = np.random.default_rng(9)
        st_.u = st_.u + 0.1 * rng.normal(size=st_.u.shape)
        st_.nu = rng.normal(size=st_.nu.shape)
        full = gradients(st_)
        for reads in (("F",), ("N",), ("nu", "N"), ("x", "u"), ()):
            gf = gradients(st_, reads)
            for slot, attr, rank in (("x", "x", 1), ("u", "u_bar", 1), ("F", "F", 2),
                                     ("nu", "nu_bar", 1), ("N", "N", 2)):
                got = getattr(gf, attr)
                if slot in reads:
                    assert np.array_equal(got, getattr(full, attr))
                else:
                    assert got.dtype == float and got.size == 0 and got.nbytes == 0
                    assert got.shape == g.cells + (0,) * rank


class TestQuadrature:
    def test_constant_over_box(self):
        g = Grid((0.0, 0.0, 0.0), (2.0, 1.0, 3.0), (4, 5, 6))
        vals = np.full(g.cells, 1.7)
        assert integrate_cells(vals, g) == pytest.approx(1.7 * 6.0, rel=1e-13)

    def test_masked_half(self):
        g = Grid.cube(4, 0.0, 1.0)
        mask = g.cell_centers()[..., 0] < 0.5
        vals = np.ones(g.cells)
        assert integrate_cells(vals, g, mask) == pytest.approx(0.5, rel=1e-13)

    def test_shape_error(self):
        g = Grid.cube(4, 0.0, 1.0)
        with pytest.raises(ShapeMismatchError):
            integrate_cells(np.ones((4, 4)), g)

    def test_node_volumes_sum(self):
        g = Grid.cube(5, 0.0, 1.0)
        mask = ball_mask(g)
        assert node_volumes(g, mask).sum() == pytest.approx(mask.sum() * g.cell_volume, rel=1e-13)


def _divergence(T, grid, active=None):
    """Nodal divergence of a cell tensor field: -scatter_gradient_adjoint(T)
    over the lumped volume, 0 where that volume is 0."""
    raw = scatter_gradient_adjoint(T, grid, active)
    return divide_by_volume(-raw, node_volumes(grid, active))


class TestDivergence:
    def test_linear_tensor_field(self):
        # T = x1 * I has divergence (1, 0, 0)
        g = Grid.cube(10, 0.0, 1.0)
        c = g.cell_centers()
        T = c[..., 0, None, None] * np.eye(3)
        div = _divergence(T, g)
        interior = interior_node_mask(g)
        assert np.allclose(div[interior], [1.0, 0.0, 0.0], atol=1e-10)

    def test_uniform_tensor_zero_interior(self):
        g = Grid.cube(6, 0.0, 1.0)
        T = np.broadcast_to(np.arange(9.0).reshape(3, 3), g.cells + (3, 3)).copy()
        div = _divergence(T, g)
        assert np.allclose(div[interior_node_mask(g)], 0.0, atol=1e-12)

    def test_smooth_consistency_order(self):
        # T_ij = delta_ij * sin(x1) -> Div = (cos x1, 0, 0); interior error O(h^2)
        errs = []
        for n in (8, 16, 32):
            g = Grid.cube(n, 0.0, 1.0)
            c = g.cell_centers()
            T = np.sin(c[..., 0])[..., None, None] * np.eye(3)
            div = _divergence(T, g)
            x = g.node_coords()
            exact = np.stack([np.cos(x[..., 0]), np.zeros(g.nodes), np.zeros(g.nodes)], axis=-1)
            interior = interior_node_mask(g)
            errs.append(np.abs((div - exact)[interior]).max())
        slope = np.polyfit(np.log([1 / 8, 1 / 16, 1 / 32]), np.log(errs), 1)[0]
        assert slope >= 1.9

    @pytest.mark.parametrize("grid", [Grid((0.0, 0.0, 0.0), (1.0, 0.8, 1.3), (4, 5, 3))],
                             ids=["3d"])
    @pytest.mark.parametrize("masked", [False, True], ids=["box", "ball"])
    @pytest.mark.parametrize("operator", ["average", "gradient", "divergence"])
    def test_adjoint_is_exact_transpose(self, grid, masked, operator):
        rng = np.random.default_rng(44)
        active = ball_mask(grid) if masked else None
        keep = np.ones(grid.cells, dtype=bool) if active is None else active
        h = rng.normal(size=grid.nodes + (2,))
        if operator == "average":
            v = rng.normal(size=grid.cells + (2,))
            a = np.sum(scatter_cell_average_adjoint(v, grid, active) * h)
            pointwise = np.einsum("...c,...c->...", v, cell_average(h, grid))
        else:
            v = rng.normal(size=grid.cells + (2, 3))
            if operator == "gradient":
                a = np.sum(scatter_gradient_adjoint(v, grid, active) * h)
            else:  # summation by parts, through the lumped volume
                vols = node_volumes(grid, active)[..., None]
                a = -np.sum(vols * _divergence(v, grid, active) * h)
            pointwise = np.einsum("...cj,...cj->...", v, cell_gradient(h, grid))
        b = np.sum(pointwise[keep]) * grid.cell_volume
        assert a == pytest.approx(b, rel=1e-12)


def _corner_slices(grid):
    for o in itertools.product((0, 1), repeat=grid.dim):
        yield o, tuple(slice(s, s + c) for s, c in zip(o, grid.cells))


class TestCornerLoopReference:
    """The stencil against one hand-written loop per operator, bit for bit:
    same corner order, same order of additions, same scale factors."""

    @pytest.mark.parametrize("masked", [False, True], ids=["box", "ball"])
    @pytest.mark.parametrize("grid", [Grid((0.0, -0.2, 0.1), (1.0, 0.9, 1.4), (4, 5, 3))],
                             ids=["3d"])
    def test_operators_match_corner_loops(self, grid, masked):
        rng = np.random.default_rng(45)
        d, vol = grid.dim, grid.cell_volume
        active = ball_mask(grid) if masked else None
        keep = (np.ones(grid.cells, dtype=bool) if active is None else active)[..., None]
        w = rng.normal(size=grid.nodes + (2,))
        v = rng.normal(size=grid.cells + (2,))
        T = rng.normal(size=grid.cells + (2, 3))

        avg = sum(w[sl] for _, sl in _corner_slices(grid)) / 2**d
        grad = np.zeros(grid.cells + (2, 3))
        gradT = np.zeros(grid.nodes + (2,))
        for axis, h in enumerate(grid.spacing):
            acc = np.zeros(grid.cells + (2,))
            t = np.where(keep, T[..., axis] * (vol / (2 ** (d - 1) * h)), 0.0)
            for o, sl in _corner_slices(grid):
                sign = 1.0 if o[axis] else -1.0
                acc += sign * w[sl]
                gradT[sl] += sign * t
            grad[..., axis] = acc * (1.0 / (2 ** (d - 1) * h))
        avgT = np.zeros(grid.nodes + (2,))
        vols = np.zeros(grid.nodes)
        incident = np.zeros(grid.nodes, dtype=bool)
        for _, sl in _corner_slices(grid):
            avgT[sl] += np.where(keep, v * vol / 2**d, 0.0)
            vols[sl] += np.where(keep[..., 0], vol / 2**d, 0.0)
            incident[sl] |= keep[..., 0]

        assert np.array_equal(cell_average(w, grid), avg)
        assert np.array_equal(cell_gradient(w, grid), grad)
        assert np.array_equal(scatter_gradient_adjoint(T, grid, active), gradT)
        assert np.array_equal(scatter_cell_average_adjoint(v, grid, active), avgT)
        assert np.array_equal(node_volumes(grid, active), vols)
        assert np.array_equal(incident_node_mask(grid, active), incident)

    def test_kuhn_points_match_path_loops(self):
        # point k steps along the axes in the k-th permutation's order; its F
        # column along an axis is the difference across that step, over h
        grid = Grid((0.0, -0.2, 0.1), (1.0, 0.9, 1.4), (4, 5, 3))
        u = np.random.default_rng(46).normal(size=grid.nodes + (3,))
        corner = dict(_corner_slices(grid))
        for point, path in zip(KUHN, itertools.permutations(range(3)), strict=True):
            ref = np.empty(grid.cells + (3, 3))
            offset = [0, 0, 0]
            for ax in path:
                before = u[corner[tuple(offset)]]
                offset[ax] = 1
                ref[..., :, ax] = (u[corner[tuple(offset)]] - before) / grid.spacing[ax]
            F = np.stack([gather(u, point.gradient[ax]) / h
                          for ax, h in enumerate(grid.spacing)], axis=-1)
            assert np.array_equal(F, ref)


def _dense_h1(grid, free, active=None):
    """K + M assembled column by column from the stencil and its adjoint,
    K e = scatter_gradient_adjoint(cell_gradient(e)), M the lumped volumes,
    restricted to the free nodes."""
    n = int(np.prod(grid.nodes))
    vols = node_volumes(grid, active).ravel()
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        e = e.reshape(grid.nodes + (1,))
        k = scatter_gradient_adjoint(cell_gradient(e, grid), grid, active)[..., 0].ravel()
        cols.append(k + vols * e.ravel())
    f = free.ravel()
    return np.stack(cols, axis=1)[np.ix_(f, f)]


def _pins(grid, kind):
    """Rim (every box face), two-face (the two faces normal to axis 0) or no pins."""
    pins = np.zeros(grid.nodes, dtype=bool)
    for a in range(grid.dim if kind == "rim" else 1 if kind == "two-face" else 0):
        ends = np.zeros(grid.nodes[a], dtype=bool)
        ends[[0, -1]] = True
        pins |= ends.reshape([-1 if b == a else 1 for b in range(grid.dim)])
    return pins


class TestH1Solver:
    """The fast-diagonalization solve of the preconditioner K + M."""

    @pytest.mark.parametrize("pins", ["rim", "two-face", "none"])
    @pytest.mark.parametrize("grid", [Grid((0.0, -1.0, 0.0), (1.0, 2.0, 0.5), (4, 3, 5))],
                             ids=["3d"])
    def test_equals_dense_solve_on_boxes(self, grid, pins):
        free = ~_pins(grid, pins)
        P = _dense_h1(grid, free)
        rng = np.random.default_rng(8)
        r = rng.normal(size=grid.nodes + (2,))
        r[~free] = 0.0
        z = h1_solver(grid, free)(r)
        want = np.linalg.solve(P, r[free])
        assert np.max(np.abs(z[free] - want)) <= 1e-12 * np.max(np.abs(want))
        assert not z[~free].any()

    def test_spd_on_a_ball(self):
        grid = Grid.cube(6, lo=-1.0, hi=1.0)
        active = ball_mask(grid)
        free = incident_node_mask(grid, active) & ~boundary_node_mask(grid, active)
        solve = h1_solver(grid, free)
        n = int(free.sum())
        cols = []
        for j in range(n):
            e = np.zeros(grid.nodes + (1,))
            e[free, 0] = np.eye(n)[j]
            cols.append(solve(e)[free, 0])
        S = np.stack(cols, axis=1)
        assert np.max(np.abs(S - S.T)) <= 1e-13 * np.max(np.abs(S))
        assert np.linalg.eigvalsh(0.5 * (S + S.T)).min() > 0.0


class TestNodeMasks:
    def test_full_box_interior(self):
        g = Grid.cube(4, 0.0, 1.0)
        interior = interior_node_mask(g)
        assert interior.sum() == 3**3
        boundary = boundary_node_mask(g)
        assert boundary.sum() == 5**3 - 3**3

    def test_margin_two(self):
        g = Grid.cube(6, 0.0, 1.0)
        inner = interior_node_mask(g, margin=2)
        assert inner.sum() == 3**3

    @pytest.mark.parametrize("margin", [1, 2, 3])
    @pytest.mark.parametrize("grid", [Grid.cube(9, -1.0, 1.0), Grid((0.0, -0.5, 0.2), (2.0, 0.5, 0.9), (13, 8, 5))])
    def test_interior_mask_matches_sliding_window(self, grid, margin):
        def window_reference(active):
            m = margin
            padded = np.zeros(tuple(c + 2 * m for c in grid.cells), dtype=bool)
            padded[tuple(slice(m, m + c) for c in grid.cells)] = active
            win = np.lib.stride_tricks.sliding_window_view(padded, (2 * m,) * grid.dim)
            return win.all(axis=tuple(range(-grid.dim, 0)))

        rng = np.random.default_rng(margin)
        masks = [np.ones(grid.cells, dtype=bool), ball_mask(grid, radius=0.9)]
        masks += [rng.random(grid.cells) < p for p in (0.5, 0.9, 0.97)]
        for active in masks:
            expected = window_reference(active)
            assert np.array_equal(interior_node_mask(grid, active, margin=margin), expected)
        assert np.array_equal(interior_node_mask(grid, margin=margin), window_reference(masks[0]))

    def test_ball_mask_boundary(self):
        g = Grid.cube(8, -1.0, 1.0)
        active = ball_mask(g, radius=0.75)
        interior = interior_node_mask(g, active)
        boundary = boundary_node_mask(g, active)
        incident = incident_node_mask(g, active)
        assert np.all(~(interior & boundary))
        assert np.all(incident[interior])
        assert np.all(incident[boundary])
        # a strictly inscribed ball does not touch the box faces
        assert not boundary[0].any() and not boundary[-1].any()


class TestDirichlet:
    def test_pin_face(self):
        g = Grid.cube(4, 0.0, 1.0)
        st_ = identity_state(g, Euclidean(3), np.zeros(3))
        face = g.node_coords()[..., 0] < 1e-12
        pin(st_, "u", face, np.full(st_.u.shape, 7.0))
        assert st_.pinned_u[0].all()
        assert not st_.pinned_u[1:].any()
        assert np.allclose(st_.u[0], 7.0)
        assert not st_.pinned_nu.any()

    def test_nu_values_projected(self):
        g = Grid.cube(4, 0.0, 1.0)
        sphere = UnitSphere()
        st_ = identity_state(g, sphere, np.array([0.0, 0.0, 1.0]))
        face = g.node_coords()[..., 2] < 1e-12
        pin(st_, "nu", face, np.broadcast_to([2.0, 0.0, 0.0], st_.nu.shape), manifold=sphere)
        assert np.allclose(st_.nu[:, :, 0], [1.0, 0.0, 0.0])
        assert st_.pinned_nu[:, :, 0].all()

    def test_zero_data_off_the_mask_is_not_projected(self):
        # a zero director has no nearest unit vector; off the mask it is never read
        g = Grid.cube(4, 0.0, 1.0)
        sphere = UnitSphere()
        st_ = identity_state(g, sphere, np.array([0.0, 0.0, 1.0]))
        face = g.node_coords()[..., 0] < 1e-12
        data = np.zeros(st_.nu.shape)
        data[face] = [0.0, 3.0, 0.0]
        pin(st_, "nu", face, data, manifold=sphere)
        assert np.array_equal(st_.nu[face], np.broadcast_to([0.0, 1.0, 0.0], st_.nu[face].shape))
        assert np.array_equal(st_.nu[~face], np.broadcast_to([0.0, 0.0, 1.0], st_.nu[~face].shape))
        assert np.array_equal(st_.pinned_nu, face)

    def test_unknown_field_rejected(self):
        g = Grid.cube(2, 0.0, 1.0)
        st_ = identity_state(g, Euclidean(3), np.zeros(3))
        with pytest.raises(ShapeMismatchError):
            pin(st_, "v", np.ones(g.nodes, dtype=bool), np.zeros(st_.u.shape))

    def test_ball_boundary_data(self):
        g = Grid.cube(8, -1.0, 1.0)
        sphere = UnitSphere()
        st_ = identity_state(g, sphere, np.array([0.0, 0.0, 1.0]))
        st_.active = ball_mask(g)
        bnd = boundary_node_mask(g, st_.active)
        x = g.node_coords()
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        hedgehog = x / np.maximum(r, 1e-12)
        hedgehog[..., 2] = np.where(r[..., 0] < 1e-12, 1.0, hedgehog[..., 2])
        pin(st_, "nu", bnd, hedgehog, manifold=sphere)
        assert np.array_equal(st_.pinned_nu, bnd)
        assert np.allclose(np.linalg.norm(st_.nu[bnd], axis=-1), 1.0, atol=1e-12)


class TestStateValidation:
    def test_shape_checks(self):
        g = Grid.cube(3, 0.0, 1.0)
        with pytest.raises(ShapeMismatchError):
            FieldState(
                grid=g,
                u=np.zeros(g.nodes + (2,)),
                nu=np.zeros(g.nodes + (3,)),
                pinned_u=np.zeros(g.nodes, bool),
                pinned_nu=np.zeros(g.nodes, bool),
            )

    def test_constraint_violation(self):
        g = Grid.cube(3, 0.0, 1.0)
        sphere = UnitSphere()
        st_ = identity_state(g, sphere, np.array([1.0, 0.0, 0.0]))
        assert st_.constraint_violation(sphere) <= 1e-12
        st_.nu[1, 1, 1] *= 1.5
        assert st_.constraint_violation(sphere) == pytest.approx(0.5, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_sbp_property(seed):
    rng = np.random.default_rng(seed)
    g = Grid.cube(4, 0.0, 1.0)
    T = rng.normal(size=g.cells + (3, 3))
    h = rng.normal(size=g.nodes + (3,))
    total = integrate_cells(np.einsum("...ij,...ij->...", T, cell_gradient(h, g)), g)
    rhs = -np.sum(node_volumes(g)[..., None] * _divergence(T, g) * h)
    assert abs(total - rhs) <= 1e-11 * max(1.0, abs(total))
