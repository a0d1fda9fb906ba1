"""Descriptor-manifold contracts: projections, retractions, rotation actions.

Rotation-action oracles apply a finite ambient rotation to the descriptor in
its native representation (rotate a vector, conjugate a tensor, rotate the
sphere factor of a product) and compare against the infinitesimal generator.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexbodies.errors import (
    ConfigError,
    GeneratorUnavailableError,
    ProjectionUndefinedError,
    ShapeMismatchError,
)
from complexbodies.manifolds import (
    SYM_EIG_FLOOR,
    Euclidean,
    Interval,
    Product,
    SymPositive,
    UnitSphere,
    degree_of_orientation,
    layer_director,
    rotation_from_vector,
    spin_matrix,
)
from complexbodies.scenarios import build_manifold

ALL_MANIFOLDS = [
    Euclidean(3),
    Euclidean(2),
    UnitSphere(),
    Interval(0.0, 1.0),
    SymPositive(),
    degree_of_orientation(),
    layer_director(),
]

CURVED = [UnitSphere(), degree_of_orientation(), layer_director()]


def rotate_descriptor(manifold, R, nu):
    """Oracle: finite rotation of a descriptor in its native representation."""
    if isinstance(manifold, UnitSphere) or (
        isinstance(manifold, Euclidean) and manifold.embed_dim == 3
    ):
        return R @ nu
    if isinstance(manifold, SymPositive):
        m = nu.reshape(3, 3)
        return (R @ m @ R.T).reshape(9)
    if isinstance(manifold, Product):
        out = []
        at = 0
        for f in manifold.factors:
            blk = nu[at : at + f.embed_dim]
            out.append(rotate_descriptor(f, R, blk) if f.rotation_generator_defined else blk)
            at += f.embed_dim
        return np.concatenate(out)
    return nu


@pytest.mark.parametrize("manifold", ALL_MANIFOLDS, ids=lambda m: m.name)
class TestProjections:
    def test_project_lands_on_manifold(self, manifold):
        rng = np.random.default_rng(21)
        p = rng.normal(size=(40, manifold.embed_dim))
        proj = manifold.project(p)
        assert np.all(manifold.constraint_violation(proj) <= 1e-10)

    def test_project_idempotent(self, manifold):
        rng = np.random.default_rng(22)
        proj = manifold.project(rng.normal(size=(20, manifold.embed_dim)))
        again = manifold.project(proj)
        assert np.allclose(proj, again, atol=1e-12)

    def test_tangent_project_idempotent_linear(self, manifold):
        rng = np.random.default_rng(23)
        nu = manifold.random_point(rng, (15,))
        nu = manifold.project(nu)
        v = rng.normal(size=(15, manifold.embed_dim))
        w = rng.normal(size=(15, manifold.embed_dim))
        tp = manifold.tangent_project
        assert np.allclose(tp(nu, tp(nu, v)), tp(nu, v), atol=1e-12)
        assert np.allclose(
            tp(nu, 2.0 * v - 0.3 * w), 2.0 * tp(nu, v) - 0.3 * tp(nu, w), atol=1e-12
        )

    def test_retract_at_zero_is_identity(self, manifold):
        rng = np.random.default_rng(24)
        nu = manifold.project(manifold.random_point(rng, (10,)))
        out = manifold.retract(nu, np.zeros_like(nu))
        assert np.allclose(out, nu, atol=1e-12)

    def test_retract_stays_on_manifold(self, manifold):
        rng = np.random.default_rng(25)
        nu = manifold.project(manifold.random_point(rng, (10,)))
        v = 0.3 * rng.normal(size=nu.shape)
        out = manifold.retract(nu, v)
        assert np.all(manifold.constraint_violation(out) <= 1e-10)


class TestNormalAnnihilation:
    def test_sphere_kills_radial(self):
        rng = np.random.default_rng(26)
        nu = UnitSphere().random_point(rng, (10,))
        out = UnitSphere().tangent_project(nu, 3.7 * nu)
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_sym_positive_kills_antisymmetric(self):
        rng = np.random.default_rng(27)
        m = SymPositive()
        nu = m.random_point(rng, (5,))
        a = rng.normal(size=(5, 3, 3))
        anti = (a - np.swapaxes(a, -1, -2)).reshape(5, 9)
        assert np.allclose(m.tangent_project(nu, anti), 0.0, atol=1e-12)


@pytest.mark.parametrize("manifold", CURVED, ids=lambda m: m.name)
def test_retraction_first_order(manifold):
    # | ||retract(nu, t v) - nu|| - t ||v|| | must shrink at least quadratically
    rng = np.random.default_rng(28)
    slopes = []
    for _ in range(10):
        nu = manifold.project(manifold.random_point(rng))
        v = manifold.tangent_project(nu, rng.normal(size=manifold.embed_dim))
        speed = np.linalg.norm(v)
        if speed < 1e-3:
            continue
        ts = np.array([1e-2, 1e-3, 1e-4])
        defects = []
        for t in ts:
            step = np.linalg.norm(manifold.retract(nu, t * v) - nu)
            defects.append(abs(step - t * speed))
        defects = np.array(defects)
        if np.all(defects < 1e-14):
            continue  # exact retraction along this direction
        slope = np.polyfit(np.log(ts), np.log(np.maximum(defects, 1e-300)), 1)[0]
        slopes.append(slope)
    assert slopes and min(slopes) >= 1.9


def test_flat_retraction_is_exact():
    rng = np.random.default_rng(29)
    for manifold in (Euclidean(3), SymPositive()):
        nu = manifold.project(manifold.random_point(rng))
        v = manifold.tangent_project(nu, 1e-3 * rng.normal(size=manifold.embed_dim))
        step = np.linalg.norm(manifold.retract(nu, v) - nu)
        assert step == pytest.approx(np.linalg.norm(v), abs=1e-12)


class TestRotationGenerator:
    def test_sphere_sign_convention(self):
        # A(nu) q = q x nu at nu = e3, q = e1 gives (0, -1, 0)
        A = UnitSphere().rotation_generator(np.array([0.0, 0.0, 1.0]))
        assert np.allclose(A @ np.array([1.0, 0.0, 0.0]), [0.0, -1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize(
        "manifold",
        [Euclidean(3), UnitSphere(), SymPositive(), degree_of_orientation(), layer_director()],
        ids=lambda m: m.name,
    )
    def test_generator_matches_finite_rotation(self, manifold):
        rng = np.random.default_rng(30)
        for _ in range(5):
            nu = manifold.project(manifold.random_point(rng))
            q = rng.normal(size=3)
            A = manifold.rotation_generator(nu)
            ts = np.array([1e-2, 1e-3, 1e-4])
            defects = []
            for t in ts:
                R = rotation_from_vector(t * q)
                moved = rotate_descriptor(manifold, R, nu)
                defects.append(np.linalg.norm(moved - nu - t * (A @ q)))
            slope = np.polyfit(np.log(ts), np.log(np.maximum(defects, 1e-300)), 1)[0]
            assert slope >= 1.9

    @pytest.mark.parametrize(
        "manifold",
        [Euclidean(3), UnitSphere(), SymPositive(), degree_of_orientation(), layer_director()],
        ids=lambda m: m.name,
    )
    def test_generator_is_tangent(self, manifold):
        rng = np.random.default_rng(31)
        nu = manifold.project(manifold.random_point(rng, (8,)))
        q = rng.normal(size=3)
        Aq = np.einsum("...aj,j->...a", manifold.rotation_generator(nu), q)
        assert np.allclose(manifold.tangent_project(nu, Aq), Aq, atol=1e-10)

    @pytest.mark.parametrize(
        "manifold",
        [Euclidean(3), UnitSphere(), SymPositive(), degree_of_orientation()],
        ids=lambda m: m.name,
    )
    def test_generator_gradient_matches_fd(self, manifold):
        rng = np.random.default_rng(32)
        nu = manifold.project(manifold.random_point(rng))
        dA = manifold.rotation_generator_gradient(nu)
        h = 1e-6
        for b in range(manifold.embed_dim):
            delta = np.zeros(manifold.embed_dim)
            delta[b] = h
            fd = (
                manifold.rotation_generator(nu + delta)
                - manifold.rotation_generator(nu - delta)
            ) / (2 * h)
            assert np.allclose(fd, dA[:, :, b], atol=1e-7)

    def test_unavailable(self):
        with pytest.raises(GeneratorUnavailableError):
            Interval().rotation_generator(np.array([0.5]))
        with pytest.raises(GeneratorUnavailableError):
            Euclidean(2).rotation_generator(np.zeros(2))
        with pytest.raises(GeneratorUnavailableError):
            Product(Interval(), Euclidean(1)).rotation_generator(np.array([0.5, 0.0]))


class TestSpecificManifolds:
    def test_sphere_zero_projection_undefined(self):
        with pytest.raises(ProjectionUndefinedError):
            UnitSphere().project(np.zeros(3))

    def test_interval_clamps(self):
        itv = Interval(0.0, 1.0)
        assert itv.project(np.array([1.7])) == pytest.approx(1.0)
        assert itv.project(np.array([-0.2])) == pytest.approx(0.0)
        assert itv.retract(np.array([0.9]), np.array([0.4])) == pytest.approx(1.0)

    def test_sym_positive_clamps_eigenvalues(self):
        m = SymPositive()
        bad = np.diag([1.0, -2.0, 0.0]).reshape(9)
        proj = m.project(bad).reshape(3, 3)
        w = np.linalg.eigvalsh(proj)
        assert np.all(w >= SYM_EIG_FLOOR * (1 - 1e-9))
        assert np.allclose(proj, proj.T, atol=1e-14)

    def test_sym_positive_nearest_on_spd(self):
        rng = np.random.default_rng(33)
        p = SymPositive().random_point(rng)
        assert np.allclose(SymPositive().project(p), p, atol=1e-10)

    def test_degree_of_orientation_blocks(self):
        d = degree_of_orientation()
        assert d.embed_dim == 4
        assert d.has_boundary
        p = d.project(np.array([0.0, 2.0, 0.0, 3.5]))
        assert np.allclose(p, [0.0, 1.0, 0.0, 1.0], atol=1e-14)

    def test_layer_director_blocks(self):
        d = layer_director()
        assert d.embed_dim == 4
        p = d.project(np.array([1.3, 0.0, 0.0, -2.0]))
        assert np.allclose(p, [1.3, 0.0, 0.0, -1.0], atol=1e-14)

    def test_registry(self):
        for name in (
            "euclidean1",
            "euclidean3",
            "unit-sphere",
            "interval",
            "degree-of-orientation",
            "layer-director",
        ):
            m = build_manifold(name, {})
            assert m.embed_dim >= 1
        assert SymPositive().embed_dim == 9
        with pytest.raises(ConfigError, match="moebius"):
            build_manifold("moebius", {})

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatchError):
            UnitSphere().project(np.zeros(4))
        with pytest.raises(ShapeMismatchError):
            Interval(1.0, 1.0)


def test_rotation_from_vector_is_rotation():
    rng = np.random.default_rng(34)
    for _ in range(10):
        R = rotation_from_vector(rng.normal(size=3))
        assert np.allclose(R @ R.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(R) == pytest.approx(1.0, abs=1e-12)


def test_spin_matrix_cross_product():
    rng = np.random.default_rng(35)
    q = rng.normal(size=3)
    v = rng.normal(size=3)
    assert np.allclose(spin_matrix(q) @ v, np.cross(q, v), atol=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sphere_projection_properties(seed):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=3)
    if np.linalg.norm(p) < 1e-6:
        return
    sphere = UnitSphere()
    proj = sphere.project(p)
    assert np.linalg.norm(proj) == pytest.approx(1.0, abs=1e-12)
    # nearest point: projection is a nonnegative multiple of p
    assert np.dot(proj, p) == pytest.approx(np.linalg.norm(p), rel=1e-10)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_tangent_project_is_orthogonal_projection(seed):
    rng = np.random.default_rng(seed)
    manifold = [UnitSphere(), SymPositive(), degree_of_orientation()][seed % 3]
    nu = manifold.project(manifold.random_point(rng))
    v = rng.normal(size=manifold.embed_dim)
    t = manifold.tangent_project(nu, v)
    # the residual v - t is orthogonal to every projected vector
    w = manifold.tangent_project(nu, rng.normal(size=manifold.embed_dim))
    assert abs(np.dot(v - t, w)) <= 1e-10 * max(1.0, np.linalg.norm(v) * np.linalg.norm(w))
