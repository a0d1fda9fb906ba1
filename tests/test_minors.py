"""Minor-algebra tests against independent determinant oracles.

The oracle path never touches the package's closed-form expansions: every
expected minor is recomputed with np.linalg.det on an independently sliced
submatrix.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from complexbodies.errors import ShapeMismatchError, SizeMismatchError, ZeroMinorsError
from complexbodies.minors import (
    GraphTangent,
    MinorsVector,
    MultiIndex,
    adjugate,
    binet_compose,
    cofactor,
    cross_cofactor,
    det3,
    graph_tangent,
    minors3,
    minors_norm_squared,
    minors_stacked,
)


LEVI3 = np.zeros((3, 3, 3))
LEVI3[0, 1, 2] = LEVI3[1, 2, 0] = LEVI3[2, 0, 1] = 1.0
LEVI3[0, 2, 1] = LEVI3[2, 1, 0] = LEVI3[1, 0, 2] = -1.0


def levi_cross_cofactor(A, B):
    """Reference bilinear cofactor: eps_pib eps_qjd A_bd B_pq."""
    return np.einsum("pib,qjd,...bd,...pq->...ij", LEVI3, LEVI3, A, B)


def three_cross_cofactor(F):
    """Reference cofactor: column k is the cross product of the other two columns."""
    c = np.empty_like(F)
    c[..., :, 0] = np.cross(F[..., :, 1], F[..., :, 2], axis=-1)
    c[..., :, 1] = np.cross(F[..., :, 2], F[..., :, 0], axis=-1)
    c[..., :, 2] = np.cross(F[..., :, 0], F[..., :, 1], axis=-1)
    return c


def oracle_minor(G, beta, alpha):
    """Independent submatrix determinant, 1-based index tuples."""
    sub = G[np.ix_([b - 1 for b in beta], [a - 1 for a in alpha])]
    return float(np.linalg.det(sub))


def all_keys(p, q, k):
    rows = itertools.combinations(range(1, p + 1), k)
    return [
        (tuple(b), tuple(a))
        for b in rows
        for a in itertools.combinations(range(1, q + 1), k)
    ]


class TestMultiIndex:
    def test_single_row_sign_alternates(self):
        # sigma({i}) relative to its complement in {1,2,3} is (-1)^(i+1)
        assert MultiIndex((1,)).sign(3) == 1
        assert MultiIndex((2,)).sign(3) == -1
        assert MultiIndex((3,)).sign(3) == 1

    def test_complement(self):
        assert MultiIndex((1, 3)).complement(4).entries == (2, 4)
        assert MultiIndex(()).complement(3).entries == (1, 2, 3)

    def test_validation(self):
        with pytest.raises(ShapeMismatchError):
            MultiIndex((2, 1))
        with pytest.raises(ShapeMismatchError):
            MultiIndex((0, 1))
        with pytest.raises(ShapeMismatchError):
            MultiIndex((1, 2, 3, 4))

    def test_pair_sign_equals_product_rule(self):
        # sign of ({i},{j}) deletion pattern used by the cofactor layout
        for i in range(1, 4):
            for j in range(1, 4):
                si = MultiIndex((i,)).sign(3)
                sj = MultiIndex((j,)).sign(3)
                assert si * sj == (-1) ** (i + j)


class TestMinorsVector:
    def test_identity_magnitude(self):
        M = minors3(np.eye(3))
        assert M.norm_squared == pytest.approx(8.0, abs=1e-14)

    def test_order2_against_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            G = rng.normal(size=(3, 3))
            M = minors3(G)
            for key in all_keys(3, 3, 2):
                assert M.order2[key] == pytest.approx(oracle_minor(G, *key), abs=1e-12)
            assert M.det == pytest.approx(np.linalg.det(G), abs=1e-12)

    def test_norm_identity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            G = rng.normal(size=(3, 3))
            M = minors3(G)
            c = M.cofactor_matrix()
            expected = 1.0 + np.sum(G * G) + np.sum(c * c) + np.linalg.det(G) ** 2
            assert M.norm_squared == pytest.approx(expected, rel=1e-13)

    def test_adjugate_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            G = rng.normal(size=(3, 3))
            m = minors3(G).cofactor_matrix()
            scale = max(1.0, np.abs(G).max() ** 3)
            assert np.allclose(G @ m.T, np.linalg.det(G) * np.eye(3), atol=1e-12 * scale)

    def test_stacked_exhaustive_oracle(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            m = rng.integers(1, 5)
            F = rng.normal(size=(3, 3))
            N = rng.normal(size=(m, 3))
            S = np.vstack([F, N])
            M = minors_stacked(F, N)
            assert M.shape == (3 + m, 3)
            assert np.allclose(M.order1, S)
            for key in all_keys(3 + m, 3, 2):
                assert M.order2[key] == pytest.approx(oracle_minor(S, *key), abs=1e-12)
            for key in all_keys(3 + m, 3, 3):
                assert M.order3[key] == pytest.approx(oracle_minor(S, *key), abs=1e-12)

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatchError):
            minors3(np.eye(4))
        with pytest.raises(ShapeMismatchError):
            minors_stacked(np.eye(3), np.ones((2, 4)))


class TestBinet:
    def test_against_direct_minors(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            G = rng.normal(size=(3, 3))
            H = rng.normal(size=(3, 3))
            composed = binet_compose(minors3(G), minors3(H))
            direct = minors3(G @ H)
            scale = max(1.0, direct.norm)
            assert np.allclose(composed.order1, direct.order1, atol=1e-10 * scale)
            for key in direct.order2:
                assert composed.order2[key] == pytest.approx(direct.order2[key], abs=1e-10 * scale)
            assert composed.det == pytest.approx(direct.det, abs=1e-10 * scale)

    def test_stacked_composition(self):
        # [F; N] @ H composes through the shared 3-dimensional middle index
        rng = np.random.default_rng(12)
        F = rng.normal(size=(3, 3))
        N = rng.normal(size=(2, 3))
        H = rng.normal(size=(3, 3))
        composed = binet_compose(minors_stacked(F, N), minors3(H))
        direct = minors_stacked(F @ H, N @ H)
        for key in direct.order2:
            assert composed.order2[key] == pytest.approx(direct.order2[key], abs=1e-10)
        for key in direct.order3:
            assert composed.order3[key] == pytest.approx(direct.order3[key], abs=1e-10)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatchError):
            binet_compose(minors_stacked(np.eye(3), np.ones((1, 3))), minors_stacked(np.eye(3), np.ones((1, 3))))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_det_multiplicativity(self, seed):
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(3, 3))
        H = rng.normal(size=(3, 3))
        composed = binet_compose(minors3(G), minors3(H))
        assert composed.det == pytest.approx(
            np.linalg.det(G) * np.linalg.det(H), rel=1e-9, abs=1e-9
        )


class TestGraphTangent:
    def test_identity_components(self):
        t = graph_tangent(minors3(np.eye(3)))
        assert t.component(0) == pytest.approx(1.0 / np.sqrt(8.0), abs=1e-14)
        assert t.norm == pytest.approx(1.0, abs=1e-14)

    def test_unit_norm_random(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            t = graph_tangent(minors3(rng.normal(size=(3, 3))))
            assert t.norm == pytest.approx(1.0, abs=1e-13)

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroMinorsError):
            graph_tangent(MinorsVector.zero((3, 3)))

    def test_component_lookup(self):
        G = np.arange(9, dtype=float).reshape(3, 3)
        t = graph_tangent(minors3(G))
        labels, values = minors3(G).as_flat()
        norm = np.linalg.norm(values)
        assert t.component(1, (2,), (3,)) == pytest.approx(G[1, 2] / norm)
        with pytest.raises(ShapeMismatchError):
            t.component(2, (1, 4), (1, 2))

    def test_simple_vector_is_graph_tangent(self):
        # the tangent of a minors vector stays proportional to that vector
        rng = np.random.default_rng(14)
        G = rng.normal(size=(3, 3))
        M = minors3(G)
        t = graph_tangent(M)
        _, values = M.as_flat()
        assert np.allclose(t.xi * M.norm, values, atol=1e-12 * max(1.0, M.norm))
        assert isinstance(t, GraphTangent)


class TestBatchedHelpers:
    def test_det3_matches_linalg(self):
        rng = np.random.default_rng(15)
        F = rng.normal(size=(40, 3, 3))
        assert np.allclose(det3(F), np.linalg.det(F), atol=1e-12)

    def test_cofactor_matches_minors_vector(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            G = rng.normal(size=(3, 3))
            assert np.allclose(cofactor(G), minors3(G).cofactor_matrix(), atol=1e-13)

    def test_adjugate_identity_batched(self):
        rng = np.random.default_rng(17)
        F = rng.normal(size=(25, 3, 3))
        prod = np.einsum("...ij,...jk->...ik", F, adjugate(F))
        expected = det3(F)[:, None, None] * np.eye(3)
        assert np.allclose(prod, expected, atol=1e-12 * max(1.0, np.abs(F).max() ** 3))

    def test_minors_norm_squared_plain(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            G = rng.normal(size=(3, 3))
            assert minors_norm_squared(G) == pytest.approx(minors3(G).norm_squared, rel=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_norm_dominates_entries(self, seed):
        # |M| >= 1 always (order-0 slot) and >= |F| entrywise magnitude
        rng = np.random.default_rng(seed)
        F = rng.normal(size=(3, 3)) * rng.lognormal(0.0, 1.0)
        n2 = minors_norm_squared(F)
        assert n2 >= 1.0
        assert n2 >= np.sum(F * F)


class TestCrossCofactor:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_levi_civita_reference(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(7, 5, 3, 3)) * rng.lognormal(0.0, 1.0)
        B = rng.normal(size=(7, 5, 3, 3))
        for got, ref in (
            (cross_cofactor(A, B), levi_cross_cofactor(A, B)),
            (cross_cofactor(B, A), levi_cross_cofactor(A, B)),
            (cross_cofactor(cofactor(A), A), levi_cross_cofactor(A, cofactor(A))),
        ):
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_is_derivative_of_half_cofactor_norm(self):
        rng = np.random.default_rng(21)
        h = 1e-6

        def half_cof_sq(F):
            return 0.5 * np.sum(cofactor(F) ** 2)

        for _ in range(5):
            F = rng.normal(size=(3, 3))
            fd = np.empty((3, 3))
            for i, j in itertools.product(range(3), range(3)):
                E = np.zeros((3, 3))
                E[i, j] = h
                fd[i, j] = (half_cof_sq(F + E) - half_cof_sq(F - E)) / (2.0 * h)
            got = cross_cofactor(cofactor(F), F)
            assert np.allclose(got, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())

    @pytest.mark.parametrize("shape", [(3, 3), (40, 3, 3), (6, 4, 5, 3, 3)])
    def test_cofactor_bitwise_equals_column_cross_products(self, shape):
        rng = np.random.default_rng(len(shape))
        F = rng.normal(size=shape) * rng.lognormal(0.0, 3.0, size=shape)
        assert np.array_equal(cofactor(F), three_cross_cofactor(F))

    def test_shape_errors(self):
        with pytest.raises(ShapeMismatchError):
            cross_cofactor(np.eye(3), np.ones((3, 2)))
