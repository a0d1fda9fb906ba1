"""Tests of the batched minors helpers against independent determinant oracles.

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

from complexbodies.errors import ShapeMismatchError
from complexbodies.minors import cofactor, cross_cofactor, det3, minors_norm_squared


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


def oracle_cofactor(G):
    """(-1)^(i+j) times the minor of the 3x3 G with row i and column j deleted."""
    c = np.empty((3, 3))
    for i, j in itertools.product(range(3), range(3)):
        rows = tuple(r for r in (1, 2, 3) if r != i + 1)
        cols = tuple(k for k in (1, 2, 3) if k != j + 1)
        c[i, j] = (-1) ** (i + j) * oracle_minor(G, rows, cols)
    return c


def oracle_norm_squared(G):
    """1 + the squares of every minor of the 3x3 G, orders 1 to 3."""
    return 1.0 + sum(
        oracle_minor(G, *key) ** 2 for k in (1, 2, 3) for key in all_keys(3, 3, k)
    )


class TestBatchedHelpers:
    def test_det3_matches_linalg(self):
        rng = np.random.default_rng(15)
        F = rng.normal(size=(40, 3, 3))
        assert np.allclose(det3(F), np.linalg.det(F), atol=1e-12)

    def test_cofactor_matches_oracle_minors(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            G = rng.normal(size=(3, 3))
            assert np.allclose(cofactor(G), oracle_cofactor(G), atol=1e-13)

    def test_adjugate_identity_batched(self):
        rng = np.random.default_rng(17)
        F = rng.normal(size=(25, 3, 3))
        prod = np.einsum("...ij,...jk->...ik", F, np.swapaxes(cofactor(F), -1, -2))
        expected = det3(F)[:, None, None] * np.eye(3)
        assert np.allclose(prod, expected, atol=1e-12 * max(1.0, np.abs(F).max() ** 3))

    def test_minors_norm_squared_plain(self):
        assert minors_norm_squared(np.eye(3)) == pytest.approx(8.0, abs=1e-14)
        rng = np.random.default_rng(18)
        for _ in range(20):
            G = rng.normal(size=(3, 3))
            assert minors_norm_squared(G) == pytest.approx(oracle_norm_squared(G), rel=1e-12)

    @pytest.mark.parametrize("i,j", list(itertools.product(range(3), range(3))))
    def test_det_derivative_is_cofactor(self, i, j):
        # det is affine in each entry, so the central difference at any step is exact
        rng = np.random.default_rng(30 + 3 * i + j)
        F = rng.normal(size=(3, 3))
        E = np.zeros((3, 3))
        E[i, j] = 1.0
        fd = 0.5 * (float(det3(F + E)) - float(det3(F - E)))
        assert fd == pytest.approx(float(cofactor(F)[i, j]), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("lead", [(), (7,), (2, 5)], ids=["single", "row", "block"])
    def test_batched_equals_one_by_one(self, lead):
        # slabbed and whole-grid evaluations agree bit for bit only if each matrix
        # comes out the same whatever batch it is in
        rng = np.random.default_rng(len(lead) + 40)
        F = rng.normal(size=lead + (3, 3)) * rng.lognormal(0.0, 3.0, size=lead + (3, 3))
        G = rng.normal(size=lead + (3, 3))
        for got, one in (
            (det3(F), lambda k: det3(F[k])),
            (cofactor(F), lambda k: cofactor(F[k])),
            (minors_norm_squared(F), lambda k: minors_norm_squared(F[k])),
            (cross_cofactor(F, G), lambda k: cross_cofactor(F[k], G[k])),
        ):
            for k in np.ndindex(lead):
                assert np.array_equal(got[k], one(k))

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_frame_indifference(self, side):
        # cof(QF) = Q cof F and cof(FQ) = cof F Q for Q in SO(3); det and |M|^2 are unchanged
        rng = np.random.default_rng(50 if side == "left" else 51)
        F = rng.normal(size=(20, 3, 3))
        Q, _ = np.linalg.qr(rng.normal(size=(20, 3, 3)))
        Q = Q * np.sign(np.linalg.det(Q))[:, None, None]
        QF = Q @ F if side == "left" else F @ Q
        cof_QF = Q @ cofactor(F) if side == "left" else cofactor(F) @ Q
        assert np.allclose(det3(QF), det3(F), rtol=1e-12, atol=1e-12)
        assert np.allclose(cofactor(QF), cof_QF, rtol=1e-12, atol=1e-12)
        assert np.allclose(minors_norm_squared(QF), minors_norm_squared(F), rtol=1e-12)

    def test_homogeneity(self):
        rng = np.random.default_rng(52)
        F = rng.normal(size=(20, 3, 3))
        for t in (-3.0, 0.5, 2.0):
            assert np.allclose(det3(t * F), t**3 * det3(F), rtol=1e-12, atol=1e-12)
            assert np.allclose(cofactor(t * F), t**2 * cofactor(F), rtol=1e-12, atol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_composition_rule(self, seed):
        # Cauchy-Binet at orders 3 and 2, batched
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(5, 3, 3))
        H = rng.normal(size=(5, 3, 3))
        assert np.allclose(det3(G @ H), det3(G) * det3(H), rtol=1e-9, atol=1e-9)
        assert np.allclose(cofactor(G @ H), cofactor(G) @ cofactor(H), rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("shape", [(3,), (4, 4), (3, 2)], ids=["vector", "4x4", "3x2"])
    @pytest.mark.parametrize(
        "helper",
        [det3, cofactor, minors_norm_squared, lambda F: cross_cofactor(F, np.eye(3))],
        ids=["det3", "cofactor", "minors_norm_squared", "cross_cofactor"],
    )
    def test_rejects_non_3x3(self, helper, shape):
        with pytest.raises(ShapeMismatchError):
            helper(np.ones(shape))

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
