"""Minimizer oracles: duality, descent, determinism, constraint handling."""

import numpy as np
import pytest

from complexbodies.energy import (
    CompressibleMacro,
    DirichletDescriptor,
    QuadraticVector,
    isotropic_elasticity,
    make_quasicrystal,
    total_energy,
)
from complexbodies.errors import ConfigError, InadmissibleStartError
from complexbodies.fields import (
    Grid,
    apply_dirichlet,
    boundary_node_mask,
    identity_state,
    node_volumes,
)
from complexbodies.manifolds import Euclidean, UnitSphere
from complexbodies.minimize import MinimizeConfig, MinimizeResult, minimize, riesz_gradient
from util import EZ, hedgehog_state, radial_director


def _elastic_toy(res=6, perturb=0.02, seed=0):
    """Pinned-boundary linear-elastic state with a random interior bump."""
    grid = Grid.cube(res, dim=3)
    man = Euclidean(3)
    state = identity_state(grid, man, nu0=np.zeros(3))
    boundary = boundary_node_mask(grid, state.active)

    def on_boundary(x):
        eps = 1e-9
        inside = np.ones(x.shape[:-1], dtype=bool)
        for ax in range(3):
            inside &= (x[..., ax] > eps) & (x[..., ax] < 1.0 - eps)
        return ~inside

    apply_dirichlet(state, "u", on_boundary, lambda x: x, man)
    apply_dirichlet(state, "nu", on_boundary, np.zeros(3), man)
    rng = np.random.default_rng(seed)
    bump_u = perturb * rng.normal(size=state.u.shape)
    bump_nu = perturb * rng.normal(size=state.nu.shape)
    bump_u[state.pinned_u] = 0.0
    bump_nu[state.pinned_nu] = 0.0
    state.u = state.u + bump_u
    state.nu = state.nu + bump_nu
    assert boundary.any()
    dens = QuadraticVector(
        C=isotropic_elasticity(1.0, 1.0),
        A3=0.5 * np.eye(3),
        A5=np.einsum("ac,ij->aicj", np.eye(3), np.eye(3)),
        centrosymmetric=True,
    )
    return dens, state, man


def _hedgehog_problem(res=8):
    state = hedgehog_state(resolution=res, ball=True, radius=1.0)
    man = UnitSphere()
    bdry = boundary_node_mask(state.grid, state.active)
    apply_dirichlet(state, "nu", lambda x: bdry, lambda x: radial_director(x), man)
    apply_dirichlet(state, "u", lambda x: bdry, lambda x: x, man)
    return DirichletDescriptor(3), state, man


class TestRieszDuality:
    @pytest.mark.parametrize("res,dim", [(5, 3), (7, 2)])
    def test_gradient_matches_directional_derivative(self, res, dim):
        dens, state, man = _elastic_toy(res=5)
        if dim == 2:
            grid = Grid.cube(7, dim=2)
            state = identity_state(grid, man, nu0=np.zeros(3))
            rng = np.random.default_rng(1)
            state.u = state.u + 0.02 * rng.normal(size=state.u.shape)
            state.u[..., 2] = 0.0
            state.nu = state.nu + 0.1 * rng.normal(size=state.nu.shape)
        g_u, g_nu = riesz_gradient(dens, state, man, project=False)
        vols = node_volumes(state.grid, state.active)
        rng = np.random.default_rng(3)
        h_u = rng.normal(size=state.u.shape)
        h_nu = rng.normal(size=state.nu.shape)
        if dim == 2:
            h_u[..., 2] = 0.0
        t = 1e-6
        plus, minus = state.copy(), state.copy()
        plus.u = state.u + t * h_u
        plus.nu = state.nu + t * h_nu
        minus.u = state.u - t * h_u
        minus.nu = state.nu - t * h_nu
        fd = (total_energy(dens, plus) - total_energy(dens, minus)) / (2 * t)
        pairing = float(
            np.sum(g_u * h_u * vols[..., None]) + np.sum(g_nu * h_nu * vols[..., None])
        )
        assert fd == pytest.approx(pairing, rel=1e-6, abs=1e-10)

    def test_projected_gradient_zero_on_pinned(self):
        dens, state, man = _elastic_toy()
        g_u, g_nu = riesz_gradient(dens, state, man)
        assert np.all(g_u[state.pinned_u] == 0.0)
        assert np.all(g_nu[state.pinned_nu] == 0.0)

    def test_sphere_gradient_is_tangent(self):
        dens, state, man = _hedgehog_problem(res=6)
        _, g_nu = riesz_gradient(dens, state, man)
        dots = np.einsum("...a,...a->...", g_nu, state.nu)
        assert np.max(np.abs(dots)) < 1e-12


class TestDescent:
    def test_elastic_relaxation_converges(self):
        dens, state, man = _elastic_toy()
        e0 = total_energy(dens, state)
        res = minimize(dens, state, man, MinimizeConfig(max_iters=2000, grad_tol=1e-9))
        assert isinstance(res, MinimizeResult)
        assert res.converged, res.message
        assert res.energy < 1e-8 * e0
        d = np.diff(res.trace[:, 0])
        assert np.all(d <= 0.0)

    def test_hedgehog_descent_monotone_on_sphere(self):
        dens, state, man = _hedgehog_problem(res=8)
        res = minimize(dens, state, man, MinimizeConfig(max_iters=60, grad_tol=1e-10))
        assert np.all(np.diff(res.trace[:, 0]) <= 0.0)
        assert res.state.constraint_violation(man) < 1e-12
        assert res.energy < total_energy(dens, state)

    def test_pinned_values_never_move(self):
        dens, state, man = _elastic_toy()
        before_u = state.u[state.pinned_u].copy()
        before_nu = state.nu[state.pinned_nu].copy()
        res = minimize(dens, state, man, MinimizeConfig(max_iters=50))
        assert np.array_equal(res.state.u[state.pinned_u], before_u)
        assert np.array_equal(res.state.nu[state.pinned_nu], before_nu)

    def test_bitwise_determinism(self):
        dens, state, man = _elastic_toy(seed=4)
        cfg = MinimizeConfig(max_iters=40)
        r1 = minimize(dens, state, man, cfg)
        r2 = minimize(dens, state, man, cfg)
        assert np.array_equal(r1.state.u, r2.state.u)
        assert np.array_equal(r1.state.nu, r2.state.nu)
        assert np.array_equal(r1.trace, r2.trace)
        assert r1.energy == r2.energy

    def test_input_state_not_mutated(self):
        dens, state, man = _elastic_toy()
        u0 = state.u.copy()
        minimize(dens, state, man, MinimizeConfig(max_iters=10))
        assert np.array_equal(state.u, u0)

    @pytest.mark.parametrize("mode", ["u-only", "nu-only", "alternate"])
    def test_block_modes_descend(self, mode):
        dens, state, man = _elastic_toy()
        e0 = total_energy(dens, state)
        res = minimize(dens, state, man, MinimizeConfig(max_iters=80, block_mode=mode))
        assert res.energy < e0
        assert np.all(np.diff(res.trace[:, 0]) <= 0.0)
        if mode == "u-only":
            assert np.array_equal(res.state.nu, state.nu)
        if mode == "nu-only":
            assert np.array_equal(res.state.u, state.u)


class TestBarrier:
    def test_barrier_rejections_counted(self):
        grid = Grid.cube(5, dim=3)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        rng = np.random.default_rng(2)
        state.u = state.u + 0.01 * rng.normal(size=state.u.shape)
        dens = CompressibleMacro(1.0, 1.0, 1.0)
        cfg = MinimizeConfig(max_iters=15, step0=50.0, bb_steps=False)
        res = minimize(dens, state, man, cfg)
        assert res.barrier_rejects > 0
        assert np.all(np.diff(res.trace[:, 0]) <= 0.0)

    def test_inadmissible_start_raises(self):
        grid = Grid.cube(4, dim=3)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        state.u[..., 0] *= -1.0
        dens = make_quasicrystal()
        with pytest.raises(InadmissibleStartError):
            minimize(dens, state, man)

    def test_config_validation(self):
        nan, inf = float("nan"), float("inf")
        for bad in (
            {"block_mode": "both"},
            {"backtrack": 1.5},
            {"step0": -1.0},
            {"grad_tol": nan},
            {"grad_tol": -1e-6},
            {"energy_tol": inf},
            {"energy_tol": -1.0},
            {"armijo_c": nan},
            {"step_max": 0.0},
            {"step_max": inf},
            {"max_iters": -5},
            {"log_every": -1},
            {"max_backtracks": 0},
        ):
            with pytest.raises(ConfigError):
                MinimizeConfig(**bad)
