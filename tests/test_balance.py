"""Balance-law oracles.

Weak residuals are checked against central finite differences of the total
energy and against exact duality with the assembled gradient.  That
gradient, read on interior nodes, is the nodal residual of the strong
form; manufactured states whose discrete equilibrium is exact make it
vanish (quadratic fields are differentiated exactly by the corner stencils).
The rotational balance is validated on densities whose invariance is an
algebraic identity, and falsified on a deliberately anchored one.
"""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from complexbodies import balance, fields
from complexbodies.balance import (
    Residual,
    _bump,
    ResidualReport,
    assemble_actions,
    configurational_residual,
    eshelby,
    random_compact_tests,
    rotational_balance,
    weak_el_residual,
)
from complexbodies.energy import (
    CompressibleMacro,
    ComponentDoubleWell,
    DeadLoad,
    DirichletDescriptor,
    EasyAxisAnchoring,
    ExternalFieldCoupling,
    GinzburgLandau,
    QuadraticVector,
    Quasicrystal,
    SumDensity,
    isotropic_elasticity,
    total_energy,
)
from complexbodies.errors import GeneratorUnavailableError, NonTangentTestError, ShapeMismatchError
from complexbodies.fields import (
    GradientField,
    Grid,
    ball_mask,
    boundary_node_mask,
    cell_average,
    cell_gradient,
    gradients,
    identity_state,
    integrate_cells,
    interior_node_mask,
    node_volumes,
)
from complexbodies.manifolds import (
    Euclidean,
    Interval,
    Product,
    UnitSphere,
    rotation_from_vector,
)
from complexbodies.minimize import riesz_gradient
from complexbodies import scenarios
from complexbodies.scenarios import N_TESTS, ScenarioConfig, _weak_el_rows
from util import residual_rows

# an overflow or an invalid operation inside a balance fails the test
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _sphere_state(res=8, bulge=0.04):
    """Smooth unit-director state with a gently deformed placement."""
    grid = Grid.cube(res, -0.5, 0.5)
    man = UnitSphere()
    state = identity_state(grid, man, nu0=[0.0, 0.0, 1.0])
    c = grid.node_coords()
    raw = np.stack(
        [
            0.4 * np.sin(2.0 * c[..., 0]) + 0.1 * c[..., 1],
            0.3 * np.cos(3.0 * c[..., 1]) - 0.2 * c[..., 2],
            1.0 + 0.3 * c[..., 2],
        ],
        axis=-1,
    )
    state.nu = man.project(raw)
    state.u = state.u + bulge * np.stack(
        [
            np.sin(np.pi * c[..., 0]) * np.cos(np.pi * c[..., 1]),
            np.sin(np.pi * c[..., 1]) * np.cos(np.pi * c[..., 2]),
            np.sin(np.pi * c[..., 2]) * np.cos(np.pi * c[..., 0]),
        ],
        axis=-1,
    )
    bdry = boundary_node_mask(grid, state.active)
    state.pinned_u = bdry.copy()
    state.pinned_nu = bdry.copy()
    return state, man


def _phason_state(res=8):
    """Euclidean 3-vector descriptor with smooth content, for macro tests."""
    grid = Grid.cube(res, -0.5, 0.5)
    man = Euclidean(3)
    state = identity_state(grid, man, nu0=[0.0, 0.0, 0.0])
    c = grid.node_coords()
    state.nu = 0.3 * np.stack(
        [
            np.sin(2.0 * c[..., 0] + c[..., 1]),
            np.cos(c[..., 1] - c[..., 2]),
            c[..., 0] * c[..., 2],
        ],
        axis=-1,
    )
    state.u = state.u + 0.03 * np.stack(
        [c[..., 1] ** 2, c[..., 2] ** 2, c[..., 0] ** 2], axis=-1
    )
    bdry = boundary_node_mask(grid, state.active)
    state.pinned_u = bdry.copy()
    state.pinned_nu = bdry.copy()
    return state, man


def _sphere_density():
    return SumDensity(
        [
            DirichletDescriptor(3),
            EasyAxisAnchoring([0.0, 0.0, 1.0], weight=0.4),
            ExternalFieldCoupling([0.3, -0.1, 0.5]),
            DeadLoad([0.1, 0.0, -0.3]),
        ]
    )


def _phason_density():
    return SumDensity(
        [
            CompressibleMacro(1.0, 0.7, 1.4, embed_dim=3),
            DirichletDescriptor(embed_dim=3, name="phason-gradient"),
            DeadLoad([0.0, 0.2, -0.1]),
        ]
    )


def _built(builders):
    return [build() for build in builders]


def _rows(bf, hs, us):
    """weak_el_residual of every pair, in order."""
    return [weak_el_residual(bf, h, ups, k) for k, (h, ups) in enumerate(zip(hs, us))]


def _pairing(state, g, test):
    g_u, g_nu = g
    h, ups = test
    vols = node_volumes(state.grid, state.active)
    return float(np.sum(g_u * h * vols[..., None]) + np.sum(g_nu * ups * vols[..., None]))


class TestAssembly:
    def test_action_split_internal_external(self):
        state, man = _sphere_state()
        h_field = np.array([0.3, -0.1, 0.5])
        density = SumDensity(
            [DirichletDescriptor(3), ExternalFieldCoupling(h_field), DeadLoad([0.1, 0.0, -0.3])]
        )
        bf = assemble_actions(density, state, man)
        args = tuple(bf.gf)
        # the dead load's u-partial is minus its load, kept with its own sign
        assert list(bf.actions) == ["u", "nu", "N"]
        assert np.allclose(bf.actions["u"], -np.array([0.1, 0.0, -0.3]), atol=0)
        # the net action is the density's descriptor partial, the external
        # coupling's -h included
        assert density.parts[1].external
        assert np.array_equal(bf.actions["nu"], density.d_nu(*args))
        assert np.allclose(bf.actions["nu"], -h_field, atol=0)

    def test_unread_slots_have_no_action(self):
        # the density reads neither F nor u: they have no action, and the
        # weak rows equal those of explicit zero arrays for them
        state, man = _sphere_state()
        density = SumDensity([DirichletDescriptor(3), EasyAxisAnchoring([0.0, 0.0, 1.0], 0.4)])
        bf = assemble_actions(density, state, man)
        assert list(bf.actions) == ["nu", "N"]
        cells = state.grid.cells
        full = replace(bf, actions={"u": np.zeros(cells + (3,)), "F": np.zeros(cells + (3, 3)),
                                    **bf.actions})
        hs = _built(random_compact_tests(state, 4, 3, seed=2))
        us = _built(random_compact_tests(state, 4, 3, seed=3, manifold=man))
        rows = _rows(bf, hs, us)
        assert all(r.raw != 0.0 for r in rows)
        assert rows == _rows(full, hs, us)

    def test_actions_match_density_partials(self):
        state, man = _sphere_state()
        density = _sphere_density()
        bf = assemble_actions(density, state, man)
        gf = bf.gf
        # the property gathers the whole grid's kinematics anew, bit for bit
        assert all(np.array_equal(a, b) for a, b in zip(gf, gradients(state), strict=True))
        args = tuple(gf)
        assert list(bf.actions) == [s for s in ("u", "F", "nu", "N") if s in density.reads]
        for slot, action in bf.actions.items():
            assert np.array_equal(action, getattr(density, "d_" + slot)(*args))
        # the energy and its x-partial are read from the density when the
        # configurational balance runs
        PP = density.eval(*args)[..., None, None] * np.eye(3)
        PP = PP - np.einsum("...ki,...kj->...ij", gf.F, density.d_F(*args))
        PP = PP - np.einsum("...ai,...aj->...ij", gf.N, density.d_N(*args))
        assert np.array_equal(eshelby(bf, gf), PP)
        phi = random_compact_tests(state, 1, 3, seed=3)[0]()
        t2 = np.einsum("...i,...i->...", density.d_x(*args), cell_average(phi, state.grid))
        t1 = np.einsum("...ij,...ij->...", PP, cell_gradient(phi, state.grid))
        res = configurational_residual(bf, [phi])[0]
        assert res.raw == integrate_cells(t1 + t2, state.grid, state.active)


def _per_node_compact_tests(state, n, components, seed=0, manifold=None):
    """random_compact_tests evaluated on the full node_coords array per test."""
    grid = state.grid
    rng = np.random.default_rng(seed)
    coords = grid.node_coords()
    lo = np.asarray(grid.lo)
    hi = np.asarray(grid.hi)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    interior = interior_node_mask(grid, state.active, margin=balance.TEST_MARGIN)
    out = []
    for _ in range(n):
        center = mid + (rng.uniform(-0.4, 0.4, size=grid.dim)) * half
        width = rng.uniform(0.15, 0.45) * float(np.min(half))
        pol = rng.normal(size=components)
        phase = rng.uniform(0, 2 * np.pi, size=grid.dim)
        freq = rng.uniform(1.0, 3.0, size=grid.dim)
        r2 = np.zeros(grid.nodes)
        wave = np.ones(grid.nodes)
        for ax in range(grid.dim):
            xi = (coords[..., ax] - center[ax]) / width
            r2 = r2 + xi**2
            wave = wave * np.cos(freq[ax] * np.pi * (coords[..., ax] - lo[ax]) / (2 * half[ax]) + phase[ax])
        envelope = np.exp(-r2)
        shell = np.ones(grid.nodes)
        for ax in range(grid.dim):
            xi = (coords[..., ax] - mid[ax]) / half[ax]
            shell = shell * _bump(xi)
        profile = envelope * wave * shell
        f = profile[..., None] * pol
        f = np.where(interior[..., None], f, 0.0)
        if manifold is not None:
            f = manifold.tangent_project(state.nu, f)
            f[state.pinned_nu] = 0.0
        else:
            f[state.pinned_u] = 0.0
        out.append(f)
    return out


class TestRandomTests:
    @pytest.mark.parametrize("body", ["box", "ball"])
    @pytest.mark.parametrize("on_manifold", [False, True])
    def test_separable_profiles_match_per_node_reference(self, body, on_manifold):
        state, man = _sphere_state(res=9)
        if body == "ball":
            state.active = ball_mask(state.grid, radius=0.45)
        rim = boundary_node_mask(state.grid, state.active)
        state.pinned_u = rim.copy()
        state.pinned_nu = rim & (state.grid.node_coords()[..., 0] < 0.2)
        components = man.embed_dim if on_manifold else 3
        kw = dict(seed=17, manifold=man if on_manifold else None)
        fast = _built(random_compact_tests(state, 6, components, **kw))
        slow = _per_node_compact_tests(state, 6, components, **kw)
        for f, g in zip(fast, slow, strict=True):
            assert np.array_equal(f, g)
            assert np.any(f != 0.0)

    def test_compact_support_and_tangency(self):
        state, man = _sphere_state()
        fields = _built(random_compact_tests(state, 4, 3, seed=5, manifold=man))
        inside = interior_node_mask(state.grid, state.active, margin=balance.TEST_MARGIN)
        for f in fields:
            assert f.shape == state.nu.shape
            assert np.all(f[~inside] == 0.0)
            drift = f - man.tangent_project(state.nu, f)
            assert np.max(np.abs(drift)) < 1e-13
            assert np.max(np.abs(f)) > 0

    def test_deterministic_and_distinct(self):
        state, _ = _sphere_state()
        a = _built(random_compact_tests(state, 3, 3, seed=9))
        b = random_compact_tests(state, 3, 3, seed=9)
        # a builder gives the same field in any order and on every call
        for fa, build in reversed(list(zip(a, b))):
            assert np.array_equal(fa, build())
            assert np.array_equal(fa, build())
        assert not np.array_equal(a[0], a[1])


class TestWeakResidual:
    @pytest.mark.parametrize(
        "make_state,make_density",
        [(_sphere_state, _sphere_density), (_phason_state, _phason_density)],
        ids=["director", "phason"],
    )
    def test_matches_energy_directional_derivative(self, make_state, make_density):
        state, man = make_state()
        density = make_density()
        bf = assemble_actions(density, state, man)
        hs = _built(random_compact_tests(state, 3, 3, seed=21))
        us = _built(random_compact_tests(state, 3, man.embed_dim, seed=22, manifold=man))
        residuals = _rows(bf, hs, us)
        t = 1e-6
        for res, h, ups in zip(residuals, hs, us):
            plus = state.copy()
            plus.u = state.u + t * h
            plus.nu = state.nu + t * ups
            minus = state.copy()
            minus.u = state.u - t * h
            minus.nu = state.nu - t * ups
            fd = (total_energy(density, plus) - total_energy(density, minus)) / (2 * t)
            denom = max(abs(res.raw), abs(fd), 1e-10 * (1.0 + res.scale))
            assert abs(res.raw - fd) / denom < 2e-5, f"{res.name}: {res.raw} vs {fd}"

    @pytest.mark.parametrize(
        "make_state,make_density",
        [(_sphere_state, _sphere_density), (_phason_state, _phason_density)],
        ids=["director", "phason"],
    )
    def test_duality_with_assembled_gradient(self, make_state, make_density):
        state, man = make_state()
        density = make_density()
        bf = assemble_actions(density, state, man)
        hs = _built(random_compact_tests(state, 4, 3, seed=31))
        us = _built(random_compact_tests(state, 4, man.embed_dim, seed=32, manifold=man))
        residuals = _rows(bf, hs, us)
        g = riesz_gradient(density, state, man)
        for res, h, ups in zip(residuals, hs, us):
            pair = _pairing(state, g, (h, ups))
            assert abs(res.raw - pair) <= 1e-12 * (1.0 + res.scale), res.name

    def test_converged_minimizer_has_tiny_ratios(self):
        from complexbodies.fields import pin
        from complexbodies.minimize import MinimizeConfig, minimize

        grid = Grid.cube(6)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        bdry = boundary_node_mask(grid, state.active)
        shear = np.eye(3) + np.array([[0.0, 0.15, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        pin(state, "u", bdry, np.einsum("ij,...j->...i", shear, grid.node_coords()))
        pin(state, "nu", bdry, np.broadcast_to([0.4, 0.0, 0.0], state.nu.shape), man)
        rng = np.random.default_rng(2)
        bump = 0.05 * rng.normal(size=state.u.shape)
        bump[state.pinned_u] = 0.0
        state.u = state.u + bump
        density = QuadraticVector(
            C=isotropic_elasticity(1.0, 1.0),
            A3=0.5 * np.eye(3),
            A5=np.einsum("ac,ij->aicj", np.eye(3), np.eye(3)),
        )
        out = minimize(
            density, state, man, MinimizeConfig(max_iters=3000, grad_tol=2e-8)
        )
        assert out.converged
        bf = assemble_actions(density, out.state, man)
        hs = _built(random_compact_tests(out.state, 20, 3, seed=41))
        us = _built(random_compact_tests(out.state, 20, 3, seed=42, manifold=man))
        residuals = _rows(bf, hs, us)
        worst = max(r.ratio for r in residuals)
        assert worst < 1e-6, worst

    def test_rejects_non_tangent_variation(self):
        state, man = _sphere_state()
        bf = assemble_actions(DirichletDescriptor(3), state, man)
        h = np.zeros(state.u.shape)
        bad = np.ones(state.nu.shape)  # radial component survives
        with pytest.raises(NonTangentTestError, match="test 4:"):
            weak_el_residual(bf, h, bad, 4)

    def test_rejects_wrong_shapes(self):
        state, man = _sphere_state()
        bf = assemble_actions(DirichletDescriptor(3), state, man)
        with pytest.raises(ShapeMismatchError):
            weak_el_residual(bf, np.zeros((2, 2, 2, 3)), np.zeros(state.nu.shape))

    def test_zero_over_zero_ratio_is_zero(self):
        assert Residual("r", 0.0, 0.0).ratio == 0.0
        assert Residual("r", 1.0, 0.0).ratio == np.inf
        assert Residual("r", -0.5, 2.0).ratio == 0.25


def _list_weak_el_rows(seed, state, density, man, bf):
    """_weak_el_rows serially, with every test field built before the first residual."""
    hs = _built(random_compact_tests(state, N_TESTS, 3, seed=seed + 11))
    us = _built(random_compact_tests(state, N_TESTS, state.embed_dim, seed=seed + 12,
                                     manifold=man))
    pairs = list(zip(hs, us))
    rows = _rows(bf, hs, us)
    vols = node_volumes(state.grid, state.active)
    g_u, g_nu = riesz_gradient(density, state, man, vols=vols)
    w = vols[..., None]
    dual = [
        Residual(name=f"duality[{k}]",
                 raw=r.raw - float(np.sum(g_u * h * w) + np.sum(g_nu * ups * w)),
                 scale=1.0 + r.scale)
        for k, ((h, ups), r) in enumerate(zip(pairs, rows))
    ]
    return rows, dual


def _pooled_weak_el_rows(seed, state, density, man, bf):
    """_weak_el_rows with the gradient that _run_checks hands it."""
    vols = node_volumes(state.grid, state.active)
    g_u, g_nu = riesz_gradient(density, state, man, vols=vols)
    return _weak_el_rows(ScenarioConfig(name="stream", seed=seed), bf, g_u, g_nu, vols)


def _ball_sphere_case():
    state, man = _sphere_state(res=10)
    state.active = ball_mask(state.grid, radius=0.45)
    state.pinned_u = state.pinned_nu = boundary_node_mask(state.grid, state.active)
    return state, man, _sphere_density()


def _whole_grid_actions(density, state):
    """assemble_actions' arrays, taken on the whole grid at once."""
    gf = gradients(state)
    return {s: getattr(density, "d_" + s)(*gf) for s in ("u", "F", "nu", "N")
            if s in density.reads}


def _whole_grid_weak_el(bf, h, ups):
    """weak_el_residual's raw and scale, taken on the whole grid at once;
    an unread slot's term is taken with a zero array."""
    grid, act = bf.state.grid, bf.state.active
    d = {s: bf.actions.get(s, np.zeros(grid.cells + shape)) for s, shape in
         (("u", (3,)), ("F", (3, 3)), ("nu", ups.shape[-1:]), ("N", ups.shape[-1:] + (3,)))}
    t1 = np.einsum("...i,...i->...", d["u"], cell_average(h, grid))
    t2 = np.einsum("...ij,...ij->...", d["F"], cell_gradient(h, grid))
    t3 = np.einsum("...a,...a->...", d["nu"], cell_average(ups, grid))
    t4 = np.einsum("...ai,...ai->...", d["N"], cell_gradient(ups, grid))
    return (integrate_cells(t1 + t2 + t3 + t4, grid, act),
            integrate_cells(np.abs(t1) + np.abs(t2) + np.abs(t3) + np.abs(t4), grid, act))


class TestOneRowSlabs:
    @pytest.mark.parametrize("body", ["ball", "box"])
    def test_actions_and_weak_residual_equal_the_whole_grid(self, body, monkeypatch):
        monkeypatch.setattr(fields, "SLAB_CELLS", 1)
        if body == "ball":
            state, man, density = _ball_sphere_case()
        else:
            state, man = _phason_state(res=10)
            density = _phason_density()
        assert len(state.grid.slabs) == state.grid.cells[0]
        bf = assemble_actions(density, state, man)
        want = _whole_grid_actions(density, state)
        assert list(bf.actions) == list(want)
        assert all(np.array_equal(bf.actions[s], want[s]) for s in want)
        hs = _built(random_compact_tests(state, 4, 3, seed=2))
        us = _built(random_compact_tests(state, 4, state.embed_dim, seed=3, manifold=man))
        for k, (h, ups) in enumerate(zip(hs, us)):
            r = weak_el_residual(bf, h, ups, k)
            assert r.raw != 0.0 and (r.raw, r.scale) == _whole_grid_weak_el(bf, h, ups)


class TestStreamedWeakEL:
    @pytest.mark.parametrize("body", ["ball", "box"])
    def test_rows_equal_list_reference(self, body, monkeypatch):
        if body == "ball":
            state, man, density = _ball_sphere_case()
        else:
            state, man = _phason_state(res=10)
            density = _phason_density()
        bf = assemble_actions(density, state, man)
        ref_rows, ref_dual = _list_weak_el_rows(5, state, density, man, bf)
        # the pairs run on the calling thread alone and beside one worker, switching
        # threads often, so a write to shared state would show in the rows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for cores in (1, 2):
                monkeypatch.setattr(scenarios, "_usable_cores", lambda cores=cores: cores)
                rows, dual = _pooled_weak_el_rows(5, state, density, man, bf)
                assert len(rows) == len(dual) == N_TESTS
                assert rows == ref_rows
                assert dual == ref_dual
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_first_non_tangent_pair_raises_as_serially(self, cores, monkeypatch):
        state, man, density = _ball_sphere_case()
        bf = assemble_actions(density, state, man)
        draw = scenarios.random_compact_tests

        def radial_at_3_and_5(final, n, components, manifold=None, **kw):
            builders = draw(final, n, components, manifold=manifold, **kw)
            if manifold is not None:
                for k in (3, 5):
                    builders[k] = lambda b=builders[k]: b() + final.nu
            return builders

        monkeypatch.setattr(scenarios, "random_compact_tests", radial_at_3_and_5)
        hs = _built(radial_at_3_and_5(state, N_TESTS, 3, seed=16))
        us = _built(radial_at_3_and_5(state, N_TESTS, 3, seed=17, manifold=man))
        with pytest.raises(NonTangentTestError) as serial:
            _rows(bf, hs, us)
        assert str(serial.value).startswith("test 3:")
        monkeypatch.setattr(scenarios, "_usable_cores", lambda: cores)
        with pytest.raises(NonTangentTestError) as pooled:
            _pooled_weak_el_rows(5, state, density, man, bf)
        assert str(pooled.value) == str(serial.value)

    def test_peak_memory_below_the_held_fields(self):
        state, man = _phason_state(res=24)
        density = Quasicrystal()
        bf = assemble_actions(density, state, man)
        config = ScenarioConfig(name="stream", seed=3)
        vols = node_volumes(state.grid, state.active)
        g_u, g_nu = riesz_gradient(density, state, man, vols=vols)
        field_bytes = state.u.nbytes + state.nu.nbytes
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            _weak_el_rows(config, bf, g_u, g_nu, vols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # holding all N_TESTS pairs at once would alone exceed the bound
        assert peak - entry < N_TESTS * field_bytes, (peak - entry) / state.u.nbytes


def _interior_sup(g, state):
    """Sup norm of a nodal field over the nodes one cell inside the body,
    where the Riesz gradient is a pointwise residual of the strong form."""
    inside = interior_node_mask(state.grid, state.active, margin=1)
    assert inside.any()
    return float(np.max(np.linalg.norm(g[inside], axis=-1)))


class TestInteriorRieszGradient:
    """On interior nodes the Riesz gradient is -(Div P + b) for the placement
    and -(Div S - zeta), tangent-projected, for the descriptor."""

    def test_manufactured_elastic_equilibrium_is_exact(self):
        # u_i = x_i + a_i x_i^2 gives P linear in x; the corner stencils
        # differentiate quadratics exactly, so Div P + b vanishes to round-off
        lam, mu = 1.3, 0.8
        alpha = np.array([0.03, -0.02, 0.04])
        force = -(2.0 * lam + 4.0 * mu) * alpha
        elastic = QuadraticVector(C=isotropic_elasticity(lam, mu))
        load = DeadLoad(force, embed_dim=3)
        grid = Grid.cube(10)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        c = grid.node_coords()
        state.u = state.u + alpha * c**2
        g_u, _ = riesz_gradient(SumDensity([elastic, load]), state, man)
        # each term alone is far from zero, so the balance is not vacuous
        div_p = _interior_sup(riesz_gradient(elastic, state, man)[0], state)
        b = _interior_sup(riesz_gradient(load, state, man)[0], state)
        assert div_p > 0.01 and b > 0.01
        assert _interior_sup(g_u, state) < 1e-12 * (div_p + b)

    def test_manufactured_descriptor_equilibrium_is_exact(self):
        # Div S = 2c against a constant external action: exact balance when
        # nu = c x_1^2 and zeta = -h with c = -h/2
        h_field = np.array([0.4, -0.6, 1.0])
        gradient = DirichletDescriptor(embed_dim=3)
        coupling = ExternalFieldCoupling(h_field)
        grid = Grid.cube(9)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        c = grid.node_coords()
        state.nu = (-0.5 * h_field) * c[..., :1] ** 2
        _, g_nu = riesz_gradient(SumDensity([gradient, coupling]), state, man)
        div_s = _interior_sup(riesz_gradient(gradient, state, man)[1], state)
        zeta = _interior_sup(riesz_gradient(coupling, state, man)[1], state)
        assert div_s > 0.5 and zeta > 0.5
        assert _interior_sup(g_nu, state) < 1e-12 * (div_s + zeta)

    def test_uniform_stress_no_load_is_silent(self):
        grid = Grid.cube(6)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        shear = np.zeros((3, 3))
        shear[0, 1] = 0.2
        state.u = state.u + np.einsum("ij,...j->...i", shear, grid.node_coords())
        density = QuadraticVector(C=isotropic_elasticity(1.0, 1.0))
        g_u, g_nu = riesz_gradient(density, state, man)
        assert _interior_sup(g_u, state) < 1e-13
        assert _interior_sup(g_nu, state) < 1e-13

    def test_rough_state_reports_nonzero_interior_residual(self):
        state, man = _sphere_state()
        rng = np.random.default_rng(4)
        state.nu = man.project(state.nu + 0.3 * rng.normal(size=state.nu.shape))
        _, g_nu = riesz_gradient(DirichletDescriptor(3), state, man)
        assert _interior_sup(g_nu, state) > 1e-3
        # the nodal capriz residual is tangent at the director
        inside = interior_node_mask(state.grid, state.active, margin=1)
        dot = np.einsum("...a,...a->...", g_nu, state.nu)
        assert np.max(np.abs(dot[inside])) < 1e-12 * (1.0 + np.max(np.abs(g_nu)))


# the samples of the scenarios' rotational check
_SAMPLES = scenarios.GROWTH_SAMPLES


def _objective_director_density():
    return SumDensity(
        [CompressibleMacro(1.0, 0.7, 1.4, embed_dim=3), DirichletDescriptor(3)]
    )


def _anchored_director_density():
    return SumDensity(
        [DirichletDescriptor(3), EasyAxisAnchoring([0.0, 0.0, 1.0], weight=0.8)]
    )


class TestRotationalBalance:
    def test_objective_director_density_closes(self):
        res = rotational_balance(_objective_director_density(), UnitSphere(), _SAMPLES, 7)
        assert res.ratio < 1e-12, res

    def test_objective_phason_coupling_cancels(self):
        density = Quasicrystal(
            macro=CompressibleMacro(0.5, 0.5, 1.0),
            phason_stiffness=1.0,
            coupling=0.05 * np.einsum("ia,jk->ijak", np.eye(3), np.eye(3)),
        )
        res = rotational_balance(density, Euclidean(3), _SAMPLES, 7)
        assert res.ratio < 1e-10, res

    def test_product_descriptor_with_inert_factor_closes(self):
        man = Product(UnitSphere(), Interval(0.0, 1.0))
        density = SumDensity(
            [
                DirichletDescriptor(embed_dim=4, name="orientation-gradient"),
                GinzburgLandau(
                    ComponentDoubleWell(0.9, 0.0, 1.0, component=3), 0.7, embed_dim=4
                ),
            ]
        )
        res = rotational_balance(density, man, _SAMPLES, 7)
        assert res.ratio < 1e-12, res

    def test_anchoring_breaks_the_balance(self):
        res = rotational_balance(_anchored_director_density(), UnitSphere(), _SAMPLES, 7)
        assert res.ratio > 0.1, res

    @pytest.mark.parametrize("make_density", [_objective_director_density,
                                              _anchored_director_density],
                             ids=["objective", "anchored"])
    def test_external_parts_leave_the_ratio_unchanged(self, make_density):
        # an applied load need not be objective: the balance reads the
        # internal parts only, though the coupling's -h would unbalance it
        density = make_density()
        loaded = SumDensity(density.parts + [ExternalFieldCoupling([0.3, -0.1, 0.5]),
                                             DeadLoad([0.1, 0.0, -0.3])])
        res = rotational_balance(density, UnitSphere(), _SAMPLES, 7)
        assert rotational_balance(loaded, UnitSphere(), _SAMPLES, 7) == res
        internal = SumDensity(density.parts + [EasyAxisAnchoring([0.3, -0.1, 0.5], 1.0)])
        assert rotational_balance(internal, UnitSphere(), _SAMPLES, 7).ratio > 0.1

    def test_worst_sample_is_reported(self, monkeypatch):
        # a large balanced sample beside a small unbalanced one: one sup
        # over the batch would divide the small residual by the large scale
        rng = np.random.default_rng(0)
        big = GradientField(x=np.zeros((1, 3)), u_bar=np.zeros((1, 3)), F=3.0 * np.eye(3)[None],
                            nu_bar=np.array([[0.0, 0.0, 1.0]]),
                            N=100.0 * rng.normal(size=(1, 3, 3)))
        small = GradientField(x=np.zeros((1, 3)), u_bar=np.zeros((1, 3)), F=np.eye(3)[None],
                              nu_bar=np.array([[0.6, 0.0, 0.8]]),
                              N=0.01 * rng.normal(size=(1, 3, 3)))
        both = GradientField(*map(np.concatenate, zip(big, small)))

        def residual(batch):
            monkeypatch.setattr(balance, "sample_states", lambda rng, n, embed_dim: batch)
            return rotational_balance(_anchored_director_density(), UnitSphere(), len(batch.F), 0)

        assert residual(big).ratio < 1e-12
        worst = residual(both)
        assert worst == residual(small)
        assert worst.ratio > 0.1
        assert worst.raw / residual(big).scale < 1e-3

    @pytest.mark.parametrize("name", ["nematic-hedgehog", "degree-of-orientation",
                                      "quasicrystal-shear"])
    def test_preset_row_does_not_depend_on_the_grid(self, name, tmp_path):
        rows = []
        for resolution in (6, 8):
            cfg = replace(scenarios.preset_config(name), resolution=resolution,
                          checks={"rotational": True})
            result = scenarios.run(cfg, out_dir=tmp_path / str(resolution))
            rows.append([r for r in residual_rows(result.out_dir) if r[0] == "rotational"])
            assert [(o.name, o.passed) for o in result.outcomes] == [("rotational", True)]
        assert len(rows[0]) == 1 and rows[0] == rows[1]

    def test_matches_finite_rotation_invariance(self):
        # the density that closes the balance is also invariant under a
        # finite simultaneous rotation of placement and director
        state, man = _sphere_state()
        density = _objective_director_density()
        e0 = total_energy(density, state)
        R = rotation_from_vector(np.array([0.4, -0.3, 0.7]))
        rotated = state.copy()
        rotated.u = np.einsum("ij,...j->...i", R, state.u)
        rotated.nu = np.einsum("ij,...j->...i", R, state.nu)
        e1 = total_energy(density, rotated)
        assert abs(e1 - e0) < 1e-12 * (1.0 + abs(e0))

    def test_missing_generator_raises(self):
        with pytest.raises(GeneratorUnavailableError):
            rotational_balance(DirichletDescriptor(embed_dim=1), Interval(0.0, 1.0),
                               _SAMPLES, 7)


class TestEshelbyAndConfigurational:
    def test_dirichlet_closed_form(self):
        state, man = _sphere_state()
        bf = assemble_actions(DirichletDescriptor(3), state, man)
        gf = bf.gf
        PP = eshelby(bf, gf)
        N = gf.N
        n2 = np.einsum("...ai,...ai->...", N, N)
        expected = 0.5 * n2[..., None, None] * np.eye(3) - np.einsum(
            "...ai,...aj->...ij", N, N
        )
        assert np.max(np.abs(PP - expected)) < 1e-13 * (1.0 + np.max(np.abs(expected)))
        trace = np.einsum("...ii->...", PP)
        assert np.max(np.abs(trace - 0.5 * n2)) < 1e-13 * (1.0 + np.max(n2))

    def test_constant_energy_momentum_telescopes_to_zero(self):
        grid = Grid.cube(8)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        c = grid.node_coords()
        B = np.array([[0.3, 0.1, 0.0], [0.0, -0.2, 0.4], [0.1, 0.0, 0.2]])
        state.nu = np.einsum("ab,...b->...a", B, c)
        state.u = state.u + 0.04 * c[..., ::-1]
        density = SumDensity(
            [CompressibleMacro(1.0, 0.7, 1.4, embed_dim=3), DirichletDescriptor(embed_dim=3)]
        )
        bf = assemble_actions(density, state, man)
        PP = eshelby(bf, bf.gf)
        assert np.max(np.std(PP.reshape(-1, 9), axis=0)) < 1e-13
        tests = _built(random_compact_tests(state, 3, 3, seed=7))
        for res in configurational_residual(bf, tests):
            assert abs(res.raw) <= 1e-12 * (1.0 + res.scale), res.name

    def test_affine_test_gives_closed_form(self):
        # an affine placement gives a constant PP, which against an affine
        # phi collapses the integral to PP : G times the unit volume
        grid = Grid.cube(8)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        A = np.array([[1.1, 0.05, 0.0], [0.0, 0.95, 0.1], [0.02, 0.0, 1.05]])
        state.u = np.einsum("ij,...j->...i", A, state.u)
        density = CompressibleMacro(1.0, 0.7, 1.4, embed_dim=3)
        bf = assemble_actions(density, state, man)
        PP = eshelby(bf, bf.gf)
        G = np.array([[0.2, -0.1, 0.0], [0.3, 0.1, 0.4], [0.0, 0.2, -0.3]])
        phi = np.einsum("ij,...j->...i", G, grid.node_coords()) + np.array([0.1, 0.0, -0.2])
        res = configurational_residual(bf, [phi])[0]
        assert res.name == "configurational[0]"
        assert np.max(np.std(PP.reshape(-1, 9), axis=0)) < 1e-13
        expected = float(np.einsum("ij,ij->", PP[0, 0, 0], G))
        assert np.isclose(res.raw, expected, rtol=1e-12, atol=0.0)

    def test_rejects_wrong_test_shape(self):
        state, man = _sphere_state()
        bf = assemble_actions(DirichletDescriptor(3), state, man)
        with pytest.raises(ShapeMismatchError):
            configurational_residual(bf, [np.zeros((3, 3))])


class TestResidualReport:
    def test_collects_rows_in_order(self):
        rep = ResidualReport()
        rep.add(Residual("weak_el[0]", 1.0, 100.0))
        rep.add([Residual("rotational", 0.5, 1.0), Residual("weak_el[1]", 0.0, 0.0)])
        assert rep.rows() == [("weak_el[0]", 1.0, 100.0, 0.01), ("rotational", 0.5, 1.0, 0.5),
                              ("weak_el[1]", 0.0, 0.0, 0.0)]
