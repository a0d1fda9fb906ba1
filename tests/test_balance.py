"""Balance-law oracles.

Weak residuals are checked against central finite differences of the total
energy and against exact duality with the assembled gradient.  Strong
residuals use manufactured states whose discrete equilibrium is exact
(quadratic fields are differentiated exactly by the corner stencils).
The rotational balance is validated on densities whose invariance is an
algebraic identity, and falsified on a deliberately anchored one.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from complexbodies import balance
from complexbodies.balance import (
    _TINY,
    Residual,
    _bump,
    ResidualReport,
    assemble_actions,
    cauchy_stress,
    configurational_residual,
    eshelby,
    eulerian_cauchy_residual,
    random_compact_tests,
    rotational_balance,
    strong_residuals,
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
    LineDefect,
    QuadraticVector,
    Quasicrystal,
    SumDensity,
    isotropic_elasticity,
    total_energy,
)
from complexbodies.errors import (
    GeneratorUnavailableError,
    NonTangentTestError,
    ShapeMismatchError,
    SingularCellError,
)
from complexbodies.fields import (
    Grid,
    ball_mask,
    boundary_node_mask,
    cell_average,
    cell_gradient,
    identity_state,
    integrate_cells,
    interior_node_mask,
    node_volumes,
)
from complexbodies.manifolds import (
    LEVI,
    Euclidean,
    Interval,
    Product,
    UnitSphere,
    degree_of_orientation,
    rotation_from_vector,
)
from complexbodies.minimize import riesz_gradient
from complexbodies import scenarios
from complexbodies.scenarios import N_TESTS, ScenarioConfig, _weak_el_rows

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
        args = (bf.gf.x, bf.gf.u_bar, bf.gf.F, bf.gf.nu_bar, bf.gf.N)
        assert np.allclose(bf.b, np.array([0.1, 0.0, -0.3]), atol=0)
        # the external coupling's partial is beta = -h, which the net
        # action subtracts; the internal action z collects none of it
        external = density.parts[1]
        assert external.external
        assert np.allclose(external.d_nu(*args), -h_field, atol=0)
        assert np.allclose(bf.z, 0.0, atol=0)
        assert np.allclose(bf.zeta_ambient, -h_field, atol=0)
        assert np.array_equal(bf.zeta_ambient, bf.z + external.d_nu(*args))

    def test_actions_match_density_partials(self):
        state, man = _sphere_state()
        density = _sphere_density()
        bf = assemble_actions(density, state, man)
        args = (bf.gf.x, bf.gf.u_bar, bf.gf.F, bf.gf.nu_bar, bf.gf.N)
        assert np.array_equal(bf.P, density.d_F(*args))
        assert np.array_equal(bf.S, density.d_N(*args))
        assert np.array_equal(bf.zeta_ambient, density.d_nu(*args))
        assert np.array_equal(bf.b, -density.d_u(*args))
        # the energy and its x-partial are read from the density when the
        # configurational balance runs
        PP = density.eval(*args)[..., None, None] * np.eye(3)
        PP = PP - np.einsum("...ki,...kj->...ij", bf.gf.F, bf.P)
        PP = PP - np.einsum("...ai,...aj->...ij", bf.gf.N, bf.S)
        assert np.array_equal(eshelby(bf).PP, PP)
        phi = random_compact_tests(state, 1, 3, seed=3)[0]()
        t2 = np.einsum("...i,...i->...", density.d_x(*args), cell_average(phi, state.grid))
        t1 = np.einsum("...ij,...ij->...", PP, cell_gradient(phi, state.grid))
        res = configurational_residual(eshelby(bf), bf, [phi])[0]
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
            centrosymmetric=True,
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
        # the pool runs min(2, usable cores) workers: one and two, switching
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


class TestStrongResiduals:
    def test_manufactured_elastic_equilibrium_is_exact(self):
        # u_i = x_i + a_i x_i^2 gives P linear in x; the corner stencils
        # differentiate quadratics exactly, so Div P + b vanishes to round-off
        lam, mu = 1.3, 0.8
        alpha = np.array([0.03, -0.02, 0.04])
        force = -(2.0 * lam + 4.0 * mu) * alpha
        density = SumDensity(
            [
                QuadraticVector(C=isotropic_elasticity(lam, mu)),
                DeadLoad(force, embed_dim=3),
            ]
        )
        grid = Grid.cube(10)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        c = grid.node_coords()
        state.u = state.u + alpha * c**2
        bf = assemble_actions(density, state, man)
        rep = strong_residuals(bf)
        assert rep.cauchy_residual.ratio < 1e-12, rep.cauchy_residual
        assert rep.cauchy_residual.scale > 0.01

    def test_manufactured_descriptor_equilibrium_is_exact(self):
        # Div S = 2c against a constant external action: exact balance when
        # nu = c x_1^2 and zeta = -h with c = -h/2
        h_field = np.array([0.4, -0.6, 1.0])
        density = SumDensity(
            [DirichletDescriptor(embed_dim=3), ExternalFieldCoupling(h_field)]
        )
        grid = Grid.cube(9)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        c = grid.node_coords()
        state.nu = (-0.5 * h_field) * c[..., :1] ** 2
        bf = assemble_actions(density, state, man)
        rep = strong_residuals(bf)
        assert rep.capriz_residual.ratio < 1e-12, rep.capriz_residual
        assert rep.capriz_residual.scale > 1.0

    def test_uniform_stress_no_load_is_silent(self):
        grid = Grid.cube(6)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        shear = np.zeros((3, 3))
        shear[0, 1] = 0.2
        state.u = state.u + np.einsum("ij,...j->...i", shear, grid.node_coords())
        density = QuadraticVector(C=isotropic_elasticity(1.0, 1.0))
        rep = strong_residuals(assemble_actions(density, state, man))
        assert rep.cauchy_residual.raw < 1e-13
        assert rep.capriz_residual.raw < 1e-13

    def test_rough_state_reports_nonzero_interior_residual(self):
        state, man = _sphere_state()
        rng = np.random.default_rng(4)
        state.nu = man.project(state.nu + 0.3 * rng.normal(size=state.nu.shape))
        bf = assemble_actions(DirichletDescriptor(3), state, man)
        rep = strong_residuals(bf)
        assert rep.capriz_residual.ratio > 1e-3
        assert rep.interior.sum() > 0
        # nodal capriz residual is tangent at the director
        dot = np.einsum("...a,...a->...", rep.capriz, state.nu)
        assert np.max(np.abs(dot[rep.interior])) < 1e-12 * (
            1.0 + np.max(np.abs(rep.capriz))
        )


def _per_cell_rotational_balance(bf):
    """rotational_balance with dA copied into every cell before the contraction."""
    man = bf.manifold
    nub = bf.gf.nu_bar
    A = man.rotation_generator(nub)
    dA0 = man.rotation_generator_gradient()
    dA = np.broadcast_to(dA0, nub.shape[:-1] + dA0.shape).copy()
    PFt = np.einsum("...ik,...jk->...ij", bf.P, bf.gf.F)
    ax = np.einsum("jab,...ab->...j", LEVI, PFt)
    Az = np.einsum("...aj,...a->...j", A, bf.z)
    dAS = np.einsum("...ajb,...bi,...ai->...j", dA, bf.gf.N, bf.S)
    res = ax - Az - dAS
    act = bf.state.active

    def sup(f):
        vals = f[act]
        return float(np.max(np.linalg.norm(vals.reshape(vals.shape[0], -1), axis=-1)))

    Az_abs = np.einsum("...aj,...a->...j", np.abs(A), np.abs(bf.z))
    dAS_abs = np.einsum("...ajb,...bi,...ai->...j", np.abs(dA), np.abs(bf.gf.N), np.abs(bf.S))
    scale = sup(PFt) + sup(Az_abs) + sup(dAS_abs) + _TINY
    out = res.copy()
    out[~act] = 0.0
    return Residual("rotational", sup(res), scale), out


def _generic_state(man, res=7, seed=0):
    """A perturbed placement and a random nodal descriptor on man."""
    grid = Grid.cube(res, -0.5, 0.5)
    rng = np.random.default_rng(seed)
    state = identity_state(grid, man, nu0=man.random_point(rng))
    state.nu = man.project(man.random_point(rng, grid.nodes))
    state.u = state.u + 0.03 * rng.normal(size=state.u.shape)
    return state


def _anchored_density(man):
    return SumDensity(
        [CompressibleMacro(1.0, 0.7, 1.4, embed_dim=man.embed_dim),
         DirichletDescriptor(man.embed_dim),
         EasyAxisAnchoring(np.linspace(0.2, 0.9, man.embed_dim), weight=0.3,
                           embed_dim=man.embed_dim)]
    )


class TestRotationalBalance:
    @pytest.mark.parametrize(
        "man", [Euclidean(3), UnitSphere(), degree_of_orientation()],
        ids=lambda m: m.name,
    )
    def test_constant_generator_gradient_matches_per_cell_copy(self, man):
        state = _generic_state(man)
        bf = assemble_actions(_anchored_density(man), state, man)
        rep = rotational_balance(bf)
        ref, ref_field = _per_cell_rotational_balance(bf)
        assert rep.residual == ref
        assert np.array_equal(rep.residual_field, ref_field)
        assert rep.ratio > 0.0

    @pytest.mark.parametrize("body", ["box", "ball"])
    @pytest.mark.parametrize("man", [UnitSphere(), degree_of_orientation()],
                             ids=lambda m: m.name)
    def test_slabs_match_the_whole_grid_reference(self, man, body):
        # 17^3 cells take two slabs, of 14 and 3 rows; the ball of radius
        # 0.35 leaves the second slab without an active cell
        state = _generic_state(man, res=17)
        if body == "ball":
            state.active = ball_mask(state.grid, radius=0.35)
        cells = state.active.shape
        rows = balance._SLAB_CELLS // (cells[1] * cells[2])
        assert rows < cells[0]
        slabs = [state.active[lo:lo + rows].any() for lo in range(0, cells[0], rows)]
        assert all(slabs) == (body == "box")
        bf = assemble_actions(_anchored_density(man), state, man)
        rep = rotational_balance(bf)
        ref, ref_field = _per_cell_rotational_balance(bf)
        assert rep.residual == ref
        assert np.array_equal(rep.residual_field, ref_field)
        assert rep.ratio > 0.0

    def test_objective_director_density_closes(self):
        state, man = _sphere_state()
        density = SumDensity(
            [CompressibleMacro(1.0, 0.7, 1.4, embed_dim=3), DirichletDescriptor(3)]
        )
        rep = rotational_balance(assemble_actions(density, state, man))
        assert rep.ratio < 1e-12, rep.residual

    def test_objective_phason_coupling_cancels(self):
        state, man = _phason_state()
        density = Quasicrystal(
            macro=CompressibleMacro(0.5, 0.5, 1.0),
            phason_stiffness=1.0,
            coupling=0.05 * np.einsum("ia,jk->ijak", np.eye(3), np.eye(3)),
        )
        rep = rotational_balance(assemble_actions(density, state, man))
        assert rep.ratio < 1e-10, rep.residual

    def test_product_descriptor_with_inert_factor_closes(self):
        grid = Grid.cube(7, -0.5, 0.5)
        man = Product(UnitSphere(), Interval(0.0, 1.0))
        state = identity_state(grid, man, nu0=[0.0, 0.0, 1.0, 0.5])
        c = grid.node_coords()
        raw = np.stack(
            [
                0.5 + 0.3 * np.sin(c[..., 0]),
                -0.2 + 0.4 * c[..., 1],
                1.0 + 0.2 * np.cos(c[..., 2]),
                0.5 + 0.3 * np.sin(c[..., 0] + c[..., 1]),
            ],
            axis=-1,
        )
        state.nu = man.project(raw)
        density = SumDensity(
            [
                DirichletDescriptor(embed_dim=4, name="orientation-gradient"),
                GinzburgLandau(
                    ComponentDoubleWell(0.9, 0.0, 1.0, component=3), 0.7, embed_dim=4
                ),
            ]
        )
        rep = rotational_balance(assemble_actions(density, state, man))
        assert rep.ratio < 1e-12, rep.residual

    def test_anchoring_breaks_the_balance(self):
        state, man = _sphere_state()
        density = SumDensity(
            [DirichletDescriptor(3), EasyAxisAnchoring([0.0, 0.0, 1.0], weight=0.8)]
        )
        rep = rotational_balance(assemble_actions(density, state, man))
        assert rep.ratio > 0.1, rep.residual

    def test_matches_finite_rotation_invariance(self):
        # the density that closes the balance is also invariant under a
        # finite simultaneous rotation of placement and director
        state, man = _sphere_state()
        density = SumDensity(
            [CompressibleMacro(1.0, 0.7, 1.4, embed_dim=3), DirichletDescriptor(3)]
        )
        e0 = total_energy(density, state)
        R = rotation_from_vector(np.array([0.4, -0.3, 0.7]))
        rotated = state.copy()
        rotated.u = np.einsum("ij,...j->...i", R, state.u)
        rotated.nu = np.einsum("ij,...j->...i", R, state.nu)
        e1 = total_energy(density, rotated)
        assert abs(e1 - e0) < 1e-12 * (1.0 + abs(e0))

    def test_missing_generator_raises(self):
        grid = Grid.cube(5)
        man = Interval(0.0, 1.0)
        state = identity_state(grid, man, nu0=[0.5])
        bf = assemble_actions(DirichletDescriptor(embed_dim=1), state, man)
        with pytest.raises(GeneratorUnavailableError):
            rotational_balance(bf)


class TestEshelbyAndConfigurational:
    def test_dirichlet_closed_form(self):
        state, man = _sphere_state()
        bf = assemble_actions(DirichletDescriptor(3), state, man)
        PP = eshelby(bf).PP
        N = bf.gf.N
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
        ef = eshelby(bf)
        assert np.max(np.std(ef.PP.reshape(-1, 9), axis=0)) < 1e-13
        tests = _built(random_compact_tests(state, 3, 3, seed=7))
        for res in configurational_residual(ef, bf, tests):
            assert abs(res.raw) <= 1e-12 * (1.0 + res.scale), res.name

    def test_line_term_wiring(self):
        state, man = _sphere_state(res=10)
        bf = assemble_actions(DirichletDescriptor(3), state, man)
        ef = eshelby(bf)
        phi = random_compact_tests(state, 1, 3, seed=13)[0]()
        line = LineDefect(
            points=np.array([[-0.2, -0.1, 0.0], [0.25, 0.15, 0.1]]),
            multiplicities=np.array([2]),
        )
        base = configurational_residual(ef, bf, [phi])[0]
        with_line = configurational_residual(ef, bf, [phi], line=line)[0]
        seg = line.points[1] - line.points[0]
        length = float(np.linalg.norm(seg))
        T = seg / length
        mid = 0.5 * (line.points[0] + line.points[1])
        idx = tuple(
            int(np.floor((mid[a] - state.grid.lo[a]) / state.grid.spacing[a]))
            for a in range(3)
        )
        Dphi = cell_gradient(phi, state.grid)
        expected = 4.0 * np.pi * 2.0 * length * float(
            np.einsum("i,j,ij->", T, T, Dphi[idx])
        )
        assert np.isclose(with_line.raw - base.raw, -expected, rtol=1e-12)
        assert with_line.scale >= base.scale

    def test_affine_test_gives_closed_form_line_term(self):
        # constant PP against an affine phi: both integrals collapse to
        # closed-form products, and the midpoint sampling is exact
        grid = Grid.cube(8)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        density = CompressibleMacro(1.0, 0.7, 1.4, embed_dim=3)
        bf = assemble_actions(density, state, man)
        ef = eshelby(bf)
        G = np.array([[0.2, -0.1, 0.0], [0.3, 0.1, 0.4], [0.0, 0.2, -0.3]])
        phi = np.einsum("ij,...j->...i", G, grid.node_coords()) + np.array([0.1, 0.0, -0.2])
        line = LineDefect(
            points=np.array([[0.2, 0.3, 0.4], [0.7, 0.6, 0.5]]),
            multiplicities=np.array([3]),
        )
        res = configurational_residual(ef, bf, [phi], line=line)[0]
        assert res.name == "configurational_with_line[0]"
        seg = line.points[1] - line.points[0]
        length = float(np.linalg.norm(seg))
        T = seg / length
        bulk = float(np.einsum("ij,ij->", ef.PP[0, 0, 0], G))  # PP is uniform
        expected = bulk - 4.0 * np.pi * 3.0 * length * float(T @ G @ T)
        assert np.isclose(res.raw, expected, rtol=1e-12, atol=1e-12)

    def test_rejects_wrong_test_shape(self):
        state, man = _sphere_state()
        bf = assemble_actions(DirichletDescriptor(3), state, man)
        ef = eshelby(bf)
        with pytest.raises(ShapeMismatchError):
            configurational_residual(ef, bf, [np.zeros((3, 3))])


class TestEulerianDescription:
    def test_identity_placement_gives_sigma_equals_p(self):
        state, man = _phason_state()
        state.u = state.grid.node_coords().copy()
        density = CompressibleMacro(1.0, 0.7, 1.4)
        bf = assemble_actions(density, state, man)
        sigma = cauchy_stress(bf)
        assert np.allclose(sigma, bf.P, atol=1e-14)

    def test_uniform_dilation_quarters_the_stress(self):
        grid = Grid.cube(6)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        state.u = 2.0 * state.u
        bf = assemble_actions(CompressibleMacro(1.0, 0.7, 1.4), state, man)
        sigma = cauchy_stress(bf)
        assert np.allclose(sigma, bf.P / 4.0, atol=1e-14)

    def test_reflection_is_singular(self):
        grid = Grid.cube(4)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        state.u = state.u * np.array([-1.0, 1.0, 1.0])
        bf = assemble_actions(CompressibleMacro(1.0, 0.7, 1.4), state, man)
        with pytest.raises(SingularCellError):
            cauchy_stress(bf)

    def test_pullback_matches_referential_quadrature(self):
        # quadratic spatial tests are differentiated exactly by the corner
        # stencils, so the two descriptions integrate the same numbers
        grid = Grid.cube(7)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        state.u = 2.0 * state.u
        density = CompressibleMacro(1.0, 0.7, 1.4)
        bf = assemble_actions(density, state, man)

        def phi(y):
            return np.stack(
                [y[..., 0] * y[..., 1], y[..., 1] * y[..., 2], y[..., 0] ** 2], axis=-1
            )

        def dphi(y):
            z = np.zeros(y.shape[:-1])
            rows = [
                [y[..., 1], y[..., 0], z],
                [z, y[..., 2], y[..., 1]],
                [2.0 * y[..., 0], z, z],
            ]
            return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)

        eres = eulerian_cauchy_residual(bf, [(phi, dphi)])[0]
        h = phi(state.u)
        ups = np.zeros(state.nu.shape)
        lres = weak_el_residual(bf, h, ups)
        assert abs(eres.raw - lres.raw) <= 1e-12 * (1.0 + abs(lres.raw))
        assert eres.scale > 0


class TestResidualReport:
    def test_collects_and_ranks(self):
        rep = ResidualReport()
        rep.add(Residual("weak_el[0]", 1.0, 100.0))
        rep.add([Residual("rotational", 0.5, 1.0), Residual("weak_el[1]", 0.0, 0.0)])
        assert rep.worst() == 0.5
        assert rep.worst("weak_el") == 0.01
        rows = rep.rows()
        assert rows[0] == ("weak_el[0]", 1.0, 100.0, 0.01)
        assert rep.worst("missing") == 0.0
