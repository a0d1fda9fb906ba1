"""Balance-law oracles.

Weak residuals are checked against central finite differences of the total
energy and against exact duality with the assembled gradient.  Strong
residuals use manufactured states whose discrete equilibrium is exact
(quadratic fields are differentiated exactly by the corner stencils).
The rotational balance is validated on densities whose invariance is an
algebraic identity, and falsified on a deliberately anchored one.
"""

import numpy as np
import pytest

from complexbodies.balance import (
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
    QuadraticTensor,
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
    cell_gradient,
    identity_state,
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
        assert np.allclose(bf.b, np.array([0.1, 0.0, -0.3]), atol=0)
        assert np.allclose(bf.beta, h_field, atol=0)
        assert np.allclose(bf.z, 0.0, atol=0)
        assert np.allclose(bf.zeta_ambient, -h_field, atol=0)
        # reported zeta lives in the cotangent space of the projected average
        base = man.project(bf.gf.nu_bar)
        drift = bf.zeta - man.tangent_project(base, bf.zeta)
        assert np.max(np.abs(drift)) < 1e-14

    def test_actions_match_density_partials(self):
        state, man = _sphere_state()
        density = _sphere_density()
        bf = assemble_actions(density, state, man)
        args = (bf.gf.x, bf.gf.u_bar, bf.gf.F, bf.gf.nu_bar, bf.gf.N)
        assert np.array_equal(bf.P, density.d_F(*args))
        assert np.array_equal(bf.S, density.d_N(*args))
        assert np.array_equal(bf.zeta_ambient, density.d_nu(*args))
        assert np.array_equal(bf.e_val, density.eval(*args))


def _per_node_compact_tests(state, n, components, seed=0, manifold=None, margin=2):
    """random_compact_tests evaluated on the full node_coords array per test."""
    grid = state.grid
    rng = np.random.default_rng(seed)
    coords = grid.node_coords()
    lo = np.asarray(grid.lo)
    hi = np.asarray(grid.hi)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    interior = interior_node_mask(grid, state.active, margin=margin)
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
        fast = random_compact_tests(state, 6, components, **kw)
        slow = _per_node_compact_tests(state, 6, components, **kw)
        for f, g in zip(fast, slow, strict=True):
            assert np.array_equal(f, g)
            assert np.any(f != 0.0)

    def test_compact_support_and_tangency(self):
        state, man = _sphere_state()
        fields = random_compact_tests(state, 4, 3, seed=5, manifold=man, margin=2)
        inside = interior_node_mask(state.grid, state.active, margin=2)
        for f in fields:
            assert f.shape == state.nu.shape
            assert np.all(f[~inside] == 0.0)
            drift = f - man.tangent_project(state.nu, f)
            assert np.max(np.abs(drift)) < 1e-13
            assert np.max(np.abs(f)) > 0

    def test_deterministic_and_distinct(self):
        state, _ = _sphere_state()
        a = random_compact_tests(state, 3, 3, seed=9)
        b = random_compact_tests(state, 3, 3, seed=9)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)
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
        hs = random_compact_tests(state, 3, 3, seed=21)
        us = random_compact_tests(state, 3, man.embed_dim, seed=22, manifold=man)
        residuals = weak_el_residual(bf, list(zip(hs, us)))
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
        hs = random_compact_tests(state, 4, 3, seed=31)
        us = random_compact_tests(state, 4, man.embed_dim, seed=32, manifold=man)
        residuals = weak_el_residual(bf, list(zip(hs, us)))
        g = riesz_gradient(density, state, man, project=True)
        for res, h, ups in zip(residuals, hs, us):
            pair = _pairing(state, g, (h, ups))
            assert abs(res.raw - pair) <= 1e-12 * (1.0 + res.scale), res.name

    def test_converged_minimizer_has_tiny_ratios(self):
        from complexbodies.fields import apply_dirichlet
        from complexbodies.minimize import MinimizeConfig, minimize
        from complexbodies.energy import QuadraticVector

        grid = Grid.cube(6)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        bdry = boundary_node_mask(grid, state.active)
        shear = np.eye(3) + np.array([[0.0, 0.15, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        apply_dirichlet(
            state, "u", lambda x: bdry, lambda x: np.einsum("ij,...j->...i", shear, x), man
        )
        apply_dirichlet(state, "nu", lambda x: bdry, np.array([0.4, 0.0, 0.0]), man)
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
        hs = random_compact_tests(out.state, 20, 3, seed=41)
        us = random_compact_tests(out.state, 20, 3, seed=42, manifold=man)
        residuals = weak_el_residual(bf, list(zip(hs, us)))
        worst = max(r.ratio for r in residuals)
        assert worst < 1e-6, worst

    def test_rejects_non_tangent_variation(self):
        state, man = _sphere_state()
        bf = assemble_actions(DirichletDescriptor(3), state, man)
        h = np.zeros(state.u.shape)
        bad = np.ones(state.nu.shape)  # radial component survives
        with pytest.raises(NonTangentTestError):
            weak_el_residual(bf, [(h, bad)])

    def test_rejects_wrong_shapes(self):
        state, man = _sphere_state()
        bf = assemble_actions(DirichletDescriptor(3), state, man)
        with pytest.raises(ShapeMismatchError):
            weak_el_residual(bf, [(np.zeros((2, 2, 2, 3)), np.zeros(state.nu.shape))])

    def test_zero_over_zero_ratio_is_zero(self):
        assert Residual("r", 0.0, 0.0).ratio == 0.0
        assert Residual("r", 1.0, 0.0).ratio == np.inf
        assert Residual("r", -0.5, 2.0).ratio == 0.25


class TestStrongResiduals:
    def test_manufactured_elastic_equilibrium_is_exact(self):
        # u_i = x_i + a_i x_i^2 gives P linear in x; the corner stencils
        # differentiate quadratics exactly, so Div P + b vanishes to round-off
        lam, mu = 1.3, 0.8
        alpha = np.array([0.03, -0.02, 0.04])
        force = -(2.0 * lam + 4.0 * mu) * alpha
        density = SumDensity(
            [
                QuadraticTensor(C=isotropic_elasticity(lam, mu)),
                DeadLoad(force, embed_dim=9),
            ]
        )
        grid = Grid.cube(10)
        man = Euclidean(9)
        state = identity_state(grid, man, nu0=np.zeros(9))
        c = grid.node_coords()
        state.u = state.u + alpha * c**2
        bf = assemble_actions(density, state, man)
        rep = strong_residuals(bf, margin=1)
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
        rep = strong_residuals(bf, margin=1)
        assert rep.capriz_residual.ratio < 1e-12, rep.capriz_residual
        assert rep.capriz_residual.scale > 1.0

    def test_uniform_stress_no_load_is_silent(self):
        grid = Grid.cube(6)
        man = Euclidean(9)
        state = identity_state(grid, man, nu0=np.zeros(9))
        shear = np.zeros((3, 3))
        shear[0, 1] = 0.2
        state.u = state.u + np.einsum("ij,...j->...i", shear, grid.node_coords())
        density = QuadraticTensor(C=isotropic_elasticity(1.0, 1.0))
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


class TestRotationalBalance:
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
        tests = random_compact_tests(state, 3, 3, seed=7)
        for res in configurational_residual(ef, bf, tests):
            assert abs(res.raw) <= 1e-12 * (1.0 + res.scale), res.name

    def test_line_term_wiring(self):
        state, man = _sphere_state(res=10)
        bf = assemble_actions(DirichletDescriptor(3), state, man)
        ef = eshelby(bf)
        phi = random_compact_tests(state, 1, 3, seed=13)[0]
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
        lres = weak_el_residual(bf, [(h, ups)])[0]
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
