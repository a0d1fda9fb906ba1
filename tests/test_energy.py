"""Density oracles: finite differences, closed forms, growth and convexity."""

import numpy as np
import pytest

from complexbodies.energy import (
    CompressibleMacro,
    ComponentDoubleWell,
    DeadLoad,
    DirichletDescriptor,
    EasyAxisAnchoring,
    EnergyDensity,
    ExternalFieldCoupling,
    GinzburgLandau,
    GrowthSpec,
    ModulatedWell,
    Quasicrystal,
    QuadraticVector,
    SmecticA,
    SumDensity,
    check_convexity,
    check_growth,
    gradient_consistency,
    isotropic_elasticity,
    log_barrier,
    sample_states,
    total_energy,
)
from complexbodies.errors import (
    GeneratorUnavailableError,
    ShapeMismatchError,
    SizeMismatchError,
)
from complexbodies.fields import SLOTS, Grid, identity_state
from complexbodies.manifolds import Euclidean, UnitSphere
from complexbodies.minors import cofactor, det3
from complexbodies.scenarios import build_density, materialize, preset_config, preset_names


def _vector_quadratic(coupled=True):
    A2 = None
    if coupled:
        d = np.eye(3)
        A2 = 0.1 * (np.einsum("ia,jk->ijak", d, d) + np.einsum("ja,ik->ijak", d, d))
    return QuadraticVector(
        C=isotropic_elasticity(1.0, 1.0),
        A2=A2,
        A3=0.5 * np.eye(3),
        A5=np.einsum("ac,ij->aicj", np.eye(3), np.eye(3)),
    )


ALL_DENSITIES = [
    DirichletDescriptor(3, name="dirichlet-sphere"),
    GinzburgLandau(ComponentDoubleWell(1.3, -1.0, 1.0, component=0), 0.7, embed_dim=3),
    GinzburgLandau(
        ModulatedWell(
            ComponentDoubleWell(0.9, 0.0, 1.0, component=1),
            g=lambda x: 1.0 + 0.5 * np.sin(x[..., 0]),
            dg=lambda x: np.stack(
                [0.5 * np.cos(x[..., 0]), np.zeros(x.shape[:-1]), np.zeros(x.shape[:-1])],
                axis=-1,
            ),
        ),
        1.1,
        embed_dim=4,
    ),
    _vector_quadratic(),
    CompressibleMacro(1.0, 0.7, 1.4),
    CompressibleMacro(1.0, 1.0, 0.6),  # the macro part of the quasicrystal presets
    Quasicrystal(phason_stiffness=0.8),
    Quasicrystal(
        macro=CompressibleMacro(0.5, 0.5, 1.0),
        phason_stiffness=1.0,
        coupling=0.05 * np.einsum("ia,jk->ijak", np.eye(3), np.eye(3)),
    ),
    SmecticA(1.2, 0.6),
    DeadLoad([0.0, 0.0, -2.0]),
    ExternalFieldCoupling([0.3, -0.1, 0.5]),
    EasyAxisAnchoring([0.0, 0.0, 1.0], weight=0.4),
]


class TestDerivatives:
    @pytest.mark.parametrize("density", ALL_DENSITIES, ids=lambda d: d.name)
    def test_finite_difference_consistency(self, density):
        errs = gradient_consistency(density, n=60, seed=11)
        for leg, err in errs.items():
            assert err < 1e-6, f"{density.name}.{leg} FD mismatch {err:.2e}"

    def test_batch_shapes(self):
        rng = np.random.default_rng(0)
        b = sample_states(rng, 7, 3)
        d = DirichletDescriptor(3)
        assert d.eval(*b).shape == (7,)
        assert d.d_N(*b).shape == (7, 3, 3)
        assert d.d_F(*b).shape == (7, 3, 3)

    def test_sampler_determinant_positive(self):
        rng = np.random.default_rng(3)
        b = sample_states(rng, 500, 2, wide=True)
        assert np.all(np.linalg.det(b.F) > 0)

    @pytest.mark.parametrize("wide", [False, True])
    def test_sampler_matches_loop_reference(self, wide):
        """The batched sampler draws the stream of a per-sample loop, which
        builds each F from two Rodrigues rotations."""

        def rotation(w):
            angle = float(np.linalg.norm(w))
            K = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]]) / angle
            return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)

        rng = np.random.default_rng(17)
        sigma = 1.2 if wide else 0.4
        lam = rng.lognormal(0.0, sigma, size=(300, 3))
        F = np.empty((300, 3, 3))
        for i in range(300):
            R1 = rotation(rng.normal(size=3))
            R2 = rotation(rng.normal(size=3))
            F[i] = R1 @ np.diag(lam[i]) @ R2
        scale = rng.lognormal(0.0, sigma, size=(300, 1, 1))
        N = rng.normal(size=(300, 4, 3)) * scale
        x, u, nu = rng.normal(size=(300, 3)), rng.normal(size=(300, 3)), rng.normal(size=(300, 4))

        b = sample_states(np.random.default_rng(17), 300, 4, wide=wide)
        assert np.max(np.abs(b.F - F)) <= 1e-14 * np.max(np.abs(F))
        for got, want in ((b.N, N), (b.x, x), (b.u_bar, u), (b.nu_bar, nu)):
            assert np.array_equal(got, want)


def _reads_honest(density, n=40, seed=5) -> bool:
    """eval and every partial are unchanged when the slots the density does
    not read are filled with NaN."""
    b = sample_states(np.random.default_rng(seed), n, density.embed_dim)
    full = dict(zip(SLOTS, b))
    blind = {s: v if s in density.reads else np.full(v.shape, np.nan) for s, v in full.items()}
    return all(
        np.array_equal(getattr(density, m)(**full), getattr(density, m)(**blind))
        for m in ("eval",) + tuple(f"d_{s}" for s in SLOTS)
    )


class _ReadsUnannounced(EnergyDensity):
    """Reads u in eval without overriding d_u: a dishonest density."""

    embed_dim = 3

    def eval(self, x, u, F, nu, N):
        return 0.5 * np.einsum("...ai,...ai->...", N, N) + u[..., 0]

    def d_N(self, x, u, F, nu, N):
        return np.asarray(N, dtype=float).copy()


class TestReads:
    @pytest.mark.parametrize("density", ALL_DENSITIES, ids=lambda d: d.name)
    def test_reads_is_honest(self, density):
        assert density.reads <= set(SLOTS)
        assert _reads_honest(density)

    def test_unannounced_read_is_caught(self):
        assert _ReadsUnannounced().reads == {"N"}
        assert not _reads_honest(_ReadsUnannounced())

    def test_reads_follow_overrides(self):
        assert EnergyDensity().reads == frozenset()
        assert DirichletDescriptor(3).reads == {"N"}
        assert SmecticA().reads == {"N"}
        assert DeadLoad([0.0, 0.0, 1.0]).reads == {"u"}
        assert CompressibleMacro().reads == {"F"}
        assert Quasicrystal().reads == {"F", "N"}
        assert _vector_quadratic().reads == {"F", "nu", "N"}
        assert GinzburgLandau(None, 1.0, 3).reads == {"x", "nu", "N"}

    @pytest.mark.parametrize("name", [None] + preset_names())
    def test_reads_equal_the_derivation_from_overrides(self, name):
        # the derivation each access used to repeat: a density's own class's
        # overrides, and for a sum the union of its parts'
        def derived(density):
            if isinstance(density, SumDensity):
                return frozenset().union(*(derived(p) for p in density.parts))
            cls = type(density)
            return frozenset(s for s in SLOTS
                             if getattr(cls, f"d_{s}") is not getattr(EnergyDensity, f"d_{s}"))

        density = EnergyDensity() if name is None else materialize(preset_config(name)).density
        assert density.reads == derived(density)

    def test_sum_reads_union_of_parts(self):
        total = SumDensity([DirichletDescriptor(3), DeadLoad([0.0, 0.0, -1.0]),
                            EasyAxisAnchoring([0.0, 0.0, 1.0])])
        assert total.reads == {"u", "nu", "N"}
        assert _reads_honest(total)


# the einsum strings the term tables replaced: (tensor, subscripts, operands)
# per method, in the order the terms are summed; e = strain, n = nu, N = N
_VECTOR_EINSUM = {
    "eval": (("C", "ijhk,...ij,...hk->...", "ee"), ("A3", "ac,...a,...c->...", "nn"),
             ("A2", "ijak,...ij,...ak->...", "eN"), ("A5", "aicj,...ai,...cj->...", "NN")),
    "d_F": (("C", "ijhk,...hk->...ij", "e"), ("A2", "ijak,...ak->...ij", "N")),
    "d_nu": (("A3", "ac,...c->...a", "n"),),
    "d_N": (("A2", "ijak,...ij->...ak", "e"), ("A5", "aicj,...ai->...cj", "N")),
}


def _einsum_quadratic(dens, method, F, nu, N):
    """A quadratic density's eval or partial by einsum on its own tensors."""
    tensors = {k: M.reshape(dens.shapes[k]) for k, M in dens.tensors.items()}
    ops = {"e": 0.5 * (F + np.swapaxes(F, -1, -2)) - np.eye(3), "n": nu, "N": N}
    out = np.zeros(N.shape) if method == "d_N" else 0.0
    for label, subscripts, operands in _VECTOR_EINSUM[method]:
        if label in tensors:
            half = 0.5 if method == "eval" and label in ("C", "A3", "A5") else 1.0
            out = out + half * np.einsum(subscripts, tensors[label], *(ops[o] for o in operands))
    if method == "d_F":
        out = 0.5 * (out + np.swapaxes(out, -1, -2))
    slot = {"eval": F.shape[:-2], "d_F": F.shape, "d_nu": nu.shape, "d_N": N.shape}[method]
    return np.reshape(out, slot)


def _einsum_quasicrystal(dens, method, F, nu, N):
    """The coupled quasicrystal's eval or partial with its coupling by einsum."""
    B = dens.coupling
    if method == "eval":
        macro = dens.macro.eval(None, None, F, None, None)
        return (macro + 0.5 * dens.K * np.einsum("...ai,...ai->...", N, N)
                + np.einsum("ijak,...ij,...ak->...", B, F, N))
    if method == "d_F":
        return dens.macro.d_F(None, None, F, None, None) + np.einsum("ijak,...ak->...ij", B, N)
    if method == "d_N":
        return dens.K * N + np.einsum("ijak,...ij->...ak", B, F)
    return np.zeros(nu.shape)


def _random_quadratic(cls, rng, **fixed):
    shapes = {k: v for k, v in cls.shapes.items() if k not in fixed}
    return cls(**{k: rng.normal(size=s) for k, s in shapes.items()}, **fixed)


_PRESET_TENSORS = [
    build_density("microcracked", {}, Euclidean(3)),
    build_density("quasicrystal", {"kappa": 0.35}, Euclidean(3)),
]
_DENSE_TENSORS = [
    _random_quadratic(QuadraticVector, np.random.default_rng(1)),
    Quasicrystal(phason_stiffness=0.8,
                 coupling=np.random.default_rng(3).normal(size=(3, 3, 3, 3))),
]


def _contraction_pairs(dens, batch):
    """(term-table result, einsum result) for eval and every partial."""
    rng = np.random.default_rng(17)
    e = dens.embed_dim
    F = np.eye(3) + 0.2 * rng.normal(size=batch + (3, 3))
    args = dict(x=rng.normal(size=batch + (3,)), u=rng.normal(size=batch + (3,)), F=F,
                nu=rng.normal(size=batch + (e,)), N=rng.normal(size=batch + (e, 3)))
    reference = _einsum_quasicrystal if isinstance(dens, Quasicrystal) else _einsum_quadratic
    for method in ("eval", "d_F", "d_nu", "d_N"):
        got = getattr(dens, method)(**args)
        yield method, got, reference(dens, method, args["F"], args["nu"], args["N"])


class TestContraction:
    """The term tables against the einsum contractions they replaced."""

    @pytest.mark.parametrize("batch", [(6, 5, 4), (200,)], ids=["cells", "batch"])
    @pytest.mark.parametrize("density", _PRESET_TENSORS, ids=lambda d: d.name)
    def test_preset_tensors_bit_for_bit(self, density, batch):
        for method, got, want in _contraction_pairs(density, batch):
            assert got.shape == want.shape, method
            assert np.array_equal(got, want), f"{density.name}.{method}"

    @pytest.mark.parametrize("batch", [(6, 5, 4), (200,)], ids=["cells", "batch"])
    @pytest.mark.parametrize("density", _DENSE_TENSORS, ids=lambda d: d.name)
    def test_dense_tensors_to_round_off(self, density, batch):
        for method, got, want in _contraction_pairs(density, batch):
            assert got.shape == want.shape, method
            scale = np.max(np.abs(want[np.isfinite(want)]), initial=0.0)
            assert np.array_equal(np.isfinite(got), np.isfinite(want)), method
            err = np.max(np.abs(got - want)[np.isfinite(want)], initial=0.0)
            assert err <= 1e-13 * scale, f"{density.name}.{method}: {err / scale:.2e}"

    def test_quadratic_density_calls_no_einsum(self, monkeypatch):
        density = _PRESET_TENSORS[0]
        b = sample_states(np.random.default_rng(4), 30, 3)
        calls = []
        real = np.einsum
        monkeypatch.setattr(np, "einsum", lambda *a, **k: calls.append(a[0]) or real(*a, **k))
        for method in ("eval", "d_F", "d_nu", "d_N"):
            getattr(density, method)(*b)
        assert calls == []


class TestQuadraticClosedForms:
    def test_isotropic_reproduction(self):
        # pure isotropic elasticity: (lam/2) tr(eps)^2 + mu |eps|^2
        lam, mu = 1.7, 0.9
        dens = QuadraticVector(C=isotropic_elasticity(lam, mu))
        rng = np.random.default_rng(5)
        b = sample_states(rng, 40, 3)
        eps = 0.5 * (b.F + np.swapaxes(b.F, -1, -2)) - np.eye(3)
        expected = 0.5 * lam * np.einsum("...ii->...", eps) ** 2 + mu * np.einsum(
            "...ij,...ij->...", eps, eps
        )
        got = dens.eval(*b)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    def test_rigid_rotation_not_strained_to_first_order(self):
        # sym(F) - I vanishes to first order under small rotations
        from complexbodies.manifolds import rotation_from_vector

        dens = QuadraticVector(C=isotropic_elasticity(1.0, 1.0))
        e_vals = []
        for t in (1e-3, 5e-4):
            F = rotation_from_vector(np.array([0.0, 0.0, t]))[None]
            z = np.zeros((1, 3))
            e_vals.append(
                float(dens.eval(z, z, F, z, np.zeros((1, 3, 3)))[0])
            )
        # quadratic density of an O(t^2) strain: energy O(t^4)
        assert e_vals[0] < 1e-11
        assert e_vals[1] < e_vals[0] / 8.0

    def test_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            QuadraticVector(C=np.zeros((3, 3)))
        with pytest.raises(ShapeMismatchError):
            QuadraticVector(C=isotropic_elasticity(1, 1), A5=np.zeros((3, 3)))


class TestMacroEnergies:
    def test_reference_values(self):
        a, b, c = 1.0, 2.0, 3.0
        dens = CompressibleMacro(a, b, c)
        I = np.eye(3)[None]
        z = np.zeros((1, 3))
        val = dens.eval(z, z, I, z, np.zeros((1, 1, 3)))[0]
        assert val == pytest.approx(3 * a + 3 * b)

    def test_squeeze_path_diverges(self):
        dens = CompressibleMacro(1.0, 1.0, 1.0)
        z = np.zeros((1, 3))
        last = -np.inf
        for t in (1e-1, 1e-3, 1e-6, 1e-200):
            F = np.diag([t, 1.0, 1.0])[None]
            val = dens.eval(z, z, F, z, np.zeros((1, 1, 3)))[0]
            assert val > last
            last = val
        # the barrier diverges like -log(det F) along the squeeze path
        assert last > -np.log(1e-200) * 0.9
        F = np.diag([-1.0, 1.0, 1.0])[None]
        assert np.isinf(dens.eval(z, z, F, z, np.zeros((1, 1, 3)))[0])

    def test_log_barrier_basics(self):
        assert log_barrier(1.0) == 0.0
        assert log_barrier(0.0) == np.inf
        assert log_barrier(-2.0) == np.inf
        t = np.linspace(0.2, 5.0, 50)
        vals = log_barrier(t)
        mid = log_barrier(0.5 * (t[:-1] + t[1:]))
        assert np.all(mid <= 0.5 * (vals[:-1] + vals[1:]) + 1e-12)

    def test_total_energy_barrier_is_inf(self):
        grid = Grid.cube(4)
        state = identity_state(grid, UnitSphere(), nu0=np.array([0.0, 0.0, 1.0]))
        dens = Quasicrystal()
        assert np.isfinite(total_energy(dens, state))
        bad = state.copy()
        bad.u[..., 0] *= -1.0  # reflection: det F < 0 everywhere
        assert total_energy(dens, bad) == np.inf


class TestGrowth:
    @pytest.mark.parametrize(
        "density",
        [
            DirichletDescriptor(3, name="dirichlet-sphere"),
            CompressibleMacro(1.0, 0.7, 1.4),
            Quasicrystal(phason_stiffness=0.8),
            GinzburgLandau(ComponentDoubleWell(1.0, -1.0, 1.0), 0.5, embed_dim=3),
        ],
        ids=lambda d: d.name,
    )
    def test_documented_bounds_hold(self, density):
        rep = check_growth(density, n=20_000, seed=2)
        assert rep.passed, f"{density.name}: {rep.violations} violations, slack {rep.min_slack}"

    def test_overclaimed_bound_fails(self):
        dens = CompressibleMacro(1.0, 1.0, 1.0)
        greedy = GrowthSpec(
            c1=50.0, r=4.0 / 3.0, include_gradient_term=False, theta=log_barrier
        )
        rep = check_growth(dens, spec=greedy, n=5_000, seed=0)
        assert not rep.passed
        assert rep.min_slack < 0

    def test_nan_slack_is_a_violation(self):
        # at this stiffness the energy and the bound overflow to inf on some
        # samples, so their slack is inf - inf = nan, which must not pass
        with np.errstate(over="ignore", invalid="ignore"):
            rep = check_growth(GinzburgLandau(None, 1e308, 3), n=4000, seed=7)
        assert np.isnan(rep.min_slack)
        assert rep.violations > 0
        assert not rep.passed

    @pytest.mark.parametrize("well, claims", [
        (None, True),
        (ComponentDoubleWell(0.0, -1.0, 1.0), True),
        (ComponentDoubleWell(2.0, -1.0, 1.0), True),
        (ComponentDoubleWell(-1e-12, -1.0, 1.0), False),
        (ModulatedWell(ComponentDoubleWell(1.0, -1.0, 1.0), g=np.cos, dg=np.sin), False),
    ], ids=["none", "flat", "positive", "negative", "modulated"])
    def test_growth_claim_follows_the_well(self, well, claims):
        # the claim (k/2)|N|^2 needs W >= 0, which the well itself declares
        dens = GinzburgLandau(well, 0.5, embed_dim=3)
        assert (dens.growth_meta is not None) == claims
        if claims:
            assert dens.growth_meta.c1 == 0.25

    def test_no_growth_claim_raises(self):
        # a well that may be negative leaves the stiffness term no bound
        dens = GinzburgLandau(ComponentDoubleWell(-1.0, 0.0, 1.0), 0.5, embed_dim=3)
        assert dens.growth_meta is None
        with pytest.raises(GeneratorUnavailableError):
            check_growth(dens)

    def test_spec_validation(self):
        for c1 in (-1.0, float("nan")):
            with pytest.raises(ShapeMismatchError):
                GrowthSpec(c1=c1)
        with pytest.raises(ShapeMismatchError):
            GrowthSpec(c1=1.0, r=1.0)


class TestConvexity:
    # the probe that check_convexity picks covers convexity in N: it varies
    # N alone, or (minors, N) jointly when the density registers a form
    @pytest.mark.parametrize(
        "density",
        [
            DirichletDescriptor(3, name="dirichlet-sphere"),
            GinzburgLandau(ComponentDoubleWell(1.0, -1.0, 1.0), 0.5, embed_dim=3),
            _vector_quadratic(coupled=False),
            Quasicrystal(),
        ],
        ids=lambda d: d.name,
    )
    def test_convex_in_gradient(self, density):
        rep = check_convexity(density, n_segments=800, seed=1)
        assert rep.passed, f"defect {rep.max_defect} vs scale {rep.scale}"

    @pytest.mark.parametrize(
        "density",
        [
            CompressibleMacro(1.0, 0.7, 1.4),
            Quasicrystal(phason_stiffness=0.8),
            _vector_quadratic(coupled=False),
        ],
        ids=lambda d: d.name,
    )
    def test_convex_in_minors(self, density):
        rep = check_convexity(density, n_segments=800, seed=1)
        assert rep.mode == "in_minors_and_N"
        assert rep.passed, f"defect {rep.max_defect} vs scale {rep.scale}"

    @pytest.mark.parametrize(
        "density",
        [d for d in ALL_DENSITIES if d.minors_form() is not None],
        ids=lambda d: d.name,
    )
    def test_minors_form_is_the_density(self, density):
        # the convexity probe runs on minors_form, and eval is that form at
        # m = (F, cof F, det F): the two agree bit for bit, signs of zeros too
        b = sample_states(np.random.default_rng(23), 20_000, density.embed_dim)
        got = density.minors_form()(b.F, cofactor(b.F), det3(b.F), b.N, x=b.x, u=b.u_bar, nu=b.nu_bar)
        want = density.eval(*b)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_smectic_layer_term_not_convex(self):
        rep = check_convexity(SmecticA(), n_segments=2_000, seed=0)
        assert rep.mode == "in_N"
        assert not rep.passed

    def test_mode_follows_the_minors_form(self):
        coupled = build_density("quasicrystal", {"kappa": 0.35}, Euclidean(3))
        plain = build_density("quasicrystal", {}, Euclidean(3))
        assert coupled.minors_form() is None and plain.minors_form() is not None
        rep = check_convexity(coupled, n_segments=800, seed=1)
        assert rep.mode == "in_N" and rep.passed
        assert check_convexity(plain, n_segments=10).mode == "in_minors_and_N"
        mixed = SumDensity([DirichletDescriptor(3), coupled])
        assert check_convexity(mixed, n_segments=10).mode == "in_N"


class TestSumDensity:
    def test_exact_additivity(self):
        parts = [
            DirichletDescriptor(3),
            EasyAxisAnchoring([0.0, 0.0, 1.0], 0.4),
            ExternalFieldCoupling([0.1, 0.0, -0.2]),
        ]
        total = SumDensity(parts, name="mixture")
        rng = np.random.default_rng(8)
        b = sample_states(rng, 30, 3)
        direct = total.eval(*b)
        manual = parts[0].eval(*b)
        for p in parts[1:]:
            manual = manual + p.eval(*b)
        assert np.array_equal(direct, manual)
        dn = total.d_nu(*b)
        mn = sum(p.d_nu(*b) for p in parts)
        assert np.allclose(dn, mn, atol=0, rtol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(SizeMismatchError):
            SumDensity([DirichletDescriptor(3), SmecticA()])

    def test_external_flag_propagates(self):
        ext = SumDensity([DeadLoad([0, 0, -1.0]), ExternalFieldCoupling([1.0, 0, 0])])
        assert ext.external
        mixed = SumDensity([DirichletDescriptor(3), ExternalFieldCoupling([1.0, 0, 0])])
        assert not mixed.external
        assert len(mixed.parts) == 2
