"""Minimizer oracles: duality, descent, determinism, constraint handling."""

import numpy as np
import pytest

from complexbodies import fields
from complexbodies.balance import assemble_actions, weak_el_residual
from complexbodies.energy import (
    CompressibleMacro,
    ComponentDoubleWell,
    DeadLoad,
    DirichletDescriptor,
    EnergyDensity,
    ExternalFieldCoupling,
    GinzburgLandau,
    QuadraticVector,
    Quasicrystal,
    SumDensity,
    isotropic_elasticity,
    total_energy,
)
from complexbodies.errors import ConfigError, InadmissibleStartError
from complexbodies.fields import (
    Grid,
    ball_mask,
    boundary_node_mask,
    divide_by_volume,
    gradients,
    identity_state,
    incident_node_mask,
    node_volumes,
    pin,
    scatter_cell_average_adjoint,
    scatter_gradient_adjoint,
)
from complexbodies.manifolds import Euclidean, UnitSphere
from complexbodies.minimize import MinimizeConfig, MinimizeResult, minimize, riesz_gradient
from complexbodies.scenarios import parse_config
from util import EZ, hedgehog_state, radial_director


def _elastic_toy(res=6, perturb=0.02, seed=0):
    """Pinned-boundary linear-elastic state with a random interior bump."""
    grid = Grid.cube(res)
    man = Euclidean(3)
    state = identity_state(grid, man, nu0=np.zeros(3))
    boundary = boundary_node_mask(grid, state.active)
    pin(state, "u", boundary, grid.node_coords())
    pin(state, "nu", boundary, np.zeros(state.nu.shape), man)
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
    )
    return dens, state, man


def _hedgehog_problem(res=8):
    state = hedgehog_state(resolution=res, ball=True, radius=1.0)
    man = UnitSphere()
    bdry = boundary_node_mask(state.grid, state.active)
    pin(state, "nu", bdry, radial_director(state.grid.node_coords()), man)
    pin(state, "u", bdry, state.grid.node_coords())
    return DirichletDescriptor(3), state, man


def _all_slots_energy(density, state):
    """total_energy built from all five slots, whatever the density reads."""
    gf = gradients(state)
    sel = density.eval(gf.x, gf.u_bar, gf.F, gf.nu_bar, gf.N)[state.active]
    return float(sel.sum() * state.grid.cell_volume) if np.all(np.isfinite(sel)) else np.inf


def _all_partials_gradient(density, state, manifold):
    """riesz_gradient scattering all four partials, zero ones included."""
    grid = state.grid
    gf = gradients(state)
    args = (gf.x, gf.u_bar, gf.F, gf.nu_bar, gf.N)
    raw_u = scatter_gradient_adjoint(density.d_F(*args), grid, state.active)
    raw_u += scatter_cell_average_adjoint(density.d_u(*args), grid, state.active)
    raw_nu = scatter_gradient_adjoint(density.d_N(*args), grid, state.active)
    raw_nu += scatter_cell_average_adjoint(density.d_nu(*args), grid, state.active)
    vols = node_volumes(grid, state.active)
    g_u = divide_by_volume(raw_u, vols)
    g_nu = manifold.tangent_project(state.nu, divide_by_volume(raw_nu, vols))
    g_u[vols <= 0] = 0.0
    g_nu[vols <= 0] = 0.0
    g_u[state.pinned_u] = 0.0
    g_nu[state.pinned_nu] = 0.0
    return g_u, g_nu


def _perturbed_state(kind, seed=4):
    """A perturbed director state: on a ball mask with some pinned nodes,
    or on the full box with none."""
    rng = np.random.default_rng(seed)
    grid = Grid.cube(6, lo=-1.0, hi=1.0) if kind == "ball3" else Grid.cube(5)
    state = identity_state(grid, UnitSphere(), nu0=EZ)
    if kind == "ball3":
        state.active = ball_mask(grid)
        rim = boundary_node_mask(grid, state.active)
        state.pinned_u = rim & (grid.node_coords()[..., 0] < 0.0)
        state.pinned_nu = rim & (grid.node_coords()[..., 1] < 0.0)
    state.u = state.u + 0.03 * rng.normal(size=state.u.shape)
    nu = rng.normal(size=state.nu.shape)
    state.nu = nu / np.linalg.norm(nu, axis=-1, keepdims=True)
    return state


def _test_pair(state, seed=5):
    """A random nodal test pair (h, upsilon), upsilon tangent at the director."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=state.u.shape)
    return h, UnitSphere().tangent_project(state.nu, rng.normal(size=state.nu.shape))


_READ_SETS = [
    DirichletDescriptor(3),
    GinzburgLandau(ComponentDoubleWell(1.3, -1.0, 1.0, component=0), 0.7, embed_dim=3),
    Quasicrystal(phason_stiffness=0.8),
    DeadLoad([0.0, 0.5, -1.0]),
    ExternalFieldCoupling([0.3, -0.1, 0.5]),
    SumDensity([
        QuadraticVector(
            C=isotropic_elasticity(1.0, 1.0),
            A3=0.5 * np.eye(3),
            A5=np.einsum("ac,ij->aicj", np.eye(3), np.eye(3)),
        ),
        DeadLoad([0.0, 0.0, -1.0]),
    ], name="elastic-under-load"),
]


class TestReadOnlyWhatTheDensityReads:
    """Building only the slots a density reads and scattering only their
    partials, on the grid's slabs or one row of cells at a time, gives the
    whole-grid all-slots, all-partials results bit for bit."""

    @pytest.mark.parametrize("kind", ["ball3", "box3"])
    @pytest.mark.parametrize("density", _READ_SETS, ids=lambda d: d.name)
    def test_bitwise_equal_to_all_slots(self, density, kind, monkeypatch):
        for slab_cells in (fields.SLAB_CELLS, 1):
            monkeypatch.setattr(fields, "SLAB_CELLS", slab_cells)
            state = _perturbed_state(kind)
            assert len(state.grid.slabs) == (1 if slab_cells > 1 else state.grid.cells[0])
            man = UnitSphere()
            assert total_energy(density, state) == _all_slots_energy(density, state)
            got = riesz_gradient(density, state, man)
            want = _all_partials_gradient(density, state, man)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])

    @pytest.mark.parametrize("kind", ["ball3", "box3"])
    def test_zero_density(self, kind):
        state = _perturbed_state(kind)
        dens = EnergyDensity()
        assert dens.reads == frozenset()
        assert total_energy(dens, state) == 0.0
        g_u, g_nu = riesz_gradient(dens, state, UnitSphere())
        assert g_u.shape == state.u.shape and g_nu.shape == state.nu.shape
        assert not g_u.any() and not g_nu.any()
        # no action, so the weak row of a nonzero pair is zero
        bf = assemble_actions(dens, state, UnitSphere())
        assert bf.actions == {}
        r = weak_el_residual(bf, *_test_pair(state))
        assert (r.raw, r.scale) == (0.0, 0.0)

    def test_dirichlet_gathers_and_scatters_only_its_gradient(self, monkeypatch):
        counts = {"gather": 0, "scatter": 0}
        gather, scatter = fields.gather, fields._scatter

        def counting_gather(*args):
            counts["gather"] += 1
            return gather(*args)

        def counting_scatter(*args):
            counts["scatter"] += 1
            return scatter(*args)

        state = _perturbed_state("ball3")
        vols = node_volumes(state.grid, state.active)
        monkeypatch.setattr(fields, "gather", counting_gather)
        monkeypatch.setattr(fields, "_scatter", counting_scatter)
        total_energy(DirichletDescriptor(3), state)
        assert counts == {"gather": 3, "scatter": 0}
        riesz_gradient(DirichletDescriptor(3), state, UnitSphere(), vols=vols)
        assert counts == {"gather": 6, "scatter": 3}
        # a weak-EL pair gathers N's three gradient rows per slab, and no
        # other slot of the pair
        monkeypatch.setattr(fields, "SLAB_CELLS", 1)
        state = _perturbed_state("ball3")
        bf = assemble_actions(DirichletDescriptor(3), state, UnitSphere())
        counts.update(gather=0, scatter=0)
        weak_el_residual(bf, *_test_pair(state))
        assert counts == {"gather": 3 * len(state.grid.slabs), "scatter": 0}
        assert len(state.grid.slabs) == state.grid.cells[0]


class TestRieszDuality:
    @pytest.mark.parametrize("pins", ["rim", "none"])
    def test_gradient_matches_directional_derivative(self, pins):
        dens, state, man = _elastic_toy(res=5)
        if pins == "none":
            state = identity_state(Grid.cube(7), man, nu0=np.zeros(3))
            rng = np.random.default_rng(1)
            state.u = state.u + 0.02 * rng.normal(size=state.u.shape)
            state.nu = state.nu + 0.1 * rng.normal(size=state.nu.shape)
        g_u, g_nu = riesz_gradient(dens, state, man)
        vols = node_volumes(state.grid, state.active)
        # the gradient is the representative on the free nodes: the
        # variations vanish on the pinned ones
        rng = np.random.default_rng(3)
        h_u = rng.normal(size=state.u.shape)
        h_nu = rng.normal(size=state.nu.shape)
        h_u[state.pinned_u] = 0.0
        h_nu[state.pinned_nu] = 0.0
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

    def test_dead_load_gradient_is_the_load_at_every_incident_node(self):
        # the lumped volume is the average adjoint of the active indicator, so
        # a constant cell action comes back unchanged at the body's nodes
        grid = Grid.cube(5)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        state.active = ball_mask(grid)
        force = np.array([0.0, 0.5, -1.0])
        g_u, _ = riesz_gradient(DeadLoad(force), state, man)
        touched = incident_node_mask(grid, state.active)
        assert np.allclose(g_u[touched], -force, atol=1e-12)
        assert not g_u[~touched].any()

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

    def test_iterations_do_not_grow_with_the_grid(self):
        # the H1 metric of the stencil makes the count nearly mesh independent;
        # the L2 descent it replaced took 208 and 953 iterations here
        for n in (6, 12):
            dens, state, man = _elastic_toy(res=n)
            out = minimize(dens, state, man, MinimizeConfig(max_iters=2000, grad_tol=1e-9))
            assert out.converged and out.iterations <= 40, (n, out.iterations)

    def test_first_trial_expects_the_last_decrease(self, monkeypatch):
        # the first trial step of iteration k > 0 is the last accepted step
        # scaled to the same first-order decrease: t0_k = t_{k-1} s_{k-1} / s_k,
        # s the slope <g, d>; every trial lies on the ray u_k + t d_k, so the
        # displacements of the first and the accepted trial give t0_k / t_k
        import complexbodies.minimize as mz

        _, state, man = _elastic_toy(res=5, seed=3)
        dens = CompressibleMacro(1.0, 1.0, 1.0)  # reads F only: d is the u block
        vols = node_volumes(state.grid, state.active)[..., None]
        events = []
        energy, gradient = mz.total_energy, mz.riesz_gradient

        def recording_energy(density, at):
            events.append(("E", at.u))
            return energy(density, at)

        def recording_gradient(density, at, *args, **kw):
            g = gradient(density, at, *args, **kw)
            events.append(("G", at.u, g[0]))
            return g

        monkeypatch.setattr(mz, "total_energy", recording_energy)
        monkeypatch.setattr(mz, "riesz_gradient", recording_gradient)
        res = minimize(dens, state, man, MinimizeConfig(max_iters=8, grad_tol=0.0, log_every=1),
                       callback=lambda it, *_: events.append(("it", it)))
        assert res.iterations == 8 and res.message != "line search stalled"
        starts = [i for i, ev in enumerate(events) if ev[0] == "it"]
        # at iteration k: the state and its gradient just before the callback,
        # the first trial just after it
        u = [events[i - 1][1] for i in starts]
        g = [events[i - 1][2] for i in starts]
        first = [next(ev[1] for ev in events[i:] if ev[0] == "E") for i in starts]
        steps = res.trace[:-1, 2]
        t0, slope = [], []
        for k in range(len(starts) - 1):
            accepted = u[k + 1] - u[k]
            t0.append(steps[k] * np.linalg.norm(first[k] - u[k]) / np.linalg.norm(accepted))
            slope.append(float(np.sum(g[k] * accepted / steps[k] * vols)))
        assert t0[0] == pytest.approx(mz.STEP0, rel=1e-12)
        for k in range(1, len(t0)):
            assert t0[k] == pytest.approx(steps[k - 1] * slope[k - 1] / slope[k], rel=1e-9)
        assert max(abs(t - mz.STEP0) for t in t0[1:]) > 1e-3

    def test_unread_block_gets_no_solver_and_never_moves(self, monkeypatch):
        import complexbodies.minimize as mz

        built = []
        solver = mz.h1_solver

        def recording(grid, free):
            built.append(free.copy())
            return solver(grid, free)

        monkeypatch.setattr(mz, "h1_solver", recording)
        dens, state, man = _hedgehog_problem(res=6)
        res = minimize(dens, state, man, MinimizeConfig(max_iters=20))
        # the Dirichlet energy reads N only: one solver, on the free director nodes
        assert len(built) == 1
        assert np.array_equal(built[0], incident_node_mask(state.grid, state.active)
                              & ~state.pinned_nu)
        assert np.array_equal(res.state.u, state.u)
        assert res.energy < total_energy(dens, state)

    @pytest.mark.parametrize("stop", ["converged", "stalled", "max_iters", "no_iteration"])
    def test_hands_over_the_gradient_at_the_returned_state(self, stop, monkeypatch):
        import complexbodies.minimize as mz

        dens, state, man = _elastic_toy()
        if stop == "stalled":
            # one trial per iteration: the secant step that the first trial
            # proposes is never tried
            monkeypatch.setattr(mz, "MAX_BACKTRACKS", 1)
        max_iters = {"max_iters": 3, "no_iteration": 0}.get(stop, 2000)
        res = minimize(dens, state, man, MinimizeConfig(max_iters=max_iters, grad_tol=1e-9))
        assert res.converged == (stop == "converged")
        assert (res.message == "line search stalled") == (stop == "stalled")
        if max_iters < 2000:
            assert res.iterations == max_iters
        g_u, g_nu, vols = res.gradient
        want = riesz_gradient(dens, res.state, man)
        assert np.array_equal(g_u, want[0]) and np.array_equal(g_nu, want[1])
        assert np.array_equal(vols, node_volumes(state.grid, state.active))

    def test_input_state_not_mutated(self):
        dens, state, man = _elastic_toy()
        u0 = state.u.copy()
        minimize(dens, state, man, MinimizeConfig(max_iters=10))
        assert np.array_equal(state.u, u0)


class TestBarrier:
    def test_barrier_rejections_counted(self, monkeypatch):
        import complexbodies.minimize as mz

        grid = Grid.cube(5)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        rng = np.random.default_rng(2)
        state.u = state.u + 0.01 * rng.normal(size=state.u.shape)
        dens = CompressibleMacro(1.0, 1.0, 1.0)
        # a first trial step long enough to fold cells
        monkeypatch.setattr(mz, "STEP0", 50.0)
        res = minimize(dens, state, man, MinimizeConfig(max_iters=15))
        assert res.barrier_rejects > 0
        assert np.all(np.diff(res.trace[:, 0]) <= 0.0)

    def test_inadmissible_start_raises(self):
        grid = Grid.cube(4)
        man = Euclidean(3)
        state = identity_state(grid, man, nu0=np.zeros(3))
        state.u[..., 0] *= -1.0
        dens = Quasicrystal()
        with pytest.raises(InadmissibleStartError):
            minimize(dens, state, man)

    def test_config_validation(self):
        for key, value in (
            ("block_mode", "both"),
            ("block_mode", "u-only"),
            ("block_mode", "nu-only"),
            ("block_mode", "alternate"),
            ("backtrack", "1.5"),
            ("step0", "-1.0"),
            ("grad_tol", "nan"),
            ("grad_tol", "-1e-6"),
            ("energy_tol", "inf"),
            ("energy_tol", "-1.0"),
            ("armijo_c", "nan"),
            ("step_max", "0.0"),
            ("step_max", "inf"),
            ("max_iters", "-5"),
            ("log_every", "-1"),
            ("max_backtracks", "0"),
        ):
            with pytest.raises(ConfigError, match=key):
                parse_config(f"[scenario]\nname = t\n\n[minimize]\n{key} = {value}\n")
