"""End-to-end acceptance checklist.

Ten property-based gates, one test each, covering the minors of 3x3
gradients, the density derivatives, the hedgehog defect and energy anchors,
the weak balance residuals of every preset, the configurational refinement
study, rotational balance, admissibility screening, the documented growth
bound, and end-to-end determinism.  The gates keep their numbers; 05 is
not used.

Each test prints one [PASS]/[FAIL] line with the measured numbers (run with
-s to see them on success).  Runtime-limited gates time themselves; the
whole file takes about 40 s on a two-core machine, half of it in the 24^3
preset minimizations of gate 06.
"""

import dataclasses
import hashlib
import time

import numpy as np

from complexbodies.admissibility import (
    check_ciarlet_necas,
    check_orientation,
    d_field_boundary_flux,
    defect_charges,
)
from complexbodies.balance import (
    assemble_actions,
    configurational_residual,
    random_compact_tests,
    rotational_balance,
)
from complexbodies.energy import (
    CompressibleMacro,
    DirichletDescriptor,
    EasyAxisAnchoring,
    Quasicrystal,
    SumDensity,
    check_growth,
    gradient_consistency,
    total_energy,
)
from complexbodies.fields import Grid, ball_mask, identity_state
from complexbodies.manifolds import Euclidean, UnitSphere, rotation_from_vector
from complexbodies.minimize import minimize
from complexbodies.minors import cofactor, det3, minors_norm_squared
from complexbodies.scenarios import materialize, preset_config, preset_names, run

from test_energy import ALL_DENSITIES
from test_minors import oracle_cofactor, oracle_minor, oracle_norm_squared

EZ = np.array([0.0, 0.0, 1.0])


def _criterion(passed: bool, msg: str):
    line = f"[{'PASS' if passed else 'FAIL'}] {msg}"
    print(line)
    assert passed, line


def test_01_minor_algebra_against_determinant_oracles():
    rng = np.random.default_rng(1001)
    t0 = time.time()

    worst_oracle = 0.0
    for _ in range(1000):
        F = rng.normal(size=(3, 3))
        d = oracle_minor(F, (1, 2, 3), (1, 2, 3))
        worst_oracle = max(worst_oracle, abs(float(det3(F)) - d) / max(1.0, abs(d)))
        c = oracle_cofactor(F)
        scale = max(1.0, float(np.max(np.abs(c))))
        worst_oracle = max(worst_oracle, float(np.max(np.abs(cofactor(F) - c))) / scale)

    worst_norm = 0.0
    for _ in range(1000):
        F = rng.normal(size=(3, 3))
        n2 = oracle_norm_squared(F)
        worst_norm = max(worst_norm, abs(float(minors_norm_squared(F)) - n2) / n2)

    # Cauchy-Binet at orders 3 and 2
    worst_binet = 0.0
    for _ in range(1000):
        G = rng.normal(size=(3, 3))
        H = rng.normal(size=(3, 3))
        d = float(det3(G @ H))
        gap = abs(d - float(det3(G)) * float(det3(H))) / max(1.0, abs(d))
        c = cofactor(G @ H)
        scale = max(1.0, float(np.max(np.abs(c))))
        gap = max(gap, float(np.max(np.abs(c - cofactor(G) @ cofactor(H)))) / scale)
        worst_binet = max(worst_binet, gap)

    dt = time.time() - t0
    worst = max(worst_oracle, worst_norm, worst_binet)
    ok = worst <= 1e-10 and dt < 5.0
    _criterion(ok, "minor algebra: 1000-case det3/cofactor, |M|^2 and composition "
                   f"oracles, worst={worst:.2e} (tol 1e-10), {dt:.1f}s (limit 5s)")


def test_02_density_gradients_match_finite_differences():
    t0 = time.time()
    worst_name, worst = "", 0.0
    for density in ALL_DENSITIES:
        errs = gradient_consistency(density, n=100, seed=202)
        for leg, err in errs.items():
            if err > worst:
                worst_name, worst = f"{density.name}.{leg}", err
    dt = time.time() - t0
    ok = worst < 1e-6 and dt < 30.0
    _criterion(ok, f"derivatives: {len(ALL_DENSITIES)} densities x 100 states, "
                   f"worst FD mismatch {worst:.2e} at {worst_name} (tol 1e-6), "
                   f"{dt:.1f}s (limit 30s)")


def _anchored_hedgehog(res):
    """Radial unit director on the unit ball, singularity half a cell off
    the nodes so every per-cell winding is well defined."""
    grid = Grid.cube(res, lo=-1.0, hi=1.0)
    man = UnitSphere()
    state = identity_state(grid, man, nu0=EZ)
    c = np.full(3, 0.5 * grid.spacing[0])
    v = grid.node_coords() - c
    r = np.linalg.norm(v, axis=-1)
    state.nu = v / np.maximum(r, 1e-300)[..., None]
    state.active = ball_mask(grid)
    return state, man


def test_03_hedgehog_defect_detected_with_unit_charge():
    t0 = time.time()
    state, man = _anchored_hedgehog(48)
    rep = defect_charges(state, man)
    flux = d_field_boundary_flux(state, man)
    dt = time.time() - t0
    window = (4.0 * np.pi * 0.95, 4.0 * np.pi * 1.05)
    ok = (
        window[0] <= flux <= window[1]
        and len(rep.clusters) == 1
        and rep.clusters[0].charge == 1
        and rep.total_charge == 1
        and int(round(rep.boundary_degree)) == 1
        and dt < 20.0
    )
    _criterion(ok, f"hedgehog defect at 48^3: quadrature flux/4pi={flux / (4 * np.pi):.4f} "
                   f"(window [0.95, 1.05]), clusters={[(c.charge, c.cell_count) for c in rep.clusters]}, "
                   f"{dt:.1f}s (limit 20s)")


def test_04_hedgehog_energy_converges_toward_analytic_value():
    target = 4.0 * np.pi
    errors = {}
    for res in (24, 32, 48):
        state, _ = _anchored_hedgehog(res)
        e = total_energy(DirichletDescriptor(3), state)
        errors[res] = abs(e - target)
    ok = (
        errors[48] <= 0.10 * target
        and errors[24] > errors[32] > errors[48]
    )
    _criterion(ok, "hedgehog energy: |E - 4pi|/4pi = "
                   + ", ".join(f"{r}^3: {errors[r] / target:.4f}" for r in (24, 32, 48))
                   + " (monotone, <0.10 at 48^3)")


def test_06_every_preset_satisfies_weak_balance_at_24(tmp_path):
    ok = True
    for name in preset_names():
        cfg = dataclasses.replace(preset_config(name), resolution=24,
                                  checks={"weak_el": True})
        t0 = time.time()
        result = run(cfg, out_dir=tmp_path / name)
        dt = time.time() - t0
        weak = result.residuals.worst("weak_el")
        dual = result.residuals.worst("duality")
        converged = result.minimize_result.converged
        ok = ok and weak <= 1e-5 and dual <= 1e-12 and converged
        print(f"  {name}: weak={weak:.2e} duality={dual:.2e} converged={converged} "
              f"iters={result.minimize_result.iterations} ({dt:.0f}s)")
    _criterion(ok, "weak balance at 24^3: every preset converges within its "
                   "max_iters, 20 tests each, ratios <= 1e-5 and duality <= 1e-12")


def _converged_ratio(name, res, grad_tol=None):
    """Worst configurational residual ratio at a converged minimizer."""
    cfg = preset_config(name)
    mz = cfg.minimize
    if grad_tol is not None:
        mz = dataclasses.replace(mz, grad_tol=grad_tol)
    cfg = dataclasses.replace(cfg, resolution=res, minimize=mz, checks={})
    built = materialize(cfg)
    mres = minimize(built.density, built.state, built.manifold, cfg.minimize)
    assert mres.converged, f"{name} at {res}^3 did not converge"
    bf = assemble_actions(built.density, mres.state, built.manifold)
    tests = [build() for build in random_compact_tests(mres.state, 20, 3, seed=707)]
    rows = configurational_residual(bf, tests)
    return max(r.ratio for r in rows)


def test_07_configurational_balance_refines_at_minimizers():
    # the four box presets have smooth minimizers of x-independent densities;
    # the ball presets host defect cores where the pointwise identity is
    # singular and no rate is measurable
    resolutions = (8, 16, 32)
    ratios = {}
    for name in ("microcracked-vector", "porous-interval"):
        ratios[name] = [_converged_ratio(name, r) for r in resolutions]
    ratios["quasicrystal-shear"] = [_converged_ratio("quasicrystal-shear", 32)]
    # the layer preset needs a slightly looser descent tolerance at 32^3;
    # its residual is at round-off regardless
    ratios["smectic-layers"] = [_converged_ratio("smectic-layers", 32, grad_tol=1e-7)]

    ok = all(r[-1] <= 5e-2 for r in ratios.values())
    details = []
    h = np.log([1.0 / r for r in resolutions])
    for name in ("microcracked-vector", "porous-interval"):
        slope = float(np.polyfit(h, np.log(ratios[name]), 1)[0])
        ok = ok and slope >= 0.8
        details.append(f"{name}: ratios={['%.2e' % r for r in ratios[name]]} slope={slope:.2f}")
    for name in ("quasicrystal-shear", "smectic-layers"):
        # exact discrete equilibria: residual at round-off on every level
        details.append(f"{name}: ratio@32={ratios[name][-1]:.2e}")
    for line in details:
        print("  " + line)
    _criterion(ok, "configurational balance: ratios <= 5e-2 at 32^3, "
                   "refinement slope >= 0.8 over 8/16/32")


def test_08_rotational_balance_splits_objective_from_anchored():
    # the balance is an identity of a frame-indifferent density, so it is
    # checked on sampled states: five batches per density
    objective_worst = 0.0
    anchored_best = np.inf
    director_density = SumDensity(
        [CompressibleMacro(1.0, 0.7, 1.4, embed_dim=3), DirichletDescriptor(3)]
    )
    coupled_phason = Quasicrystal(
        macro=CompressibleMacro(0.5, 0.5, 1.0),
        phason_stiffness=1.0,
        coupling=0.05 * np.einsum("ia,jk->ijak", np.eye(3), np.eye(3)),
    )
    anchored = SumDensity(
        [DirichletDescriptor(3), EasyAxisAnchoring(EZ, weight=0.8)]
    )
    for seed in range(808, 813):
        for density, man in ((director_density, UnitSphere()), (coupled_phason, Euclidean(3))):
            rep = rotational_balance(density, man, 4000, seed)
            objective_worst = max(objective_worst, rep.ratio)
        rep = rotational_balance(anchored, UnitSphere(), 4000, seed)
        anchored_best = min(anchored_best, rep.ratio)
    ok = objective_worst < 1e-6 and anchored_best > 0.1
    _criterion(ok, f"rotational balance: objective worst {objective_worst:.2e} "
                   f"(tol 1e-6), frame-breaking fixture {anchored_best:.2f} (> 0.1)")


def test_09_admissibility_screens_maps():
    grid = Grid.cube(12, lo=0.0, hi=1.0)
    base = identity_state(grid, UnitSphere(), nu0=EZ)

    reflected = base.copy()
    reflected.u = reflected.u.copy()
    reflected.u[..., 0] *= -1.0
    reflection_rejected = not check_orientation(reflected).passed

    # angle doubling on an annular slab: orientation-preserving but two-to-one
    slab = Grid((-1.0, -1.0, 0.0), (1.0, 1.0, 1.0 / 12), (48, 48, 2))
    fold = identity_state(slab, UnitSphere(), nu0=EZ)
    pts = slab.node_coords()
    r = np.maximum(np.linalg.norm(pts[..., :2], axis=-1), 1e-9)
    fold.u[..., 0] = (pts[..., 0] ** 2 - pts[..., 1] ** 2) / r
    fold.u[..., 1] = 2.0 * pts[..., 0] * pts[..., 1] / r
    rc = np.linalg.norm(slab.cell_centers()[..., :2], axis=-1)
    fold.active = (rc > 0.35) & (rc < 0.95)
    folding_rejected = (not check_ciarlet_necas(fold).passed
                        and check_orientation(fold).passed)

    rigid = base.copy()
    R = rotation_from_vector(np.array([0.3, -0.2, 0.5]))
    rigid.u = base.u @ R.T + np.array([0.1, 0.2, -0.3])
    rig = check_ciarlet_necas(rigid)
    rigid_ok = (check_orientation(rigid).passed and rig.passed
                and abs(rig.slack) <= 1e-12 * rig.volume_integral)

    dilated = base.copy()
    dilated.u = 1.5 * base.u
    dil = check_ciarlet_necas(dilated)
    dilation_ok = (check_orientation(dilated).passed and dil.passed
                   and abs(dil.slack) <= 1e-12 * dil.volume_integral)

    ok = reflection_rejected and folding_rejected and rigid_ok and dilation_ok
    _criterion(ok, f"admissibility: reflection rejected={reflection_rejected}, "
                   f"fold rejected={folding_rejected}, rigid slack "
                   f"{abs(rig.slack) / rig.volume_integral:.1e}, dilation slack "
                   f"{abs(dil.slack) / dil.volume_integral:.1e} (tol 1e-12)")


def test_10_quasicrystal_growth_bound_holds_in_bulk():
    built = materialize(preset_config("quasicrystal-shear"))
    rep = check_growth(built.density, n=10_000, seed=1010)
    ok = rep.samples == 10_000 and rep.violations == 0
    _criterion(ok, f"growth bound: {built.density.name} (documented coercivity), "
                   f"{rep.samples} samples, {rep.violations} violations, "
                   f"min slack {rep.min_slack:.3e}")


def _artifact_digest(out_dir):
    digest = hashlib.sha256()
    for fname in ("trace.csv", "fields_u.csv", "fields_nu.csv", "fields.npz",
                  "residuals.csv", "report.txt"):
        digest.update((out_dir / fname).read_bytes())
    return digest.hexdigest()


def test_11_presets_run_fast_and_reproduce_bitwise(tmp_path):
    ok = True
    for name in preset_names():
        cfg = preset_config(name)
        t0 = time.time()
        first = run(cfg, out_dir=tmp_path / name / "one")
        dt1 = time.time() - t0
        t0 = time.time()
        run(cfg, out_dir=tmp_path / name / "two")
        dt2 = time.time() - t0
        same = (_artifact_digest(tmp_path / name / "one")
                == _artifact_digest(tmp_path / name / "two"))
        ok = ok and first.passed and same and dt1 < 60.0 and dt2 < 60.0
        line = (f"  {name}: {dt1:.1f}s/{dt2:.1f}s, checks "
                f"{sum(o.passed for o in first.outcomes)}/{len(first.outcomes)}, "
                f"bitwise={'yes' if same else 'NO'}")
        print(line)
    _criterion(ok, "determinism smoke: every preset at 16^3 under 60s "
                   "with byte-identical artifacts on repeat")
