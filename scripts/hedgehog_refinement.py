#!/usr/bin/env python3
"""Refinement study for the radial point-defect director.

For each resolution the script builds the analytic radial field on the unit
ball (singularity anchored half a cell off the nodes), reports its Dirichlet
energy against the 4*pi limit and both defect-flux routes, and optionally
relaxes it with the descent driver to compare minimized energies.

Usage:
    python3 scripts/hedgehog_refinement.py --resolutions 16 24 32 48
    python3 scripts/hedgehog_refinement.py --minimize --out study.csv
"""

import argparse
import sys
import time

import numpy as np

from complexbodies.admissibility import d_field_boundary_flux, defect_charges
from complexbodies.energy import DirichletDescriptor, total_energy
from complexbodies.fields import Grid, ball_mask, identity_state
from complexbodies.manifolds import UnitSphere
from complexbodies.minimize import MinimizeConfig, minimize
from complexbodies.scenarios import apply_boundary


def anchored_hedgehog(res):
    grid = Grid.cube(res, lo=-1.0, hi=1.0)
    man = UnitSphere()
    state = identity_state(grid, man, nu0=np.array([0.0, 0.0, 1.0]))
    center = np.full(3, 0.5 * grid.spacing[0])
    v = grid.node_coords() - center
    r = np.linalg.norm(v, axis=-1)
    state.nu = v / np.maximum(r, 1e-300)[..., None]
    state.active = ball_mask(grid)
    return state, man


def study_row(res, do_minimize, grad_tol):
    state, man = anchored_hedgehog(res)
    density = DirichletDescriptor(3)
    e_analytic = total_energy(density, state)
    rep = defect_charges(state, man)
    flux = d_field_boundary_flux(state, man)
    row = {
        "resolution": res,
        "energy_analytic": e_analytic,
        "energy_over_4pi": e_analytic / (4.0 * np.pi),
        "flux_quadrature_over_4pi": flux / (4.0 * np.pi),
        "total_charge": rep.total_charge,
        "clusters": len(rep.clusters),
    }
    if do_minimize:
        apply_boundary("radial-director", {}, state, man)
        t0 = time.perf_counter()
        mres = minimize(density, state, man,
                        MinimizeConfig(max_iters=6000, grad_tol=grad_tol))
        row["energy_minimized"] = mres.energy
        row["iterations"] = mres.iterations
        row["converged"] = mres.converged
        row["seconds"] = time.perf_counter() - t0
    return row


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--resolutions", type=int, nargs="+",
                        default=[16, 24, 32, 48])
    parser.add_argument("--minimize", action="store_true",
                        help="also relax the field at each resolution")
    parser.add_argument("--grad-tol", type=float, default=1e-6)
    parser.add_argument("--out", default=None, help="write rows as CSV")
    args = parser.parse_args(argv)

    rows = []
    for res in args.resolutions:
        row = study_row(res, args.minimize, args.grad_tol)
        rows.append(row)
        parts = [f"{res}^3: E/4pi={row['energy_over_4pi']:.4f}",
                 f"flux/4pi={row['flux_quadrature_over_4pi']:.4f}",
                 f"charge={row['total_charge']} in {row['clusters']} cluster(s)"]
        if args.minimize:
            parts.append(f"E_min={row['energy_minimized']:.5f} "
                         f"({row['iterations']} iters, {row['seconds']:.1f}s)")
        print("  ".join(parts))

    if args.out:
        keys = list(rows[0])
        lines = [",".join(keys)]
        lines += [",".join(str(r[k]) for k in keys) for r in rows]
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
