"""Properties that every correct ground state of a workload scenario has.

No check compares with a stored copy of earlier output: each one follows
from the boundary data, the density or the definition of a minimizer, so a
different but correct discretization or solver still passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from complexbodies.admissibility import defect_charges
from complexbodies.energy import total_energy
from complexbodies.fields import FieldState, gradients, incident_node_mask

EXACT = 1e-12  # identities that hold to rounding, on values of order one
# E(start) - E(min) = E(start - min) holds up to the residual gradient times
# the distance travelled; at grad_tol = 1e-7 that is 4e-10 relative
QUADRATIC = 1e-8


@dataclass
class Outcome:
    """One scenario's start and result, as the checks read them."""

    config: object      # ScenarioConfig as parsed from the frozen INI file
    density: object
    manifold: object
    start: FieldState
    final: FieldState
    energy: float
    converged: bool
    grad_sup: float
    trace: np.ndarray   # minimize trace; column 0 is the energy
    checks_passed: bool

    @classmethod
    def from_run(cls, built, result):
        mres = result.minimize_result
        return cls(
            config=result.config,
            density=built.density,
            manifold=built.manifold,
            start=built.state,
            final=mres.state,
            energy=mres.energy,
            converged=mres.converged,
            grad_sup=mres.grad_sup,
            trace=mres.trace,
            checks_passed=result.passed,
        )


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _max_abs(values: np.ndarray, mask: np.ndarray) -> float:
    return float(np.max(np.abs(values[mask]), initial=0.0))


def _unit_on_incident(state: FieldState, vectors: np.ndarray) -> float:
    mask = incident_node_mask(state.grid, state.active)
    return float(np.max(np.abs(np.linalg.norm(vectors[mask], axis=-1) - 1.0)))


def common(o: Outcome) -> dict:
    """Checks that hold for every scenario: convergence, descent, pins."""
    start_energy = total_energy(o.density, o.start)
    final_energy = total_energy(o.density, o.final)
    return {
        "checks_passed": o.checks_passed,
        "converged": bool(o.converged) and o.grad_sup <= o.config.minimize.grad_tol,
        "energy_of_final_state": _close(o.energy, final_energy, EXACT),
        "energy_not_above_start": o.energy <= start_energy,
        "trace_non_increasing": bool(np.all(np.diff(o.trace[:, 0]) <= 0.0)),
        # retracting a pinned director onto the sphere may move its last bit
        "pins_kept": max(_max_abs(o.final.u - o.start.u, o.start.pinned_u),
                         _max_abs(o.final.nu - o.start.nu, o.start.pinned_nu)) <= EXACT,
    }


def hedgehog(o: Outcome) -> dict:
    return {
        "director_unit": _unit_on_incident(o.final, o.final.nu) <= EXACT,
        # the degree of the boundary data x/|x|
        "total_charge_plus_one": defect_charges(o.final, o.manifold).total_charge == 1,
    }


def porous_interval(o: Outcome) -> dict:
    lo, hi = o.manifold.lo, o.manifold.hi
    return {"order_in_interval": bool(np.all((o.final.nu >= lo) & (o.final.nu <= hi)))}


def smectic_layers(o: Outcome) -> dict:
    # layer-director embeds as (phase, director)
    return {"director_unit": _unit_on_incident(o.final, o.final.nu[..., 1:4]) <= EXACT}


def microcracked_vector(o: Outcome) -> dict:
    """A quadratic energy without linear term: E(s) - E(m) = E(s - m) at a
    minimizer m, for any start s that agrees with m on the pins."""
    diff = o.start.copy()
    diff.u = o.start.grid.node_coords() + o.start.u - o.final.u
    diff.nu = o.start.nu - o.final.nu
    drop = total_energy(o.density, o.start) - o.energy
    return {"quadratic_identity": abs(drop - total_energy(o.density, diff))
            <= QUADRATIC * abs(drop)}


def quasicrystal_shear(o: Outcome) -> dict:
    """The affine shear F = I + g e1 (x) e2 has |F|^2 = |cof F|^2 = 3 + g^2 and
    det F = 1, and minimizes the polyconvex macro energy under affine data."""
    cfg = o.config
    g = cfg.boundary_params["gamma"]
    a, b = cfg.density_params["a"], cfg.density_params["b"]
    expected = (a + b) * (3.0 + g**2) * (cfg.hi - cfg.lo) ** 3
    x = o.final.grid.node_coords()
    shear = x.copy()
    shear[..., 0] += g * x[..., 1]
    return {
        "energy_affine_shear": _close(o.energy, expected, EXACT),
        "placement_affine_shear": float(np.max(np.abs(o.final.u - shear))) <= EXACT,
        "phason_gradient_zero": float(np.max(np.abs(gradients(o.final).N))) <= EXACT,
    }


BY_SCENARIO = {
    "nematic-hedgehog": hedgehog,
    "microcracked-vector": microcracked_vector,
    "smectic-layers": smectic_layers,
    "porous-interval": porous_interval,
    "quasicrystal-shear": quasicrystal_shear,
}


def check(o: Outcome) -> dict:
    """Every property of the outcome's scenario, by name -> passed."""
    out = common(o)
    out.update(BY_SCENARIO[o.config.name](o))
    return {k: bool(v) for k, v in out.items()}
