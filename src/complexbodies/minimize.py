"""Sobolev-preconditioned conjugate gradients for discrete multifield energies.

The unknowns are nodal: deformation values u and descriptor values nu.  The
gradient is the Riesz representative of the weak energy derivative with
respect to the lumped volume-weighted nodal inner product

    <a, b> = sum_nodes vol_node (a . b),

which makes the discrete gradient dual-exact against the assembled weak
residual: sum_n vol_n g . h equals the weak directional derivative for every
nodal perturbation h.  Both read the actions of balance.assemble_actions,
the one cellwise pass over a density's partials, by the field table
fields.FIELDS: per field the gradient scatters its gradient slot's and its
average slot's actions, the weak residual gathers the same slots.  Descriptor
components are projected to the manifold tangent at each node, pinned and
non-incident nodes are frozen, and trial descriptor updates return to the
manifold through the retraction.  The stop is on this L2 gradient: its sup
norm at most grad_tol.

Directions come from the H1 metric of the stencil instead.  Each block, one
per field of FIELDS, is preconditioned with P = K + M on its free nodes
(fields.h1_solver: the stiffness of the cell gradient plus the lumped
volumes), so the Sobolev gradient z = P^-1 M g is the representative of
the same derivative in the metric of the continuum problem, and the
iteration counts do not grow with the grid.  Directions are Polak-Ribiere+ conjugate, with the
previous descriptor direction tangent-projected at the new point, and
restart along -z when the conjugate one does not descend.  A block whose
slots the density does not read has a zero gradient and is skipped.

Step control: a secant step on the directional derivative, from one trial
gradient at the first trial step (STEP0 in the first iteration, then the last
accepted step scaled to the same first-order decrease), doubled while the
derivative does not rise and the trial decreases the energy sufficiently;
then Armijo backtracking, within one budget of MAX_BACKTRACKS trials.
Trial states that violate the volumetric barrier (energy
+inf) count as barrier rejections; finite trials failing the
sufficient-decrease test count as Armijo rejections.  The run is
deterministic: no randomness enters the iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .balance import assemble_actions
from .energy import EnergyDensity, total_energy
from .errors import ConfigError, InadmissibleStartError
from .fields import (
    FIELDS,
    FieldState,
    divide_by_volume,
    h1_solver,
    node_volumes,
    scatter_cell_average_adjoint,
    scatter_gradient_adjoint,
)
from .manifolds import Manifold


# line search constants
STEP0 = 1.0          # first trial step of the first iteration
BACKTRACK = 0.5      # step factor after a rejected trial
ARMIJO_C = 1e-4      # sufficient-decrease constant
MAX_BACKTRACKS = 40  # trials per iteration
STEP_MAX = 1e6       # cap on every trial step


@dataclass(frozen=True)
class MinimizeConfig:
    max_iters: int = 500
    grad_tol: float = 1e-6
    log_every: int = 0

    def __post_init__(self):
        if not math.isfinite(self.grad_tol):
            raise ConfigError(f"grad_tol must be finite, got {self.grad_tol}")
        for name in ("max_iters", "log_every", "grad_tol"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must not be negative, got {getattr(self, name)}")


@dataclass
class MinimizeResult:
    state: FieldState
    converged: bool
    iterations: int
    energy: float
    grad_sup: float
    barrier_rejects: int
    armijo_rejects: int
    message: str
    trace: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))
    # trace columns: energy, grad sup-norm, accepted step, rejects this iter
    # (g_u, g_nu, vols): the Riesz gradient at state and the lumped volumes
    # it was taken with; None when the run never took it at state
    gradient: tuple | None = field(default=None, repr=False)


def riesz_gradient(density: EnergyDensity, state: FieldState, manifold: Manifold,
                   vols: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Volume-weighted nodal gradient of the discrete energy.

    The descriptor part is tangent-projected onto the manifold and both
    parts are zeroed on pinned and non-incident nodes.  vols are the
    lumped nodal volumes of the state's mask, built here when not given.

    Per field of fields.FIELDS the gradient scatters the actions of
    balance.assemble_actions for its gradient slot and its average slot,
    each dropped right after its scatter.  A slot the density does not read
    has no action: its partial is zero, and so is its scatter, which
    starts from +0.0 and so would change no bit.  A field whose slots the
    density reads not at all gets zeros, with no division or projection.
    """
    grid = state.grid
    actions = assemble_actions(density, state, manifold).actions
    if vols is None:
        vols = node_volumes(grid, state.active)
    incident = vols > 0
    g = {}
    for name, (avg_slot, grad_slot) in FIELDS.items():
        raw = None
        if grad_slot in actions:
            raw = scatter_gradient_adjoint(actions.pop(grad_slot), grid, state.active)
        if avg_slot in actions:
            avg = scatter_cell_average_adjoint(actions.pop(avg_slot), grid, state.active)
            raw = avg if raw is None else raw + avg
        if raw is None:
            g[name] = np.zeros(getattr(state, name).shape)
            continue
        g[name] = divide_by_volume(raw, vols)
        if name == "nu":
            g[name] = manifold.tangent_project(state.nu, g[name])
        g[name][~incident] = 0.0
        g[name][getattr(state, "pinned_" + name)] = 0.0
    return g["u"], g["nu"]


def minimize(density: EnergyDensity, state: FieldState, manifold: Manifold,
             config: MinimizeConfig = MinimizeConfig(),
             callback=None) -> MinimizeResult:
    """Descend the discrete energy from state; the input is not mutated."""
    state = state.copy()
    grid = state.grid
    vols = node_volumes(grid, state.active)
    weight = vols[..., None]

    energy = total_energy(density, state)
    if not np.isfinite(energy):
        raise InadmissibleStartError(
            "initial state violates the volumetric barrier (energy is not finite)"
        )

    # the blocks that descend: a block whose slots the density does not read,
    # or that has no free node, keeps a zero gradient and is skipped
    solvers = {}
    for name, slots in FIELDS.items():
        free = (vols > 0) & ~getattr(state, "pinned_" + name)
        if density.reads & set(slots) and free.any():
            solvers[name] = h1_solver(grid, free)

    def gradient(at: FieldState) -> dict:
        return dict(zip(FIELDS, riesz_gradient(density, at, manifold, vols=vols)))

    def inner(a: dict, b: dict) -> float:
        return sum(float(np.sum(a[k] * b[k] * weight)) for k in solvers)

    def sup_norm(g: dict) -> float:
        return max((float(np.max(np.abs(g[k]))) for k in solvers), default=0.0)

    def moved(t: float, d: dict) -> FieldState:
        return FieldState(
            grid=grid,
            u=state.u + t * d["u"] if "u" in d else state.u,
            nu=manifold.retract(state.nu, t * d["nu"]) if "nu" in d else state.nu,
            pinned_u=state.pinned_u,
            pinned_nu=state.pinned_nu,
            active=state.active,
        )

    trace_rows = []
    barrier_rejects = 0
    armijo_rejects = 0
    converged = False
    stalled = False
    message = "max iterations reached"
    d = d_z = gz = None  # last direction, its z and <g, z> at its iterate
    g = None  # the gradient at state, once taken
    last_step, last_slope = STEP0, None

    for it in range(config.max_iters):
        g = gradient(state)
        sup = sup_norm(g)

        if callback is not None and config.log_every and it % config.log_every == 0:
            callback(it, energy, sup, last_step)
        if sup <= config.grad_tol:
            trace_rows.append((energy, sup, 0.0, 0))
            converged = True
            message = "gradient tolerance reached"
            break

        # H1 (Sobolev) gradient z = P^-1 M g, then Polak-Ribiere+ conjugation
        z = {k: solve(g[k] * weight) for k, solve in solvers.items()}
        if "nu" in z:
            z["nu"] = manifold.tangent_project(state.nu, z["nu"])
        gz_new = inner(g, z)
        direction = {k: -z[k] for k in solvers}
        if d is not None:
            beta = max(0.0, (gz_new - inner(g, d_z)) / gz)
            if beta > 0.0:
                prev = dict(d)
                if "nu" in prev:
                    prev["nu"] = manifold.tangent_project(state.nu, prev["nu"])
                conj = {k: direction[k] + beta * prev[k] for k in solvers}
                if inner(g, conj) < 0.0:
                    direction = conj
        slope = inner(g, direction)
        d, d_z, gz = direction, z, gz_new

        # a secant step on the directional derivative from one trial gradient,
        # then Armijo backtracking; the first trial expects the first-order
        # decrease of the last step
        step = STEP0
        if it > 0:
            step = min(last_step * last_slope / slope, STEP_MAX)
        last_slope = slope
        secant, accepted, rejects_here = True, False, 0
        for _ in range(MAX_BACKTRACKS):
            trial = moved(step, d)
            e_trial = total_energy(density, trial)
            if not np.isfinite(e_trial):
                barrier_rejects += 1
                rejects_here += 1
                step *= BACKTRACK
                continue
            sufficient = e_trial <= energy + ARMIJO_C * step * slope
            if secant:
                slope1 = inner(gradient(trial), d)
                if slope1 > slope:
                    secant = False
                    step = min(step * slope / (slope - slope1), STEP_MAX)
                    continue
                # the derivative did not rise (also when the trial is too short
                # to move the state): double while the decrease is sufficient,
                # else test this trial as the step
                if sufficient and step < STEP_MAX:
                    step = min(2.0 * step, STEP_MAX)
                    continue
                secant = False
            if sufficient:
                accepted = True
                break
            armijo_rejects += 1
            rejects_here += 1
            step *= BACKTRACK

        trace_rows.append((energy, sup, step if accepted else 0.0, rejects_here))
        if not accepted:
            stalled = True
            message = "line search stalled"
            break

        state = trial
        energy = e_trial
        last_step = step
        g = None

    if not trace_rows or (not converged and not stalled and trace_rows[-1][0] != energy):
        g = gradient(state)
        sup = sup_norm(g)
        if sup <= config.grad_tol:
            converged = True
            message = "gradient tolerance reached"
        trace_rows.append((energy, sup, 0.0, 0))

    trace = np.array(trace_rows)
    return MinimizeResult(
        state=state,
        converged=converged,
        iterations=len(trace_rows) - 1,
        energy=energy,
        grad_sup=float(trace[-1, 1]),
        barrier_rejects=barrier_rejects,
        armijo_rejects=armijo_rejects,
        message=message,
        trace=trace,
        gradient=None if g is None else (g["u"], g["nu"], vols),
    )
