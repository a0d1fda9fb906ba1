"""Projected gradient descent for discrete multifield energies.

The unknowns are nodal: deformation values u and descriptor values nu.  The
descent direction is the Riesz representative of the weak energy derivative
with respect to the lumped volume-weighted nodal inner product

    <a, b> = sum_nodes vol_node (a . b),

which makes the discrete gradient dual-exact against the assembled weak
residual: sum_n vol_n g . h equals the weak directional derivative for every
nodal perturbation h.  Descriptor components are projected to the manifold
tangent at each node, pinned and non-incident nodes are frozen, and trial
descriptor updates return to the manifold through the retraction.

Step control: Barzilai-Borwein initial step from the last accepted move,
safeguarded by Armijo backtracking.  Trial states that violate the
volumetric barrier (energy +inf) count as barrier rejections; finite trials
failing the sufficient-decrease test count as Armijo rejections.  The run is
deterministic: no randomness enters the iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import EnergyDensity, total_energy
from .errors import ConfigError, InadmissibleStartError
from .fields import (
    FieldState,
    divide_by_volume,
    gradients,
    node_volumes,
    scatter_cell_average_adjoint,
    scatter_gradient_adjoint,
)
from .manifolds import Manifold

BLOCK_MODES = ("joint", "u-only", "nu-only", "alternate")


@dataclass(frozen=True)
class MinimizeConfig:
    max_iters: int = 500
    grad_tol: float = 1e-6
    energy_tol: float = 0.0
    step0: float = 1.0
    backtrack: float = 0.5
    armijo_c: float = 1e-4
    max_backtracks: int = 40
    bb_steps: bool = True
    step_max: float = 1e6
    block_mode: str = "joint"
    log_every: int = 0

    def __post_init__(self):
        if self.block_mode not in BLOCK_MODES:
            raise ConfigError(f"block_mode must be one of {BLOCK_MODES}")
        for name in ("grad_tol", "energy_tol", "step0", "backtrack", "armijo_c", "step_max"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not (0 < self.backtrack < 1):
            raise ConfigError("backtrack factor must lie in (0, 1)")
        if self.step0 <= 0 or self.armijo_c <= 0 or self.step_max <= 0:
            raise ConfigError("step0, armijo_c and step_max must be positive")
        for name in ("max_iters", "log_every", "grad_tol", "energy_tol"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must not be negative, got {getattr(self, name)}")
        if self.max_backtracks < 1:
            raise ConfigError("max_backtracks must be at least 1")


@dataclass
class MinimizeResult:
    state: FieldState
    converged: bool
    iterations: int
    energy: float
    grad_sup: float
    barrier_rejects: int
    armijo_rejects: int
    stalled: bool
    message: str
    trace: np.ndarray = field(default_factory=lambda: np.zeros((0, 4)))
    # trace columns: energy, grad sup-norm, accepted step, rejects this iter


def riesz_gradient(density: EnergyDensity, state: FieldState,
                   manifold: Manifold | None = None,
                   project: bool = True,
                   vols: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Volume-weighted nodal gradient of the discrete energy.

    With project=True the descriptor part is tangent-projected and both
    parts are zeroed on pinned and non-incident nodes; project=False returns
    the unconstrained representative (used by duality tests).  vols are the
    lumped nodal volumes of the state's mask, built here when not given.

    Only the partials of the slots the density reads are scattered.  Each
    other partial is zero, and its scatter is all +0.0; a scatter starts
    from +0.0 and so never holds -0.0, so adding it would change no bit.
    """
    grid = state.grid
    reads = density.reads
    gf = gradients(state, reads)
    args = (gf.x, gf.u_bar, gf.F, gf.nu_bar, gf.N)

    def raw(grad_slot, d_grad, avg_slot, d_avg, shape):
        out = None
        if grad_slot in reads:
            out = scatter_gradient_adjoint(d_grad(*args), grid, state.active)
        if avg_slot in reads:
            avg = scatter_cell_average_adjoint(d_avg(*args), grid, state.active)
            out = avg if out is None else out + avg
        return np.zeros(shape) if out is None else out

    raw_u = raw("F", density.d_F, "u", density.d_u, state.u.shape)
    raw_nu = raw("N", density.d_N, "nu", density.d_nu, state.nu.shape)

    if vols is None:
        vols = node_volumes(grid, state.active)
    g_u = divide_by_volume(raw_u, vols)
    g_nu = divide_by_volume(raw_nu, vols)

    if grid.dim == 2:
        g_u[..., 2] = 0.0
    if project:
        if manifold is not None:
            g_nu = manifold.tangent_project(state.nu, g_nu)
        incident = vols > 0
        g_u[~incident] = 0.0
        g_nu[~incident] = 0.0
        g_u[state.pinned_u] = 0.0
        g_nu[state.pinned_nu] = 0.0
    return g_u, g_nu


def _apply_block_mode(g_u, g_nu, mode, it):
    if mode == "u-only":
        g_nu = np.zeros_like(g_nu)
    elif mode == "nu-only":
        g_u = np.zeros_like(g_u)
    elif mode == "alternate":
        if it % 2 == 0:
            g_nu = np.zeros_like(g_nu)
        else:
            g_u = np.zeros_like(g_u)
    return g_u, g_nu


def minimize(density: EnergyDensity, state: FieldState, manifold: Manifold,
             config: MinimizeConfig = MinimizeConfig(),
             callback=None) -> MinimizeResult:
    """Descend the discrete energy from state; the input is not mutated."""
    state = state.copy()
    grid = state.grid
    vols = node_volumes(grid, state.active)

    energy = total_energy(density, state)
    if not np.isfinite(energy):
        raise InadmissibleStartError(
            "initial state violates the volumetric barrier (energy is not finite)"
        )

    def inner(a_u, a_nu, b_u, b_nu):
        return float(
            np.sum(a_u * b_u * vols[..., None]) + np.sum(a_nu * b_nu * vols[..., None])
        )

    trace_rows = []
    barrier_rejects = 0
    armijo_rejects = 0
    converged = False
    stalled = False
    message = "max iterations reached"
    prev: dict[int, tuple] = {}  # parity -> (dx_u, dx_nu, g_u, g_nu)
    last_step = config.step0
    it = 0

    for it in range(config.max_iters):
        g_u, g_nu = riesz_gradient(density, state, manifold, vols=vols)
        g_u, g_nu = _apply_block_mode(g_u, g_nu, config.block_mode, it)
        sup = max(float(np.max(np.abs(g_u))), float(np.max(np.abs(g_nu))))
        gnorm2 = inner(g_u, g_nu, g_u, g_nu)

        if callback is not None and config.log_every and it % config.log_every == 0:
            callback(it, energy, sup, last_step)
        if sup <= config.grad_tol:
            trace_rows.append((energy, sup, 0.0, 0))
            converged = True
            message = "gradient tolerance reached"
            break

        parity = it % 2 if config.block_mode == "alternate" else 0
        step = config.step0
        if config.bb_steps and parity in prev:
            dx_u, dx_nu, pg_u, pg_nu = prev[parity]
            den = inner(dx_u, dx_nu, g_u - pg_u, g_nu - pg_nu)
            num = inner(dx_u, dx_nu, dx_u, dx_nu)
            if den > 0 and num > 0:
                step = min(num / den, config.step_max)
            else:
                step = min(last_step * 2.0, config.step_max)
        elif it > 0:
            step = min(last_step * 2.0, config.step_max)

        accepted = False
        rejects_here = 0
        for _ in range(config.max_backtracks):
            trial = state.copy()
            trial.u = state.u - step * g_u
            trial.nu = manifold.retract(state.nu, -step * g_nu)
            e_trial = total_energy(density, trial)
            if not np.isfinite(e_trial):
                barrier_rejects += 1
                rejects_here += 1
                step *= config.backtrack
                continue
            if e_trial <= energy - config.armijo_c * step * gnorm2:
                accepted = True
                break
            armijo_rejects += 1
            rejects_here += 1
            step *= config.backtrack

        trace_rows.append((energy, sup, step if accepted else 0.0, rejects_here))
        if not accepted:
            stalled = True
            message = "line search stalled"
            break

        prev[parity] = (trial.u - state.u, trial.nu - state.nu, g_u, g_nu)
        decrease = energy - e_trial
        state = trial
        energy = e_trial
        last_step = step
        if config.energy_tol > 0 and decrease < config.energy_tol * max(1.0, abs(energy)):
            message = "energy decrease below tolerance"
            break
    else:
        it = config.max_iters

    if not trace_rows or (not converged and not stalled and trace_rows[-1][0] != energy):
        g_u, g_nu = riesz_gradient(density, state, manifold, vols=vols)
        g_u, g_nu = _apply_block_mode(g_u, g_nu, config.block_mode, it)
        sup = max(float(np.max(np.abs(g_u))), float(np.max(np.abs(g_nu))))
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
        stalled=stalled,
        message=message,
        trace=trace,
    )
