"""Balance-law verification on discrete states.

From a state and a density this module assembles the actions, the
density's own partials d_<slot> on the cells, keyed by slot.  Each pairs
with one kinematic of one field (fields.FIELDS): d_F (the Piola stress P)
with Du, d_u with u, d_N (the microstress S) with Dnu and d_nu (the net
substructural action z, kept in the ambient embedding, where it pairs
with the assembled gradient exactly) with nu.  Every balance the theory
provides is evaluated from them:

* weak Euler-Lagrange residual of one compactly supported nodal test
  pair (h, upsilon), dual-exact to the minimizer's assembled gradient;
  the test fields are drawn up front and built on demand, one builder per
  field, so pairs can be checked in any order or concurrently;
* the rotational balance: the axial vector of P F^T must equal
  A* z + (DA)* S for the internal parts of the density, an identity of a
  frame-indifferent density at every state, so it is checked on sampled
  states of the density, not on the result;
* the configurational balance through the energy-momentum tensor
  PP = e I - F^T P - N^T S.

Ratios always divide a raw residual by the accumulated magnitude of the
terms entering it, so "small" is meaningful per law and per test.

The actions and the weak residual's per-cell terms are computed a slab of
cell rows at a time (fields.cellwise, Grid.slabs); every integral is then
taken over the whole grid, so the results are those of a whole-grid pass,
bit for bit.  BalanceFields keeps the actions only: the cell kinematics
are gathered again where a balance reads them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .energy import EnergyDensity, sample_states
from .errors import GeneratorUnavailableError, NonTangentTestError, ShapeMismatchError
from .fields import (
    FIELDS,
    SLOTS,
    FieldState,
    GradientField,
    cellwise,
    gradients,
    integrate_cells,
    interior_node_mask,
)
from .manifolds import LEVI, Manifold

_TINY = 1e-300
# largest drift of a descriptor test field off the tangent space, relative
# to 1 + its sup norm, that weak_el_residual accepts
TANGENT_TOL = 1e-8
# cells between the support of a random test field and the active boundary
TEST_MARGIN = 2


@dataclass(frozen=True)
class Residual:
    name: str
    raw: float
    scale: float

    @property
    def ratio(self) -> float:
        if self.scale > _TINY:
            return abs(self.raw) / self.scale
        return 0.0 if self.raw == 0.0 else np.inf


@dataclass
class BalanceFields:
    state: FieldState
    density: EnergyDensity
    manifold: Manifold
    # slot -> the density's partial d_<slot> on the cells, for the slots of
    # fields.FIELDS that the density reads, in SLOTS order
    actions: dict[str, np.ndarray]

    @property
    def gf(self) -> GradientField:
        """The state's cell kinematics, gathered anew on each access: the
        weak-EL pairs never read them, so they are not kept under them."""
        return gradients(self.state)


def assemble_actions(density: EnergyDensity, state: FieldState,
                     manifold: Manifold) -> BalanceFields:
    """The cellwise partials of the field slots the density reads, a slab at
    a time.  An unread slot has no action: its partial is the base class's
    zero, and every consumer skips it.  The energy and its x-partial, which
    only the configurational balance reads, are taken there from gf.
    """
    field_slots = {s for pair in FIELDS.values() for s in pair}
    slots = [s for s in SLOTS if s in density.reads & field_slots]

    def partials(rows):
        gf = gradients(state, density.reads, rows)
        return tuple(getattr(density, "d_" + s)(*gf) for s in slots)

    return BalanceFields(state, density, manifold,
                         dict(zip(slots, cellwise(state.grid, partials))))


# ---------------------------------------------------------------------------
# test fields
# ---------------------------------------------------------------------------

def _bump(xi):
    """C^1 compact bump on [-1, 1]: (1 - xi^2)^2 clipped outside."""
    return np.clip(1.0 - xi**2, 0.0, None) ** 2


def random_compact_tests(state: FieldState, n: int, components: int, seed: int = 0,
                         manifold: Manifold | None = None) -> list[Callable[[], np.ndarray]]:
    """Draw n smooth random nodal fields vanishing outside the interior.

    Gaussian-times-bump profiles with random centers and polarizations;
    when a manifold is given, fields are tangent-projected at the nodes
    (descriptor tests).  Pinned nodes are always zeroed.  Every random
    draw is made here, in order, and one builder per field is returned:
    calling it builds that field anew.  The fields therefore do not depend
    on when, in which order or on which thread they are built, and a caller
    that drops each field after use holds only the ones it is using.
    """
    grid = state.grid
    rng = np.random.default_rng(seed)
    # each profile factor is separable: evaluate it on an axis's nodes and
    # broadcast; 0 + a and 1 * a are exact, so the sum and products over
    # axes equal those taken on full node arrays bit for bit
    axes = [x.reshape([-1 if a == ax else 1 for a in range(grid.dim)])
            for ax, x in enumerate(grid.node_axes())]
    lo = np.asarray(grid.lo)
    hi = np.asarray(grid.hi)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    interior = interior_node_mask(grid, state.active, margin=TEST_MARGIN)
    shell = 1.0
    for ax, x in enumerate(axes):
        shell = shell * _bump((x - mid[ax]) / half[ax])

    def build(center, width, pol, phase, freq):
        r2 = 0.0
        wave = 1.0
        for ax, x in enumerate(axes):
            xi = (x - center[ax]) / width
            r2 = r2 + xi**2
            wave = wave * np.cos(freq[ax] * np.pi * (x - lo[ax]) / (2 * half[ax]) + phase[ax])
        profile = np.exp(-r2) * wave * shell
        del r2, wave  # each temporary goes before the next full-size array
        f = profile[..., None] * pol
        del profile
        f = np.where(interior[..., None], f, 0.0)
        if manifold is not None:
            f = manifold.tangent_project(state.nu, f)
            f[state.pinned_nu] = 0.0
        else:
            f[state.pinned_u] = 0.0
        return f

    builders = []
    for _ in range(n):
        center = mid + (rng.uniform(-0.4, 0.4, size=grid.dim)) * half
        width = rng.uniform(0.15, 0.45) * float(np.min(half))
        pol = rng.normal(size=components)
        phase = rng.uniform(0, 2 * np.pi, size=grid.dim)
        freq = rng.uniform(1.0, 3.0, size=grid.dim)
        builders.append(partial(build, center, width, pol, phase, freq))
    return builders


# ---------------------------------------------------------------------------
# weak Euler-Lagrange
# ---------------------------------------------------------------------------

def weak_el_residual(bf: BalanceFields, h: np.ndarray, ups: np.ndarray,
                     k: int = 0) -> Residual:
    """Weak equilibrium residual of test pair k, (h, upsilon).

    Quadrature of d_u . h + d_F : Dh + d_nu . upsilon + d_N : Dupsilon over
    the active cells, one term per action, using the raw embedding action so
    the value agrees with the assembled minimizer gradient to round-off.
    The pair is gathered as a FieldState, so only the slots that bf holds
    actions for are built.  upsilon must be tangent at the nodal descriptor.
    Only bf is shared and it is only read, so pairs may be checked on
    concurrent threads.
    """
    state = bf.state
    grid = state.grid
    if h.shape != state.u.shape or ups.shape != state.nu.shape:
        raise ShapeMismatchError("test fields must match nodal shapes")
    # the projection, its difference from upsilon and both absolute values
    # share one nodal buffer, freed before the terms are built
    buf = bf.manifold.tangent_project(state.nu, ups)
    drift = np.max(np.abs(np.subtract(ups, buf, out=buf), out=buf))
    if drift > TANGENT_TOL * (1.0 + np.max(np.abs(ups, out=buf))):
        raise NonTangentTestError(
            f"test {k}: descriptor variation leaves the tangent space ({drift:.2e})"
        )
    del buf
    test = FieldState(grid, h, ups, state.pinned_u, state.pinned_nu, state.active)

    # one slab's averages and gradients are alive at a time; their
    # per-cell sums are integrated over the whole grid
    def terms(rows):
        kinematics = dict(zip(SLOTS, gradients(test, bf.actions, rows)))
        signed = np.zeros((rows.stop - rows.start,) + grid.cells[1:])
        size = np.zeros(signed.shape)
        for slot, action in bf.actions.items():
            comp = "ij"[: action.ndim - grid.dim]  # the slot's component axes
            t = np.einsum(f"...{comp},...{comp}->...", action[rows], kinematics[slot])
            signed += t
            size += np.abs(t)
        return signed, size

    signed, size = cellwise(grid, terms)
    raw = integrate_cells(signed, grid, state.active)
    scale = integrate_cells(size, grid, state.active)
    return Residual(name=f"weak_el[{k}]", raw=raw, scale=scale)


# ---------------------------------------------------------------------------
# rotational balance
# ---------------------------------------------------------------------------

def rotational_balance(density: EnergyDensity, manifold: Manifold, n: int,
                       seed: int) -> Residual:
    """Axial residual of P F^T against the substructural rotation terms.

    For a density whose internal parts are frame-indifferent the identity

        eps_{jab} (P F^T)_{ab} = (A* z)_j + sum_i (N_i x S_i)-type term

    holds at every state (F, nu, N), with P, S and z the partials of the
    internal parts only: an external part models an applied load, which
    need not be objective.  A is the manifold's rotation generator, linear
    in the descriptor, so its derivative dA is one constant tensor.

    It is evaluated on one sample_states batch of n states drawn from seed,
    the descriptor a raw ambient point, as a cell average is.  Each sample
    is scored by its residual over the sum of the magnitudes of its three
    terms, and the worst sample's raw and scale are returned: one sup over
    the batch would let large samples hide a small one's residual.
    """
    if not manifold.rotation_generator_defined:
        raise GeneratorUnavailableError(
            "rotational balance needs a manifold with a rotation generator"
        )
    s = sample_states(np.random.default_rng(seed), n, density.embed_dim)
    internal = [part for part in density.parts if not part.external]

    def partial(leg, like):
        return sum((getattr(part, leg)(*s) for part in internal), np.zeros(like.shape))

    P, S, z = partial("d_F", s.F), partial("d_N", s.N), partial("d_nu", s.nu_bar)
    A = manifold.rotation_generator(s.nu_bar)
    dA = manifold.rotation_generator_gradient()
    PFt = np.einsum("...ik,...jk->...ij", P, s.F)
    ax = np.einsum("jab,...ab->...j", LEVI, PFt)
    Az = np.einsum("...aj,...a->...j", A, z)
    dAS = np.einsum("...ajb,...bi,...ai->...j", dA, s.N, S)
    raw = np.linalg.norm(ax - Az - dAS, axis=-1)
    # the scale ignores cancellations inside each term, so a balance
    # whose ingredients are all round-off still reports a tiny ratio
    Az_abs = np.einsum("...aj,...a->...j", np.abs(A), np.abs(z))
    dAS_abs = np.einsum("...ajb,...bi,...ai->...j", np.abs(dA), np.abs(s.N), np.abs(S))
    scale = (np.linalg.norm(PFt.reshape(n, -1), axis=-1) + np.linalg.norm(Az_abs, axis=-1)
             + np.linalg.norm(dAS_abs, axis=-1) + _TINY)
    # np.argmax takes the first nan, so a nan sample is the worst
    i = int(np.argmax(raw / scale))
    return Residual("rotational", float(raw[i]), float(scale[i]))


# ---------------------------------------------------------------------------
# configurational balance
# ---------------------------------------------------------------------------

def eshelby(bf: BalanceFields, gf: GradientField) -> np.ndarray:
    """Energy-momentum tensor PP = e I - F^T P - N^T S on the cell kinematics
    gf, one term per gradient slot that bf holds an action for."""
    kinematics = dict(zip(SLOTS, gf))
    PP = bf.density.eval(*gf)[..., None, None] * np.eye(3)
    for _, grad in FIELDS.values():
        if grad in bf.actions:
            PP = PP - np.einsum("...ki,...kj->...ij", kinematics[grad], bf.actions[grad])
    return PP


def configurational_residual(bf: BalanceFields,
                             tests: Iterable[np.ndarray]) -> list[Residual]:
    """Distributional residual of the configurational balance per test.

    raw = int PP : Dphi dx + int de_dx . phi dx.  phi must be a compact
    nodal 3-vector field; its average and gradient are gathered as the u
    field of a FieldState.  The cell kinematics are gathered once, for PP
    and de_dx.
    """
    state = bf.state
    grid = state.grid
    gf = bf.gf
    PP = eshelby(bf, gf)
    de_dx = bf.density.d_x(*gf)
    del gf
    out = []
    for k, phi in enumerate(tests):
        if phi.shape != state.u.shape:
            raise ShapeMismatchError("configurational tests are nodal 3-vector fields")
        test = FieldState(grid, phi, state.nu, state.pinned_u, state.pinned_nu, state.active)
        tf = gradients(test, FIELDS["u"])
        t1 = np.einsum("...ij,...ij->...", PP, tf.F)
        t2 = np.einsum("...i,...i->...", de_dx, tf.u_bar)
        raw = integrate_cells(t1 + t2, grid, state.active)
        scale = integrate_cells(np.abs(t1) + np.abs(t2), grid, state.active)
        out.append(Residual(name=f"configurational[{k}]", raw=raw, scale=scale))
    return out


@dataclass
class ResidualReport:
    """One row per balance law per test; plumbing for reports and CSV."""

    entries: list[Residual] = field(default_factory=list)

    def add(self, items):
        if isinstance(items, Residual):
            self.entries.append(items)
        else:
            self.entries.extend(items)

    def rows(self):
        return [(r.name, r.raw, r.scale, r.ratio) for r in self.entries]
