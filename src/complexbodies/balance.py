"""Balance-law verification on discrete states.

From a state and a density this module assembles the conjugate actions

    P = de/dF   (first Piola-Kirchhoff stress)
    S = de/dN   (microstress)
    z = de/dnu over internal parts, beta = -de/dnu over external parts,
    zeta = z - beta (net substructural action, kept in the ambient
    embedding, where it pairs with the assembled gradient exactly),
    b = -de/du (body force)

and evaluates every balance the theory provides:

* weak Euler-Lagrange residual of one compactly supported nodal test
  pair (h, upsilon), dual-exact to the minimizer's assembled gradient;
  the test fields are drawn up front and built on demand, one builder per
  field, so pairs can be checked in any order or concurrently;
* the rotational balance: the axial vector of P F^T must equal
  A* z + (DA)* S, with A the manifold's rotation generator evaluated at the
  raw cell average so the identity is algebraic, not asymptotic;
* the configurational balance through the energy-momentum tensor
  PP = e I - F^T P - N^T S.

Ratios always divide a raw residual by the accumulated magnitude of the
terms entering it, so "small" is meaningful per law and per test.

The actions, the weak residual's per-cell terms and the rotational balance
are computed a slab of cell rows at a time (fields.cellwise, Grid.slabs);
every integral and sup is then taken over the whole grid, so the results
are those of a whole-grid pass, bit for bit.  BalanceFields keeps the
actions only: the cell kinematics are gathered again where a balance reads
them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .energy import EnergyDensity
from .errors import GeneratorUnavailableError, NonTangentTestError, ShapeMismatchError
from .fields import (
    FieldState,
    GradientField,
    cell_average,
    cell_gradient,
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
    P: np.ndarray
    S: np.ndarray
    zeta_ambient: np.ndarray  # raw embedding derivative, for exact duality
    z: np.ndarray
    b: np.ndarray

    @property
    def gf(self) -> GradientField:
        """The state's cell kinematics, gathered anew on each access: the
        weak-EL pairs never read them, so they are not kept under them."""
        return gradients(self.state)


def assemble_actions(density: EnergyDensity, state: FieldState,
                     manifold: Manifold) -> BalanceFields:
    """Cellwise conjugate actions P, S, z - beta, z and b.

    The energy and its x-partial, which only the configurational balance
    reads, are taken there from gf when it runs.
    """
    def actions(rows):
        gf = gradients(state, rows=rows)
        z = np.zeros(gf.nu_bar.shape)
        beta = np.zeros(gf.nu_bar.shape)
        for part in density.parts:
            if part.external:
                beta = beta - part.d_nu(*gf)
            else:
                z = z + part.d_nu(*gf)
        return density.d_F(*gf), density.d_N(*gf), z - beta, z, -density.d_u(*gf)

    return BalanceFields(state, density, manifold, *cellwise(state.grid, actions))


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
        envelope = np.exp(-r2)
        profile = envelope * wave * shell
        f = profile[..., None] * pol
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

    Quadrature of -b . h + P : Dh + zeta . upsilon + S : Dupsilon over the
    active cells, using the raw embedding action so the value agrees with
    the assembled minimizer gradient to round-off.  upsilon must be tangent
    at the nodal descriptor.  Only bf is shared and it is only read, so
    pairs may be checked on concurrent threads.
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
    # one slab's averages and gradients are alive at a time; their
    # per-cell sums are integrated over the whole grid
    def terms(rows):
        nodes = slice(rows.start, rows.stop + 1)
        t1 = -np.einsum("...i,...i->...", bf.b[rows], cell_average(h[nodes], grid))
        t2 = np.einsum("...ij,...ij->...", bf.P[rows], cell_gradient(h[nodes], grid))
        t3 = np.einsum("...a,...a->...", bf.zeta_ambient[rows], cell_average(ups[nodes], grid))
        t4 = np.einsum("...ai,...ai->...", bf.S[rows], cell_gradient(ups[nodes], grid))
        return t1 + t2 + t3 + t4, np.abs(t1) + np.abs(t2) + np.abs(t3) + np.abs(t4)

    signed, size = cellwise(grid, terms)
    raw = integrate_cells(signed, grid, state.active)
    scale = integrate_cells(size, grid, state.active)
    return Residual(name=f"weak_el[{k}]", raw=raw, scale=scale)


# ---------------------------------------------------------------------------
# rotational balance
# ---------------------------------------------------------------------------

def rotational_balance(bf: BalanceFields) -> Residual:
    """Axial residual of P F^T against the substructural rotation terms.

    For a frame-indifferent density the identity

        eps_{jab} (P F^T)_{ab} = (A* z)_j + sum_i (N_i x S_i)-type term

    holds pointwise as an algebraic consequence of invariance, with A
    evaluated at the raw cell average of the descriptor; its derivative dA
    is one constant tensor, since A is linear in the descriptor.

    The cells are taken in the grid's slabs, and F, N and the descriptor
    average are gathered per slab, so the terms of one slab are alive at a
    time; each sup is the max over the slabs, which is exact.  A slab
    without an active cell is skipped.
    """
    if not bf.manifold.rotation_generator_defined:
        raise GeneratorUnavailableError(
            "rotational balance needs a manifold with a rotation generator"
        )
    man = bf.manifold
    dA = man.rotation_generator_gradient()  # constant; einsum broadcasts it
    dA_abs = np.abs(dA)
    act = bf.state.active
    # per-slab sups of the residual, of P F^T and of the two bounding terms
    peaks = ([], [], [], [])
    for sl in bf.state.grid.slabs:
        a = act[sl]
        if not a.any():
            continue
        gf = gradients(bf.state, ("F", "N", "nu"), sl)
        F, N, S, z = gf.F, gf.N, bf.S[sl], bf.z[sl]
        A = man.rotation_generator(gf.nu_bar)
        PFt = np.einsum("...ik,...jk->...ij", bf.P[sl], F)
        ax = np.einsum("jab,...ab->...j", LEVI, PFt)
        Az = np.einsum("...aj,...a->...j", A, z)
        dAS = np.einsum("...ajb,...bi,...ai->...j", dA, N, S)
        res = ax - Az - dAS
        # the scale ignores cancellations inside each term, so a balance
        # whose ingredients are all round-off still reports a tiny ratio
        Az_abs = np.einsum("...aj,...a->...j", np.abs(A), np.abs(z))
        dAS_abs = np.einsum("...ajb,...bi,...ai->...j", dA_abs, np.abs(N), np.abs(S))
        for peak, f in zip(peaks, (res, PFt, Az_abs, dAS_abs)):
            vals = f[a]
            peak.append(np.max(np.linalg.norm(vals.reshape(vals.shape[0], -1), axis=-1)))
    # np.max keeps a nan, as the sup over all cells at once did
    sup_res, sup_PFt, sup_Az, sup_dAS = (float(np.max(peak)) for peak in peaks)
    return Residual("rotational", sup_res, sup_PFt + sup_Az + sup_dAS + _TINY)


# ---------------------------------------------------------------------------
# configurational balance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EshelbyField:
    PP: np.ndarray


def eshelby(bf: BalanceFields) -> EshelbyField:
    """Energy-momentum tensor PP = e I - F^T P - N^T S, cellwise."""
    gf = bf.gf
    PP = bf.density.eval(*gf)[..., None, None] * np.eye(3)
    PP = PP - np.einsum("...ki,...kj->...ij", gf.F, bf.P)
    PP = PP - np.einsum("...ai,...aj->...ij", gf.N, bf.S)
    return EshelbyField(PP=PP)


def configurational_residual(ef: EshelbyField, bf: BalanceFields,
                             tests: Iterable[np.ndarray]) -> list[Residual]:
    """Distributional residual of the configurational balance per test.

    raw = int PP : Dphi dx + int de_dx . phi dx.  phi must be a compact
    nodal 3-vector field.
    """
    state = bf.state
    grid = state.grid
    de_dx = bf.density.d_x(*bf.gf)
    out = []
    for k, phi in enumerate(tests):
        if phi.shape != state.u.shape:
            raise ShapeMismatchError("configurational tests are nodal 3-vector fields")
        Dphi = cell_gradient(phi, grid)
        phibar = cell_average(phi, grid)
        t1 = np.einsum("...ij,...ij->...", ef.PP, Dphi)
        t2 = np.einsum("...i,...i->...", de_dx, phibar)
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

    def worst(self, prefix: str | None = None) -> float:
        sel = [
            r.ratio for r in self.entries
            if prefix is None or r.name.startswith(prefix)
        ]
        return max(sel) if sel else 0.0

    def rows(self):
        return [(r.name, r.raw, r.scale, r.ratio) for r in self.entries]
