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
* strong interior residuals Div P + b and Div S - zeta (tangent-projected);
* the rotational balance: the axial vector of P F^T must equal
  A* z + (DA)* S, with A the manifold's rotation generator evaluated at the
  raw cell average so the identity is algebraic, not asymptotic;
* the configurational balance through the energy-momentum tensor
  PP = e I - F^T P - N^T S, optionally corrected by a line-defect term
  4 pi sum_segments mult * length * (T ox T) : Dphi(midpoint);
* the Eulerian Cauchy balance via pullback quadrature of the spatial weak
  form with the Cauchy stress sigma = P F^T / det F.

Ratios always divide a raw residual by the accumulated magnitude of the
terms entering it, so "small" is meaningful per law and per test.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .energy import EnergyDensity, LineDefect
from .errors import (
    GeneratorUnavailableError,
    NonTangentTestError,
    ShapeMismatchError,
    SingularCellError,
)
from .fields import (
    FieldState,
    GradientField,
    cell_average,
    cell_gradient,
    cell_to_node_average,
    divergence,
    gradients,
    integrate_cells,
    interior_node_mask,
)
from .manifolds import LEVI, Manifold
from .minors import det3

_TINY = 1e-300
# cells per slab of the rotational balance, which holds a dozen cellwise
# temporaries of one slab at a time instead of the whole grid's
_SLAB_CELLS = 4096
# largest drift of a descriptor test field off the tangent space, relative
# to 1 + its sup norm, that weak_el_residual accepts
TANGENT_TOL = 1e-8
# cells between the support of a random test field and the active boundary,
# and between the active boundary and a node where strong residuals are read
TEST_MARGIN = 2
STRONG_MARGIN = 1


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
    manifold: Manifold | None
    gf: GradientField
    P: np.ndarray
    S: np.ndarray
    zeta_ambient: np.ndarray  # raw embedding derivative, for exact duality
    z: np.ndarray
    b: np.ndarray


def assemble_actions(density: EnergyDensity, state: FieldState,
                     manifold: Manifold | None = None) -> BalanceFields:
    """Cellwise conjugate actions P, S, z - beta, z and b.

    The energy and its x-partial, which only the configurational balance
    reads, are taken there from gf when it runs.
    """
    gf = gradients(state)
    args = (gf.x, gf.u_bar, gf.F, gf.nu_bar, gf.N)
    P = density.d_F(*args)
    S = density.d_N(*args)
    z = np.zeros(gf.nu_bar.shape)
    beta = np.zeros(gf.nu_bar.shape)
    for part in density.parts:
        if part.external:
            beta = beta - part.d_nu(*args)
        else:
            z = z + part.d_nu(*args)
    return BalanceFields(
        state=state,
        density=density,
        manifold=manifold,
        gf=gf,
        P=P,
        S=S,
        zeta_ambient=z - beta,
        z=z,
        b=-density.d_u(*args),
    )


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
    man = bf.manifold
    if h.shape != state.u.shape or ups.shape != state.nu.shape:
        raise ShapeMismatchError("test fields must match nodal shapes")
    if man is not None:
        # the projection, its difference from upsilon and both absolute
        # values share one nodal buffer, freed before the terms are built
        buf = man.tangent_project(state.nu, ups)
        drift = np.max(np.abs(np.subtract(ups, buf, out=buf), out=buf))
        if drift > TANGENT_TOL * (1.0 + np.max(np.abs(ups, out=buf))):
            raise NonTangentTestError(
                f"test {k}: descriptor variation leaves the tangent space ({drift:.2e})"
            )
        del buf
    # each average and gradient dies in its own term, so at most one
    # cellwise gradient of the pair is alive at a time
    t1 = -np.einsum("...i,...i->...", bf.b, cell_average(h, grid))
    t2 = np.einsum("...ij,...ij->...", bf.P, cell_gradient(h, grid))
    t3 = np.einsum("...a,...a->...", bf.zeta_ambient, cell_average(ups, grid))
    t4 = np.einsum("...ai,...ai->...", bf.S, cell_gradient(ups, grid))
    raw = integrate_cells(t1 + t2 + t3 + t4, grid, state.active)
    scale = integrate_cells(
        np.abs(t1) + np.abs(t2) + np.abs(t3) + np.abs(t4), grid, state.active
    )
    return Residual(name=f"weak_el[{k}]", raw=raw, scale=scale)


# ---------------------------------------------------------------------------
# strong interior residuals
# ---------------------------------------------------------------------------

@dataclass
class StrongResiduals:
    cauchy: np.ndarray
    capriz: np.ndarray
    interior: np.ndarray
    cauchy_residual: Residual
    capriz_residual: Residual


def strong_residuals(bf: BalanceFields) -> StrongResiduals:
    """Nodal Div P + b and Div S - zeta, reported on interior nodes.

    The discrete divergence is the exact negative adjoint of the cell
    gradient; pointwise consistency holds one cell away from the active
    boundary, so sup ratios are taken over that interior.
    """
    state = bf.state
    grid = state.grid
    divP = divergence(bf.P, grid, state.active)
    divS = divergence(bf.S, grid, state.active)
    b_n = cell_to_node_average(bf.b, grid, state.active)
    zeta_n = cell_to_node_average(bf.zeta_ambient, grid, state.active)
    cau = divP + b_n
    cap = divS - zeta_n
    if bf.manifold is not None:
        cap = bf.manifold.tangent_project(state.nu, cap)
        zeta_n = bf.manifold.tangent_project(state.nu, zeta_n)
        divS_t = bf.manifold.tangent_project(state.nu, divS)
    else:
        divS_t = divS
    inside = interior_node_mask(grid, state.active, margin=STRONG_MARGIN)

    def sup(f):
        if not inside.any():
            return 0.0
        return float(np.max(np.linalg.norm(f[inside], axis=-1)))

    cau_res = Residual("strong_cauchy", sup(cau), sup(divP) + sup(b_n) + _TINY)
    cap_res = Residual("strong_capriz", sup(cap), sup(divS_t) + sup(zeta_n) + _TINY)
    return StrongResiduals(
        cauchy=cau, capriz=cap, interior=inside,
        cauchy_residual=cau_res, capriz_residual=cap_res,
    )


# ---------------------------------------------------------------------------
# rotational balance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RotationalReport:
    residual_field: np.ndarray
    residual: Residual

    @property
    def ratio(self) -> float:
        return self.residual.ratio


def rotational_balance(bf: BalanceFields) -> RotationalReport:
    """Axial residual of P F^T against the substructural rotation terms.

    For a frame-indifferent density the identity

        eps_{jab} (P F^T)_{ab} = (A* z)_j + sum_i (N_i x S_i)-type term

    holds pointwise as an algebraic consequence of invariance, with A
    evaluated at the raw cell average of the descriptor; its derivative dA
    is one constant tensor, since A is linear in the descriptor.

    The cells are taken in slabs along the first axis, so the terms of one
    slab are alive at a time; each sup is the max over the slabs, which is
    exact.  A slab without an active cell is skipped.
    """
    if bf.manifold is None or not bf.manifold.rotation_generator_defined:
        raise GeneratorUnavailableError(
            "rotational balance needs a manifold with a rotation generator"
        )
    man = bf.manifold
    dA = man.rotation_generator_gradient()  # constant; einsum broadcasts it
    dA_abs = np.abs(dA)
    act = bf.state.active
    out = np.zeros(act.shape + (3,))
    # per-slab sups of the residual, of P F^T and of the two bounding terms
    peaks = ([], [], [], [])
    rows = max(1, _SLAB_CELLS // int(np.prod(act.shape[1:])))
    for lo in range(0, act.shape[0], rows):
        sl = slice(lo, lo + rows)
        a = act[sl]
        if not a.any():
            continue
        F, N, S, z = bf.gf.F[sl], bf.gf.N[sl], bf.S[sl], bf.z[sl]
        A = man.rotation_generator(bf.gf.nu_bar[sl])
        PFt = np.einsum("...ik,...jk->...ij", bf.P[sl], F)
        ax = np.einsum("jab,...ab->...j", LEVI, PFt)
        Az = np.einsum("...aj,...a->...j", A, z)
        dAS = np.einsum("...ajb,...bi,...ai->...j", dA, N, S)
        res = ax - Az - dAS
        out[sl] = np.where(a[..., None], res, 0.0)
        # the scale ignores cancellations inside each term, so a balance
        # whose ingredients are all round-off still reports a tiny ratio
        Az_abs = np.einsum("...aj,...a->...j", np.abs(A), np.abs(z))
        dAS_abs = np.einsum("...ajb,...bi,...ai->...j", dA_abs, np.abs(N), np.abs(S))
        for peak, f in zip(peaks, (res, PFt, Az_abs, dAS_abs)):
            vals = f[a]
            peak.append(np.max(np.linalg.norm(vals.reshape(vals.shape[0], -1), axis=-1)))
    # np.max keeps a nan, as the sup over all cells at once did
    sup_res, sup_PFt, sup_Az, sup_dAS = (float(np.max(peak)) for peak in peaks)
    residual = Residual("rotational", sup_res, sup_PFt + sup_Az + sup_dAS + _TINY)
    return RotationalReport(residual_field=out, residual=residual)


# ---------------------------------------------------------------------------
# configurational balance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EshelbyField:
    PP: np.ndarray


def eshelby(bf: BalanceFields) -> EshelbyField:
    """Energy-momentum tensor PP = e I - F^T P - N^T S, cellwise."""
    gf = bf.gf
    PP = bf.density.eval(gf.x, gf.u_bar, gf.F, gf.nu_bar, gf.N)[..., None, None] * np.eye(3)
    PP = PP - np.einsum("...ki,...kj->...ij", gf.F, bf.P)
    PP = PP - np.einsum("...ai,...aj->...ij", gf.N, bf.S)
    return EshelbyField(PP=PP)


def configurational_residual(ef: EshelbyField, bf: BalanceFields,
                             tests: Iterable[np.ndarray],
                             line: LineDefect | None = None) -> list[Residual]:
    """Distributional residual of the configurational balance per test.

    raw = int PP : Dphi dx + int de_dx . phi dx - line term, where the line
    term samples 4 pi mult len (T ox T) : Dphi at each segment midpoint's
    cell.  phi must be a compact nodal 3-vector field.
    """
    state = bf.state
    grid = state.grid
    gf = bf.gf
    de_dx = bf.density.d_x(gf.x, gf.u_bar, gf.F, gf.nu_bar, gf.N)
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
        label = "configurational" if line is None else "configurational_with_line"
        if line is not None:
            lens = line.segment_lengths()
            tangents = line.tangents()
            mids = line.midpoints()
            lo = np.asarray(grid.lo)
            h = np.asarray(grid.spacing)
            for seg in range(len(lens)):
                idx = np.floor((mids[seg] - lo) / h).astype(int)
                idx = tuple(np.clip(idx, 0, np.asarray(grid.cells) - 1))
                TT = np.outer(tangents[seg], tangents[seg])
                term = (
                    4.0 * np.pi * float(line.multiplicities[seg]) * lens[seg]
                    * float(np.einsum("ij,ij->", TT, Dphi[idx]))
                )
                raw -= term
                scale += abs(term)
        out.append(Residual(name=f"{label}[{k}]", raw=raw, scale=scale))
    return out


# ---------------------------------------------------------------------------
# Eulerian description
# ---------------------------------------------------------------------------

def cauchy_stress(bf: BalanceFields) -> np.ndarray:
    """sigma = P F^T / det F on active cells; requires det F > 0 there."""
    det = det3(bf.gf.F)
    if np.any(det[bf.state.active] <= 0):
        worst = float(det[bf.state.active].min())
        raise SingularCellError(f"Cauchy stress undefined: min det F = {worst:.3e}")
    sigma = np.einsum("...ik,...jk->...ij", bf.P, bf.gf.F) / np.where(
        det > 0, det, 1.0
    )[..., None, None]
    sigma[~bf.state.active] = 0.0
    return sigma


def eulerian_cauchy_residual(bf: BalanceFields, tests: list) -> list[Residual]:
    """Spatial weak balance by pullback: int sigma : Dphi(y) det F - b . phi(y).

    tests are (phi, dphi) callables on spatial points y; quadrature runs over
    the reference cells with y = the deformed cell average.
    """
    sigma = cauchy_stress(bf)
    state = bf.state
    grid = state.grid
    det = det3(bf.gf.F)
    y = bf.gf.u_bar
    out = []
    for k, (phi, dphi) in enumerate(tests):
        g = np.asarray(dphi(y), dtype=float)
        p = np.asarray(phi(y), dtype=float)
        t1 = np.einsum("...ij,...ij->...", sigma, g) * det
        t2 = -np.einsum("...i,...i->...", bf.b, p)
        raw = integrate_cells(t1 + t2, grid, state.active)
        scale = integrate_cells(np.abs(t1) + np.abs(t2), grid, state.active)
        out.append(Residual(name=f"eulerian_cauchy[{k}]", raw=raw, scale=scale))
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
