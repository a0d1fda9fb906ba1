"""Multifield energy densities e(x, u, F, nu, N) and hypothesis checks.

A density evaluates pointwise on the state list

    x   material point (3,)
    u   deformation value (3,)
    F   deformation gradient (3, 3)
    nu  descriptor, ambient embedding (embed_dim,)
    N   descriptor gradient (embed_dim, 3)

and exposes analytic partial derivatives with the same leading batch axes.
Derivatives are taken in the ambient embedding; tangent projection is the
balance module's job.  Densities flagged external depend on (x, u, nu) only
and model applied loads; the rotational balance reads the internal parts
alone, since an applied load need not be frame-indifferent.

A density reads the slots whose partial d_<slot> its class overrides, and
no others: ``reads`` is derived from the overrides, never declared, and eval
may read only those slots.  total_energy and balance.assemble_actions
build only the slots a density reads, and the minimizer scatters only their
partials; every other slot arrives as a zero-size array, and its partial is
the base class's zero.  sample_states draws pointwise states as a
fields.GradientField, the same argument list as a grid's cell kinematics.

Constant tensors (the quadratic couplings and the quasicrystal's strain and
phason-gradient coupling) are contracted through term tables: the nonzero
(out, in, coef) triples of the tensor flattened to a matrix, in C order.  A
quadratic form adds (coef a) b term by term from a zero start, which is the
order in which np.einsum adds a three-operand form, so energies match it
bit for bit.  A linear map adds each output's terms in table order; a
two-operand einsum adds in SIMD lanes instead, which give the same sum for
the tensors the presets build (at most three nonzero terms per output) and
differ by round-off, about 1e-16 relative, for dense ones.  A skipped zero
term changes no finite value, only the sign of an all-zero output.

Shipped constitutive families:

* a quadratic linear-elastic coupling density for a vector-valued
  descriptor in a body with a centre of symmetry, evaluated on the
  infinitesimal strain surrogate sym(F) - I;
* generalized Ginzburg-Landau: substructural potential plus (1/2) k |N|^2;
* pure descriptor Dirichlet density (1/2)|N|^2;
* a compressible macroscopic stored energy with a convex volumetric
  barrier t - log t - 1;
* quasicrystal density: macro part + (1/2) K |Dnu|^2 phason stiffness with
  optional strain/phason-gradient coupling;
* smectic-A layer energy (1/2) k1 (|grad l| - 1)^2 + (1/2) k2 (div n)^2;
* dead loads, external field couplings, and a deliberately frame-breaking
  easy-axis fixture for rotational-balance tests.

A polyconvex density is written once, as its generating function
g(F, cof F, det F, N) in minors space: eval evaluates g at the minors of F,
and the convexity check probes the same g.

Coercivity hypotheses are data (GrowthSpec): a lower bound

    e >= C1 (|M(F)|^r + |N|^s) + theta(det F)

with optional terms switched off for energies controlling only one field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    GeneratorUnavailableError,
    ShapeMismatchError,
    SizeMismatchError,
)
from .fields import SLOTS, FieldState, GradientField, cellwise, gradients
from .minors import cofactor, cross_cofactor, det3, minors_norm_squared


def log_barrier(t: np.ndarray) -> np.ndarray:
    """Convex volumetric barrier t - log t - 1, +inf for t <= 0."""
    t = np.asarray(t, dtype=float)
    out = np.full(t.shape, np.inf)
    ok = t > 0
    out[ok] = t[ok] - np.log(t[ok]) - 1.0
    return out if out.ndim else float(out)


def log_barrier_prime(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    ok = t > 0
    out[ok] = 1.0 - 1.0 / t[ok]
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class GrowthSpec:
    """Documented coercivity bound for a density: the full minors magnitude
    |M(F)|^r, the gradient term |N|^s and the barrier theta(det F).  include
    flags zero out terms for densities that control only the deformation or
    only the descriptor gradient.
    """

    c1: float
    r: float = 4.0 / 3.0
    s: float = 2.0
    theta: Callable[[np.ndarray], np.ndarray] | None = None
    include_minor_term: bool = True
    include_gradient_term: bool = True

    def __post_init__(self):
        if not self.c1 > 0:
            raise ShapeMismatchError("growth constant C1 must be positive")
        if self.include_minor_term and not self.r > 1:
            raise ShapeMismatchError("minors exponent r must exceed 1")
        if self.include_gradient_term and not self.s > 1:
            raise ShapeMismatchError("gradient exponent s must exceed 1")

    def bound(self, F: np.ndarray, N: np.ndarray) -> np.ndarray:
        F = np.asarray(F, dtype=float)
        N = np.asarray(N, dtype=float)
        out = np.zeros(F.shape[:-2])
        if self.include_minor_term:
            out = out + self.c1 * minors_norm_squared(F) ** (self.r / 2.0)
        if self.include_gradient_term:
            out = out + self.c1 * np.einsum("...ai,...ai->...", N, N) ** (self.s / 2.0)
        if self.theta is not None:
            out = out + self.theta(det3(F))
        return out


class EnergyDensity:
    """Base density: zero energy, zero derivatives, no growth claim."""

    name = "zero"
    embed_dim = 1
    external = False
    growth_meta: GrowthSpec | None = None
    # slots of (x, u, F, nu, N) whose partial the class overrides, derived
    # once per class (__init_subclass__) and once per SumDensity
    reads: frozenset[str] = frozenset()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.reads = frozenset(
            s for s in SLOTS if getattr(cls, f"d_{s}") is not getattr(EnergyDensity, f"d_{s}")
        )

    def eval(self, x, u, F, nu, N):
        return np.zeros(np.asarray(F).shape[:-2])

    def d_u(self, x, u, F, nu, N):
        return np.zeros(np.asarray(u).shape)

    def d_F(self, x, u, F, nu, N):
        return np.zeros(np.asarray(F).shape)

    def d_nu(self, x, u, F, nu, N):
        return np.zeros(np.asarray(nu).shape)

    def d_N(self, x, u, F, nu, N):
        return np.zeros(np.asarray(N).shape)

    def d_x(self, x, u, F, nu, N):
        return np.zeros(np.asarray(x).shape)

    def minors_form(self):
        """Generating function g(m1, m2, m3, N; x, u, nu) for convexity in
        minors space, or None when the density registers none."""
        return None

    @property
    def parts(self) -> list["EnergyDensity"]:
        return [self]


class SumDensity(EnergyDensity):
    """Additive decomposition; evaluates to the exact sum of its parts."""

    def __init__(self, parts: list[EnergyDensity], name: str = "sum"):
        if not parts:
            raise SizeMismatchError("sum of no densities")
        dims = {p.embed_dim for p in parts}
        if len(dims) != 1:
            raise SizeMismatchError(f"parts disagree on descriptor dimension: {dims}")
        self._parts = list(parts)
        self.embed_dim = parts[0].embed_dim
        self.name = name
        self.external = all(p.external for p in parts)
        self.growth_meta = None
        self.reads = frozenset().union(*(p.reads for p in parts))

    @property
    def parts(self):
        return list(self._parts)

    def eval(self, x, u, F, nu, N):
        out = self._parts[0].eval(x, u, F, nu, N)
        for p in self._parts[1:]:
            out = out + p.eval(x, u, F, nu, N)
        return out

    def _sum(self, attr, x, u, F, nu, N):
        out = getattr(self._parts[0], attr)(x, u, F, nu, N)
        for p in self._parts[1:]:
            out = out + getattr(p, attr)(x, u, F, nu, N)
        return out

    def d_u(self, x, u, F, nu, N):
        return self._sum("d_u", x, u, F, nu, N)

    def d_F(self, x, u, F, nu, N):
        return self._sum("d_F", x, u, F, nu, N)

    def d_nu(self, x, u, F, nu, N):
        return self._sum("d_nu", x, u, F, nu, N)

    def d_N(self, x, u, F, nu, N):
        return self._sum("d_N", x, u, F, nu, N)

    def d_x(self, x, u, F, nu, N):
        return self._sum("d_x", x, u, F, nu, N)

    def minors_form(self):
        forms = [p.minors_form() for p in self._parts]
        if any(f is None for f in forms):
            return None

        def g(m1, m2, m3, N, *, x, u, nu):
            out = forms[0](m1, m2, m3, N, x=x, u=u, nu=nu)
            for f in forms[1:]:
                out = out + f(m1, m2, m3, N, x=x, u=u, nu=nu)
            return out

        return g


# ---------------------------------------------------------------------------
# descriptor-gradient densities
# ---------------------------------------------------------------------------

class DirichletDescriptor(EnergyDensity):
    """e = (1/2) |N|^2; the harmonic-map integrand for any embedding."""

    def __init__(self, embed_dim: int = 3, name: str = "dirichlet"):
        self.embed_dim = embed_dim
        self.name = name
        self.growth_meta = GrowthSpec(
            c1=0.5,
            s=2.0,
            include_minor_term=False,
            theta=None,
        )

    def eval(self, x, u, F, nu, N):
        return 0.5 * np.einsum("...ai,...ai->...", N, N)

    def d_N(self, x, u, F, nu, N):
        return np.asarray(N, dtype=float).copy()

    def minors_form(self):
        def g(m1, m2, m3, N, *, x, u, nu):
            return 0.5 * np.einsum("...ai,...ai->...", N, N)

        return g


class GinzburgLandau(EnergyDensity):
    """e = W(x, nu) + (1/2) k |N|^2 with a pluggable substructural potential.

    well must provide eval(x, nu), d_nu(x, nu), d_x(x, nu) and nonnegative,
    true when W >= 0 everywhere; None means W = 0.  The growth claim
    (k/2) |N|^2 is made when W = 0 or W is nonnegative.
    """

    def __init__(self, well, stiffness: float, embed_dim: int, name: str = "ginzburg-landau"):
        if not stiffness > 0:
            raise ShapeMismatchError("descriptor stiffness must be positive")
        self.well = well
        self.stiffness = float(stiffness)
        self.embed_dim = embed_dim
        self.name = name
        if well is None or well.nonnegative:
            self.growth_meta = GrowthSpec(
                c1=self.stiffness / 2.0,
                s=2.0,
                include_minor_term=False,
                theta=None,
            )
        else:
            self.growth_meta = None

    def eval(self, x, u, F, nu, N):
        out = 0.5 * self.stiffness * np.einsum("...ai,...ai->...", N, N)
        if self.well is not None:
            out = out + self.well.eval(x, nu)
        return out

    def d_nu(self, x, u, F, nu, N):
        if self.well is None:
            return np.zeros(np.asarray(nu).shape)
        return self.well.d_nu(x, nu)

    def d_N(self, x, u, F, nu, N):
        return self.stiffness * np.asarray(N, dtype=float)

    def d_x(self, x, u, F, nu, N):
        if self.well is None:
            return np.zeros(np.asarray(x).shape)
        return self.well.d_x(x, nu)


@dataclass
class ComponentDoubleWell:
    """w0 (nu_i - a)^2 (nu_i - b)^2 acting on one embedding component."""

    w0: float
    a: float
    b: float
    component: int = 0

    @property
    def nonnegative(self) -> bool:
        return self.w0 >= 0

    def eval(self, x, nu):
        s = np.asarray(nu)[..., self.component]
        return self.w0 * (s - self.a) ** 2 * (s - self.b) ** 2

    def d_nu(self, x, nu):
        nu = np.asarray(nu, dtype=float)
        s = nu[..., self.component]
        out = np.zeros(nu.shape)
        out[..., self.component] = (
            2.0 * self.w0 * (s - self.a) * (s - self.b) * ((s - self.a) + (s - self.b))
        )
        return out

    def d_x(self, x, nu):
        return np.zeros(np.asarray(x).shape)


@dataclass
class ModulatedWell:
    """Space-modulated potential g(x) * base(nu); supplies a nonzero d_x."""

    base: object
    g: Callable[[np.ndarray], np.ndarray]
    dg: Callable[[np.ndarray], np.ndarray]
    nonnegative = False  # g may take either sign

    def eval(self, x, nu):
        return self.g(x) * self.base.eval(x, nu)

    def d_nu(self, x, nu):
        return self.g(x)[..., None] * self.base.d_nu(x, nu)

    def d_x(self, x, nu):
        return self.dg(x) * self.base.eval(x, nu)[..., None]


# ---------------------------------------------------------------------------
# contraction with constant tensors
# ---------------------------------------------------------------------------

def _terms(M: np.ndarray) -> tuple[tuple[int, int, float], ...]:
    """Term table of a constant tensor flattened to a matrix M: the nonzero
    (out, in, coef) triples in C order."""
    o, r = np.nonzero(M)
    return tuple(zip(o.tolist(), r.tolist(), M[o, r].tolist()))


def _form(terms, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Quadratic form sum T_or a[..., o] b[..., r]: each term (coef a) b is
    added to a zero start in table order."""
    out = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    for o, r, c in terms:
        out += c * a[..., o] * b[..., r]
    return out


def _map(terms, x: np.ndarray, size: int, transpose: bool = False) -> np.ndarray:
    """Linear map out[..., o] = sum_r T_or x[..., r], or out[..., r] =
    sum_o T_or x[..., o] when transpose; each output's terms are added to a
    zero start in table order."""
    rows = {}
    for o, r, c in terms:
        if transpose:
            o, r = r, o
        if o not in rows:
            rows[o] = np.zeros(x.shape[:-1])
        rows[o] += c * x[..., r]
    out = np.zeros(x.shape[:-1] + (size,))
    for o, acc in rows.items():
        out[..., o] = acc
    return out


def _flat(a) -> np.ndarray:
    """A (..., m, n) array as (..., m * n), row-major."""
    a = np.asarray(a, dtype=float)
    return a.reshape(a.shape[:-2] + (-1,))


# ---------------------------------------------------------------------------
# quadratic linear-elastic coupling densities
# ---------------------------------------------------------------------------

def isotropic_elasticity(lam: float, mu: float) -> np.ndarray:
    """C_{ijhk} = lam d_ij d_hk + mu (d_ih d_jk + d_ik d_jh)."""
    d = np.eye(3)
    with np.errstate(over="ignore", invalid="ignore"):
        C = (
            lam * np.einsum("ij,hk->ijhk", d, d)
            + mu * (np.einsum("ih,jk->ijhk", d, d) + np.einsum("ik,jh->ijhk", d, d))
        )
    if not np.all(np.isfinite(C)):
        raise ShapeMismatchError(
            f"isotropic stiffness overflows (lam = {lam}, mu = {mu})"
        )
    return C


def _strain(F) -> np.ndarray:
    """sym(F) - I flattened to (..., 9); the 1 comes off the diagonal only."""
    F = np.asarray(F, dtype=float)
    eps = F + np.swapaxes(F, -1, -2)
    eps *= 0.5
    eps = eps.reshape(eps.shape[:-2] + (9,))
    eps[..., ::4] -= 1.0
    return eps


class QuadraticVector(EnergyDensity):
    """Quadratic density for a vector descriptor (microcracks):

        e = (1/2) eps:C:eps + eps:A2:N + (1/2) nu:A3:nu + (1/2) N:A5:N,
        eps = sym(F) - I.

    A polar vector cannot couple linearly to strain in a body with a centre
    of symmetry, so there is no odd coupling eps:nu or nu:N.  Evaluated on
    flattened slots, eps in R^9, nu in R^3 and N in R^9 with the spatial
    index last, so every tensor is a matrix (tensors; C, A3 and A5
    symmetrized) contracted through its term table (terms).
    """

    name = "quadratic-vector"
    embed_dim = 3
    shapes = {"C": (3,) * 4, "A2": (3,) * 4, "A3": (3,) * 2, "A5": (3,) * 4}

    def __init__(self, C, A2=None, A3=None, A5=None, name: str | None = None):
        if name is not None:
            self.name = name
        given = {"C": C, "A2": A2, "A3": A3, "A5": A5}
        if C is None:
            raise ShapeMismatchError("C is required")
        if A3 is None:
            given["A3"] = np.zeros(self.shapes["A3"])
        e = self.embed_dim
        rows = {"C": 9, "A2": 9, "A3": e, "A5": 3 * e}
        self.tensors = {}
        for label, T in given.items():
            if T is None:
                continue
            T = np.asarray(T, dtype=float)
            if T.shape != self.shapes[label]:
                raise ShapeMismatchError(f"{label} must have shape {self.shapes[label]}, got {T.shape}")
            M = T.reshape(rows[label], -1)
            with np.errstate(over="ignore"):
                M = 0.5 * (M + M.T) if label != "A2" else M
            if not np.all(np.isfinite(M)):
                raise ShapeMismatchError(f"{label} must be finite")
            self.tensors[label] = M
        self.terms = {label: _terms(M) for label, M in self.tensors.items()}

    def eval(self, x, u, F, nu, N):
        t = self.terms
        eps, nu, N = _strain(F), np.asarray(nu, dtype=float), _flat(N)
        out = 0.5 * _form(t["C"], eps, eps)
        out = out + 0.5 * _form(t["A3"], nu, nu)
        if "A2" in t:
            out = out + _form(t["A2"], eps, N)
        if "A5" in t:
            out = out + 0.5 * _form(t["A5"], N, N)
        return out

    def d_F(self, x, u, F, nu, N):
        t = self.terms
        d = _map(t["C"], _strain(F), 9)
        if "A2" in t:
            d = d + _map(t["A2"], _flat(N), 9)
        d = d.reshape(d.shape[:-1] + (3, 3))
        return 0.5 * (d + np.swapaxes(d, -1, -2))

    def d_nu(self, x, u, F, nu, N):
        return _map(self.terms["A3"], np.asarray(nu, dtype=float), self.embed_dim)

    def d_N(self, x, u, F, nu, N):
        t = self.terms
        n = 3 * self.embed_dim
        out = np.zeros(_flat(N).shape)
        if "A2" in t:
            out = out + _map(t["A2"], _strain(F), n, transpose=True)
        if "A5" in t:
            out = out + _map(t["A5"], _flat(N), n, transpose=True)
        return out.reshape(np.shape(N))

    def minors_form(self):
        def g(m1, m2, m3, N, *, x, u, nu):
            return self.eval(x, u, m1, nu, N)

        return g


# ---------------------------------------------------------------------------
# finite-strain macroscopic energies and the quasicrystal density
# ---------------------------------------------------------------------------

class CompressibleMacro(EnergyDensity):
    """e(F) = a |F|^2 + b |cof F|^2 + c (det F - log det F - 1), det F > 0."""

    embed_dim = 1

    def __init__(self, a: float = 1.0, b: float = 1.0, c: float = 1.0,
                 name: str = "compressible-macro", embed_dim: int = 1):
        if not all(v > 0 for v in (a, b, c)):  # min() would skip a later nan
            raise ShapeMismatchError("macro coefficients must be positive")
        self.embed_dim = embed_dim  # descriptor is ignored; set for summation
        self.a, self.b, self.c = float(a), float(b), float(c)
        if not np.isfinite(3.0 * (self.a + self.b)):
            raise ShapeMismatchError(
                f"macro energy at the identity, 3a + 3b, overflows (a = {a}, b = {b})"
            )
        self.name = name
        self.growth_meta = self._derive_growth()

    def _derive_growth(self) -> GrowthSpec:
        # C1 = min(3a/4, b/2, 3/5 psi*), psi* = inf_t psi(t) over det values,
        # psi(t) = (3a/2) t^(2/3) + (3b/2) t^(4/3) + (c/2)(t - log t - 1).
        t = np.exp(np.linspace(np.log(1e-9), np.log(1e9), 20001))
        # psi(1) = (3a + 3b) / 2 is finite, so a tail that overflows to inf
        # cannot be the minimum
        with np.errstate(over="ignore"):
            psi = 1.5 * self.a * t ** (2.0 / 3.0) + 1.5 * self.b * t ** (4.0 / 3.0) + 0.5 * self.c * (
                t - np.log(t) - 1.0
            )
        psi_star = float(psi.min())
        c1 = min(0.75 * self.a, 0.5 * self.b, 0.6 * psi_star)
        cc = self.c

        def theta(tt):
            return 0.5 * cc * log_barrier(tt)

        return GrowthSpec(
            c1=c1,
            r=4.0 / 3.0,
            s=2.0,
            theta=theta,
            include_gradient_term=False,
        )

    def _g(self, m1, m2, m3, N, **_):
        """The energy in minors space: a |m1|^2 + b |m2|^2 + c (m3 - log m3 - 1)."""
        quad = self.a * np.einsum("...ij,...ij->...", m1, m1) + self.b * np.einsum(
            "...ij,...ij->...", m2, m2
        )
        return quad + self.c * log_barrier(m3)

    def eval(self, x, u, F, nu, N):
        F = np.asarray(F, dtype=float)
        return self._g(F, cofactor(F), det3(F), N)

    def d_F(self, x, u, F, nu, N):
        F = np.asarray(F, dtype=float)
        cof = cofactor(F)
        det = det3(F)
        dcof = 2.0 * self.b * cross_cofactor(cof, F)
        return 2.0 * self.a * F + dcof + (self.c * log_barrier_prime(det))[..., None, None] * cof

    def minors_form(self):
        return self._g


class Quasicrystal(EnergyDensity):
    """Macro stored energy plus phason-gradient stiffness and coupling.

    e = macro(F) + (1/2) K |N|^2 + B : (F, N) with a phason descriptor in
    R^3.  The growth bound merges the macro bound with the stiffness term
    when no coupling is present (C1 also capped by K/2 so the |N|^2 slot is
    honestly covered).  The bilinear coupling spoils joint convexity in
    (minors, N), so a coupled density registers no minors form.
    """

    embed_dim = 3

    def __init__(self, macro: CompressibleMacro | None = None,
                 phason_stiffness: float = 1.0,
                 coupling: np.ndarray | None = None,
                 name: str = "quasicrystal"):
        if not phason_stiffness > 0:
            raise ShapeMismatchError("phason stiffness must be positive")
        self.macro = macro if macro is not None else CompressibleMacro()
        self.K = float(phason_stiffness)
        self.coupling = None
        if coupling is not None:
            coupling = np.asarray(coupling, dtype=float)
            if coupling.shape != (3, 3, 3, 3):
                raise ShapeMismatchError("coupling must be (3, 3, 3, 3): strain x phason-gradient")
            self.coupling = coupling
            self._coupling_terms = _terms(coupling.reshape(9, 9))
        self.name = name
        base = self.macro.growth_meta
        if self.coupling is None:
            self.growth_meta = GrowthSpec(
                c1=min(base.c1, self.K / 2.0),
                r=base.r,
                s=2.0,
                theta=base.theta,
                include_gradient_term=True,
            )
        else:
            self.growth_meta = None

    def _g(self, m1, m2, m3, N, **_):
        """The uncoupled energy in minors space: macro(m) + (1/2) K |N|^2."""
        return self.macro._g(m1, m2, m3, N) + 0.5 * self.K * np.einsum(
            "...ai,...ai->...", N, N
        )

    def eval(self, x, u, F, nu, N):
        F = np.asarray(F, dtype=float)
        out = self._g(F, cofactor(F), det3(F), N)
        if self.coupling is not None:
            out = out + _form(self._coupling_terms, _flat(F), _flat(N))
        return out

    def d_F(self, x, u, F, nu, N):
        out = self.macro.d_F(x, u, F, nu, N)
        if self.coupling is not None:
            out = out + _map(self._coupling_terms, _flat(N), 9).reshape(out.shape)
        return out

    def d_N(self, x, u, F, nu, N):
        out = self.K * np.asarray(N, dtype=float)
        if self.coupling is not None:
            out = out + _map(self._coupling_terms, _flat(F), 9, transpose=True).reshape(out.shape)
        return out

    def minors_form(self):
        return self._g if self.coupling is None else None


# ---------------------------------------------------------------------------
# smectic-A, loads, fixtures
# ---------------------------------------------------------------------------

class SmecticA(EnergyDensity):
    """Layer energy (1/2) k1 (|grad l| - 1)^2 + (1/2) k2 (div n)^2.

    Descriptor (l, n): layer phase scalar and unit director, embed R^4.
    Not objective: div n contracts the director's ambient index with a
    material one, as usual for this small-deformation layer model.
    """

    embed_dim = 4

    def __init__(self, k1: float = 1.0, k2: float = 1.0, name: str = "smectic-a"):
        if not (k1 > 0 and k2 > 0):
            raise ShapeMismatchError("smectic constants must be positive")
        self.k1, self.k2 = float(k1), float(k2)
        self.name = name

    @staticmethod
    def _split(N):
        N = np.asarray(N, dtype=float)
        return N[..., 0, :], N[..., 1:4, :]

    def eval(self, x, u, F, nu, N):
        g, Dn = self._split(N)
        gn = np.linalg.norm(g, axis=-1)
        divn = np.einsum("...ii->...", Dn)
        return 0.5 * self.k1 * (gn - 1.0) ** 2 + 0.5 * self.k2 * divn**2

    def d_N(self, x, u, F, nu, N):
        g, Dn = self._split(N)
        gn = np.linalg.norm(g, axis=-1)
        out = np.zeros(np.asarray(N).shape)
        safe = np.maximum(gn, 1e-14)
        out[..., 0, :] = (self.k1 * (gn - 1.0) / safe)[..., None] * g
        divn = np.einsum("...ii->...", Dn)
        out[..., 1:4, :] += (self.k2 * divn)[..., None, None] * np.eye(3)
        return out


class DeadLoad(EnergyDensity):
    """External potential -force . u (gravity-type dead load)."""

    external = True

    def __init__(self, force, embed_dim: int = 3, name: str = "dead-load"):
        self.force = np.asarray(force, dtype=float)
        if self.force.shape != (3,):
            raise ShapeMismatchError("dead load force must be a 3-vector")
        self.embed_dim = embed_dim
        self.name = name

    def eval(self, x, u, F, nu, N):
        return -np.einsum("i,...i->...", self.force, np.asarray(u, dtype=float))

    def d_u(self, x, u, F, nu, N):
        return -np.broadcast_to(self.force, np.asarray(u).shape).copy()


class ExternalFieldCoupling(EnergyDensity):
    """External potential -h . nu (applied field conjugate to the descriptor)."""

    external = True

    def __init__(self, h, name: str = "external-field"):
        self.h = np.asarray(h, dtype=float)
        if self.h.ndim != 1:
            raise ShapeMismatchError("field must be a flat embedding vector")
        self.embed_dim = self.h.shape[0]
        self.name = name

    def eval(self, x, u, F, nu, N):
        return -np.einsum("a,...a->...", self.h, np.asarray(nu, dtype=float))

    def d_nu(self, x, u, F, nu, N):
        return -np.broadcast_to(self.h, np.asarray(nu).shape).copy()


class EasyAxisAnchoring(EnergyDensity):
    """Internal easy-axis term w (axis . nu)^2: deliberately frame-breaking.

    A fixed lab axis inside an internal density violates objectivity, which
    is exactly what the rotational-balance checks need a positive control
    for.
    """

    def __init__(self, axis, weight: float = 1.0, embed_dim: int = 3,
                 name: str = "easy-axis"):
        self.axis = np.asarray(axis, dtype=float)
        if self.axis.shape != (embed_dim,):
            raise ShapeMismatchError("axis must match the descriptor embedding")
        self.weight = float(weight)
        self.embed_dim = embed_dim
        self.name = name

    def eval(self, x, u, F, nu, N):
        p = np.einsum("a,...a->...", self.axis, np.asarray(nu, dtype=float))
        return self.weight * p**2

    def d_nu(self, x, u, F, nu, N):
        p = np.einsum("a,...a->...", self.axis, np.asarray(nu, dtype=float))
        return (2.0 * self.weight * p)[..., None] * self.axis


# ---------------------------------------------------------------------------
# total energy, state sampling, hypothesis checks
# ---------------------------------------------------------------------------

def total_energy(density: EnergyDensity, state: FieldState) -> float:
    """Midpoint-quadrature energy over the active cells; +inf if any active
    cell evaluates non-finite (volumetric barrier violated).  The density
    is evaluated a slab at a time and summed over the whole grid."""
    reads = density.reads
    (vals,) = cellwise(state.grid, lambda rows: (density.eval(*gradients(state, reads, rows)),))
    sel = vals[state.active]
    if not np.all(np.isfinite(sel)):
        return np.inf
    return float(sel.sum() * state.grid.cell_volume)


def sample_states(rng: np.random.Generator, n: int, embed_dim: int,
                  wide: bool = False) -> GradientField:
    """n random admissible pointwise states, det F > 0 by construction, as a
    density's argument list (density.eval(*s) evaluates them).

    F = R1 diag(lambda) R2 with rotations and lognormal singular values;
    wide stretches the magnitude range for growth probing.
    """
    sigma = 1.2 if wide else 0.4
    from .manifolds import rotation_from_vector

    lam = rng.lognormal(0.0, sigma, size=(n, 3))
    # per sample the vectors of R1, then R2: the stream order of one draw each
    rot = rotation_from_vector(rng.normal(size=(n, 2, 3)))
    F = (rot[:, 0] * lam[:, None, :]) @ rot[:, 1]
    scale = rng.lognormal(0.0, sigma, size=(n, 1, 1))
    N = rng.normal(size=(n, embed_dim, 3)) * scale
    return GradientField(
        x=rng.normal(size=(n, 3)),
        u_bar=rng.normal(size=(n, 3)),
        F=F,
        nu_bar=rng.normal(size=(n, embed_dim)),
        N=N,
    )


@dataclass
class GrowthReport:
    samples: int
    violations: int
    min_slack: float

    @property
    def passed(self) -> bool:
        return self.violations == 0


def check_growth(density: EnergyDensity, spec: GrowthSpec | None = None,
                 n: int = 10_000, seed: int = 0) -> GrowthReport:
    """Sample states and verify e >= bound; slack = e - bound per sample.
    A nan slack is a violation, as a nan determinant is in check_orientation."""
    if spec is None:
        spec = density.growth_meta
    if spec is None:
        raise GeneratorUnavailableError(f"{density.name} documents no growth bound")
    rng = np.random.default_rng(seed)
    s = sample_states(rng, n, density.embed_dim, wide=True)
    e = density.eval(*s)
    bound = spec.bound(s.F, s.N)
    slack = e - bound
    tol = 1e-10 * np.maximum(1.0, np.abs(e))
    bad = ~(slack >= -tol)
    return GrowthReport(samples=n, violations=int(bad.sum()),
                        min_slack=float(slack.min()))


@dataclass
class ConvexityReport:
    mode: str
    segments: int
    max_defect: float
    scale: float

    @property
    def passed(self) -> bool:
        return self.max_defect <= 1e-10 * self.scale


def check_convexity(density: EnergyDensity, n_segments: int = 1000,
                    seed: int = 0) -> ConvexityReport:
    """Midpoint convexity probe along random segments.

    A density that registers a minors form is probed on it over (order-1,
    order-2, order-3 > 0, N) jointly (mode in_minors_and_N); any other
    freezes (x, u, F, nu) and varies the descriptor gradient alone (mode
    in_N).  The defect e(mid) - (e(a) + e(b))/2 must not be positive beyond
    round-off.
    """
    rng = np.random.default_rng(seed)
    d = density.embed_dim
    form = density.minors_form()
    base = sample_states(rng, n_segments, d)
    if form is None:
        mode = "in_N"
        Na = rng.normal(size=(n_segments, d, 3)) * rng.lognormal(0, 0.8, (n_segments, 1, 1))
        Nb = rng.normal(size=(n_segments, d, 3)) * rng.lognormal(0, 0.8, (n_segments, 1, 1))
        ea = density.eval(*base._replace(N=Na))
        eb = density.eval(*base._replace(N=Nb))
        em = density.eval(*base._replace(N=0.5 * (Na + Nb)))
    else:
        mode = "in_minors_and_N"

        def draw():
            m1 = rng.normal(size=(n_segments, 3, 3)) * rng.lognormal(0, 0.8, (n_segments, 1, 1))
            m2 = rng.normal(size=(n_segments, 3, 3)) * rng.lognormal(0, 0.8, (n_segments, 1, 1))
            m3 = rng.lognormal(0.0, 1.0, size=n_segments)
            N = rng.normal(size=(n_segments, d, 3))
            return m1, m2, m3, N

        pa, pb = draw(), draw()
        mid = tuple(0.5 * (a + b) for a, b in zip(pa, pb))
        kw = dict(x=base.x, u=base.u_bar, nu=base.nu_bar)
        ea = form(*pa, **kw)
        eb = form(*pb, **kw)
        em = form(*mid, **kw)
    defect = em - 0.5 * (ea + eb)
    scale = float(np.max(np.abs(np.concatenate([ea, eb, em]))) + 1.0)
    return ConvexityReport(mode=mode, segments=n_segments,
                           max_defect=float(defect.max()), scale=scale)


def gradient_consistency(density: EnergyDensity, n: int = 100, seed: int = 0,
                         step: float = 1e-5) -> dict[str, float]:
    """Central finite-difference check of every analytic derivative.

    Returns the worst relative mismatch per derivative leg over n random
    admissible states (batched; one FD direction per scalar slot).

    Each sample is differenced at three step sizes (step scaled by the
    cube root of the local energy, then x10 and x100) and scored by its
    best step.  No single step resolves every leg: a tiny derivative under
    a large total energy needs a wide step to beat subtraction noise, while
    strong curvature needs a narrow one to beat truncation.  A wrong
    derivative disagrees with the difference quotient at every step.
    """
    rng = np.random.default_rng(seed)
    args = dict(zip(SLOTS, sample_states(rng, n, density.embed_dim)))
    legs = {"d_x": "x", "d_u": "u", "d_F": "F", "d_nu": "nu", "d_N": "N"}
    e0 = density.eval(**args)
    h0 = step * np.cbrt(1.0 + np.abs(e0))
    out = {}
    for leg, var in legs.items():
        analytic = getattr(density, leg)(**args)
        base = args[var]
        flat_dims = base.shape[1:]
        axes = tuple(range(1, analytic.ndim))
        na = np.sqrt(np.sum(analytic**2, axis=axes))
        best = None
        for mult in (1.0, 10.0, 100.0):
            h = h0 * mult
            fd = np.zeros_like(analytic)
            for idx in np.ndindex(*flat_dims):
                bump = np.zeros_like(base)
                bump[(slice(None),) + idx] = h
                ep = density.eval(**{**args, var: base + bump})
                em = density.eval(**{**args, var: base - bump})
                fd[(slice(None),) + idx] = (ep - em) / (2.0 * h)
            nf = np.sqrt(np.sum(fd**2, axis=axes))
            diff = np.sqrt(np.sum((analytic - fd) ** 2, axis=axes))
            denom = np.maximum(np.maximum(na, nf), 1e-8 * (1.0 + np.abs(e0)))
            rel = diff / denom
            best = rel if best is None else np.minimum(best, rel)
        out[leg] = float(np.max(best))
    return out
