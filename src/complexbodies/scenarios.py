"""Scenario configuration and the batch runner behind the command line.

A scenario is a body (grid + manifold + density + boundary data), a descent
run, and a battery of verification checks.  Configs live in a flat INI-style
text format with fixed sections; unknown sections, keys, kinds, or check
names are rejected so a typo cannot silently change an experiment.

run() minimizes, evaluates every enabled check, writes all artifacts
(trace.csv, fields_u.csv, fields_nu.csv, fields.npz, residuals.csv,
report.txt), and raises ScenarioFailedError when an enabled check fails;
artifacts are written either way.  Outputs contain no timestamps, so a
config plus a seed reproduces them bitwise.
"""

from __future__ import annotations

import configparser
import io
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .admissibility import (
    check_ciarlet_necas,
    check_orientation,
    d_field_boundary_flux,
    defect_charges,
)
from .balance import (
    ResidualReport,
    Residual,
    assemble_actions,
    configurational_residual,
    random_compact_tests,
    rotational_balance,
    weak_el_residual,
)
from .energy import (
    CompressibleMacro,
    ComponentDoubleWell,
    DirichletDescriptor,
    EnergyDensity,
    GinzburgLandau,
    QuadraticVector,
    Quasicrystal,
    SmecticA,
    SumDensity,
    check_convexity,
    check_growth,
    isotropic_elasticity,
)
from .errors import (
    ConfigError,
    InadmissibleStartError,
    ProjectionUndefinedError,
    ScenarioFailedError,
    ShapeMismatchError,
)
from .fieldio import _fg, write_fields, write_report, write_residuals, write_trace
from .fields import (
    FieldState,
    Grid,
    ball_mask,
    boundary_node_mask,
    identity_state,
    node_volumes,
    pin,
)
from .manifolds import Euclidean, Interval, Manifold, Product, UnitSphere
from .manifolds import degree_of_orientation, layer_director
from .minimize import MinimizeConfig, MinimizeResult, minimize, riesz_gradient

CHECK_NAMES = (
    "orientation",
    "injectivity",
    "growth",
    "convexity",
    "weak_el",
    "rotational",
    "configurational",
    "defects",
)

GRID_SHAPES = ("box", "ball")

# random test fields per residual check, samples of the growth check, and
# the pass thresholds of the residual checks
N_TESTS = 20
GROWTH_SAMPLES = 4000
WEAK_TOL = 1e-5
DUALITY_TOL = 1e-12
ROTATIONAL_TOL = 1e-6
CONFIGURATIONAL_TOL = 5e-2


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class ScenarioConfig:
    """Complete description of one scenario run: the physics (grid,
    manifold, density, boundary, init), the descent settings, the check
    toggles, the seed, and the output directory."""

    name: str
    resolution: int = 16
    lo: float = 0.0
    hi: float = 1.0
    shape: str = "box"
    manifold_kind: str = "unit-sphere"
    manifold_params: dict = field(default_factory=dict)
    density_kind: str = "dirichlet"
    density_params: dict = field(default_factory=dict)
    boundary_kind: str = "none"
    boundary_params: dict = field(default_factory=dict)
    init_kind: str = "identity"
    init_params: dict = field(default_factory=dict)
    minimize: MinimizeConfig = field(default_factory=MinimizeConfig)
    checks: dict = field(default_factory=dict)
    out_dir: str | None = None
    seed: int = 0

    def __post_init__(self):
        if self.resolution < 2:
            raise ConfigError("grid resolution must be at least 2")
        # Python floats overflow to inf and underflow to 0 without a warning
        h = (self.hi - self.lo) / self.resolution
        if not (0.0 < h < math.inf and 0.0 < h * h * h < math.inf):
            raise ConfigError(f"[grid] box [{self.lo}, {self.hi}] at resolution {self.resolution}"
                              f" has cell spacing {h:g} and cell volume {h * h * h:g}; both must"
                              f" be finite and positive")
        if self.shape not in GRID_SHAPES:
            raise ConfigError(f"shape must be one of {GRID_SHAPES}, got {self.shape!r}")
        for key in self.checks:
            if key not in CHECK_NAMES:
                raise ConfigError(f"unknown check {key!r}; known: {', '.join(CHECK_NAMES)}")
        self.checks = {name: bool(self.checks.get(name, False)) for name in CHECK_NAMES}
        if self.seed < 0:
            raise ConfigError(f"seed must not be negative, got {self.seed}")


# --- typed readers ---------------------------------------------------------

def _as_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from None


def _as_float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be finite, got {raw!r}")
    return value


def _as_str(section: str, key: str, raw: str) -> str:
    return raw.strip()


def _as_bool(section: str, key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ConfigError(f"[{section}] {key} must be on/off, got {raw!r}")


_MINIMIZE_TYPES = {
    "max_iters": _as_int,
    "grad_tol": _as_float,
    "log_every": _as_int,
}

# Keys that older configs carry, each set to the one value that the program
# now always uses; a key parses at that value only and then sets nothing.
_RETIRED = {
    "minimize": {
        "energy_tol": (_as_float, "0"),
        "step0": (_as_float, "1"),
        "backtrack": (_as_float, "0.5"),
        "armijo_c": (_as_float, "0.0001"),
        "max_backtracks": (_as_int, "40"),
        "bb_steps": (_as_bool, "on"),
        "step_max": (_as_float, "1000000"),
        "block_mode": (_as_str, "joint"),
    },
    "checks": {"relaxed_formula": (_as_bool, "off"), "strong": (_as_bool, "off"),
               "eulerian": (_as_bool, "off")},
}

_SECTIONS = ("scenario", "grid", "manifold", "density", "boundary", "init",
             "minimize", "checks")


def parse_config(text: str) -> ScenarioConfig:
    """Parse the INI text format; any unknown section or key is an error."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"unparseable config: {exc}") from None
    if cp.defaults():
        raise ConfigError("a [DEFAULT] section is not allowed")
    for sec in cp.sections():
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown section [{sec}]; known: {_SECTIONS}")

    def section(name):
        data = dict(cp[name]) if cp.has_section(name) else {}
        for key, (read, only) in _RETIRED.get(name, {}).items():
            if key in data:
                raw = data.pop(key)
                if read(name, key, raw) != read(name, key, only):
                    raise ConfigError(f"[{name}] {key} is retired and accepts only "
                                      f"{only}, got {raw!r}")
        return data

    sc = section("scenario")
    if "name" not in sc:
        raise ConfigError("[scenario] must set name")
    kwargs = {"name": sc.pop("name").strip()}
    if "seed" in sc:
        kwargs["seed"] = _as_int("scenario", "seed", sc.pop("seed"))
    if "out" in sc:
        kwargs["out_dir"] = sc.pop("out").strip()
    if sc:
        raise ConfigError(f"unknown [scenario] keys: {sorted(sc)}")

    gr = section("grid")
    for key, read in (("resolution", _as_int), ("lo", _as_float), ("hi", _as_float),
                      ("shape", _as_str)):
        if key in gr:
            kwargs[key] = read("grid", key, gr.pop(key))
    if gr:
        raise ConfigError(f"unknown [grid] keys: {sorted(gr)}")

    for sec_name, kind_key, params_key in (
        ("manifold", "manifold_kind", "manifold_params"),
        ("density", "density_kind", "density_params"),
        ("boundary", "boundary_kind", "boundary_params"),
        ("init", "init_kind", "init_params"),
    ):
        data = section(sec_name)
        if "kind" in data:
            kwargs[kind_key] = data.pop("kind").strip()
        kwargs[params_key] = {
            k: _as_float(sec_name, k, v) for k, v in data.items()
        }

    mz = section("minimize")
    mz_kwargs = {}
    for key, raw in mz.items():
        if key not in _MINIMIZE_TYPES:
            raise ConfigError(f"unknown [minimize] key {key!r}")
        mz_kwargs[key] = _MINIMIZE_TYPES[key]("minimize", key, raw)
    kwargs["minimize"] = MinimizeConfig(**mz_kwargs)

    ck = section("checks")
    kwargs["checks"] = {k: _as_bool("checks", k, v) for k, v in ck.items()}

    return ScenarioConfig(**kwargs)


def format_config(config: ScenarioConfig) -> str:
    """Render a config back to the text format (inverse of parse_config)."""
    cp = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    cp.optionxform = str
    cp["scenario"] = {"name": config.name, "seed": str(config.seed)}
    if config.out_dir is not None:
        cp["scenario"]["out"] = config.out_dir
    cp["grid"] = {
        "resolution": str(config.resolution),
        "lo": _fg(config.lo),
        "hi": _fg(config.hi),
        "shape": config.shape,
    }
    for sec_name, kind, params in (
        ("manifold", config.manifold_kind, config.manifold_params),
        ("density", config.density_kind, config.density_params),
        ("boundary", config.boundary_kind, config.boundary_params),
        ("init", config.init_kind, config.init_params),
    ):
        cp[sec_name] = {"kind": kind}
        for k in sorted(params):
            cp[sec_name][k] = _fg(params[k])
    mz = config.minimize
    cp["minimize"] = {
        "max_iters": str(mz.max_iters),
        "grad_tol": _fg(mz.grad_tol),
        "log_every": str(mz.log_every),
    }
    cp["checks"] = {
        name: "on" if config.checks.get(name, False) else "off"
        for name in CHECK_NAMES
    }
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# registries: one table per section, kind -> (defaults, builder[, width])
# ---------------------------------------------------------------------------

def _build(section: str, table: dict, kind: str, params: dict, *args,
           manifold: Manifold | None = None):
    """Call the builder of a section's kind on its defaults updated by params.

    An unknown kind or key, or a value the builder's constructor rejects, is
    a config error; the known kinds and keys are read off the table.  A
    boundary or init kind that writes a fixed descriptor width names it as
    the third entry of its row, and a manifold of another width is a config
    error too.
    """
    if kind not in table:
        raise ConfigError(f"unknown {section} kind {kind!r}; known: {', '.join(table)}")
    defaults, builder, *width = table[kind]
    unknown = set(params) - set(defaults)
    if unknown:
        raise ConfigError(
            f"unknown {kind} parameters {sorted(unknown)}; known: {sorted(defaults)}"
        )
    if width and width[0] != manifold.embed_dim:
        raise ConfigError(
            f"[{section}] {kind} writes a {width[0]}-component descriptor but manifold "
            f"{manifold.name!r} embeds in {manifold.embed_dim}"
        )
    try:
        return builder({**defaults, **params}, *args)
    except ShapeMismatchError as exc:
        raise ConfigError(f"[{section}] {kind}: {exc}") from None


MANIFOLDS = {
    "unit-sphere": ({}, lambda p: UnitSphere()),
    "euclidean1": ({}, lambda p: Euclidean(1)),
    "euclidean3": ({}, lambda p: Euclidean(3)),
    "interval": ({"lo": 0.0, "hi": 1.0}, lambda p: Interval(p["lo"], p["hi"])),
    "degree-of-orientation": ({}, lambda p: degree_of_orientation()),
    "layer-director": ({}, lambda p: layer_director()),
}


def build_manifold(kind: str, params: dict) -> Manifold:
    return _build("manifold", MANIFOLDS, kind, params)


def _nonnegative(p: dict, kind: str, *keys: str) -> None:
    """Range check for density parameters that no constructor validates."""
    for key in keys:
        if not p[key] >= 0:
            raise ConfigError(f"[density] {kind}: {key} must not be negative, got {p[key]}")


def _orientation_landau(p: dict, manifold: Manifold) -> EnergyDensity:
    _nonnegative(p, "orientation-landau", "well_depth")
    well = ComponentDoubleWell(p["well_depth"], p["beta_a"], p["beta_b"], component=3)
    return GinzburgLandau(well, p["stiffness"], 4, name="orientation-landau",
                          well_nonnegative=True)


def _microcracked(p: dict, manifold: Manifold) -> EnergyDensity:
    _nonnegative(p, "microcracked", "restore", "grad_stiffness")
    if not (p["mu"] > 0 and 3 * p["lam"] + 2 * p["mu"] > 0):
        # isotropic C is positive definite on symmetric strains iff both hold
        raise ConfigError(
            "[density] microcracked: lam and mu need mu > 0 and 3 lam + 2 mu > 0, "
            f"got lam = {p['lam']}, mu = {p['mu']}"
        )
    eye = np.eye(3)
    a2 = 0.5 * p["couple"] * (
        np.einsum("ia,jk->ijak", eye, eye) + np.einsum("ja,ik->ijak", eye, eye)
    )
    a5 = p["grad_stiffness"] * np.einsum("ac,ij->aicj", eye, eye)
    return QuadraticVector(isotropic_elasticity(p["lam"], p["mu"]), A2=a2, A3=p["restore"] * eye,
                           A5=a5, centrosymmetric=True, name="microcracked-vector")


def _quasicrystal(p: dict, manifold: Manifold) -> EnergyDensity:
    # B : (F, N) = kappa tr(F^T N); ambient indices contract with each other,
    # which is the rotation-invariant bilinear coupling.
    eye = np.eye(3)
    coupling = p["kappa"] * np.einsum("ia,jk->ijak", eye, eye) if p["kappa"] != 0.0 else None
    return Quasicrystal(CompressibleMacro(p["a"], p["b"], p["c"]),
                        phason_stiffness=p["phason_stiffness"], coupling=coupling)


def _smectic(p: dict, manifold: Manifold) -> EnergyDensity:
    base = SmecticA(p["k1"], p["k2"])
    if p["penalty"] == 0.0:
        return base
    # the layer energy alone is degenerate along divergence-free director
    # perturbations; a small quadratic penalty keeps descent conditioned
    pen = GinzburgLandau(None, p["penalty"], 4, name="compression-penalty")
    return SumDensity([base, pen], name="smectic-layers")


def _porous_landau(p: dict, manifold: Manifold) -> EnergyDensity:
    _nonnegative(p, "porous-landau", "well_depth")
    well = ComponentDoubleWell(p["well_depth"], p["pore_a"], p["pore_b"], component=0)
    return GinzburgLandau(well, p["stiffness"], 1, name="porous-landau",
                          well_nonnegative=True)


DENSITIES = {
    "dirichlet": ({}, lambda p, manifold: DirichletDescriptor(embed_dim=manifold.embed_dim)),
    "orientation-landau": ({"stiffness": 1.0, "well_depth": 3.0, "beta_a": 0.0, "beta_b": 0.8},
                           _orientation_landau),
    "microcracked": ({"lam": 1.2, "mu": 0.9, "couple": 0.35, "restore": 0.6,
                      "grad_stiffness": 0.15}, _microcracked),
    "quasicrystal": ({"a": 1.0, "b": 1.0, "c": 0.6, "phason_stiffness": 1.0, "kappa": 0.0},
                     _quasicrystal),
    "smectic": ({"k1": 1.0, "k2": 1.0, "penalty": 0.2}, _smectic),
    "porous-landau": ({"stiffness": 0.25, "well_depth": 1.0, "pore_a": 0.0, "pore_b": 1.0},
                      _porous_landau),
}


def build_density(kind: str, params: dict, manifold: Manifold) -> EnergyDensity:
    """Build a registered density; a parameter its constructor rejects is a config error."""
    return _build("density", DENSITIES, kind, params, manifold)


def _safe_radial(coords: np.ndarray, center: np.ndarray) -> np.ndarray:
    d = coords - center
    n = np.linalg.norm(d, axis=-1, keepdims=True)
    fallback = np.zeros_like(d)
    fallback[..., 2] = 1.0
    return np.where(n > 1e-12, d / np.where(n > 1e-12, n, 1.0), fallback)


def _box_center(grid: Grid) -> np.ndarray:
    return 0.5 * (np.asarray(grid.lo) + np.asarray(grid.hi))


def _radial(x: np.ndarray, grid: Grid) -> np.ndarray:
    """Unit vectors from the center of the cell containing the box center.

    Radial fields are anchored there rather than at the box center itself: a
    singular point on a grid node sits on the corner of eight cells and the
    per-cell winding splits into spurious multi-charge fragments.  The total
    flux and the detected charge do not depend on the half-spacing shift.
    """
    lo = np.asarray(grid.lo)
    h = np.asarray(grid.spacing)
    idx = np.clip(
        np.floor((_box_center(grid) - lo) / h).astype(int),
        0,
        np.asarray(grid.cells) - 1,
    )
    return _safe_radial(x, lo + (idx + 0.5) * h)


def _stretch(p: dict) -> np.ndarray:
    """The matrix of the affine kinds: I + gamma diag(e1, e2, e3)."""
    return np.eye(3) + p["gamma"] * np.diag([p["e1"], p["e2"], p["e3"]])


def _sheared(p: dict, x: np.ndarray) -> np.ndarray:
    """The simple shear x + gamma x2 e1 of the shear kinds."""
    u = x.copy()
    u[..., 0] += p["gamma"] * x[..., 1]
    return u


def _slope(p: dict, x: np.ndarray, state: FieldState) -> np.ndarray:
    """nu_slope (x - c) in the first min(3, embed) components of nu."""
    k = min(3, state.embed_dim)
    return p["nu_slope"] * (x - _box_center(state.grid))[..., :k]


# A boundary builder gets the node coordinates x and the rim, the nodes on
# the boundary of the body, and returns its Dirichlet data as a list of
# (which, mask, values) pins, each mask inside the rim.

def _radial_orientation_rim(p: dict, state: FieldState, x, rim) -> list:
    beta = np.full(state.grid.nodes + (1,), p["beta"])
    return [("nu", rim, np.concatenate([_radial(x, state.grid), beta], axis=-1))]


def _affine_stretch_rim(p: dict, state: FieldState, x, rim) -> list:
    with np.errstate(over="ignore", invalid="ignore"):
        A = _stretch(p)
        det = np.linalg.det(A)
    if not (np.isfinite(A).all() and np.isfinite(det)):
        raise ConfigError("affine-stretch overflows: its matrix or determinant is not finite")
    if det <= 0:
        raise ConfigError("affine-stretch flips orientation; reduce gamma")
    nu = np.zeros(state.nu.shape)
    nu[..., : min(3, state.embed_dim)] = _slope(p, x, state)
    return [("u", rim, np.einsum("ij,...j->...i", A, x)), ("nu", rim, nu)]


def _tilted_layers_rim(p: dict, state: FieldState, x, rim) -> list:
    nu = np.zeros(state.grid.nodes + (4,))
    nu[..., 0] = x[..., 2] + p["tilt"] * x[..., 0]
    nu[..., 3] = 1.0
    return [("nu", rim, nu)]


def _two_face_ramp_rim(p: dict, state: FieldState, x, rim) -> list:
    grid = state.grid
    lo_face = rim & (np.abs(x[..., 0] - grid.lo[0]) < 0.5 * grid.spacing[0])
    hi_face = rim & (np.abs(x[..., 0] - grid.hi[0]) < 0.5 * grid.spacing[0])
    return [("nu", lo_face, np.full(state.nu.shape, p["a"])),
            ("nu", hi_face, np.full(state.nu.shape, p["b"]))]


BOUNDARIES = {
    "none": ({}, lambda p, state, x, rim: []),
    "radial-director": ({}, lambda p, state, x, rim: [("nu", rim, _radial(x, state.grid))], 3),
    "radial-orientation": ({"beta": 0.8}, _radial_orientation_rim, 4),
    "affine-stretch": ({"gamma": 0.05, "e1": 1.0, "e2": -0.3, "e3": -0.3, "nu_slope": 0.0},
                       _affine_stretch_rim),
    "simple-shear": ({"gamma": 0.3}, lambda p, state, x, rim: [("u", rim, _sheared(p, x))]),
    "tilted-layers": ({"tilt": 0.1}, _tilted_layers_rim, 4),
    "two-face-ramp": ({"a": 0.0, "b": 1.0}, _two_face_ramp_rim),
}


def apply_boundary(kind: str, params: dict, state: FieldState,
                   manifold: Manifold) -> None:
    """Pin the Dirichlet data of a registered boundary kind."""
    rim = boundary_node_mask(state.grid, state.active)
    pins = _build("boundary", BOUNDARIES, kind, params, state, state.grid.node_coords(), rim,
                  manifold=manifold)
    for which, mask, values in pins:
        try:
            pin(state, which, mask, values, manifold)
        except ProjectionUndefinedError as exc:
            raise ConfigError(f"[boundary] descriptor data on the rim: {exc}") from None


# An init builder gets the node coordinates x and xi, x mapped onto
# [0, 1]^3, and writes the initial fields into the state in place.

def _bump(xi: np.ndarray) -> np.ndarray:
    return np.prod(np.sin(np.pi * xi), axis=-1)


def _radial_init(p: dict, state: FieldState, x, xi) -> None:
    state.nu[...] = _radial(x, state.grid)


def _radial_orientation_init(p: dict, state: FieldState, x, xi) -> None:
    state.nu[..., :3] = _radial(x, state.grid)
    state.nu[..., 3] = p["beta"]


def _affine_init(p: dict, state: FieldState, x, xi) -> None:
    state.u[...] = np.einsum("ij,...j->...i", _stretch(p), x)
    state.nu[..., : min(3, state.embed_dim)] = _slope(p, x, state)


def _shear_init(p: dict, state: FieldState, x, xi) -> None:
    state.u[...] = _sheared(p, x)


def _layers_init(p: dict, state: FieldState, x, xi) -> None:
    state.nu[..., 0] = x[..., 2] + p["tilt"] * x[..., 0] + p["amp"] * _bump(xi)
    state.nu[..., 1:3] = 0.0
    state.nu[..., 3] = 1.0


def _ramp_init(p: dict, state: FieldState, x, xi) -> None:
    state.nu[..., 0] = p["a"] + (p["b"] - p["a"]) * xi[..., 0] + p["amp"] * _bump(xi)


INITS = {
    "identity": ({}, lambda p, state, x, xi: None),
    "radial": ({}, _radial_init, 3),
    "radial-orientation": ({"beta": 0.8}, _radial_orientation_init, 4),
    "affine": ({"gamma": 0.05, "e1": 1.0, "e2": -0.3, "e3": -0.3, "nu_slope": 0.0},
               _affine_init),
    "shear": ({"gamma": 0.3}, _shear_init),
    "layers": ({"tilt": 0.1, "amp": 0.05}, _layers_init, 4),
    "ramp": ({"a": 0.0, "b": 1.0, "amp": 0.05}, _ramp_init),
}


def apply_init(kind: str, params: dict, state: FieldState,
               manifold: Manifold) -> None:
    """Write the initial fields of a registered init kind into state, with
    the descriptor projected onto the manifold."""
    grid = state.grid
    x = grid.node_coords()
    xi = (x - np.asarray(grid.lo)) / (np.asarray(grid.hi) - np.asarray(grid.lo))
    _build("init", INITS, kind, params, state, x, xi, manifold=manifold)
    try:
        state.nu[...] = manifold.project(state.nu)
    except ProjectionUndefinedError as exc:
        raise ConfigError(f"[init] {kind}: descriptor data: {exc}") from None


def _default_nu0(manifold: Manifold) -> np.ndarray:
    if isinstance(manifold, Product):
        return np.concatenate([_default_nu0(f) for f in manifold.factors])
    if isinstance(manifold, UnitSphere):
        return np.array([0.0, 0.0, 1.0])
    if isinstance(manifold, Interval):
        return np.array([0.5 * (manifold.lo + manifold.hi)])
    return np.zeros(manifold.embed_dim)


# ---------------------------------------------------------------------------
# materialization and validation
# ---------------------------------------------------------------------------

@dataclass
class BuiltScenario:
    manifold: Manifold
    density: EnergyDensity
    state: FieldState


def materialize(config: ScenarioConfig) -> BuiltScenario:
    """Resolve every name in the config and build the initial state."""
    manifold = build_manifold(config.manifold_kind, config.manifold_params)
    density = build_density(config.density_kind, config.density_params, manifold)
    if density.embed_dim != manifold.embed_dim:
        raise ConfigError(
            f"density {config.density_kind!r} expects a {density.embed_dim}-component "
            f"descriptor but manifold {config.manifold_kind!r} embeds in "
            f"{manifold.embed_dim}"
        )
    grid = Grid.cube(config.resolution, config.lo, config.hi)
    state = identity_state(grid, manifold, _default_nu0(manifold))
    if config.shape == "ball":
        state = FieldState(grid, state.u, state.nu, state.pinned_u,
                           state.pinned_nu, active=ball_mask(grid))
    apply_init(config.init_kind, config.init_params, state, manifold)
    apply_boundary(config.boundary_kind, config.boundary_params, state, manifold)

    checks = config.checks
    if checks["growth"] and density.growth_meta is None:
        raise ConfigError(
            f"growth check enabled but density {density.name!r} documents no growth bound"
        )
    if checks["rotational"] and not manifold.rotation_generator_defined:
        raise ConfigError(
            f"rotational check enabled but manifold {manifold.name!r} carries no rotation action"
        )
    if checks["defects"] and not isinstance(manifold, UnitSphere):
        raise ConfigError("defect accounting needs a unit-director descriptor")
    return BuiltScenario(manifold=manifold, density=density, state=state)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckOutcome:
    name: str
    passed: bool
    detail: str


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    out_dir: Path | None
    minimize_result: MinimizeResult
    residuals: ResidualReport
    outcomes: list
    report_lines: list

    @property
    def passed(self) -> bool:
        return all(o.passed for o in self.outcomes)

    def outcome(self, name: str) -> CheckOutcome:
        for o in self.outcomes:
            if o.name == name:
                return o
        raise KeyError(name)


def _usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _weak_el_rows(config: ScenarioConfig, bf, g_u: np.ndarray, g_nu: np.ndarray,
                  vols: np.ndarray) -> tuple[list, list]:
    """Weak residual and duality rows over random test pairs.

    (g_u, g_nu) is the assembled gradient with lumped volumes vols.  The
    calling thread checks the even pairs and, on two usable cores, one
    worker the odd ones (numpy's loops release the interpreter lock); the
    caller does not wait idle, since each thread that builds test fields
    keeps its own malloc heap of them.  A thread builds its pair from the
    builders drawn here, takes the pair's pairing with the gradient and its
    weak_el_residual row, and drops the pair, so at most one pair per thread
    is alive.  Every value is computed by the same operations on any thread
    and the rows are taken in pair order, so the rows are the same bit for
    bit on one or two threads, and a failing pair raises the error of the
    first failing pair, as a serial loop would.
    """
    final = bf.state
    w = vols[..., None]
    h_tests = random_compact_tests(final, N_TESTS, 3, seed=config.seed + 11)
    nu_tests = random_compact_tests(
        final, N_TESTS, final.embed_dim, seed=config.seed + 12,
        manifold=bf.manifold,
    )

    def check_pair(k):
        h = h_tests[k]()
        ups = nu_tests[k]()
        pairing = float(np.sum(g_u * h * w) + np.sum(g_nu * ups * w))
        return weak_el_residual(bf, h, ups, k), pairing

    two = _usable_cores() >= 2
    with ThreadPoolExecutor(max_workers=1) as pool:
        odd = {k: pool.submit(check_pair, k) for k in range(1, N_TESTS, 2) if two}
        done = [odd[k].result() if k in odd else check_pair(k) for k in range(N_TESTS)]
    rows = [r for r, _ in done]
    dual = [
        Residual(name=f"duality[{k}]", raw=r.raw - pairing, scale=1.0 + r.scale)
        for k, (r, pairing) in enumerate(done)
    ]
    return rows, dual


def _run_checks(config: ScenarioConfig, manifold: Manifold, density: EnergyDensity,
                mres: MinimizeResult) -> tuple[list, list, ResidualReport]:
    final = mres.state
    checks = config.checks
    # the duality check reads minimize's last gradient, taken at final; the
    # result keeps no gradient
    grad, mres.gradient = mres.gradient, None
    outcomes = []
    lines = []
    report = ResidualReport()

    def record(name, passed, detail):
        outcomes.append(CheckOutcome(name=name, passed=passed, detail=detail))
        lines.append(f"check {name}: {'PASS' if passed else 'FAIL'} | {detail}")

    if checks["orientation"]:
        rep = check_orientation(final)
        record(
            "orientation",
            rep.passed,
            f"cells={rep.cells} violations={rep.violations} min_det={_fg(rep.min_det)}",
        )
    if checks["injectivity"]:
        rep = check_ciarlet_necas(final)
        record(
            "injectivity",
            rep.passed,
            f"volume_integral={_fg(rep.volume_integral)} image_volume={_fg(rep.image_volume)} "
            f"slack={_fg(rep.slack)} violations={rep.violations} min_det={_fg(rep.min_det)} "
            f"rim_affine={rep.rim_affine}",
        )
    if checks["growth"]:
        rep = check_growth(density, n=GROWTH_SAMPLES, seed=config.seed)
        record(
            "growth",
            rep.passed,
            f"samples={rep.samples} violations={rep.violations} min_slack={_fg(rep.min_slack)}",
        )
    if checks["convexity"]:
        rep = check_convexity(density, n_segments=600, seed=config.seed)
        record(
            "convexity",
            rep.passed,
            f"mode={rep.mode} segments={rep.segments} max_defect={_fg(rep.max_defect)}",
        )
    if checks["rotational"]:
        res = rotational_balance(density, manifold, GROWTH_SAMPLES, config.seed)
        report.add(res)
        record(
            "rotational",
            res.ratio <= ROTATIONAL_TOL,
            f"ratio={_fg(res.ratio)} tol={_fg(ROTATIONAL_TOL)}",
        )
    # a gradient taken here is taken before the actions, so its working set
    # is freed before theirs is allocated
    if checks["weak_el"] and grad is None:
        vols = node_volumes(final.grid, final.active)
        grad = (*riesz_gradient(density, final, manifold, vols=vols), vols)
    # the cellwise actions are assembled only now, so the checks above run
    # without them alive; every check from here to configurational reads them
    needs_actions = checks["weak_el"] or checks["configurational"]
    bf = assemble_actions(density, final, manifold) if needs_actions else None
    if checks["weak_el"]:
        rows, dual = _weak_el_rows(config, bf, *grad)
        report.add(rows)
        report.add(dual)
        worst = max(r.ratio for r in rows)
        worst_dual = max(r.ratio for r in dual)
        record(
            "weak_el",
            worst <= WEAK_TOL and worst_dual <= DUALITY_TOL,
            f"worst_ratio={_fg(worst)} tol={_fg(WEAK_TOL)} "
            f"duality={_fg(worst_dual)} tol={_fg(DUALITY_TOL)}",
        )
    if checks["configurational"]:
        phi_tests = random_compact_tests(final, N_TESTS, 3, seed=config.seed + 13)
        rows = configurational_residual(bf, (build() for build in phi_tests))
        report.add(rows)
        worst = max(r.ratio for r in rows)
        record(
            "configurational",
            worst <= CONFIGURATIONAL_TOL,
            f"worst_ratio={_fg(worst)} tol={_fg(CONFIGURATIONAL_TOL)}",
        )
    if checks["defects"]:
        rep = defect_charges(final, manifold)
        flux = d_field_boundary_flux(final, manifold)
        expected = int(round(rep.boundary_degree))
        # a relaxed core may fragment into adjacent zero-charge pieces; what
        # may not happen is a far dipole pair or a sign flip, both of which
        # inflate the summed absolute cluster charge
        ok = (
            expected != 0
            and rep.total_charge == expected
            and sum(abs(c.charge) for c in rep.clusters) == abs(expected)
        )
        cluster_desc = ";".join(
            f"charge={c.charge}@({_fg(c.center[0])},{_fg(c.center[1])},{_fg(c.center[2])})"
            for c in rep.clusters
        ) or "none"
        record(
            "defects",
            ok,
            f"clusters={len(rep.clusters)} total_charge={rep.total_charge} "
            f"winding_flux={_fg(rep.total_flux)} quadrature_flux={_fg(flux)} "
            f"[{cluster_desc}]",
        )
        lines.append(f"  flux_over_4pi: winding={_fg(rep.total_flux / (4 * np.pi))} "
                     f"quadrature={_fg(flux / (4 * np.pi))}")
    return outcomes, lines, report


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _log_progress(it: int, energy: float, grad_sup: float, step: float) -> None:
    """Progress line every [minimize] log_every iterations: iter energy grad_sup step."""
    print(f"{it} {_fg(energy)} {_fg(grad_sup)} {_fg(step)}", file=sys.stderr)


def run(config: ScenarioConfig, out_dir: str | Path | None = None) -> ScenarioResult:
    """Minimize, verify, and write artifacts; raise ScenarioFailedError when
    an enabled check fails (artifacts are on disk either way)."""
    built = materialize(config)
    manifold, density = built.manifold, built.density
    out = out_dir if out_dir is not None else config.out_dir
    if out is None:
        raise ConfigError("no output directory: set [scenario] out or pass one explicitly")
    out = Path(out)
    # the directories that mkdir makes, deepest first: a start that the
    # barrier rejects leaves none of them behind
    made = [path for path in (out, *out.parents) if not path.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {str(out)!r}: {exc}") from None

    try:
        mres = minimize(density, built.state, manifold, config.minimize,
                        callback=_log_progress)
    except InadmissibleStartError as exc:
        for path in made:
            with suppress(OSError):  # rmdir removes only an empty directory
                path.rmdir()
        raise ConfigError(
            f"start state of [init] {config.init_kind} under [boundary] "
            f"{config.boundary_kind}: {exc}"
        ) from None
    final = mres.state
    del built  # the start state: after 0 iterations, a second copy of final

    outcomes, check_lines, report = _run_checks(config, manifold, density, mres)

    lines = [
        f"scenario: {config.name}",
        f"grid: {config.resolution}^3 on [{_fg(config.lo)}, {_fg(config.hi)}]^3 "
        f"shape={config.shape} active_cells={int(final.active.sum())}",
        f"manifold: {manifold.name} embed={manifold.embed_dim}",
        f"density: {density.name}",
        f"seed: {config.seed}",
        f"minimize: converged={mres.converged} iterations={mres.iterations} "
        f"energy={_fg(mres.energy)} grad_sup={_fg(mres.grad_sup)} "
        f"barrier_rejects={mres.barrier_rejects} armijo_rejects={mres.armijo_rejects}",
        f"constraint_violation: {_fg(final.constraint_violation(manifold))}",
    ]
    lines.extend(check_lines)
    n_pass = sum(1 for o in outcomes if o.passed)
    verdict = "PASS" if n_pass == len(outcomes) else "FAIL"
    if not mres.converged:
        verdict += f", not converged: {mres.message}"
    lines.append(f"result: {verdict} ({n_pass}/{len(outcomes)} checks passed)")

    write_trace(out / "trace.csv", mres.trace)
    write_fields(out, final)
    write_residuals(out / "residuals.csv", report)
    write_report(out / "report.txt", lines)

    result = ScenarioResult(
        config=config,
        out_dir=out,
        minimize_result=mres,
        residuals=report,
        outcomes=outcomes,
        report_lines=lines,
    )
    if not result.passed:
        failed = [o.name for o in outcomes if not o.passed]
        exc = ScenarioFailedError(
            f"scenario {config.name!r}: checks failed: {', '.join(failed)} "
            f"(see {out / 'report.txt'})"
        )
        exc.result = result
        raise exc
    return result


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def _preset_nematic_hedgehog() -> ScenarioConfig:
    return ScenarioConfig(
        name="nematic-hedgehog",
        lo=-1.0,
        hi=1.0,
        shape="ball",
        manifold_kind="unit-sphere",
        density_kind="dirichlet",
        boundary_kind="radial-director",
        init_kind="radial",
        minimize=MinimizeConfig(max_iters=4000, grad_tol=1e-6),
        checks={
            "orientation": True,
            "growth": True,
            "convexity": True,
            "weak_el": True,
            "rotational": True,
            "defects": True,
        },
        seed=7,
    )


def _preset_degree_of_orientation() -> ScenarioConfig:
    return ScenarioConfig(
        name="degree-of-orientation",
        lo=-1.0,
        hi=1.0,
        shape="ball",
        manifold_kind="degree-of-orientation",
        density_kind="orientation-landau",
        density_params={"stiffness": 1.0, "well_depth": 3.0, "beta_a": 0.0,
                        "beta_b": 0.8},
        boundary_kind="radial-orientation",
        boundary_params={"beta": 0.8},
        init_kind="radial-orientation",
        init_params={"beta": 0.8},
        minimize=MinimizeConfig(max_iters=4000, grad_tol=1e-6),
        checks={
            "orientation": True,
            "growth": True,
            "convexity": True,
            "weak_el": True,
            "rotational": True,
        },
        seed=7,
    )


def _preset_microcracked_vector() -> ScenarioConfig:
    return ScenarioConfig(
        name="microcracked-vector",
        manifold_kind="euclidean3",
        density_kind="microcracked",
        density_params={"lam": 1.2, "mu": 0.9, "couple": 0.35, "restore": 0.6,
                        "grad_stiffness": 0.15},
        boundary_kind="affine-stretch",
        boundary_params={"gamma": 0.08, "e1": 1.0, "e2": -0.3, "e3": -0.3,
                         "nu_slope": 0.25},
        init_kind="affine",
        init_params={"gamma": 0.08, "e1": 1.0, "e2": -0.3, "e3": -0.3,
                     "nu_slope": 0.25},
        minimize=MinimizeConfig(max_iters=8000, grad_tol=1e-7),
        checks={
            "orientation": True,
            "injectivity": True,
            "convexity": True,
            "weak_el": True,
        },
        seed=7,
    )


def _preset_quasicrystal_shear() -> ScenarioConfig:
    return ScenarioConfig(
        name="quasicrystal-shear",
        manifold_kind="euclidean3",
        density_kind="quasicrystal",
        density_params={"a": 1.0, "b": 1.0, "c": 0.6, "phason_stiffness": 1.0,
                        "kappa": 0.0},
        boundary_kind="simple-shear",
        boundary_params={"gamma": 0.3},
        init_kind="shear",
        init_params={"gamma": 0.3},
        minimize=MinimizeConfig(max_iters=500, grad_tol=1e-9),
        checks={
            "orientation": True,
            "injectivity": True,
            "growth": True,
            "convexity": True,
            "weak_el": True,
            "rotational": True,
        },
        seed=7,
    )


def _preset_smectic_layers() -> ScenarioConfig:
    return ScenarioConfig(
        name="smectic-layers",
        manifold_kind="layer-director",
        density_kind="smectic",
        density_params={"k1": 1.0, "k2": 1.0, "penalty": 0.2},
        boundary_kind="tilted-layers",
        boundary_params={"tilt": 0.1},
        init_kind="layers",
        init_params={"tilt": 0.1, "amp": 0.05},
        minimize=MinimizeConfig(max_iters=6000, grad_tol=1e-8),
        checks={
            "orientation": True,
            "weak_el": True,
        },
        seed=7,
    )


def _preset_porous_interval() -> ScenarioConfig:
    return ScenarioConfig(
        name="porous-interval",
        manifold_kind="interval",
        manifold_params={"lo": 0.0, "hi": 1.0},
        density_kind="porous-landau",
        density_params={"stiffness": 0.25, "well_depth": 1.0, "pore_a": 0.0,
                        "pore_b": 1.0},
        boundary_kind="two-face-ramp",
        boundary_params={"a": 0.0, "b": 1.0},
        init_kind="ramp",
        init_params={"a": 0.0, "b": 1.0, "amp": 0.05},
        minimize=MinimizeConfig(max_iters=8000, grad_tol=1e-8),
        checks={
            "orientation": True,
            "growth": True,
            "convexity": True,
            "weak_el": True,
        },
        seed=7,
    )


_PRESETS = {
    "nematic-hedgehog": _preset_nematic_hedgehog,
    "degree-of-orientation": _preset_degree_of_orientation,
    "microcracked-vector": _preset_microcracked_vector,
    "quasicrystal-shear": _preset_quasicrystal_shear,
    "smectic-layers": _preset_smectic_layers,
    "porous-interval": _preset_porous_interval,
}

PRESET_SUMMARIES = {
    "nematic-hedgehog": "unit director on a ball, radial data, point defect accounting",
    "degree-of-orientation": "director with scalar order parameter on S^2 x [-1/2, 1]",
    "microcracked-vector": "centrosymmetric quadratic vector descriptor under triaxial stretch",
    "quasicrystal-shear": "compressible macro energy with phason field under simple shear",
    "smectic-layers": "layer phase and director with tilted layer boundary data",
    "porous-interval": "two-well scalar order parameter ramped across the box",
}


def preset_names() -> list:
    return sorted(_PRESETS)


def preset_config(name: str) -> ScenarioConfig:
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; known: {', '.join(sorted(_PRESETS))}"
        ) from None
