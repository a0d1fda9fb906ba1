"""Scenario layer oracles.

The INI text format is exercised against hand-written documents (the format
is the contract, not whatever the parser happens to accept), every preset
must survive a format -> parse round trip unchanged, and every unknown
section, key, kind, or parameter must be rejected loudly.  Run artifacts are
checked for exact headers and byte-identical repeats under a fixed seed.
"""

import ast
import dataclasses
import re
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from complexbodies import scenarios
from complexbodies.admissibility import cell_charges, defect_charges
from complexbodies.errors import ConfigError, ScenarioFailedError
from complexbodies.fieldio import load_fields
from complexbodies.minimize import MinimizeConfig
from complexbodies.scenarios import (
    CHECK_NAMES,
    ScenarioConfig,
    build_density,
    build_manifold,
    format_config,
    materialize,
    parse_config,
    preset_config,
    preset_names,
    run,
)
from util import residual_rows

BENCH_SCENARIOS = Path(__file__).resolve().parents[1] / "groundbench" / "scenarios"
FROZEN = sorted(path.stem for path in BENCH_SCENARIOS.glob("*.ini"))

MINIMAL = """
[scenario]
name = tiny
"""

FULL = """
[scenario]
name = demo
seed = 11
out = /tmp/demo

[grid]
resolution = 8
lo = -1.0
hi = 1.0
shape = ball

[manifold]
kind = unit-sphere

[density]
kind = dirichlet

[boundary]
kind = radial-director

[init]
kind = radial

[minimize]
max_iters = 200
grad_tol = 1e-05

[checks]
orientation = on
defects = off
"""


def _tiny_porous(**overrides):
    """Interval-descriptor scenario small enough for sub-second runs."""
    base = dict(
        name="tiny-porous",
        resolution=6,
        manifold_kind="interval",
        density_kind="porous-landau",
        boundary_kind="two-face-ramp",
        init_kind="ramp",
        minimize=MinimizeConfig(max_iters=3000, grad_tol=1e-7),
        checks={"orientation": True, "weak_el": True},
        seed=3,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


@pytest.fixture(autouse=True)
def _five_test_pairs(monkeypatch):
    """The runs here draw 5 random test fields per residual check."""
    monkeypatch.setattr(scenarios, "N_TESTS", 5)


ARTIFACTS = ("trace.csv", "fields_u.csv", "fields_nu.csv", "fields.npz",
             "residuals.csv", "report.txt")


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_parse_minimal_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.name == "tiny"
    assert cfg.resolution == 16
    assert cfg.shape == "box"
    assert cfg.out_dir is None
    assert cfg.checks == {name: False for name in CHECK_NAMES}


def test_parse_full_document():
    cfg = parse_config(FULL)
    assert cfg.name == "demo"
    assert cfg.seed == 11
    assert cfg.out_dir == "/tmp/demo"
    assert cfg.resolution == 8
    assert (cfg.lo, cfg.hi, cfg.shape) == (-1.0, 1.0, "ball")
    assert cfg.manifold_kind == "unit-sphere"
    assert cfg.density_kind == "dirichlet"
    assert cfg.boundary_kind == "radial-director"
    assert cfg.init_kind == "radial"
    assert cfg.minimize.max_iters == 200
    assert cfg.minimize.grad_tol == 1e-5
    assert cfg.checks["orientation"] is True
    assert cfg.checks["defects"] is False


def test_parse_reads_params_as_floats():
    text = MINIMAL + "\n[density]\nkind = porous-landau\nstiffness = 0.5\n"
    cfg = parse_config(text)
    assert cfg.density_params == {"stiffness": 0.5}


@pytest.mark.parametrize("name", preset_names())
def test_preset_round_trip(name):
    cfg = preset_config(name)
    assert parse_config(format_config(cfg)) == cfg


def test_round_trip_preserves_overrides(tmp_path):
    cfg = _tiny_porous(out_dir=str(tmp_path), seed=99)
    assert parse_config(format_config(cfg)) == cfg


@pytest.mark.parametrize("text,fragment", [
    (MINIMAL + "\n[physics]\nfoo = 1\n", "unknown section"),
    ("[scenario]\nname = t\ncolour = red\n", "scenario"),
    ("[grid]\nresolution = 8\n", "name"),
    ("[DEFAULT]\nx = 1\n\n[scenario]\nname = t\n", "DEFAULT"),
    ("[scenario]\nname = t\nseed = pi\n", "integer"),
    ("[scenario]\nname = t\nseed = -1\n", "seed must not be negative"),
    (MINIMAL + "\n[grid]\nlo = banana\n", "number"),
    (MINIMAL + "\n[grid]\nspacing = 2\n", "grid"),
    (MINIMAL + "\n[minimize]\nlearning_rate = 1\n", "minimize"),
    (MINIMAL + "\n[checks]\nwibble = on\n", "check"),
    (MINIMAL + "\n[checks]\norientation = maybe\n", "on/off"),
    ("not an ini document", "unparseable"),
])
def test_parse_rejections(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("section, key", [
    ("grid", "lo"), ("grid", "hi"), ("density", "stiffness"), ("boundary", "gamma"),
    ("init", "amp"), ("manifold", "hi"),
])
@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
def test_parse_rejects_non_finite_numbers(section, key, raw):
    with pytest.raises(ConfigError) as err:
        parse_config(MINIMAL + f"\n[{section}]\n{key} = {raw}\n")
    assert f"[{section}] {key} must be finite" in str(err.value)


def test_build_density_range_error_is_config_error():
    cases = [
        ("porous-landau", "interval", "stiffness"),
        ("porous-landau", "interval", "well_depth"),
        ("orientation-landau", "degree-of-orientation", "well_depth"),
        ("microcracked", "euclidean3", "grad_stiffness"),
        ("microcracked", "euclidean3", "restore"),
        ("microcracked", "euclidean3", "lam"),
        ("microcracked", "euclidean3", "mu"),
    ]
    for kind, manifold, key in cases:
        with pytest.raises(ConfigError) as err:
            build_density(kind, {key: -1.0}, build_manifold(manifold, {}))
        assert kind in str(err.value) and key in str(err.value)
    # nan fails every comparison, so each range check must ask "x > 0", not "x <= 0";
    # build_density is called directly, past the parser's finite-number check
    nan_cases = cases[:5] + [
        ("orientation-landau", "degree-of-orientation", "stiffness"),
        ("quasicrystal", "euclidean3", "phason_stiffness"),
        ("quasicrystal", "euclidean3", "b"),
        ("quasicrystal", "euclidean3", "c"),
        ("smectic", "layer-director", "k2"),
    ]
    for kind, manifold, key in nan_cases:
        with pytest.raises(ConfigError, match=kind):
            build_density(kind, {key: float("nan")}, build_manifold(manifold, {}))
    # isotropic C must be positive definite on symmetric strains:
    # mu > 0 and 3 lam + 2 mu > 0, each violated alone, at the edge and by nan
    for params in ({"mu": 0.0}, {"lam": -1.0, "mu": 1.5}, {"lam": float("nan")}):
        with pytest.raises(ConfigError, match="3 lam \\+ 2 mu > 0"):
            build_density("microcracked", params, build_manifold("euclidean3", {}))
    build_density("microcracked", {"lam": -0.5, "mu": 0.9}, build_manifold("euclidean3", {}))


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_scenario_parses_builds_and_round_trips(name):
    cfg = parse_config((BENCH_SCENARIOS / f"{name}.ini").read_text())
    assert cfg.name == name
    materialize(cfg)
    assert parse_config(format_config(cfg)) == cfg


# retired keys: the one value each parses at, and another value
RETIRED = [
    ("minimize", "energy_tol", "0", "1e-9"),
    ("minimize", "step0", "1", "2"),
    ("minimize", "backtrack", "0.5", "0.25"),
    ("minimize", "armijo_c", "0.0001", "0.001"),
    ("minimize", "max_backtracks", "40", "41"),
    ("minimize", "bb_steps", "on", "off"),
    ("minimize", "step_max", "1000000", "1e5"),
    ("minimize", "block_mode", "joint", "alternate"),
    ("checks", "relaxed_formula", "off", "on"),
    ("checks", "strong", "off", "on"),
    ("checks", "eulerian", "off", "on"),
]


@pytest.mark.parametrize("section, key, value, other", RETIRED)
def test_retired_key_parses_only_at_its_value(section, key, value, other):
    assert parse_config(MINIMAL + f"\n[{section}]\n{key} = {value}\n") == parse_config(MINIMAL)
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}")):
        parse_config(MINIMAL + f"\n[{section}]\n{key} = {other}\n")


# every key of every density kind, with the manifold of a preset that uses
# the kind; the keys come from the density table, so a new key is fuzzed too
_DENSITY_MANIFOLD = {
    cfg.density_kind: cfg.manifold_kind for cfg in map(preset_config, preset_names())
}
_DENSITY_KEYS = [
    (kind, _DENSITY_MANIFOLD[kind], key)
    for kind, (defaults, _) in scenarios.DENSITIES.items()
    for key in defaults
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(case=st.sampled_from(_DENSITY_KEYS),
       value=st.floats(allow_nan=True, allow_infinity=True))
# 2 mu overflows to inf in the isotropic stiffness although mu is finite
@example(case=("microcracked", "euclidean3", "mu"), value=8.98846567431158e+307)
def test_any_density_value_builds_or_is_config_error(case, value):
    kind, manifold, key = case
    text = (f"[scenario]\nname = fuzz\n\n[manifold]\nkind = {manifold}\n\n"
            f"[density]\nkind = {kind}\n{key} = {value!r}\n")
    try:
        cfg = parse_config(text)
        build_density(cfg.density_kind, cfg.density_params,
                      build_manifold(cfg.manifold_kind, cfg.manifold_params))
    except ConfigError:
        pass


# every numeric key of [manifold] interval and of each [boundary] and [init]
# kind, as (preset that uses the kind, section, key)
_SECTION_KEYS = [
    (name, section, key)
    for name in preset_names()
    for section in ("manifold", "boundary", "init")
    for key in getattr(preset_config(name), f"{section}_params")
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(_SECTION_KEYS),
       value=st.floats(allow_nan=True, allow_infinity=True))
# det A of the stretch overflows although A is finite
@example(case=("microcracked-vector", "boundary", "gamma"), value=1e200)
@example(case=("porous-interval", "manifold", "lo"), value=2.0)
def test_any_section_value_materializes_or_is_config_error(case, value):
    name, section, key = case
    cfg = preset_config(name)
    params = {**getattr(cfg, f"{section}_params"), key: value}
    cfg = dataclasses.replace(cfg, resolution=3, **{f"{section}_params": params})
    try:
        materialize(parse_config(format_config(cfg)))
    except ConfigError:
        pass


def test_config_constructor_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(name="x", resolution=1)
    with pytest.raises(ConfigError):
        ScenarioConfig(name="x", lo=1.0, hi=1.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(name="x", shape="torus")
    with pytest.raises(ConfigError):
        ScenarioConfig(name="x", checks={"bogus": True})
    with pytest.raises(ConfigError, match="seed"):
        ScenarioConfig(name="x", seed=-1)


def test_checks_normalize_to_full_toggle_map():
    cfg = ScenarioConfig(name="x", checks={"growth": True})
    assert set(cfg.checks) == set(CHECK_NAMES)
    assert cfg.checks["growth"] is True
    assert not any(v for k, v in cfg.checks.items() if k != "growth")


# ---------------------------------------------------------------------------
# registries
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,embed", [
    ("unit-sphere", 3),
    ("euclidean1", 1),
    ("euclidean3", 3),
    ("interval", 1),
    ("degree-of-orientation", 4),
    ("layer-director", 4),
])
def test_build_manifold_kinds(kind, embed):
    assert build_manifold(kind, {}).embed_dim == embed


def test_build_manifold_rejects_unknown():
    with pytest.raises(ConfigError):
        build_manifold("moebius", {})
    with pytest.raises(ConfigError):
        build_manifold("unit-sphere", {"radius": 2.0})


def test_build_density_rejects_unknown():
    man = build_manifold("unit-sphere", {})
    with pytest.raises(ConfigError):
        build_density("unobtainium", {}, man)
    with pytest.raises(ConfigError):
        build_density("dirichlet", {"bogus": 1.0}, man)


def test_materialize_rejects_embed_mismatch():
    cfg = ScenarioConfig(name="bad", manifold_kind="unit-sphere",
                         density_kind="smectic")
    with pytest.raises(ConfigError, match="descriptor"):
        materialize(cfg)


def test_materialize_unknown_boundary_and_init():
    with pytest.raises(ConfigError):
        materialize(_tiny_porous(boundary_kind="warp"))
    with pytest.raises(ConfigError):
        materialize(_tiny_porous(init_kind="vortex"))
    with pytest.raises(ConfigError):
        materialize(_tiny_porous(boundary_params={"slope": 2.0}))


def test_unknown_kind_and_key_messages():
    with pytest.raises(ConfigError) as err:
        materialize(_tiny_porous(init_kind="vortex"))
    assert str(err.value) == ("unknown init kind 'vortex'; known: identity, radial, "
                              "radial-orientation, affine, shear, layers, ramp")
    with pytest.raises(ConfigError) as err:
        build_manifold("interval", {"radius": 2.0, "a": 1.0})
    assert str(err.value) == "unknown interval parameters ['a', 'radius']; known: ['hi', 'lo']"


_TABLES = {"manifold": scenarios.MANIFOLDS, "density": scenarios.DENSITIES,
           "boundary": scenarios.BOUNDARIES, "init": scenarios.INITS}


def test_readme_documents_every_kind_with_its_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config format")[1].split("\n### ")[0]
    rows = re.findall(r"^\| `\[(\w+)\]` \| `([\w-]+)` \| ([^|]*) \|", section, re.M)
    documented = {}
    for sec, kind, keys in rows:
        defaults = {k: float(v) for k, v in re.findall(r"`(\w+) = ([^`]+)`", keys)}
        documented.setdefault(sec, {})[kind] = defaults
    assert len(rows) == sum(len(table) for table in _TABLES.values())
    assert documented == {
        sec: {kind: row[0] for kind, row in table.items()}
        for sec, table in _TABLES.items()
    }


def test_readme_lists_the_check_names_in_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("\nCheck names: ")[1].split(". ")[0]
    assert tuple(re.findall(r"`(\w+)`", sentence)) == CHECK_NAMES


def test_readme_lists_every_retired_key_at_its_value():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = readme.split("Configs written by earlier versions also")[1].split(";")[0]
    documented, section = [], None
    for sec, key, value in re.findall(r"`\[(\w+)\]`|`(\w+) = ([^`]+)`", sentence):
        section = sec or section
        if key:
            documented.append((section, key, value))
    assert documented == [
        (sec, key, only)
        for sec, keys in scenarios._RETIRED.items()
        for key, (_, only) in keys.items()
    ]


# public names that only the tests reach, each kept for a reason
_TEST_FIXTURES = {
    "DeadLoad": "external load, the one u-partial, which the rotational balance leaves out",
    "ExternalFieldCoupling": "external field, part of the nu-partial, which the rotational "
                             "balance leaves out",
    "ModulatedWell": "the only density with a nonzero d_x, for the configurational x term",
    "EasyAxisAnchoring": "frame-breaking internal part, the positive control for the rotational "
                         "balance on sampled states",
    "gradient_consistency": "finite-difference oracle that gate 02 runs on every density",
    "load_fields": "reads fields.npz back for the artifact round-trip tests",
}


def _public_members(cls: ast.ClassDef) -> set:
    """The public methods, properties and annotated fields of a class body."""
    names = {item.name for item in cls.body if isinstance(item, ast.FunctionDef)}
    names |= {item.target.id for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)}
    return {name for name in names if not name.startswith("_")}


def test_every_public_name_is_reached():
    """Each public top-level def or class of the package, and each public
    method, property or dataclass field of a public class that is no test
    fixture, is used by the package, a script or the benchmark; the tests
    alone do not count.  A member is used when it is read as .name, or
    named by a string, as getattr(density, "d_N") names it."""
    root = Path(__file__).resolve().parents[1]
    defined = set()
    members = set()
    for path in (root / "src" / "complexbodies").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.add(node.name)
                if isinstance(node, ast.ClassDef) and node.name not in _TEST_FIXTURES:
                    members |= _public_members(node)
    used = set()
    read = set()
    for top in ("src", "scripts", "groundbench"):
        for path in (root / top).rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    used.add(node.name.rpartition(".")[2])
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
    assert set(_TEST_FIXTURES) <= defined - used
    assert defined - used - set(_TEST_FIXTURES) == set()
    assert members - read == set()


# every [boundary] and every [init] kind on every manifold kind, under the
# dirichlet density, which takes a descriptor of any width
_KIND_PAIRS = [
    (manifold, section, kind)
    for manifold in scenarios.MANIFOLDS
    for section in ("boundary", "init")
    for kind in _TABLES[section]
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("manifold,section,kind", _KIND_PAIRS,
                         ids=["-".join(case) for case in _KIND_PAIRS])
def test_every_kind_on_every_manifold_materializes_or_is_config_error(manifold, section,
                                                                       kind):
    cfg = ScenarioConfig(name="pair", resolution=3, manifold_kind=manifold,
                         **{f"{section}_kind": kind})
    try:
        materialize(cfg)
    except ConfigError:
        pass


def test_fixed_width_kind_names_section_kind_and_manifold():
    with pytest.raises(ConfigError) as err:
        materialize(ScenarioConfig(name="bad", resolution=3, init_kind="layers"))
    assert str(err.value) == ("[init] layers writes a 4-component descriptor but "
                              "manifold 'unit-sphere' embeds in 3")
    with pytest.raises(ConfigError) as err:
        materialize(ScenarioConfig(name="bad", resolution=3, manifold_kind="interval",
                                   boundary_kind="radial-director"))
    assert str(err.value) == ("[boundary] radial-director writes a 3-component "
                              "descriptor but manifold 'interval[0,1]' embeds in 1")


def test_zero_start_director_is_config_error():
    # affine with nu_slope = 0 writes the zero vector, which no director is
    with pytest.raises(ConfigError, match=r"^\[init\] affine: .*zero vector"):
        materialize(ScenarioConfig(name="bad", resolution=3, init_kind="affine"))


def test_growth_check_needs_documented_bound():
    # the coupled quasicrystal density carries no coercivity certificate
    cfg = ScenarioConfig(name="bad", manifold_kind="euclidean3",
                         density_kind="quasicrystal",
                         density_params={"kappa": 0.5},
                         checks={"growth": True})
    with pytest.raises(ConfigError, match="growth"):
        materialize(cfg)


def test_rotational_check_needs_rotation_action():
    cfg = _tiny_porous(checks={"rotational": True})
    with pytest.raises(ConfigError, match="rotation"):
        materialize(cfg)


def test_defect_check_needs_unit_director():
    cfg = ScenarioConfig(name="bad", manifold_kind="euclidean3",
                         density_kind="dirichlet", checks={"defects": True})
    with pytest.raises(ConfigError, match="unit-director"):
        materialize(cfg)


def test_affine_boundary_rejects_folding():
    cfg = ScenarioConfig(name="bad", manifold_kind="euclidean3",
                         density_kind="microcracked",
                         boundary_kind="affine-stretch",
                         boundary_params={"gamma": -1.0},
                         init_kind="affine")
    with pytest.raises(ConfigError, match="orientation"):
        materialize(cfg)


# ---------------------------------------------------------------------------
# materialized states
# ---------------------------------------------------------------------------

def test_ball_shape_masks_corners():
    built = materialize(preset_config("nematic-hedgehog"))
    active = built.state.active
    assert active.any()
    assert active.sum() < active.size
    assert not active[0, 0, 0]


def test_init_lands_on_manifold():
    built = materialize(preset_config("nematic-hedgehog"))
    norms = np.linalg.norm(built.state.nu, axis=-1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_boundary_pins_some_nodes_only():
    built = materialize(preset_config("microcracked-vector"))
    for pinned in (built.state.pinned_u, built.state.pinned_nu):
        assert pinned.any()
        assert not pinned.all()


@pytest.mark.parametrize("res", [8, 12, 16])
def test_radial_init_has_single_unit_winding_cell(res):
    # the radial center must sit strictly inside a cell: centered on a node
    # it is a corner of eight cells and the winding splits between them
    cfg = dataclasses.replace(preset_config("nematic-hedgehog"), resolution=res)
    built = materialize(cfg)
    rep = defect_charges(built.state, built.manifold)
    assert rep.total_charge == 1
    assert len(rep.clusters) == 1
    assert rep.clusters[0].charge == 1
    assert np.count_nonzero(np.abs(cell_charges(built.state, built.manifold)) >= 0.5) == 1


# ---------------------------------------------------------------------------
# run() and artifacts
# ---------------------------------------------------------------------------

def test_run_writes_documented_artifacts(tmp_path):
    out = tmp_path / "a"
    result = run(_tiny_porous(), out_dir=out)
    assert result.passed
    assert result.out_dir == out
    for fname in ARTIFACTS:
        assert (out / fname).exists(), fname

    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,energy,grad_sup,step,rejects"
    assert trace[1].startswith("0,")
    assert len(trace) >= 3

    res_lines = (out / "residuals.csv").read_text().splitlines()
    assert res_lines[0] == "law,raw,scale,ratio"
    assert any(line.startswith("weak_el") for line in res_lines[1:])
    assert any(line.startswith("duality") for line in res_lines[1:])

    u_lines = (out / "fields_u.csv").read_text().splitlines()
    assert u_lines[0] == "i,j,k,x1,x2,x3,u1,u2,u3"
    assert len(u_lines) == 1 + 7**3
    nu_lines = (out / "fields_nu.csv").read_text().splitlines()
    assert nu_lines[0] == "i,j,k,x1,x2,x3,nu1"

    report = (out / "report.txt").read_text()
    assert "scenario: tiny-porous" in report
    assert "check orientation: PASS" in report
    assert "check weak_el: PASS" in report
    assert "result: PASS (2/2 checks passed)" in report


def test_fields_npz_round_trips(tmp_path):
    result = run(_tiny_porous(), out_dir=tmp_path)
    data = load_fields(tmp_path / "fields.npz")
    final = result.minimize_result.state
    assert np.array_equal(data["u"], final.u)
    assert np.array_equal(data["nu"], final.nu)
    assert np.array_equal(data["active"], final.active)
    assert data["cells"].tolist() == [6, 6, 6]


def test_run_artifacts_bitwise_deterministic(tmp_path):
    run(_tiny_porous(), out_dir=tmp_path / "one")
    run(_tiny_porous(), out_dir=tmp_path / "two")
    for fname in ARTIFACTS:
        a = (tmp_path / "one" / fname).read_bytes()
        b = (tmp_path / "two" / fname).read_bytes()
        assert a == b, fname


def test_run_joins_its_worker_threads(tmp_path):
    before = threading.active_count()
    run(_tiny_porous(), out_dir=tmp_path)
    assert threading.active_count() == before


def test_artifacts_bitwise_on_one_and_two_workers(tmp_path, monkeypatch):
    # the weak-EL pairs run on the calling thread alone and beside one worker
    cfg = dataclasses.replace(preset_config("quasicrystal-shear"), resolution=8)
    for cores in (1, 2):
        monkeypatch.setattr(scenarios, "_usable_cores", lambda cores=cores: cores)
        run(cfg, out_dir=tmp_path / str(cores))
    for fname in ARTIFACTS:
        a = (tmp_path / "1" / fname).read_bytes()
        b = (tmp_path / "2" / fname).read_bytes()
        assert a == b, fname


def test_checks_take_the_last_gradient_and_the_result_keeps_none(tmp_path, monkeypatch):
    # the duality check reads minimize's gradient at the final state; where
    # minimize hands none over, the check takes it, with the same artifacts
    taken = []
    gradient, handed = scenarios.riesz_gradient, scenarios.minimize
    monkeypatch.setattr(scenarios, "riesz_gradient",
                        lambda *a, **kw: taken.append(1) or gradient(*a, **kw))
    result = run(_tiny_porous(), out_dir=tmp_path / "handed")
    assert taken == [] and result.minimize_result.gradient is None
    monkeypatch.setattr(scenarios, "minimize", lambda *a, **kw: dataclasses.replace(
        handed(*a, **kw), gradient=None))
    run(_tiny_porous(), out_dir=tmp_path / "taken")
    assert taken == [1]
    for fname in ARTIFACTS:
        a = (tmp_path / "handed" / fname).read_bytes()
        b = (tmp_path / "taken" / fname).read_bytes()
        assert a == b, fname


def test_run_seed_changes_residual_probes(tmp_path):
    first = run(_tiny_porous(seed=3), out_dir=tmp_path / "one")
    second = run(_tiny_porous(seed=4), out_dir=tmp_path / "two")
    a = [r for r in residual_rows(first.out_dir) if r[0].startswith("weak_el")]
    b = [r for r in residual_rows(second.out_dir) if r[0].startswith("weak_el")]
    assert [row[1] for row in a] != [row[1] for row in b]


def test_unconverged_run_names_its_stop_reason(tmp_path):
    cfg = _tiny_porous(minimize=MinimizeConfig(max_iters=2, grad_tol=1e-7),
                       checks={"orientation": True})
    result = run(cfg, out_dir=tmp_path)
    assert result.passed
    assert not result.minimize_result.converged
    report = (tmp_path / "report.txt").read_text()
    assert "result: PASS, not converged: max iterations reached (1/1 checks passed)" in report
    assert "result: PASS (" not in report


@pytest.mark.parametrize("log_every, lines", [(1, 3), (2, 2), (0, 0)])
def test_log_every_streams_progress_to_stderr(tmp_path, capsys, log_every, lines):
    cfg = _tiny_porous(minimize=MinimizeConfig(max_iters=3, grad_tol=1e-7, log_every=log_every),
                       checks={"orientation": True})
    result = run(cfg, out_dir=tmp_path)
    rows = capsys.readouterr().err.splitlines()
    assert len(rows) == lines
    trace = result.minimize_result.trace
    for k, row in zip(range(0, 3, max(log_every, 1)), rows):
        it, energy, grad_sup, step = row.split()
        assert int(it) == k
        assert float(energy) == trace[k, 0] and float(grad_sup) == trace[k, 1]
        assert float(step) > 0


def test_run_failure_raises_and_keeps_artifacts(tmp_path, monkeypatch):
    monkeypatch.setattr(scenarios, "WEAK_TOL", 0.0)
    cfg = _tiny_porous()
    with pytest.raises(ScenarioFailedError) as err:
        run(cfg, out_dir=tmp_path)
    result = err.value.result
    assert not result.passed
    passed = {o.name: o.passed for o in result.outcomes}
    assert not passed["weak_el"]
    assert passed["orientation"]
    assert "weak_el" in str(err.value)
    assert "result: FAIL" in (tmp_path / "report.txt").read_text()


def test_run_without_out_dir_is_an_error():
    with pytest.raises(ConfigError, match="output"):
        run(_tiny_porous())


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

REQUIRED_PRESETS = {
    "nematic-hedgehog",
    "degree-of-orientation",
    "microcracked-vector",
    "quasicrystal-shear",
    "smectic-layers",
    "porous-interval",
}


def test_preset_catalogue_is_complete():
    names = preset_names()
    assert REQUIRED_PRESETS <= set(names)
    assert len(names) >= 6
    assert [preset_config(name).name for name in names] == names


@pytest.mark.parametrize("name", preset_names())
def test_presets_materialize(name):
    cfg = preset_config(name)
    built = materialize(cfg)
    assert built.state.active.any()
    assert any(cfg.checks.values())


def test_preset_configs_are_fresh_copies():
    a = preset_config("porous-interval")
    b = preset_config("porous-interval")
    assert a == b and a is not b
    a.checks["growth"] = not a.checks["growth"]
    assert a != preset_config("porous-interval")


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset_config("does-not-exist")
