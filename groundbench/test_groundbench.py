"""Self-tests of the benchmark: python3 -m pytest groundbench -q

They run small copies of the frozen scenarios (10^3 or less), so the whole
file takes seconds, not the minutes of a benchmark run.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json

import numpy as np
import pytest

import run

run.import_library()

import layers  # noqa: E402
import properties  # noqa: E402
from complexbodies.scenarios import materialize, parse_config  # noqa: E402
from complexbodies.scenarios import run as run_scenario  # noqa: E402

BENCHMARK = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text())


def small(name: str, resolution: int = 8, **minimize) -> object:
    cfg = parse_config((run.SCENARIO_DIR / f"{name}.ini").read_text())
    cfg = dataclasses.replace(cfg, resolution=resolution)
    if minimize:
        cfg = dataclasses.replace(cfg, minimize=dataclasses.replace(cfg.minimize, **minimize))
    return cfg


def outcome(cfg, tmp_path) -> properties.Outcome:
    return properties.Outcome.from_run(materialize(cfg),
                                       run_scenario(cfg, out_dir=tmp_path / cfg.name))


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("solved")
    # at 8^3 the injectivity raster rejects the microcracked minimizer
    resolution = {"microcracked-vector": 10}
    return {
        name: outcome(small(name, resolution.get(name, 8)), tmp)
        for name in ("nematic-hedgehog", "microcracked-vector", "smectic-layers",
                     "porous-interval", "quasicrystal-shear")
    }


def failing(o: properties.Outcome) -> set:
    return {k for k, ok in properties.check(o).items() if not ok}


def test_correct_results_pass(solved):
    for name, o in solved.items():
        assert failing(o) == set(), name


@pytest.mark.parametrize("name", ["nematic-hedgehog", "microcracked-vector",
                                  "quasicrystal-shear"])
def test_energy_off_by_1e_6_is_rejected(solved, name):
    o = dataclasses.replace(solved[name], energy=solved[name].energy + 1e-6)
    assert "energy_of_final_state" in failing(o)


def test_energy_off_by_1e_6_breaks_the_closed_forms(solved):
    qc = solved["quasicrystal-shear"]
    assert "energy_affine_shear" in failing(dataclasses.replace(qc, energy=qc.energy + 1e-6))
    mc = solved["microcracked-vector"]
    assert "quadratic_identity" in failing(dataclasses.replace(mc, energy=mc.energy + 1e-6))


def test_flipped_director_is_rejected(solved):
    o = solved["nematic-hedgehog"]
    flipped = o.final.copy()
    flipped.nu = -flipped.nu
    assert {"total_charge_plus_one", "pins_kept"} <= failing(dataclasses.replace(o, final=flipped))

    o = solved["smectic-layers"]
    flipped = o.final.copy()
    flipped.nu[..., 1:4] *= -1.0
    assert "pins_kept" in failing(dataclasses.replace(o, final=flipped))


def test_non_unit_or_out_of_range_descriptor_is_rejected(solved):
    o = solved["nematic-hedgehog"]
    bad = o.final.copy()
    bad.nu[4, 4, 4] *= 1.0 + 1e-9
    assert "director_unit" in failing(dataclasses.replace(o, final=bad))

    o = solved["porous-interval"]
    bad = o.final.copy()
    bad.nu[4, 4, 4] = 1.0 + 1e-9
    assert "order_in_interval" in failing(dataclasses.replace(o, final=bad))


def test_unconverged_run_is_rejected(tmp_path):
    # stopping at max_iters still writes a PASS report; the property catches it
    o = outcome(small("nematic-hedgehog", max_iters=360), tmp_path)  # 373 converge
    assert o.checks_passed
    assert failing(o) == {"converged"}


def _bindings():
    """Every module attribute and class attribute a tracer may replace."""
    out = {}
    for short in layers.MODULES:
        module = importlib.import_module(f"{layers.PACKAGE}.{short}")
        for attr, obj in vars(module).items():
            out[(module.__name__, attr)] = obj
            if inspect.isclass(obj):
                for name, member in vars(obj).items():
                    out[(module.__name__, attr, name)] = member
    return out


def test_tracing_restores_every_patched_name(tmp_path):
    before = _bindings()
    tracer, counter = layers.Tracer(), layers.CallCounter()
    with tracer, counter:
        during = _bindings()
        run_scenario(small("quasicrystal-shear", resolution=6), out_dir=tmp_path)
    changed = {k for k in before if during.get(k) is not before[k]}
    assert ("complexbodies.minimize", "total_energy") in changed
    assert ("complexbodies.scenarios", "minimize") in changed
    assert ("complexbodies.energy", "Quasicrystal", "eval") in changed
    assert tracer.calls("minimize.minimize") == 1
    assert counter.calls[("minimize", "riesz_gradient")] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_tracing_leaves_results_unchanged(tmp_path):
    cfg = small("nematic-hedgehog")
    plain = run.run_round([cfg], tmp_path / "plain", traced=False)
    traced = run.run_round([cfg], tmp_path / "traced", traced=True)
    assert plain.energy_evals == traced.energy_evals
    assert run._digest(tmp_path / "plain" / cfg.name) == run._digest(
        tmp_path / "traced" / cfg.name)


@pytest.mark.parametrize("trace", [False, True])
def test_printed_metrics_match_benchmark_json(tmp_path, monkeypatch, trace):
    scenarios = tmp_path / "scenarios"
    scenarios.mkdir()
    (scenarios / "quasicrystal-shear.ini").write_text(
        (run.SCENARIO_DIR / "quasicrystal-shear.ini").read_text().replace(
            "resolution = 48", "resolution = 6"))
    # fresh interpreters would read the 48^3 original; they are tested below
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "SCENARIO_DIR", scenarios)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    out = run.measure("qc-verify", ("quasicrystal-shear",), seed=3, seconds=0.0,
                      trace=trace, import_s=0.5)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == 2
    group = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in group}
    assert all(isinstance(v["value"], (int, float)) and np.isfinite(v["value"])
               for v in out["metrics"].values())
    assert [w["name"] for w in BENCHMARK["workloads"]] == sorted(run.WORKLOADS)


def test_setup_in_fresh_process_times_a_whole_import():
    seconds = run.setup_in_fresh_process("hedgehog", seed=7)
    assert 0.0 < seconds < 60.0


@pytest.mark.parametrize("with_result", [True, False])
def test_failed_run_makes_the_result_incorrect(tmp_path, monkeypatch, with_result):
    from complexbodies import scenarios
    from complexbodies.errors import ScenarioFailedError

    real_run = scenarios.run

    def failing_run(cfg, out_dir):
        exc = ScenarioFailedError("checks failed")
        if with_result:
            exc.result = real_run(cfg, out_dir=out_dir)
        raise exc

    small_dir = tmp_path / "scenarios"
    small_dir.mkdir()
    (small_dir / "quasicrystal-shear.ini").write_text(
        (run.SCENARIO_DIR / "quasicrystal-shear.ini").read_text().replace(
            "resolution = 48", "resolution = 6"))
    monkeypatch.setattr(scenarios, "run", failing_run)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "SCENARIO_DIR", small_dir)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    out = run.measure("qc-verify", ("quasicrystal-shear",), seed=3, seconds=0.0,
                      trace=False, import_s=0.5)
    assert not out["correct"]
    assert out["failed"] == out["attempted"] == 2
    problems = out["record"]["problems"]
    assert sum("ScenarioFailedError" in p for p in problems) == 2
    # a result handed over with the error is still checked
    assert len(out["record"]["checks"]) == (2 if with_result else 0)
