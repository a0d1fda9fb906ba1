"""Smoke runs of the command-line scripts under scripts/ at 6^3."""

import dataclasses
import importlib.util
from pathlib import Path

from complexbodies.minimize import MinimizeConfig

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_all_presets_passes_every_preset(tmp_path, capsys):
    script = _load("run_all_presets")
    assert script.main(["--out-root", str(tmp_path), "--resolution", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(script.preset_names())
    assert all(line.startswith("PASS  ") for line in lines)


def test_run_all_presets_counts_a_run_that_did_not_converge(tmp_path, capsys, monkeypatch):
    script = _load("run_all_presets")
    preset = script.preset_config
    monkeypatch.setattr(script, "preset_config", lambda name: dataclasses.replace(
        preset(name), minimize=MinimizeConfig(max_iters=6)))
    assert script.main(["--out-root", str(tmp_path), "--resolution", "8",
                        "--only", "porous-interval"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("PASS, not converged: max iterations reached  porous-interval")
    report = (tmp_path / "porous-interval" / "report.txt").read_text()
    assert "result: PASS, not converged: max iterations reached" in report


def test_hedgehog_refinement_writes_its_study(tmp_path, capsys):
    script = _load("hedgehog_refinement")
    out = tmp_path / "study.csv"
    assert script.main(["--resolutions", "6", "--minimize", "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header.split(",") == ["resolution", "energy_analytic", "energy_over_4pi",
                                 "flux_quadrature_over_4pi", "total_charge", "clusters",
                                 "energy_minimized", "iterations", "converged", "seconds"]
    values = dict(zip(header.split(","), row.split(",")))
    assert values["resolution"] == "6" and values["converged"] == "True"
    assert float(values["energy_minimized"]) < float(values["energy_analytic"])
    assert "6^3: E/4pi=" in capsys.readouterr().out


def test_headline_times_every_preset(capsys):
    script = _load("headline")
    assert script.main(["--resolutions", "6"]) == 0
    header, rule, *rows = capsys.readouterr().out.splitlines()
    assert header == "| preset | resolution | seconds | iterations | converged |"
    assert [row.split(" | ")[:2] for row in rows] == [
        [f"| {name}", "6^3"] for name in script.preset_names()
    ]
    for row in rows:
        _, _, seconds, iterations, converged = row.strip("| ").split(" | ")
        assert float(seconds) >= 0 and int(iterations) >= 0 and converged == "True"
