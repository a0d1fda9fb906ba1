"""Command line contract: exit codes, overrides, and the preset catalogue.

Exit code 0 means every enabled check passed, 1 means a check failed or the
run aborted, 2 means the config was rejected before any work started, 3
means every enabled check passed but the descent did not converge.
"""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import complexbodies
from complexbodies.cli import main
from complexbodies.scenarios import format_config, parse_config, preset_config, preset_names

TINY = """
[scenario]
name = tiny-porous
seed = 3

[grid]
resolution = 6

[manifold]
kind = interval

[density]
kind = porous-landau

[boundary]
kind = two-face-ramp

[init]
kind = ramp

[minimize]
max_iters = 3000
grad_tol = 1e-07

[checks]
orientation = on
weak_el = on
"""

# a constant director has boundary degree zero, so defect accounting fails
UNIFORM_DIRECTOR = """
[scenario]
name = uniform-director

[grid]
resolution = 6
lo = -1
hi = 1
shape = ball

[manifold]
kind = unit-sphere

[density]
kind = dirichlet

[minimize]
max_iters = 50

[checks]
defects = on
"""


def test_unconverged_run_exits_three(tmp_path, capsys):
    text = TINY.replace("max_iters = 3000", "max_iters = 2").replace("weak_el = on", "")
    code = main(["run", _write(tmp_path, text), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 3
    assert "result: PASS, not converged: max iterations reached" in captured.out


def test_unconverged_failed_check_exits_one(tmp_path, capsys):
    # two iterations leave a weak residual that the weak_el check rejects
    text = TINY.replace("max_iters = 3000", "max_iters = 2")
    assert main(["run", _write(tmp_path, text), "--out", str(tmp_path / "out")]) == 1
    assert "result: FAIL, not converged" in capsys.readouterr().out


def _write(tmp_path, text):
    path = tmp_path / "scenario.ini"
    path.write_text(text)
    return str(path)


def test_run_success_exits_zero(tmp_path, capsys):
    code = main(["run", _write(tmp_path, TINY), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 0
    assert "result: PASS" in captured.out
    assert f"artifacts: {tmp_path / 'out'}" in captured.out
    assert (tmp_path / "out" / "report.txt").exists()


def test_failed_check_exits_one(tmp_path, capsys):
    code = main(["run", _write(tmp_path, UNIFORM_DIRECTOR),
                 "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert "result: FAIL" in captured.out
    assert "defects" in captured.err
    # artifacts are written even for failed runs
    assert (tmp_path / "out" / "report.txt").exists()


def test_missing_config_exits_two(tmp_path, capsys):
    code = main(["run", str(tmp_path / "nope.ini")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_config_file_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(TINY + "\n[checks]\nwibble = on\n")
    assert main(["run", str(path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_directory_as_config_exits_two(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(tmp_path) in err


def test_binary_config_exits_two(tmp_path, capsys):
    path = tmp_path / "binary.ini"
    path.write_bytes(b"\xff\xfe\x00\x81 not text")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(path) in err


@pytest.mark.parametrize("sub", ["", "sub"])
def test_unusable_output_directory_exits_two(tmp_path, capsys, sub):
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    out = afile / sub if sub else afile
    assert main(["run", "porous-interval", "--resolution", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(out) in err
    assert afile.read_text() == "not a directory\n"


@pytest.mark.parametrize("key, old, new", [
    ("grad_tol", "grad_tol = 1e-07", "grad_tol = nan"),
    ("max_iters", "max_iters = 3000", "max_iters = -5"),
    ("step_max", "grad_tol = 1e-07", "grad_tol = 1e-07\nstep_max = 0"),
])
def test_out_of_range_minimize_setting_exits_two(tmp_path, capsys, key, old, new):
    config = _write(tmp_path, TINY.replace(old, new))
    assert main(["run", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("old, new, fragment", [
    ("kind = porous-landau", "kind = porous-landau\nstiffness = nan", "[density] stiffness"),
    ("kind = porous-landau", "kind = porous-landau\nstiffness = inf", "[density] stiffness"),
    ("kind = porous-landau", "kind = porous-landau\nstiffness = -1", "stiffness must be positive"),
    ("kind = porous-landau", "kind = porous-landau\nwell_depth = -1", "well_depth must not be negative"),
    ("kind = interval\n\n[density]\nkind = porous-landau",
     "kind = euclidean3\n\n[density]\nkind = microcracked\nrestore = -1",
     "restore must not be negative"),
    ("kind = interval\n\n[density]\nkind = porous-landau",
     "kind = euclidean3\n\n[density]\nkind = microcracked\nmu = 0",
     "mu > 0 and 3 lam + 2 mu > 0"),
    ("kind = interval\n\n[density]\nkind = porous-landau",
     "kind = euclidean3\n\n[density]\nkind = microcracked\nlam = -1",
     "got lam = -1.0"),
    ("kind = interval\n\n[density]\nkind = porous-landau",
     "kind = euclidean3\n\n[density]\nkind = quasicrystal\na = 1e308",
     "3a + 3b, overflows"),
    ("kind = interval", "kind = interval\nlo = 1\nhi = 0", "empty interval [1.0, 0.0]"),
    ("resolution = 6", "resolution = 6\nhi = inf", "[grid] hi"),
    ("seed = 3", "seed = -1", "seed must not be negative"),
])
def test_bad_number_exits_two(tmp_path, capsys, old, new, fragment):
    config = _write(tmp_path, TINY.replace(old, new))
    assert main(["run", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and fragment in err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("lo, hi", [("-1e308", "1e308"), ("0", "1e-310")],
                         ids=["overflowing", "underflowing"])
@pytest.mark.parametrize("name", preset_names())
def test_box_without_a_finite_positive_cell_exits_two(tmp_path, capsys, name, lo, hi):
    # (hi - lo) / 4 overflows to inf on the first box; on the second the
    # spacing is subnormal and its cube underflows to 0
    text = format_config(preset_config(name))
    grid = text[text.index("[grid]"):text.index("[manifold]")]
    box = "\n".join(f"lo = {lo}" if line.startswith("lo = ")
                    else f"hi = {hi}" if line.startswith("hi = ")
                    else "resolution = 4" if line.startswith("resolution = ")
                    else line for line in grid.split("\n"))
    config = _write(tmp_path, text.replace(grid, box))
    assert main(["run", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [grid] box [")
    assert "cell spacing" in err and "must be finite and positive" in err
    assert not (tmp_path / "out").exists()


# rim director data nu_slope (x - centre) on a sphere; the box centre is an
# interior node, where that data vanishes
SPHERE_STRETCH = """
[scenario]
name = sphere-stretch

[grid]
resolution = 4

[manifold]
kind = unit-sphere

[density]
kind = dirichlet

[boundary]
kind = affine-stretch
nu_slope = 0.25
"""


def test_rim_data_is_projected_on_the_rim_only(tmp_path, capsys):
    code = main(["run", _write(tmp_path, SPHERE_STRETCH), "--out", str(tmp_path / "out")])
    assert code == 0
    assert "result: PASS" in capsys.readouterr().out


def test_zero_rim_director_exits_two(tmp_path, capsys):
    config = _write(tmp_path, SPHERE_STRETCH.replace("nu_slope = 0.25", "nu_slope = 0"))
    assert main(["run", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "zero vector" in err
    assert not (tmp_path / "out").exists()


def test_inadmissible_start_exits_two(tmp_path, capsys):
    # the start shears by 0.2 inside a rim sheared by 0.3: next to the face
    # x1 = 0, du1/dx1 = 1 - 0.1 x2 / h, negative near x2 = 1 once h < 0.1
    cfg = preset_config("quasicrystal-shear")
    cfg = replace(cfg, resolution=12, init_params={"gamma": 0.2})
    config = _write(tmp_path, format_config(cfg))
    out = tmp_path / "out" / "sub"
    assert main(["run", config, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: start state of [init] shear under [boundary] "
                          "simple-shear: ")
    assert "volumetric barrier" in err
    # the directories that the run made are gone, and nothing else is
    assert not (tmp_path / "out").exists()
    assert (tmp_path / "scenario.ini").exists()


def test_bad_check_flag_exits_two(tmp_path, capsys):
    config = _write(tmp_path, TINY)
    out = str(tmp_path / "out")
    assert main(["run", config, "--out", out, "--check", "wibble=on"]) == 2
    assert main(["run", config, "--out", out, "--check", "weak_el"]) == 2
    capsys.readouterr()
    assert main(["run", config, "--out", out, "--check", "weak_el=maybe"]) == 2
    assert "weak_el must be on/off" in capsys.readouterr().err


def test_unknown_check_has_one_message(tmp_path, capsys):
    want = ("config error: unknown check 'bogus'; known: orientation, injectivity, "
            "growth, convexity, weak_el, rotational, configurational, defects\n")
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, TINY), "--out", str(out), "--check", "bogus=on"]) == 2
    assert capsys.readouterr().err == want
    assert main(["run", _write(tmp_path, TINY + "bogus = on\n"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == want
    assert not out.exists()


@pytest.mark.parametrize("name", ["strong", "eulerian"])
def test_retired_check_exits_two(tmp_path, capsys, name):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, TINY), "--out", str(out), "--check", f"{name}=on"]) == 2
    assert f"unknown check {name!r}" in capsys.readouterr().err
    assert main(["run", _write(tmp_path, TINY + f"{name} = on\n"), "--out", str(out)]) == 2
    assert (f"[checks] {name} is retired and accepts only off, got 'on'"
            in capsys.readouterr().err)
    assert not out.exists()


def test_negative_seed_flag_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", _write(tmp_path, TINY), "--out", str(out), "--seed", "-3"]) == 2
    assert "seed must not be negative" in capsys.readouterr().err
    assert not out.exists()


def test_overrides_reach_the_run(tmp_path, capsys):
    code = main([
        "run", _write(tmp_path, TINY), "--out", str(tmp_path / "out"),
        "--seed", "42", "--resolution", "5", "--check", "weak_el=off",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "seed: 42" in out
    assert "grid: 5^3" in out
    assert "check orientation: PASS" in out
    assert "check weak_el" not in out


def test_run_preset_by_name(tmp_path, capsys):
    code = main(["run", "porous-interval", "--resolution", "6",
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "scenario: porous-interval" in out
    assert "result: PASS" in out


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 6
    assert [line.split()[0] for line in lines] == preset_names()


@pytest.mark.parametrize("name", preset_names())
def test_presets_show_round_trips(name, capsys):
    assert main(["presets", "--show", name]) == 0
    text = capsys.readouterr().out
    assert parse_config(text) == preset_config(name)


def test_presets_show_unknown_exits_two(capsys):
    assert main(["presets", "--show", "bogus"]) == 2
    assert "config error" in capsys.readouterr().err


IMPORT_GUARD = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import complexbodies.scenarios, complexbodies.cli
assert not scipy_modules(), scipy_modules()
# a run whose checks include the defect clusters and the injectivity check
complexbodies.cli.main(["run", "nematic-hedgehog", "--resolution", "6",
                        "--check", "injectivity=on", "--out", sys.argv[1]])
assert not scipy_modules(), scipy_modules()
"""


def test_library_loads_no_scipy(tmp_path):
    src = Path(complexbodies.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)),
    )
    assert done.returncode == 0, done.stderr
    report = (tmp_path / "report.txt").read_text()
    assert "check defects:" in report and "check injectivity:" in report
