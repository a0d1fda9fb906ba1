#!/usr/bin/env python3
"""Run every built-in scenario and summarize the verification verdicts.

--only takes preset names or INI config paths.  Artifacts land under
--out-root/<preset>/ for a preset and --out-root/<file name>/ for an INI
file (quasicrystal-shear.ini beside quasicrystal-shear), so the two never
collide.  Each line ends with the SHA-256
of the run's six artifacts, read in the order of ARTIFACTS, so two trees
compare bit for bit by their printed digests.  Exit status is the number of
presets that failed a check or stopped without converging, so the script
doubles as a coarse smoke gate.

Usage:
    python3 scripts/run_all_presets.py --out-root runs
    python3 scripts/run_all_presets.py --resolution 24 --only nematic-hedgehog
    python3 scripts/run_all_presets.py --only groundbench/scenarios/*.ini
"""

import argparse
import dataclasses
import hashlib
import sys
import time
from pathlib import Path

from complexbodies.errors import ScenarioFailedError
from complexbodies.scenarios import load_config, preset_names, run

ARTIFACTS = ("trace.csv", "fields_u.csv", "fields_nu.csv", "fields.npz",
             "residuals.csv", "report.txt")


def digest(out: Path) -> str:
    """SHA-256 of the run's artifacts, read one after another."""
    h = hashlib.sha256()
    for name in ARTIFACTS:
        h.update((out / name).read_bytes())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-root", default="runs")
    parser.add_argument("--resolution", type=int, default=None,
                        help="override every preset's grid resolution")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--only", nargs="+", default=None,
                        help="subset of preset names or INI config paths")
    args = parser.parse_args(argv)

    refs = args.only if args.only else preset_names()
    failures = 0
    for ref in refs:
        cfg = load_config(ref)
        name = Path(ref).name
        if args.resolution is not None:
            cfg = dataclasses.replace(cfg, resolution=args.resolution)
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, seed=args.seed)
        out = Path(args.out_root) / name
        t0 = time.perf_counter()
        try:
            result = run(cfg, out_dir=out)
            verdict = "PASS"
        except ScenarioFailedError as exc:
            result = exc.result
            verdict = "FAIL"
            failures += 1
        dt = time.perf_counter() - t0
        mres = result.minimize_result
        if not mres.converged:
            failures += verdict == "PASS"  # a failed run is counted already
            verdict += f", not converged: {mres.message}"
        checks = f"{sum(o.passed for o in result.outcomes)}/{len(result.outcomes)}"
        print(f"{verdict}  {name:<22} checks={checks:<6} "
              f"E={mres.energy:.6g}  iters={mres.iterations}  {dt:.1f}s  -> {out}  "
              f"sha256={digest(out)}")
    return failures


if __name__ == "__main__":
    sys.exit(main())
