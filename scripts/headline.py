#!/usr/bin/env python3
"""Headline timing: wall time to a ground state for every preset.

For each preset and resolution the script makes one cold run, with every
check off: it times materialize plus minimize together, and prints the
seconds, the descent iterations and whether the descent converged, one
table row per run.  Exit status is the number of runs that did not
converge.

Usage:
    python3 scripts/headline.py
    python3 scripts/headline.py --resolutions 16 24
"""

import argparse
import dataclasses
import sys
import time

from complexbodies.minimize import minimize
from complexbodies.scenarios import materialize, preset_config, preset_names


def headline_row(name, resolution):
    """Seconds, iterations and converged of one cold run of preset name."""
    cfg = dataclasses.replace(preset_config(name), resolution=resolution, checks={})
    t0 = time.perf_counter()
    built = materialize(cfg)
    mres = minimize(built.density, built.state, built.manifold, cfg.minimize)
    return time.perf_counter() - t0, mres.iterations, mres.converged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--resolutions", type=int, nargs="+", default=[16, 24, 32])
    args = parser.parse_args(argv)

    print("| preset | resolution | seconds | iterations | converged |")
    print("| --- | --- | --- | --- | --- |")
    unconverged = 0
    for name in preset_names():
        for res in args.resolutions:
            seconds, iterations, converged = headline_row(name, res)
            unconverged += not converged
            print(f"| {name} | {res}^3 | {seconds:.2f} | {iterations} | {converged} |",
                  flush=True)
    return unconverged


if __name__ == "__main__":
    sys.exit(main())
