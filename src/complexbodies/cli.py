"""Command line front end for the scenario runner.

Usage:
    complexbodies run <config-file-or-preset> [--out DIR] [--seed N]
                      [--resolution N] [--check NAME=on|off ...]
    complexbodies presets [--show NAME]

Exit codes: 0 all enabled checks passed, 1 a check failed (or the run
aborted), 2 the config was invalid, 3 every enabled check passed but the
descent stopped before the gradient tolerance (max_iters or a stalled line
search).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import ComplexBodiesError, ConfigError, ScenarioFailedError
from .scenarios import (
    PRESET_SUMMARIES,
    _as_bool,
    format_config,
    load_config,
    preset_config,
    preset_names,
    run,
)

EXIT_NOT_CONVERGED = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="complexbodies",
        description="Ground states of complex elastic bodies: minimize a "
        "multifield energy and verify the balance laws.",
        epilog="exit status: 0 every enabled check passed, 1 a check failed or the "
        "run aborted, 2 invalid config, 3 every enabled check passed but the "
        "descent did not converge",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario from a config file or preset name")
    run_p.add_argument("config", help="path to a config file, or a preset name")
    run_p.add_argument("--out", default=None, help="output directory for artifacts")
    run_p.add_argument("--seed", type=int, default=None, help="override the seed")
    run_p.add_argument("--resolution", type=int, default=None,
                       help="override the grid resolution")
    run_p.add_argument("--check", action="append", default=[], metavar="NAME=on|off",
                       help="toggle a verification check (repeatable)")

    pre_p = sub.add_parser("presets", help="list built-in scenarios")
    pre_p.add_argument("--show", default=None, metavar="NAME",
                       help="print the config text of one preset")
    return parser


def _parse_check_flag(raw: str) -> tuple[str, bool]:
    if "=" not in raw:
        raise ConfigError(f"--check expects NAME=on|off, got {raw!r}")
    name, _, value = raw.partition("=")
    name = name.strip()
    return name, _as_bool("checks", name, value)


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.resolution is not None:
        config = replace(config, resolution=args.resolution)
    if args.check:
        checks = dict(config.checks)
        for raw in args.check:
            name, value = _parse_check_flag(raw)
            checks[name] = value
        config = replace(config, checks=checks)
    out = args.out if args.out is not None else config.out_dir
    if out is None:
        out = str(Path("runs") / config.name)
    try:
        result = run(config, out_dir=out)
    except ScenarioFailedError as exc:
        result = getattr(exc, "result", None)
        if result is not None:
            for line in result.report_lines:
                print(line)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in result.report_lines:
        print(line)
    print(f"artifacts: {result.out_dir}")
    return 0 if result.minimize_result.converged else EXIT_NOT_CONVERGED


def _cmd_presets(args) -> int:
    if args.show is not None:
        print(format_config(preset_config(args.show)), end="")
        return 0
    width = max(len(n) for n in preset_names())
    for name in preset_names():
        print(f"{name:<{width}}  {PRESET_SUMMARIES[name]}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_presets(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ComplexBodiesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
