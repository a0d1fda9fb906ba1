#!/usr/bin/env python3
"""Time to a verified ground state, end to end and layer by layer.

    python3 groundbench/run.py --workload hedgehog --seed 7 --seconds 30 --trace 0

Runs the scenarios of one workload through ``complexbodies.scenarios.run``
in whole rounds until the next round would overrun ``--seconds`` (at least
two rounds), checks every result against properties of a true ground state
(``properties.py``), and prints one JSON object as the last line of stdout:
``correct``, ``attempted`` and ``failed`` scenario runs, and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced round and reports the per-layer metrics of
``layers.Tracer``.  ``--seed`` is the scenarios' seed, which draws the random
test functions and samples of the verification checks.  ``--setup-only``
times one set-up (import, parse, materialize) and prints its seconds; a run
takes its set-up samples from it.  A full record with
the machine facts goes to ``groundbench/results/``; the artifacts of the
last round stay in ``groundbench/out/``.

Exit status: 0 when every result is correct, 1 otherwise (a failed
``run()`` included), 2 when the library source is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SCENARIO_DIR = BENCH_DIR / "scenarios"
OUT_DIR = BENCH_DIR / "out"
RESULTS_DIR = BENCH_DIR / "results"
PACKAGE = "complexbodies"
DEFAULT_SEED = 7  # the presets' seed
SETUP_SAMPLES = 5  # the process's own set-up and four in fresh interpreters

WORKLOADS = {
    "hedgehog": ("nematic-hedgehog",),
    "multifield": ("microcracked-vector", "smectic-layers", "porous-interval"),
    "qc-verify": ("quasicrystal-shear",),
}
ARTIFACTS = ("trace.csv", "fields_u.csv", "fields_nu.csv", "fields.npz",
             "residuals.csv", "report.txt")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "energy_evals": "count",
    "gradient_evals": "count",
    "peak_rss_mb": "MB",
}

# span name -> per-layer metric; "_ms" is the median per call, "_s" the
# median over traced rounds of the time per round.  Only layers that every
# workload calls are printed: a time that reads 0 on every run of a workload
# says nothing.  The record in results/ keeps every span, these included:
# manifolds.retract (no descent step in qc-verify), minors.cofactor (only the
# quasicrystal's macro energy calls it), balance.rotational_balance (off in
# multifield), admissibility.check_ciarlet_necas (off in hedgehog), and
# admissibility.defect_charges and d_field_boundary_flux (hedgehog only).
_PER_CALL_MS = {
    "fields.gradients": "fields.gradients_ms",
    "fields.cell_gradient": "fields.cell_gradient_ms",
    "fields.cell_average": "fields.cell_average_ms",
    "fields.scatter_gradient_adjoint": "fields.scatter_gradient_adjoint_ms",
    "fields.scatter_cell_average_adjoint": "fields.scatter_cell_average_adjoint_ms",
    "minimize.riesz_gradient": "minimize.riesz_gradient_ms",
    "energy.total_energy": "energy.total_energy_ms",
    "energy.eval": "energy.eval_ms",
    "energy.d_F": "energy.d_F_ms",
    "energy.d_N": "energy.d_N_ms",
    "minors.det3": "minors.det3_ms",
    "manifolds.tangent_project": "manifolds.tangent_project_ms",
}
_PER_ROUND_S = {
    "energy.check_growth": "energy.check_growth_s",
    "energy.check_convexity": "energy.check_convexity_s",
    "balance.assemble_actions": "balance.assemble_actions_s",
    "balance.weak_el_residual": "balance.weak_el_residual_s",
    "balance.random_compact_tests": "balance.random_compact_tests_s",
    "admissibility.check_orientation": "admissibility.check_orientation_s",
    "fieldio.write_fields": "fieldio.write_fields_s",
    "scenarios.materialize": "scenarios.materialize_s",
}
_PER_ROUND_CALLS = {
    "fields.gradients": "fields.gradients_calls",
    "fields.node_volumes": "fields.node_volumes_calls",
    "fields.incident_node_mask": "fields.incident_node_mask_calls",
}
_WRITERS = ("fieldio.write_trace", "fieldio.write_fields", "fieldio.write_residuals",
            "fieldio.write_report")

PER_LAYER = {
    **{m: "ms" for m in _PER_CALL_MS.values()},
    **{m: "s" for m in _PER_ROUND_S.values()},
    **{m: "count" for m in _PER_ROUND_CALLS.values()},
    "fields.bytes_per_gradient": "B",
    "minimize.self_s": "s",
    "minimize.iterations": "count",
    "minimize.ms_per_iter": "ms",
    "minimize.trials_per_iter": "count",
    "minimize.accept_ratio": "ratio",
    "minimize.armijo_rejects": "count",
    "minimize.barrier_rejects": "count",
    "fieldio.bytes_written": "B",
    "fieldio.write_mb_per_s": "MB/s",
    "trace.overhead_s": "s",
}


class LibraryMissing(Exception):
    pass


def import_library() -> float:
    """Import the package from this checkout's ``src``; return the seconds."""
    if not (SRC / PACKAGE / "scenarios.py").is_file():
        raise LibraryMissing(f"no library source under {SRC}")
    # numpy's and scipy's OpenBLAS each start a pool sized to the cores, three
    # threads on two cores; one BLAS thread keeps the process within nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    importlib.import_module(f"{PACKAGE}.scenarios")  # numpy and scipy come with it
    seconds = perf_counter() - t0
    origin = Path(sys.modules[PACKAGE].__path__[0]).resolve()
    if origin != (SRC / PACKAGE).resolve():
        raise LibraryMissing(f"{PACKAGE} was imported from {origin}, not from {SRC}")
    return seconds


def machine_facts() -> dict:
    import numpy
    import scipy

    facts = {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                facts["threads"] = int(line.split()[1])
    return facts


def parse_and_materialize(names, seed: int):
    """Parse every frozen scenario with ``seed`` and materialize it."""
    from complexbodies.scenarios import materialize, parse_config

    configs = [
        dataclasses.replace(parse_config((SCENARIO_DIR / f"{n}.ini").read_text()), seed=seed)
        for n in names
    ]
    return configs, [materialize(c) for c in configs]


def setup_in_fresh_process(workload: str, seed: int) -> float:
    """Seconds of one set-up (package import with numpy and scipy, parse,
    materialize) in a fresh interpreter, as that interpreter times it."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1])


def _digest(directory: Path) -> dict:
    return {a: hashlib.sha256((directory / a).read_bytes()).hexdigest() for a in ARTIFACTS}


@dataclasses.dataclass
class Round:
    traced: bool
    wall_s: float
    cpu_s: float
    scenario_s: list      # wall seconds per scenario
    results: list         # ScenarioResult, or None where run() raised without one
    errors: list          # message per failed scenario
    energy_evals: list    # per scenario, calls of total_energy by minimize
    gradient_evals: list  # per scenario, calls of riesz_gradient by minimize
    tracer: object = None


def run_round(configs, out_root: Path, traced: bool) -> Round:
    """Run every scenario once, from the first run() to its last artifact."""
    from complexbodies.errors import ComplexBodiesError
    from complexbodies import scenarios
    from layers import COUNTED, CallCounter, Tracer

    counter = CallCounter()
    tracer = Tracer() if traced else None
    results, errors, energy_evals, gradient_evals, scenario_s = [], [], [], [], []
    energy_key, gradient_key = COUNTED
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
        stack.enter_context(counter)  # on top of the tracer's wrappers
        t0, c0 = perf_counter(), process_time()
        for cfg in configs:
            before, t_scenario = dict(counter.calls), perf_counter()
            try:
                results.append(scenarios.run(cfg, out_dir=out_root / cfg.name))
            except ComplexBodiesError as exc:
                # a failed check still hands over its result; check it too
                results.append(getattr(exc, "result", None))
                errors.append(f"{cfg.name}: {type(exc).__name__}: {exc}")
            scenario_s.append(perf_counter() - t_scenario)
            energy_evals.append(counter.calls[energy_key] - before[energy_key])
            gradient_evals.append(counter.calls[gradient_key] - before[gradient_key])
        wall, cpu = perf_counter() - t0, process_time() - c0
    return Round(traced, wall, cpu, scenario_s, results, errors, energy_evals,
                 gradient_evals, tracer)


def _median(values, default=0.0):
    return float(statistics.median(values)) if values else default


def span_summary(rounds: list) -> dict:
    """Every span of the traced rounds: calls, total and self seconds per
    round (medians over rounds) and the median milliseconds per call."""
    traced = [r for r in rounds if r.traced]
    spans = sorted({s for r in traced for s in r.tracer.durations})
    return {
        s: {
            "calls": _median([r.tracer.calls(s) for r in traced]),
            "total_s": _median([r.tracer.total(s) for r in traced]),
            "self_s": _median([r.tracer.self_total(s) for r in traced]),
            "ms_per_call": 1e3 * _median([d for r in traced
                                          for d in r.tracer.durations.get(s, ())]),
        }
        for s in spans
    }


def layer_metrics(rounds: list, out_root: Path, configs) -> dict:
    """Per-layer metrics from the traced rounds; see PER_LAYER for units."""
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    out = {}
    for span, name in _PER_CALL_MS.items():
        calls = [d for r in traced for d in r.tracer.durations.get(span, ())]
        out[name] = 1e3 * _median(calls)
    for span, name in _PER_ROUND_S.items():
        out[name] = _median([r.tracer.total(span) for r in traced])
    for span, name in _PER_ROUND_CALLS.items():
        out[name] = int(_median([r.tracer.calls(span) for r in traced]))
    out["fields.bytes_per_gradient"] = int(
        _median([b for r in traced for b in r.tracer.gradient_bytes]))

    def per_round(fn):
        return _median([fn(r) for r in traced])

    def mres(r):
        return [res.minimize_result for res in r.results if res is not None]

    iterations = per_round(lambda r: sum(m.iterations for m in mres(r)))
    armijo = per_round(lambda r: sum(m.armijo_rejects for m in mres(r)))
    barrier = per_round(lambda r: sum(m.barrier_rejects for m in mres(r)))
    # every minimize() evaluates the start once; the rest are line-search trials
    trials = per_round(lambda r: sum(r.energy_evals) - len(mres(r)))
    out["minimize.self_s"] = per_round(lambda r: r.tracer.self_total("minimize.minimize"))
    out["minimize.iterations"] = int(iterations)
    out["minimize.ms_per_iter"] = 1e3 * per_round(
        lambda r: r.tracer.total("minimize.minimize")) / max(iterations, 1)
    out["minimize.trials_per_iter"] = trials / max(iterations, 1)
    out["minimize.accept_ratio"] = (trials - armijo - barrier) / trials if trials else 1.0
    out["minimize.armijo_rejects"] = int(armijo)
    out["minimize.barrier_rejects"] = int(barrier)

    written = sum((out_root / c.name / a).stat().st_size for c in configs for a in ARTIFACTS)
    write_s = per_round(lambda r: sum(r.tracer.total(s) for s in _WRITERS))
    out["fieldio.bytes_written"] = written
    out["fieldio.write_mb_per_s"] = written / 1e6 / write_s
    # at --seconds 30 hedgehog and multifield make one round of each kind, so
    # this is one sample against the host's swings, not a measured overhead
    out["trace.overhead_s"] = (_median([r.wall_s for r in traced])
                               - _median([r.wall_s for r in plain]))
    return out


def measure(workload: str, names, seed: int, seconds: float, trace: bool,
            import_s: float) -> dict:
    """Set up, run whole rounds for ``seconds``, check every result.

    ``setup_s`` is the median of ``SETUP_SAMPLES`` set-ups: this process's
    own (its first import, ``import_s``, then parse and materialize) and the
    rest in fresh interpreters, one after another."""
    t0 = perf_counter()
    configs, built = parse_and_materialize(names, seed)
    setup_samples = [import_s + perf_counter() - t0]
    setup_samples += [setup_in_fresh_process(workload, seed)
                      for _ in range(SETUP_SAMPLES - 1)]
    setup_s = statistics.median(setup_samples)
    from properties import Outcome, check

    out_root = OUT_DIR / workload
    shutil.rmtree(out_root, ignore_errors=True)

    rounds, checks, problems = [], [], []
    first_digest, first_counts = None, None
    t_start = perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        r = run_round(configs, out_root, traced)
        rounds.append(r)
        problems.extend(f"round {len(rounds) - 1}: {e}" for e in r.errors)
        for b, res in zip(built, r.results):
            if res is not None:
                props = check(Outcome.from_run(b, res))
                checks.append({"round": len(rounds) - 1, "scenario": res.config.name, **props})
                problems.extend(f"{res.config.name}: {k} fails" for k, v in props.items()
                                if not v)
        digest = {c.name: _digest(out_root / c.name)
                  for c, res in zip(configs, r.results) if res is not None}
        counts = {
            c.name: (res.minimize_result.iterations, e, g)
            for c, res, e, g in zip(configs, r.results, r.energy_evals, r.gradient_evals)
            if res is not None
        }
        if first_digest is None:
            first_digest, first_counts = digest, counts
        else:
            if digest != first_digest:
                problems.append(f"round {len(rounds) - 1}: artifacts differ from round 0")
            if counts != first_counts:
                problems.append(f"round {len(rounds) - 1}: counts differ from round 0")
        # two rounds at least: every run checks that a repeat is identical
        elapsed = perf_counter() - t_start
        if len(rounds) >= 2 and elapsed + _median([x.wall_s for x in rounds]) > seconds:
            break

    plain = [r for r in rounds if not r.traced]
    wall_s = _median([r.wall_s for r in plain])
    if trace:
        metrics, units = layer_metrics(rounds, out_root, configs), PER_LAYER
    else:
        metrics, units = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "energy_evals": int(_median([sum(r.energy_evals) for r in plain])),
            "gradient_evals": int(_median([sum(r.gradient_evals) for r in plain])),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, END_TO_END
    attempted = len(rounds) * len(configs)
    failed = sum(len(r.errors) for r in rounds)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "record": {
            "workload": workload,
            "scenarios": list(names),
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "import_s": import_s,
            "setup_samples": setup_samples,
            "setup_s": setup_s,
            "wall_s": wall_s,
            "rounds": [
                {"traced": r.traced, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                 "scenario_s": r.scenario_s, "energy_evals": r.energy_evals,
                 "gradient_evals": r.gradient_evals, "errors": r.errors}
                for r in rounds
            ],
            "per_scenario": {
                name: {"iterations": it, "energy_evals": e, "gradient_evals": g}
                for name, (it, e, g) in (first_counts or {}).items()
            },
            "artifact_sha256": first_digest,
            "spans": span_summary(rounds) if trace else None,
            "checks": checks,
            "problems": problems,
        },
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print its seconds and exit")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_s = import_library()
    except LibraryMissing as exc:
        print(f"groundbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        t0 = perf_counter()
        parse_and_materialize(WORKLOADS[args.workload], args.seed)
        print(import_s + perf_counter() - t0)
        return 0
    out = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                  bool(args.trace), import_s)
    record = out.pop("record")
    record.update(machine=machine_facts(), correct=out["correct"],
                  attempted=out["attempted"], failed=out["failed"], metrics=out["metrics"])
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for problem in record["problems"]:
        print(f"groundbench: {problem}", file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
