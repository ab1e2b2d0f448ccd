#!/usr/bin/env python3
"""End-to-end benchmark of the pb-bobw CLI on three seeded workloads.

    python3 bench/run.py --workload rule-audit --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1               # all three, one process each

One workload runs in one single-threaded process as a closed loop: one
client calls `pbbobw.cli.main(argv)` in-process, waits for it, checks the
report it wrote, and goes on to the next command of the workload's fixed
list. The list is repeated in whole rounds until `--seconds` is used up.
Only the CLI calls are timed; the checks run between them.

End-to-end metrics (tracing off), per round, median over rounds:
  wall_s       elapsed time of the command list
  cpu_s        process CPU time of the command list
  peak_rss_mb  peak resident set of the process
  setup_s      import pbbobw + generate and write the inputs; median of
               SETUP_SAMPLES set-ups, all but one in fresh processes
With `--trace 1` the per-layer metrics of tracing.py are reported instead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The program is imported from ../src; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / "BENCH_workloads.json"

import tracing  # noqa: E402  (HERE is sys.path[0])
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

E2E_METRICS = [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]
SETUP_SAMPLES = 5


class MissingProgram(Exception):
    pass


def import_cli():
    """Import pbbobw.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "pbbobw" / "cli.py").is_file():
        raise MissingProgram(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import pbbobw.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        raise MissingProgram(f"pbbobw imported from {cli.__file__}, not {SRC}")
    return cli


def set_up(workload: str, seed: int, workdir: Path):
    """The timed set-up: import the program, write the inputs."""
    start = time.perf_counter()
    cli = import_cli()
    workdir.mkdir(parents=True)
    ops = workloads.build(workload, seed, workdir)
    return cli, ops, time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise MissingProgram("set-up probe failed")
    return float(proc.stdout.split()[-1])


def outcome_of(op, code) -> str:
    """'' when the exit code and the report check match expectations."""
    if code != op.expect:
        return f"exit {code}, expected {op.expect}"
    try:
        op.check(json.loads(Path(op.out).read_text()))
    except (CheckError, OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return ""


def run_rounds(cli, ops, seconds: float):
    """Whole rounds of the command list until `seconds` would be exceeded."""
    rounds, failures, attempted = [], [], 0
    sink = io.StringIO()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        wall = cpu = 0.0
        for op in ops:
            Path(op.out).unlink(missing_ok=True)
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    code = cli.main(op.argv)
                except Exception as exc:  # a traceback is an operation failure
                    code = f"{type(exc).__name__}: {exc}"
                wall += time.perf_counter() - t0
                cpu += time.process_time() - c0
            sink.seek(0)
            sink.truncate()
            attempted += 1
            problem = outcome_of(op, code)
            if problem:
                failures.append(f"{op.name}: {problem}")
        rounds.append((wall, cpu))
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return rounds, attempted, failures


def run_workload(args) -> int:
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_probe:
            print(set_up(args.workload, args.seed, workdir)[2])
            return 0
        setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        cli, ops, own_setup = set_up(args.workload, args.seed, workdir)
        setups.append(own_setup)
        tracer = tracing.Tracer()
        if args.trace:
            tracing.install(tracer)
        rounds, attempted, failures = run_rounds(cli, ops, args.seconds)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    wall = statistics.median(r[0] for r in rounds)
    print(f"workload {args.workload}: seed {args.seed}, {len(ops)} commands per round, "
          f"{len(rounds)} rounds, trace {'on' if args.trace else 'off'}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    if args.trace:
        for site in sorted(tracer.missing):
            print(f"missing trace target {site} (not wrapped)")
        print(f"traced wall_s = {wall!r} s")
        units = dict(tracing.LAYER_METRICS)
        values = tracer.metrics(len(rounds))
    else:
        units = dict(E2E_METRICS)
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(r[1] for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
        }
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"attempted {attempted}, failed {len(failures)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; results also go to RESULTS."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=args.seconds + 170,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    RESULTS.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # The limit override would change how much exponential work runs.
    os.environ.pop("PB_BOBW_LIMIT", None)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
