"""Seeded end-to-end and per-layer benchmark of the ``comotion`` planner.

Run from the repository root:

    python3 perfbench/run.py --workload plan-joint --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload train --seed 1 --seconds 40 --trace 1 --out r.jsonl
    python3 perfbench/run.py --compare base.jsonl change.jsonl

The package is imported from ``src/`` next to this directory, never from an
installed copy.  The last line of standard output is the result object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
untraced, per-layer metrics with ``--trace 1``).  See README.md beside this
file for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Sets the BLAS pools to one thread unless the environment asks for
    more, and never more than the processors this process may use.  The
    matrices here are at most 100x32, where a second thread gains nothing and
    its spin-waiting, next to any other busy process, slowed a training call
    tenfold.  Must run before numpy is imported."""
    threads = 1
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if value.isdigit() and int(value) > 0:
            threads = int(value)
    threads = min(threads, NPROC)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    return threads


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def import_package():
    """Puts this checkout's ``src`` first on the path; refuses any other copy."""
    if not os.path.isfile(os.path.join(SRC, "comotion", "__init__.py")):
        sys.exit(f"perfbench: no comotion package under {SRC}")
    sys.path.insert(0, SRC)
    import comotion

    if os.path.dirname(os.path.abspath(comotion.__file__)) != os.path.join(SRC, "comotion"):
        sys.exit(f"perfbench: imported comotion from {comotion.__file__}, not {SRC}")


def run(args) -> dict:
    blas_threads = cap_blas_threads()
    import_package()
    import numpy as np

    import metrics
    import workloads as wl
    from tracing import Instrument

    setup_times, setup_failures = [], 0

    def set_up():
        nonlocal setup_failures
        t0 = time.perf_counter()
        try:
            inputs = wl.make_inputs(args.workload, args.seed)
        except Exception as exc:  # a generator that raises is a failed operation
            print(f"setup failed: {exc!r}", file=sys.stderr)
            inputs, setup_failures = wl.Inputs(), 1
        setup_times.append(time.perf_counter() - t0)
        return inputs

    inst = Instrument(trace=bool(args.trace))
    with inst:
        runner = wl.Runner(args.workload, args.seed, set_up(), inst)
        # The machine's speed drifts over tens of seconds, so the other
        # set-ups are spread between the operations: their median then sees
        # the machine over the whole run, as the operations do.
        for i in range(1, wl.SETUP_REPEATS + 1):
            runner.run_for(args.seconds * i / wl.SETUP_REPEATS)
            if i < wl.SETUP_REPEATS:
                set_up()
        measured = runner.measured
    inputs = runner.inputs

    attempted = len(runner.records) + inputs.shortfall + setup_failures
    failed = sum(not r.ok for r in runner.records) + inputs.shortfall + setup_failures
    if args.trace:
        values = metrics.per_layer(inst, runner, measured)
        units = metrics.PER_LAYER
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        inst.write_spans(os.path.join(
            ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        values = metrics.end_to_end(setup_times, runner.records, measured)
        units = metrics.END_TO_END
    detail = metrics.detail(args.workload, runner, measured, attempted, failed)

    meta = {"git_sha": git_sha(), "nproc": NPROC, "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": blas_threads, "seed": args.seed}
    print("# meta " + json.dumps(meta))
    for r in runner.records:
        print(json.dumps({"op": r.op, "kind": r.kind, "instance": r.instance,
                          "method": r.method, "seconds": r.seconds, "ok": r.ok,
                          **r.counts, **({"error": r.error} if r.error else {})}))
    if args.trace:
        for name, row in sorted(inst.span_totals(in_ops=True).items(),
                                key=lambda kv: -kv[1]["total_s"]):
            print(f"# span {name} calls={row['calls']} total_s={row['total_s']:.4f} "
                  f"self_s={row['self_s']:.4f}")
    for name, (value, unit) in detail.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    if args.out:
        doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "meta": meta, "result": result,
               "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
               "ops": [vars(r) for r in runner.records]}
        with open(args.out, "a") as fh:
            fh.write(json.dumps(doc) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("plan-joint", "plan-frozen", "train"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full run record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two --out files instead of running")
    args = parser.parse_args(argv)
    if args.compare:
        import compare

        return compare.main(*args.compare, os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
