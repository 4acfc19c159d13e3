"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pay_churn --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program unmodified;
``--trace 1`` installs the span wrappers of :mod:`tracer` for part of the
run and reports per-layer metrics instead.  Earlier lines of standard
output are for people (run metadata, correctness checks, details); the
last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

The program is imported from ``src/`` next to this directory; there is
nothing to build.  Without it the script exits with status 2 and prints
no result.  A failed correctness check prints the result with
``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: journals (deleted per run) and traces.
WORK = ROOT / ".perfbench"

WORKLOAD_NAMES = ("pay_churn", "broker_batch", "sim_million")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import tracer
    import workloads

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workloads.PARAMS_NAME,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }
    print("meta " + json.dumps(meta), flush=True)
    work = WORK / f"run-{os.getpid()}-{time.time_ns()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            args.seed, args.seconds, work, bool(args.trace)
        )
    finally:
        start = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        teardown_s = time.perf_counter() - start
    outcome.info["teardown_s"] = teardown_s
    recorder = outcome.recorder
    if recorder is not None:
        # Every wrapper must be gone, or later untraced code would be traced.
        outcome.checks["tracing_removed"] = not tracer.Patcher(recorder).leftovers()
        trace_path = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        recorder.dump(trace_path)
        outcome.info["trace_file"] = str(trace_path.relative_to(ROOT))
    print("checks " + json.dumps(outcome.checks), flush=True)
    print("info " + json.dumps(outcome.info, default=str), flush=True)
    for name, (value, unit) in outcome.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"ops_failed_frac = {outcome.failed / max(outcome.attempted, 1):.6g} "
          f"({outcome.failed} of {outcome.attempted})")
    correct = all(outcome.checks.values()) and all(
        math.isfinite(value) for value, _unit in outcome.metrics.values()
    )
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
