"""Steadiness report: repeat each workload over several seeds.

Runs ``perfbench/run.py`` ``--runs`` times per workload, each time with
another seed, and reports for every metric the median, the quartiles and
the spread, taken as (third quartile - first quartile) / median with the
quartiles of ``statistics.quantiles(values, n=4)``.  The spread of an
end-to-end metric is shown against the bound ``BENCHMARK.json`` gives it.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --runs 10 --out report.md
    python3 perfbench/steadiness.py --runs 3 --workload pay_churn --trace 1

Raw results go to ``--json`` (default ``.perfbench/steadiness.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One benchmark run in a child process; returns its result and wall time."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
    return {"seed": seed, "exit": done.returncode, "wall_s": wall, "result": result,
            "stderr": done.stderr[-2000:] if done.returncode else ""}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def report(spec: dict, runs: dict[str, list[dict]], trace: int) -> str:
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    lines = [
        f"Runs per workload: {max(len(v) for v in runs.values())}, "
        f"--seconds {spec['run_seconds']}, --trace {trace}; "
        f"{os.cpu_count()} CPUs, Python {platform.python_version()}.",
        "",
        "| workload | metric | median | q1 | q3 | spread | bound | spread/bound |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for workload, rows in runs.items():
        good = [row["result"] for row in rows if row["result"] and row["result"]["correct"]]
        if len(good) < 2:
            lines.append(f"| {workload} | (fewer than two correct runs) | | | | | | |")
            continue
        for name in good[0]["metrics"]:
            stats = summarize([result["metrics"][name]["value"] for result in good])
            bound = bounds.get(name) if not trace else None
            ratio = f"{stats['spread'] / bound:.2f}" if bound else ""
            lines.append(
                f"| {workload} | {name} | {stats['median']:.6g} | {stats['q1']:.6g} | "
                f"{stats['q3']:.6g} | {stats['spread']:.4f} | {bound or ''} | {ratio} |"
            )
        walls = [row["wall_s"] for row in rows]
        failed = sum(result["failed"] for result in good)
        attempted = sum(result["attempted"] for result in good)
        lines.append(
            f"| {workload} | (run wall s; failed/attempted) | {statistics.median(walls):.1f} | "
            f"{min(walls):.1f} | {max(walls):.1f} | {failed}/{attempted} | | |"
        )
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the Markdown report here")
    parser.add_argument("--json", type=Path, default=ROOT / ".perfbench" / "steadiness.json")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    runs: dict[str, list[dict]] = {}
    for workload in args.workload or names:
        runs[workload] = []
        for index in range(args.runs):
            row = run_once(workload, args.seed_base + index, spec["run_seconds"], args.trace)
            runs[workload].append(row)
            verdict = row["result"]["correct"] if row["result"] else f"exit {row['exit']}"
            print(f"{workload} seed {row['seed']}: {verdict} in {row['wall_s']:.1f} s",
                  file=sys.stderr, flush=True)
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(runs, indent=1))
    text = report(spec, runs, args.trace)
    print(text, end="")
    if args.out:
        args.out.write_text(text)
    ok = all(row["result"] and row["result"]["correct"] for rows in runs.values() for row in rows)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
