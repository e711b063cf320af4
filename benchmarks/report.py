"""Run the benchmark over several seeds and print every metric per workload.

Usage, from the root of a checkout::

    python3 benchmarks/report.py [--workloads W ...] [--seeds N ...]
        [--trace] [--out FILE]

For each workload and seed it runs ``benchmarks/run.py`` once, for the
``run_seconds`` of ``BENCHMARK.json``, and reads the JSON on its last line.
It prints, per workload and metric, the unit, the median, the quartiles and the spread (interquartile range over median, as
``statistics.quantiles(values, n=4)`` gives the quartiles), plus the
failed-job ratio.  ``--out`` also writes all of it, each run's values
included, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402


def bench_json(path: str = "BENCHMARK.json") -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def one_run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*", default=list(inputs.WORKLOADS))
    parser.add_argument("--seeds", nargs="*", type=int, default=[1])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    seconds = bench_json()["run_seconds"]

    report = {"seconds": seconds, "trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            runs.append(one_run(workload, seed, seconds, args.trace))
            print(f"# {workload} seed {seed} done", file=sys.stderr, flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": first["unit"], "values": values, **spread(values)}
        report["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "failed_ratio": failed / attempted,
            "metrics": metrics,
        }
        print(f"\n== {workload}: {len(runs)} runs, {attempted} jobs, "
              f"failed_ratio {failed / attempted:.4f}")
        print(f"{'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
        for name, row in metrics.items():
            print(f"{name:40s} {row['unit']:6s} {row['median']:12.6g} {row['q1']:12.6g} "
                  f"{row['q3']:12.6g} {row['spread']:8.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
