"""The repository benchmark: one run of one workload.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload {flag-deep,tower-corpus,verify-sweep}
        --seed N --seconds S --trace {0,1}

A run draws its jobs from ``--seed`` (see ``inputs.py``), sized so that
their reference cost is about ``--seconds``, writes the spec files, and runs
the jobs in one fresh worker process, closed loop, one at a time.  Set-up
time is the median over several fresh processes of ``import
segre_towers.cli``, each scaled by the time the same process then takes
to import a fixed set of standard-library modules (see ``SETUP_SAMPLES``
and ``IMPORT_YARDSTICK``).  Every job time reported is in reference
seconds: measured seconds scaled by the machine's speed at that moment
(see ``probe.py``).  With ``--trace 1`` the same jobs also run in a
second fresh process with every layer traced, and the per-layer metrics
replace the end-to-end ones.

Everything before the last line of stdout is for people: provenance, the
plan, and the metrics as a table.  The last line is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
record, failures included, is also written to ``result.json`` under
``.bench_build/runs/``.

Runs are made on whatever machine runs them, with no CPU pinning and no
cache control; on a shared machine other tenants add noise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import spans  # noqa: E402

#: Fresh processes that time ``import segre_towers.cli`` for ``setup_s``.
#: They run with ``python -S``: without ``site``, whatever ``.pth`` files the
#: interpreter's site-packages hold add no start-up time and preload none of
#: the program's standard-library imports.
SETUP_SAMPLES = 21

#: Standard-library modules that each set-up sample imports right after the
#: program, as its yardstick: the same kind of work (finding, unmarshalling
#: and executing modules), which no change to the program changes, so that
#: their ratio does not drift with the machine's speed the way a timing in
#: seconds does.
IMPORT_YARDSTICK = "email.message, http.client, xml.dom.minidom, unittest, logging, tarfile, zipfile, csv"

#: Seconds the yardstick imports take, by definition, in reference seconds
#: (about what they take from cached bytecode on the machine that built
#: ``pools.json``).
IMPORT_YARDSTICK_S = 0.07

#: Seconds within which every process of a run has ended; the benchmark as
#: a whole must exit within 180 s.
RUN_BUDGET_S = 160.0

IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import segre_towers.cli\n"
    "middle = time.perf_counter()\n"
    f"import {IMPORT_YARDSTICK}\n"
    "print((middle - start) / (time.perf_counter() - middle))\n"
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "series.mul.calls": "count",
    "series.mul.pairs": "count",
    "series.mul.self_s": "s",
    "series.mul.us_per_pair": "us",
    "series.mul.merge_ratio": "ratio",
    "series.shift_expand.self_s": "s",
    "series.shift_expand.out_terms": "count",
    "series.descending_expand.self_s": "s",
    "series.filter.kept_ratio": "ratio",
    "series.coefficient_of.self_s": "s",
    "tower.derive.shift_cap_sum": "count",
    "tower.derive.degree_cap": "count",
    "tower.closed_formula_product.self_s": "s",
    "tower.level_growth": "ratio",
    "tower.individual_segre.calls": "count",
    "tower.individual_segre.self_s": "s",
    "tower.stepwise_pushforward.self_s": "s",
    "tower.validate_tower.calls": "count",
    "tower.window_terms": "count",
    "flag.localization_integral.self_s": "s",
    "flag.localization.permutations": "count",
    "flag.vandermonde_product.calls": "count",
    "flag.vandermonde_product.self_s": "s",
    "flag.flag_integral.self_s": "s",
    "cli.load_tower_spec.self_s": "s",
    "cli.format.self_s": "s",
    "cli.run_verify.self_s": "s",
    "cli.output_bytes": "count",
    "share.series": "ratio",
    "share.tower": "ratio",
    "share.flag": "ratio",
    "share.cli": "ratio",
    "check.tower_nonempty_share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of all order statistics weighted by the Beta((n+1)q, (n+1)(1-q))
    probability of their rank interval (midpoint rule), so that one job's
    noise moves the estimate less than it moves a single order statistic.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    logs = [(a - 1) * math.log(x) + (b - 1) * math.log1p(-x)
            for x in ((i + 0.5) / n for i in range(n))]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, samples) at the highest percentile that has at
    least ten samples beyond it; None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    q = (n - 10) / n
    return hd_quantile(values, q), 100.0 * q, n


def level_growth(times_by_depth: dict[int, list[float]]) -> float:
    """Median time at the deepest depth over the median one level less deep."""
    deep = max(times_by_depth, default=0)
    if deep - 1 not in times_by_depth:
        return 0.0
    return statistics.median(times_by_depth[deep]) / statistics.median(
        times_by_depth[deep - 1]
    )


def provenance(root: str, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": git_commit(root),
        "note": "shared, unpinned machine: no CPU pinning, no cache control",
    }


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path, "r", encoding="utf-8") as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:]), "r", encoding="utf-8") as handle:
                head = handle.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


class Runner:
    def __init__(self, root: str, work_dir: str) -> None:
        self.root = root
        self.work_dir = work_dir
        self.started = time.monotonic()
        self.env = dict(
            os.environ,
            PYTHONPYCACHEPREFIX=os.path.join(root, ".bench_build", "pycache"),
            PYTHONHASHSEED="0",
        )
        self.env.pop("PYTHONPATH", None)
        # Imports read cached bytecode, as an installed program's do.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def left(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def python(self, args: list[str], timeout: float) -> str:
        proc = subprocess.run(
            [sys.executable, *args],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
        if proc.returncode != 0:
            raise BenchError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return proc.stdout

    def import_seconds(self) -> float:
        src = os.path.join(self.root, "src")
        ratio = float(self.python(["-S", "-c", IMPORT_TIMER, src], 30.0).strip())
        return ratio * IMPORT_YARDSTICK_S

    def worker(self, plan_file: str, trace: bool, workers_left: int) -> dict:
        result_file = os.path.join(self.work_dir, f"worker-trace{int(trace)}.json")
        deadline = self.left() / workers_left - 15.0
        self.python(
            [os.path.join(HERE, "worker.py"), self.root, plan_file, result_file,
             "1" if trace else "0", f"{deadline:.1f}"],
            deadline + 15.0,
        )
        with open(result_file, "r", encoding="utf-8") as handle:
            return json.load(handle)


def end_to_end(untraced: dict, setup: list[float]) -> tuple[dict, dict]:
    job_s = untraced["job_s"]
    metrics = {"wall_s": untraced["wall_s"], "job_p50_s": statistics.median(job_s)}
    extra = {"job_samples": len(job_s), "setup_samples": setup}
    found = tail(job_s)
    if found:
        metrics["job_tail_s"], extra["job_tail_percentile"], _ = found
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = untraced["peak_rss_mb"]
    return metrics, extra


def per_layer(workload: str, jobs: list, untraced: dict, traced: dict) -> tuple[dict, dict]:
    """The per-layer metrics, and the span summary in reference seconds."""
    trace = traced["spans"]
    # Span times are raw; scale them to reference seconds like the jobs.
    scale = traced["wall_s"] / traced["raw_wall_s"]
    summary = spans.summarize(trace)
    for entry in summary.values():
        entry["self_s"] *= scale
        entry["total_s"] *= scale
    counts = trace["counts"]
    wall = traced["wall_s"]

    def row(name: str) -> dict:
        return summary.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})

    mul = row("series.mul")
    pairs = counts.get("series.mul.pairs", 0)
    kept_in = counts.get("series.filter.terms_in", 0)
    if workload == "verify-sweep":
        growth = level_growth(spans.flag_times_by_k(trace))
    else:
        by_depth: dict[int, list[float]] = {}
        for job, seconds in zip(jobs, untraced["job_s"]):
            by_depth.setdefault(job.depth, []).append(seconds)
        growth = level_growth(by_depth)
    layers = spans.layer_self(summary)
    pairs_checked = untraced["tower_pairs"]
    metrics = {
        "series.mul.calls": mul["calls"],
        "series.mul.pairs": pairs,
        "series.mul.self_s": mul["self_s"],
        "series.mul.us_per_pair": 1e6 * mul["self_s"] / pairs if pairs else 0.0,
        "series.mul.merge_ratio": counts.get("series.mul.out_terms", 0) / pairs if pairs else 0.0,
        "series.shift_expand.self_s": row("series.shift_expand")["self_s"],
        "series.shift_expand.out_terms": counts.get("series.shift_expand.out_terms", 0),
        "series.descending_expand.self_s": row("series.descending_expand")["self_s"],
        "series.filter.kept_ratio": (
            counts.get("series.filter.terms_kept", 0) / kept_in if kept_in else 0.0
        ),
        "series.coefficient_of.self_s": row("series.coefficient_of")["self_s"],
        "tower.derive.shift_cap_sum": counts.get("tower.derive.shift_cap_sum", 0),
        "tower.derive.degree_cap": counts.get("tower.derive.degree_cap", 0),
        "tower.closed_formula_product.self_s": row("tower.closed_formula_product")["self_s"],
        "tower.level_growth": growth,
        "tower.individual_segre.calls": row("tower.individual_segre")["calls"],
        "tower.individual_segre.self_s": row("tower.individual_segre")["self_s"],
        "tower.stepwise_pushforward.self_s": row("tower.stepwise_pushforward")["self_s"],
        "tower.validate_tower.calls": row("tower.validate_tower")["calls"],
        "tower.window_terms": counts.get("tower.window_terms", 0),
        "flag.localization_integral.self_s": row("flag.localization_integral")["self_s"],
        "flag.localization.permutations": counts.get("flag.localization.permutations", 0),
        "flag.vandermonde_product.calls": row("flag.vandermonde_product")["calls"],
        "flag.vandermonde_product.self_s": row("flag.vandermonde_product")["self_s"],
        "flag.flag_integral.self_s": row("flag.flag_integral")["self_s"],
        "cli.load_tower_spec.self_s": row("cli.load_tower_spec")["self_s"],
        "cli.format.self_s": row("cli.format")["self_s"],
        "cli.run_verify.self_s": row("cli.run_verify")["self_s"],
        "cli.output_bytes": sum(traced["output_bytes"]),
        **{f"share.{layer}": layers[layer] / wall for layer in spans.LAYERS},
        "check.tower_nonempty_share": (
            untraced["tower_nonempty"] / pairs_checked if pairs_checked else 0.0
        ),
        "trace.wall_s": wall,
        "trace.overhead_s": wall - untraced["wall_s"],
    }
    return metrics, summary


def parse_args(argv: list[str] | None):
    parser = argparse.ArgumentParser(description="Run one workload of the benchmark.")
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run(args) -> int:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "segre_towers", "cli.py")):
        raise BenchError("src/segre_towers/cli.py not found: run from the root of a checkout")
    pools = inputs.load_pools()
    work_dir = os.path.join(
        root, ".bench_build", "runs", f"{args.workload}-seed{args.seed}-trace{args.trace}"
    )
    shutil.rmtree(work_dir, ignore_errors=True)
    spec_dir = os.path.join(work_dir, "specs")
    os.makedirs(spec_dir)
    jobs, specs = inputs.build_plan(args.workload, args.seed, args.seconds, pools, spec_dir)
    for path, doc in specs.items():
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
    plan_file = os.path.join(work_dir, "plan.json")
    with open(plan_file, "w", encoding="utf-8") as handle:
        json.dump([job.__dict__ for job in jobs], handle)

    runner = Runner(root, work_dir)
    if args.trace:
        untraced = runner.worker(plan_file, False, 2)
        traced = runner.worker(plan_file, True, 1)
        metrics, summary = per_layer(args.workload, jobs, untraced, traced)
        units = PER_LAYER_UNITS
        extra = {"spans_by_name": dict(sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]))}
    else:
        runner.import_seconds()  # compiles the bytecode cache; not a sample
        setup = [runner.import_seconds() for _ in range(SETUP_SAMPLES)]
        untraced = runner.worker(plan_file, False, 1)
        metrics, extra = end_to_end(untraced, setup)
        units = END_TO_END_UNITS
    failed = untraced["failed"]
    attempted = len(jobs)
    record = {
        "provenance": provenance(root, args),
        "plan": {"jobs": attempted, "by_depth": _count_by_depth(jobs)},
        "failed_ratio": failed / attempted,
        "failures": untraced["failures"][:20],
        "tower_pairs_checked": untraced["tower_pairs"],
        "tower_pairs_nonempty": untraced["tower_nonempty"],
        "metrics": metrics,
        **extra,
    }
    with open(os.path.join(work_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for key, value in record["provenance"].items():
        print(f"# {key}: {value}")
    print(f"# jobs: {attempted} {record['plan']['by_depth']}  failed: {failed}  "
          f"failed_ratio: {failed / attempted:.4f}")
    if args.workload == "tower-corpus":
        print(f"# tower pairs checked: {untraced['tower_pairs']}, with a non-empty "
              f"table: {untraced['tower_nonempty']}")
    for failure in untraced["failures"][:5]:
        print(f"# FAILED {' '.join(failure['argv'])}: {failure['reason'][:300]}")
    if args.trace:
        print("# layer shares of the traced wall time (self time per layer):")
        for layer in spans.LAYERS:
            print(f"#   {layer:8s} {metrics['share.' + layer]:7.1%}")
        print(f"#   {'harness':8s} {1 - sum(metrics['share.' + l] for l in spans.LAYERS):7.1%}")
    elif "job_tail_s" in metrics:
        print(f"# job_tail_s is p{extra['job_tail_percentile']:.1f} of "
              f"{extra['job_samples']} jobs")
    else:
        print(f"# job_tail_s left out: {extra['job_samples']} jobs, fewer than 11")
    for name, value in metrics.items():
        print(f"{name:40s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _count_by_depth(jobs) -> dict[str, int]:
    out: dict[str, int] = {}
    for job in jobs:
        key = f"{job.kind}-k{job.depth}"
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        return run(args)
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
