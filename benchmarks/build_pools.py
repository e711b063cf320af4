"""Build ``pools.json``: every workload's input pool with reference costs.

Usage, from the root of a checkout::

    python3 benchmarks/build_pools.py [--out FILE] [--spec-dir DIR]

Each pool member runs once through ``segre_towers.cli.main`` in this
process, and its wall time becomes its reference cost, which the runs use
only to stratify their draws (see ``inputs.py``).  A member that fails its
correctness check, or runs longer than ``LIMIT_S`` (a run must end well
within the three minutes a benchmark run may take), is left out of the pool
and listed under ``excluded`` with the reason, as is a member whose
reference cost exceeds ``MAX_REF_S``: one such job would be half of a
20-second run, and whether a run drew it would decide its metrics.  Each
k = 8 flag member also runs once more in a fresh process to record its peak
resident set, which ``inputs.py`` bands on so that the memory-heaviest
products are drawn as regularly as the slowest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import inputs  # noqa: E402
import worker  # noqa: E402

LIMIT_S = 30
MAX_REF_S = 10.0

SIZES = {"flag-7": 320, "flag-8": 160, "tower": 400, "verify": 64}


PEAK_RSS_SCRIPT = (
    "import contextlib, io, resource, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import segre_towers.cli as cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    cli.main(sys.argv[2:])\n"
    "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)\n"
)


def peak_rss_mb(argv) -> float:
    """Peak resident set, in MB, of a fresh process that runs one job."""
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_SCRIPT, SRC, *argv],
        capture_output=True, text=True, check=True, timeout=LIMIT_S + 30,
    )
    return float(proc.stdout)


class _Overrun(Exception):
    pass


def _alarm(signum, frame):
    raise _Overrun(f"longer than {LIMIT_S} s")


def _timed(main, argv) -> tuple[float, int | None, str, str]:
    signal.alarm(LIMIT_S)
    try:
        return worker.run_job(main, argv)
    finally:
        signal.alarm(0)


def build_pool(name: str, main, spec_dir: str) -> dict:
    items, costs, bands, excluded = [], [], [], []

    def keep(item, seconds: float, why: str | None, band: list[float] | None = None) -> None:
        if not why and seconds > MAX_REF_S:
            why = f"reference cost {seconds:.1f} s is over {MAX_REF_S} s"
        if why:
            excluded.append([item, why.strip().splitlines()[-1]])
        else:
            items.append(item)
            costs.append(seconds)
            bands.append(band)

    if name.startswith("flag-"):
        k = int(name.split("-")[1])
        for exps in inputs.flag_candidates(k, SIZES[name]):
            value = inputs.arrangement_sign([k - a for a in exps])
            job = inputs.Job(tuple(inputs.flag_argv(exps)), "flag", k, str(value))
            seconds, code, out, err = _timed(main, job.argv)
            why = err if code != 0 else inputs.check_flag(job, out)
            band = [seconds, peak_rss_mb(job.argv)] if k == 8 and not why else None
            keep(list(exps), seconds, why, band)
    elif name == "tower":
        for index in range(SIZES[name]):
            doc, orders, aux_orders = inputs.tower_item(index)
            path = os.path.join(spec_dir, f"tower-{index}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            runs = [
                _timed(main, inputs.tower_argv(path, orders, aux_orders, method))
                for method in ("closed", "stepwise")
            ]
            why = next((r[3] for r in runs if r[1] != 0), None)
            if not why:
                why = inputs.check_tower_pair(runs[0][2], runs[1][2])[0]
            pair = sorted((runs[0][0], runs[1][0]), reverse=True)
            keep(index, sum(pair), why, pair)
    elif name == "verify":
        for seed in inputs.verify_candidates(SIZES[name]):
            seconds, code, out, err = _timed(main, inputs.verify_argv(seed))
            keep(seed, seconds, err if code != 0 else inputs.check_verify(out))
    else:
        raise ValueError(f"unknown pool {name!r}")
    pool = {"items": items, "ref_s": costs, "excluded": excluded}
    if name in ("flag-8", "tower"):
        pool["band"] = bands
    return pool


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=inputs.POOLS_FILE)
    parser.add_argument("--spec-dir", default=os.path.join(".bench_build", "pool-specs"))
    args = parser.parse_args()
    os.makedirs(args.spec_dir, exist_ok=True)
    signal.signal(signal.SIGALRM, _alarm)
    import segre_towers.cli as cli

    doc = {
        "provenance": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            "built": time.strftime("%Y-%m-%d"),
        }
    }
    for name in SIZES:
        start = time.perf_counter()
        doc[name] = build_pool(name, cli.main, args.spec_dir)
        print(f"{name}: {len(doc[name]['items'])} kept, {len(doc[name]['excluded'])} "
              f"excluded, {time.perf_counter() - start:.1f} s", file=sys.stderr)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
