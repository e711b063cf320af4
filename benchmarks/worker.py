"""One workload run inside a fresh Python process.

Usage (spawned by ``run.py``; not meant to be run by hand)::

    python3 benchmarks/worker.py ROOT PLAN_FILE RESULT_FILE TRACE DEADLINE_S

It imports ``segre_towers.cli``, runs the jobs of the plan through
``segre_towers.cli.main(argv)`` one at a time with stdout and stderr
captured, checks every output, and writes one JSON document to RESULT_FILE
with the timings, the check results, the peak RSS and, when TRACE is 1, the
spans.  Times are given raw and in reference seconds (see ``probe.py``).
No job starts after DEADLINE_S seconds of jobs; the ones left unrun count
as failed.

Jobs run in one process because a user's CLI call is one process too; the
plan never repeats an argv, so no cache can serve a job from an earlier one.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import probe  # noqa: E402


def run_job(main, argv) -> tuple[float, int | None, str, str]:
    """(seconds, exit code or None, stdout, error) for one ``main(argv)`` call.

    Exit codes and exceptions are recorded, never raised: a failing job is
    counted, it does not stop the run.
    """
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash inside the program is a failed job
        code = None
        error = traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    if code not in (0, None):
        error = err.getvalue().strip() or f"exit code {code}"
    return seconds, code, out.getvalue(), error


def check_jobs(jobs: list[inputs.Job], results: list[tuple]) -> tuple[list[str | None], int, int]:
    """Per-job failure reasons (None = passed), and the tower pairs' counts.

    Returns (reasons, tower pairs checked, pairs with a non-empty table).
    """
    reasons: list[str | None] = []
    for job, (_, code, stdout, error) in zip(jobs, results):
        if code != 0:
            reasons.append(error or f"exit code {code}")
        elif job.kind == "flag":
            reasons.append(inputs.check_flag(job, stdout))
        elif job.kind == "verify":
            reasons.append(inputs.check_verify(stdout))
        else:
            reasons.append(None)
    partner: dict[str, dict[str, int]] = {}
    for pos, job in enumerate(jobs):
        if job.kind == "tower":
            partner.setdefault(job.group, {})[job.argv[job.argv.index("--method") + 1]] = pos
    pairs = nonempty = 0
    for pair in partner.values():
        if len(pair) < 2:  # the run stopped at its deadline between the two
            for pos in pair.values():
                reasons[pos] = reasons[pos] or "partner job not run before the deadline"
            continue
        closed, stepwise = pair["closed"], pair["stepwise"]
        if reasons[closed] or reasons[stepwise]:
            continue
        why, filled = inputs.check_tower_pair(results[closed][2], results[stepwise][2])
        pairs += 1
        nonempty += filled
        if why:
            reasons[closed] = reasons[stepwise] = why
    return reasons, pairs, nonempty


def main(argv: list[str]) -> int:
    root, plan_file, result_file = argv[0], argv[1], argv[2]
    trace, deadline = argv[3] == "1", float(argv[4])
    sys.path.insert(0, os.path.join(root, "src"))
    import segre_towers.cli as cli

    with open(plan_file, "r", encoding="utf-8") as handle:
        jobs = [inputs.Job(**dict(j, argv=tuple(j["argv"]))) for j in json.load(handle)]
    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    results = []
    probes = [(0, probe.probe())]
    since_probe = 0.0
    loop_start = time.perf_counter()
    for job_id, job in enumerate(jobs):
        if time.perf_counter() - loop_start > deadline:
            break
        if tracer:
            tracer.job_id = job_id
        # A user's CLI process starts with a near-empty heap; collecting the
        # previous jobs' garbage first (untimed) keeps the cyclic collector
        # from charging one job for another's leftovers.
        gc.collect()
        results.append(run_job(cli.main, job.argv))
        since_probe += results[-1][0]
        if since_probe >= probe.EVERY_S or job_id == len(jobs) - 1:
            probes.append((len(results), probe.probe()))
            since_probe = 0.0
    if tracer:
        tracer.uninstall()
    if probes[-1][0] < len(results):
        probes.append((len(results), probe.probe()))
    raw_s = [r[0] for r in results]
    job_s = probe.normalize(raw_s, probes)
    unrun = len(jobs) - len(results)
    reasons, pairs, nonempty = check_jobs(jobs[: len(results)], results)
    doc = {
        "wall_s": sum(job_s),
        "job_s": job_s,
        "raw_wall_s": sum(raw_s),
        "raw_job_s": raw_s,
        "probes": probes,
        "output_bytes": [len(r[2].encode()) for r in results],
        "failures": [
            {"argv": list(job.argv), "reason": why}
            for job, why in zip(jobs, reasons)
            if why
        ],
        "unrun": unrun,
        "failed": sum(1 for why in reasons if why) + unrun,
        "tower_pairs": pairs,
        "tower_nonempty": nonempty,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        doc["spans"] = tracer.export()
    with open(result_file, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
