"""Tests of the benchmark's own machinery.

Run from the root of a checkout with ``python3 -m pytest -q benchmarks``.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def synthetic_pools() -> dict:
    """Pools shaped like ``pools.json`` with made-up, widely spread costs."""
    rng = random.Random(5)

    def costs(n):
        return [10 ** rng.uniform(-2.5, 0.5) for _ in range(n)]

    return {
        "flag-7": {"items": [list(t) for t in inputs.flag_candidates(7, 60)], "ref_s": costs(60)},
        "flag-8": {"items": [list(t) for t in inputs.flag_candidates(8, 40)], "ref_s": costs(40)},
        "tower": {"items": list(range(80)), "ref_s": costs(80),
                  "band": [sorted(pair, reverse=True) for pair in zip(costs(80), costs(80))]},
        "verify": {"items": inputs.verify_candidates(20), "ref_s": [3.0 + rng.random() for _ in range(20)]},
    }


def plan_bytes(workload: str, seed: int, spec_dir: str) -> tuple[bytes, dict[str, bytes]]:
    jobs, specs = inputs.build_plan(workload, seed, 20, synthetic_pools(), spec_dir)
    argv = json.dumps([list(job.argv) for job in jobs]).encode()
    files = {os.path.basename(p): json.dumps(doc).encode() for p, doc in specs.items()}
    return argv, files


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload, tmp_path):
    first = plan_bytes(workload, 11, str(tmp_path))
    assert plan_bytes(workload, 11, str(tmp_path)) == first
    assert plan_bytes(workload, 12, str(tmp_path))[0] != first[0]
    if workload == "tower-corpus":
        assert first[1] and plan_bytes(workload, 12, str(tmp_path))[1] != first[1]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_no_argv_repeats_within_a_run(workload, tmp_path):
    jobs, _ = inputs.build_plan(workload, 3, 60, synthetic_pools(), str(tmp_path))
    argvs = [job.argv for job in jobs]
    assert len(set(argvs)) == len(argvs) > 0


def test_pool_generators_are_deterministic():
    assert inputs.flag_candidates(8, 30) == inputs.flag_candidates(8, 30)
    assert inputs.tower_item(17) == inputs.tower_item(17)
    assert inputs.tower_item(17) != inputs.tower_item(18)
    assert inputs.verify_candidates(10) == inputs.verify_candidates(10)


def test_flag_candidates_mix_signs():
    tuples = inputs.flag_candidates(7, 40)
    values = [inputs.arrangement_sign([7 - a for a in t]) for t in tuples]
    assert all(sum(t) == 28 for t in tuples)
    assert values.count(0) == 20 and set(values) == {-1, 0, 1}


def test_stratified_draw_keeps_band_quotas():
    members = inputs.log_bands(synthetic_pools()["tower"]["band"], inputs.BANDS["tower"])
    assert sorted(i for m in members for i in m) == list(range(80))
    quota = inputs.allocate([len(m) for m in members], 25)
    assert sum(quota) == 25
    for seed in range(5):
        picked = inputs.stratified_draw(members, 25, random.Random(seed))
        assert len(set(picked)) == 25
        assert [len(set(picked) & set(m)) for m in members] == quota


def test_tail_percentile():
    values = [float(v) for v in range(1, 101)]
    value, percentile, samples = run.tail(values)
    assert (percentile, samples) == (90.0, 100)
    assert 90.0 <= value <= 91.0  # between the 90th and the 91st of 1..100
    assert run.tail([float(v) for v in range(10)]) is None


def test_hd_quantile_is_a_smoothed_order_statistic():
    values = [float(v) for v in range(1, 102)]
    assert run.hd_quantile(values, 0.5) == pytest.approx(51.0)
    estimates = [run.hd_quantile(values, q) for q in (0.1, 0.5, 0.9)]
    assert estimates == sorted(estimates)
    assert 10.0 < estimates[0] < 12.0 and 90.0 < estimates[2] < 92.0


def test_normalize_scales_each_job_by_the_probes_around_it():
    ref = probe.REFERENCE_S
    # probes: before job 0, after job 1 (machine twice as slow), after job 2
    probes = [(0, ref), (2, 3 * ref), (3, 2 * ref)]
    got = probe.normalize([1.0, 1.0, 5.0], probes)
    assert got == pytest.approx([0.5, 0.5, 2.0])


def test_self_time_on_nested_trace():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    trace = {
        "names": ["cli.main", "series.mul", "series.filter"],
        "name_id": [0, 1, 2, 1],
        "start": [0.0, 1.0, 2.0, 5.0],
        "end": [10.0, 4.0, 3.0, 9.0],
        "parent": [-1, 0, 1, 0],
    }
    assert spans.self_times(trace["start"], trace["end"], trace["parent"]) == [3.0, 2.0, 1.0, 4.0]
    summary = spans.summarize(trace)
    assert summary["series.mul"] == {"calls": 2, "self_s": 6.0, "total_s": 7.0}
    assert spans.layer_self(summary) == {"series": 7.0, "tower": 0.0, "flag": 0.0, "cli": 3.0}


def test_tracer_patches_every_binding_and_restores_them():
    import segre_towers
    from segre_towers import cli, flag, series, tower

    originals = (tower.pushforward_monomial, flag.pushforward_monomial,
                 segre_towers.pushforward_monomial, series.LaurentPoly.__mul__)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert flag.pushforward_monomial is tower.pushforward_monomial is not originals[0]
        code = cli.main(["flag-integral", "--k", "2", "--exps", "1,2"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert (tower.pushforward_monomial, flag.pushforward_monomial,
            segre_towers.pushforward_monomial, series.LaurentPoly.__mul__) == originals
    summary = spans.summarize(tracer.export())
    assert summary["tower.pushforward_monomial"]["calls"] == 1
    assert summary["cli.main"]["calls"] == 1 and summary["series.mul"]["calls"] > 0
    assert tracer.counts["series.mul.pairs"] > 0


def test_permutation_count_follows_trials_given_by_keyword():
    import math

    from segre_towers import cli

    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(["verify", "--max-k", "2", "--towers", "0", "--trials", "1",
                         "--format", "json"])
    finally:
        tracer.uninstall()
    assert code == 0
    expected = sum(len(cli.flag_exponent_tuples(k)) * math.factorial(k + 1) for k in (1, 2))
    assert tracer.counts["flag.localization.permutations"] == expected


# -- correctness gates ----------------------------------------------------------


def test_flag_gate_rejects_wrong_value():
    job = inputs.Job(("flag-integral",), "flag", 2, "-1")
    assert inputs.check_flag(job, "-1\n") is None
    assert inputs.check_flag(job, "1\n") is not None
    assert inputs.check_flag(job, "") is not None


def test_verify_gate_rejects_failed_empty_or_garbled():
    good = {"passed": True, "cases": [{"name": "x", "passed": True, "detail": ""}]}
    assert inputs.check_verify(json.dumps(good)) is None
    assert inputs.check_verify(json.dumps(dict(good, passed=False))) is not None
    assert inputs.check_verify(json.dumps(dict(good, cases=[]))) is not None
    assert inputs.check_verify(json.dumps(good)[:-1]) is not None


def test_tower_gate_rejects_differing_tables():
    table = {"header": ["u1"], "rows": [{"exponents": [-1], "value": "1/2"}]}
    assert inputs.check_tower_pair(json.dumps(table), json.dumps(table)) == (None, True)
    corrupted = {"header": ["u1"], "rows": [{"exponents": [-1], "value": "1/3"}]}
    assert inputs.check_tower_pair(json.dumps(table), json.dumps(corrupted))[0] is not None
    assert inputs.check_tower_pair("{", json.dumps(table))[0] is not None
    empty = {"header": ["u1"], "rows": []}
    assert inputs.check_tower_pair(json.dumps(empty), json.dumps(empty)) == (None, False)


def test_jobs_fail_on_exit_code_or_exception_without_stopping():
    def fake_main(argv):
        if argv[0] == "boom":
            raise RuntimeError("boom")
        if argv[0] == "exit":
            return 1
        print("-1")
        return 0

    jobs = [
        inputs.Job(("boom",), "flag", 2, "-1"),
        inputs.Job(("exit",), "flag", 2, "-1"),
        inputs.Job(("ok",), "flag", 2, "-1"),
        inputs.Job(("ok", "wrong"), "flag", 2, "1"),
    ]
    results = [worker.run_job(fake_main, job.argv) for job in jobs]
    reasons, _, _ = worker.check_jobs(jobs, results)
    assert [why is None for why in reasons] == [False, False, True, False]
    assert "RuntimeError" in reasons[0]


def test_tower_pair_corruption_fails_both_jobs():
    table = json.dumps({"header": ["u1"], "rows": [{"exponents": [-1], "value": "1"}]})
    jobs = [
        inputs.Job(("tower-segre", "s", "--method", "closed"), "tower", 1, group="0"),
        inputs.Job(("tower-segre", "s", "--method", "stepwise"), "tower", 1, group="0"),
    ]
    results = [(0.1, 0, table, ""), (0.1, 0, table.replace('"1"', '"2"'), "")]
    reasons, pairs, nonempty = worker.check_jobs(jobs, results)
    assert pairs == 1 and nonempty == 1
    assert reasons[0] is not None and reasons[1] is not None
