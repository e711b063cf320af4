"""Seeded inputs, job plans and correctness gates for the three workloads.

Nothing here imports the program: inputs are argv lists and JSON spec
documents, and the gates read only the captured stdout of a job.

Every workload draws its jobs from a fixed *pool* of inputs whose reference
cost (seconds for one job at the commit that built ``pools.json``) is
recorded beside it.  Per-job costs inside one pool span two to three orders
of magnitude, so a plain random draw would make the work of a run depend on
the seed far more than any change to the program would.  A run therefore
draws by proportional stratified sampling: the pool is cut into bands of
equal width in log reference cost (k = 8 tuples on a grid over cost and
peak memory, towers over the costs of their two jobs), each band receives a
fixed share of the run's draws in proportion to its size, and the seed
chooses only *which* members of each band run.  Every seed thus gets the
same mix of cheap and expensive jobs, tail included, while the concrete
inputs differ.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("flag-deep", "tower-corpus", "verify-sweep")

POOLS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pools.json")

#: Bands per key, per pool.  Every member's first key is its reference cost.
#: A k = 8 flag member also has its peak resident set in MB, since the
#: memory-heaviest products are not the slowest ones; a tower member has the
#: reference costs of the dearer and the cheaper job of its closed/stepwise
#: pair, since a run's slowest single jobs decide its ``job_tail_s``.  With
#: cost bands alone, which of those members a seed drew spread
#: ``peak_rss_mb`` and ``job_tail_s`` beyond their bounds (see README.md).
BANDS = {"flag-7": (40,), "flag-8": (40, 4), "tower": (20, 20), "verify": (40,)}

#: Share of a run's reference seconds given to each pool of a workload.
POOL_SHARES = {
    "flag-deep": {"flag-7": 0.4, "flag-8": 0.6},
    "tower-corpus": {"tower": 1.0},
    "verify-sweep": {"verify": 1.0},
}

#: Pool generators' own seeds: the pools never change with the run seed.
POOL_SEED = 20111010

TOWER_MAX_K = 4
VERIFY_MAX_K = 4


# -- pool members ------------------------------------------------------------


def flag_candidates(k: int, count: int) -> list[tuple[int, ...]]:
    """Distinct exponent tuples of total degree k(k+1)/2, alternating between
    permutations of 1..k (value +-1) and other tuples with entries in 0..k
    (value 0)."""
    rng = random.Random(f"{POOL_SEED}:flag:{k}")
    dim = k * (k + 1) // 2
    ident = list(range(1, k + 1))
    out: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    while len(out) < count:
        if len(out) % 2 == 0:
            perm = ident[:]
            rng.shuffle(perm)
            cand = tuple(perm)
        else:
            cand = tuple(rng.randint(0, k) for _ in range(k))
            if sum(cand) != dim or sorted(cand) == ident:
                continue
        if cand not in seen:
            seen.add(cand)
            out.append(cand)
    return out


def _coeff(rng: random.Random) -> list[int]:
    value = Fraction(rng.choice([n for n in range(-3, 4) if n]), rng.randint(1, 3))
    return [value.numerator, value.denominator]


def tower_item(index: int) -> tuple[dict, list[int], dict[str, int]]:
    """Pool tower ``index``: (spec document, tower orders, aux orders).

    Draws from the same distribution as ``segre_towers.random_tower_spec``
    with ``max_k=4`` (and its other defaults), with orders in 0..2 and aux
    orders in 0..1 as ``verify`` uses, but writes the spec-file document
    directly so that the inputs do not change when the library does.
    """
    rng = random.Random(f"{POOL_SEED}:tower:{index}")
    k = rng.randint(1, TOWER_MAX_K)
    levels = []
    for i in range(1, k + 1):
        factors = []
        for _ in range(rng.randint(1, 3)):
            twists = [rng.randint(-2, 2) for _ in range(i - 1)]
            num_exps = rng.sample(range(-3, 4), rng.randint(1, 3))
            q_num = [[e, *_coeff(rng)] for e in num_exps]
            lead = rng.randint(0, 3)
            q_den = [[lead, 1, 1]]
            for e in rng.sample(range(-3, lead), rng.randint(0, 2)):
                q_den.append([e, *_coeff(rng)])
            factors.append({"m": twists, "q_num": q_num, "q_den": q_den})
        aux = [f"w{i}_{t}" for t in range(rng.randint(0, 2))]
        levels.append({"factors": factors, "aux": aux})
    doc = {"k": k, "base_generators": [], "levels": levels}
    orders = [rng.randint(0, 2) for _ in range(k)]
    aux_orders = {name: rng.randint(0, 1) for lvl in levels for name in lvl["aux"]}
    return doc, orders, aux_orders


def verify_candidates(count: int) -> list[int]:
    """Distinct ``verify --seed`` values."""
    rng = random.Random(f"{POOL_SEED}:verify")
    return rng.sample(range(1, 10**6), count)


# -- argv --------------------------------------------------------------------


def flag_argv(exps: tuple[int, ...]) -> list[str]:
    return ["flag-integral", "--k", str(len(exps)), "--exps", ",".join(map(str, exps))]


def tower_argv(spec_path: str, orders, aux_orders, method: str) -> list[str]:
    argv = ["tower-segre", spec_path, "--orders", ",".join(map(str, orders))]
    if aux_orders:
        argv += ["--aux-orders", ",".join(f"{n}={b}" for n, b in aux_orders.items())]
    return argv + ["--method", method, "--format", "json"]


def verify_argv(seed: int) -> list[str]:
    # --towers 0: verify's random closed-versus-stepwise corpus is what
    # tower-corpus measures, and its cost varied 2.5-12 s with the seed;
    # --trials 1: one localization trial per integral.  Both give about
    # 1 s per job, so a run has enough jobs for a tail with ten beyond it.
    return ["verify", "--max-k", str(VERIFY_MAX_K), "--towers", "0", "--trials", "1",
            "--format", "json", "--seed", str(seed)]


# -- stratified draw ---------------------------------------------------------


def log_bands(keys: list[list[float]], bands: tuple[int, ...]) -> list[list[int]]:
    """Pool indices grouped into the cells of a grid that is equal-width in
    the log of each key (``bands[d]`` cells along key d), between the pool's
    least and greatest value."""
    edges = [
        (math.log(min(col)), (math.log(max(col)) - math.log(min(col))) / per or 1.0, per)
        for col, per in zip(zip(*keys), bands)
    ]
    cells: dict[tuple[int, ...], list[int]] = {}
    for idx, key in enumerate(keys):
        cell = tuple(
            min(int((math.log(v) - lo) / width), per - 1)
            for v, (lo, width, per) in zip(key, edges)
        )
        cells.setdefault(cell, []).append(idx)
    return [cells[c] for c in sorted(cells)]


def allocate(sizes: list[int], draws: int) -> list[int]:
    """Largest-remainder split of ``draws`` in proportion to ``sizes``."""
    total = sum(sizes)
    draws = min(draws, total)
    quotas = [draws * s / total for s in sizes]
    alloc = [int(q) for q in quotas]
    order = sorted(range(len(sizes)), key=lambda b: (-(quotas[b] - alloc[b]), b))
    for b in order[: draws - sum(alloc)]:
        alloc[b] += 1
    return alloc


def stratified_draw(members: list[list[int]], draws: int, rng: random.Random) -> list[int]:
    """Pool indices for one run: a seeded choice inside fixed band quotas."""
    alloc = allocate([len(m) for m in members], draws)
    picked: list[int] = []
    for band, count in zip(members, alloc):
        picked.extend(rng.sample(band, count))
    return sorted(picked)


def draws_for(seconds: float, members: list[list[int]], costs: list[float]) -> int:
    """The fewest draws whose expected reference cost reaches ``seconds`` (all
    of the pool if none does)."""
    means = [sum(costs[i] for i in m) / len(m) if m else 0.0 for m in members]
    sizes = [len(m) for m in members]
    for draws in range(1, len(costs) + 1):
        expected = sum(n * mean for n, mean in zip(allocate(sizes, draws), means))
        if expected >= seconds:
            return draws
    return len(costs)


# -- plans -------------------------------------------------------------------


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output is checked against."""

    argv: tuple[str, ...]
    kind: str  # "flag", "tower" or "verify"
    depth: int  # levels of the tower the job pushes forward (max k for verify)
    expect: str = ""  # flag: the exact value the output must show
    group: str = ""  # tower: pool index, shared by the closed and stepwise jobs


def load_pools(path: str = POOLS_FILE) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def arrangement_sign(values) -> int:
    """Sign of ``values`` as an arrangement of 0..n-1, or 0 if it is not one."""
    vals = list(values)
    if sorted(vals) != list(range(len(vals))):
        return 0
    inversions = sum(
        1 for i in range(len(vals)) for j in range(i + 1, len(vals)) if vals[i] > vals[j]
    )
    return -1 if inversions % 2 else 1


def build_plan(
    workload: str, seed: int, seconds: float, pools: dict, spec_dir: str
) -> tuple[list[Job], dict[str, dict]]:
    """Jobs for one run, in seeded order, plus the spec documents to write.

    ``spec_dir`` is where the run's spec files will live; the returned
    mapping goes from file path to document and is written by the caller.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    jobs: list[Job] = []
    specs: dict[str, dict] = {}
    for pool_name, share in POOL_SHARES[workload].items():
        pool = pools[pool_name]
        keys = pool.get("band") or [[c] for c in pool["ref_s"]]
        members = log_bands(keys, BANDS[pool_name])
        draws = draws_for(seconds * share, members, pool["ref_s"])
        picked = stratified_draw(members, draws, rng)
        for idx in picked:
            item = pool["items"][idx]
            if workload == "flag-deep":
                exps = tuple(item)
                k = len(exps)
                value = arrangement_sign([k - a for a in exps])
                jobs.append(Job(tuple(flag_argv(exps)), "flag", k, str(value)))
            elif workload == "tower-corpus":
                doc, orders, aux_orders = tower_item(item)
                path = os.path.join(spec_dir, f"tower-{item}.json")
                specs[path] = doc
                for method in ("closed", "stepwise"):
                    argv = tower_argv(path, orders, aux_orders, method)
                    jobs.append(Job(tuple(argv), "tower", doc["k"], group=str(item)))
            else:
                jobs.append(Job(tuple(verify_argv(item)), "verify", VERIFY_MAX_K))
    rng.shuffle(jobs)
    return jobs, specs


# -- correctness gates -------------------------------------------------------


def check_flag(job: Job, stdout: str) -> str | None:
    """None when the printed value equals the sign law's value, else why not."""
    got = stdout.strip()
    if got != job.expect:
        return f"printed {got!r}, sign law gives {job.expect}"
    return None


def check_verify(stdout: str) -> str | None:
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    if not isinstance(doc, dict) or doc.get("passed") is not True:
        return "verify did not report passed: true"
    cases = doc.get("cases")
    if not isinstance(cases, list) or not cases:
        return "verify reported no cases"
    return None


def check_tower_pair(closed_out: str, stepwise_out: str) -> tuple[str | None, bool]:
    """(why the closed and stepwise tables differ or None, table non-empty)."""
    try:
        closed = json.loads(closed_out)
        stepwise = json.loads(stepwise_out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}", False
    if not isinstance(closed, dict) or "rows" not in closed:
        return "closed output has no rows", False
    if closed != stepwise:
        return "closed and stepwise tables differ", bool(closed["rows"])
    return None, bool(closed["rows"])
