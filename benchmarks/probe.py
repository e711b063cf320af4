"""Machine-speed probe, so that timings can be given in reference seconds.

On a shared machine the speed of one core drifts by tens of percent over
seconds to minutes as other tenants come and go; identical work measured
minutes apart differs by more than any bound worth setting.  The drift
slows pure-Python work of every kind alike, so the runs time this fixed
workload (dict updates on tuple keys and ``Fraction`` sums, the operations
the program's kernel is made of) between jobs, and scale each job's time by
``REFERENCE_S`` over the probe time measured around it.  A reference second
is thus a second on a machine where the probe takes ``REFERENCE_S``.

The probe shares no code with the program, so no change to the program can
change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: Probe seconds that define a reference second (about what the probe takes
#: on an unloaded core of the machine that built ``pools.json``).
REFERENCE_S = 0.0075

#: A run probes again once this many seconds of jobs have run since the last
#: probe.
EVERY_S = 0.3


def probe() -> float:
    """Seconds for one pass of the fixed workload."""
    start = time.perf_counter()
    terms: dict[tuple, int] = {}
    acc = Fraction(0)
    for i in range(3000):
        key = (i % 97, i % 13, "x")
        terms[key] = terms.get(key, 0) + i
        acc += Fraction(i % 7 + 1, i % 5 + 1)
    return time.perf_counter() - start


def normalize(job_s: list[float], probes: list[tuple[int, float]]) -> list[float]:
    """Job times in reference seconds.

    ``probes`` holds (number of jobs run before the probe, probe seconds),
    starting before the first job and ending after the last; each job is
    scaled by the mean of the probes on either side of it.
    """
    out = []
    p = 0
    for idx, seconds in enumerate(job_s):
        while p + 1 < len(probes) and probes[p + 1][0] <= idx:
            p += 1
        before = probes[p][1]
        after = probes[p + 1][1] if p + 1 < len(probes) else before
        out.append(seconds * REFERENCE_S * 2 / (before + after))
    return out
