"""Complete-flag-variety tower, its integrals, and a localization oracle.

The variety of complete flags in a (k+1)-dimensional space is realized as a
k-level tower of projective bundles over a point; integrals of monomials in
the line-bundle classes c_1..c_k are then coefficients of a Vandermonde
product.  A torus-fixed-point summation provides a third, fully independent
way to evaluate the same integrals.  Its denominator at an ordering w is
sign(w) V(t), V(t) the Vandermonde determinant of the weights, so the sum is
the bialternant det(t_j^e_p) / V(t) with e = (0, a_k, ..., a_1) (Macdonald,
*Symmetric Functions and Hall Polynomials*, I.3).  Each numerator
determinant is taken over the integers: scaling column j by q_j^max(e), q_j
the denominator of t_j, clears every fraction, fraction-free (Bareiss)
elimination computes the integer determinant, and one division by
prod_j q_j^max(e) undoes the scaling.  The weights and V(t) depend only on
(k, trials, seed), so one process draws them once per such key and keeps
the last few in a small memo; ``verify`` then pays for them once per k, not
once per exponent tuple.
"""

from __future__ import annotations

import math
import random
import sys
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache

from .series import PIVOT, LaurentPoly, Monomial, RationalFunction1V
from .tower import (
    TowerFactor,
    TowerLevel,
    TowerSpec,
    _check_exponents,
    pushforward_monomial,
    tower_variable,
)

LOCALIZATION_SEED = 20260811


class LocalizationDisagreement(RuntimeError):
    """Raised when independent fixed-point trials fail to agree exactly."""


def _check_count(name: str, value: int) -> int:
    """``value`` as a count: an int in 1..sys.maxsize that is not a ``bool``.

    No tuple holds more than ``sys.maxsize`` entries.  A larger int is not
    echoed, since it may have more digits than ``str`` converts.
    """
    if not isinstance(value, int) or isinstance(value, bool) or not 1 <= value <= sys.maxsize:
        got = "" if isinstance(value, int) and abs(value) > sys.maxsize else f", got {value!r}"
        raise ValueError(f"{name}: expected an integer in 1..{sys.maxsize}{got}")
    return value


def flag_tower(k: int) -> TowerSpec:
    """The k-level projective-bundle tower of the complete flag variety.

    Level i carries one factor 1/u^(k+1) with zero twists and, for each
    lower level j, a factor u with twist -1 in slot j, so the single-step
    Segre series is (u - c_1)...(u - c_{i-1}) / u^(k+1).
    """
    _check_count("k", k)
    point = RationalFunction1V(1, LaurentPoly.variable(PIVOT, k + 1))
    linear = RationalFunction1V(LaurentPoly.variable(PIVOT), 1)
    levels = []
    for i in range(1, k + 1):
        factors = [TowerFactor((0,) * (i - 1), point)]
        for j in range(1, i):
            twists = tuple(-1 if t == j else 0 for t in range(1, i))
            factors.append(TowerFactor(twists, linear))
        levels.append(TowerLevel(tuple(factors)))
    return TowerSpec(tuple(levels))


def vandermonde_product(k: int) -> LaurentPoly:
    """Exact expansion of the product of (u_j - u_i) over all i < j."""
    result = LaurentPoly.one()
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            result = result * (
                LaurentPoly.variable(tower_variable(j))
                - LaurentPoly.variable(tower_variable(i))
            )
    return result


def _vandermonde_target(k: int, exps: Sequence[int]) -> Monomial:
    """The monomial prod u_i^(k - a_i) whose Vandermonde coefficient is the integral."""
    return Monomial((tower_variable(i + 1), k - a) for i, a in enumerate(exps))


def vandermonde_integral(k: int, exponents: Sequence[int]) -> Fraction:
    """Coefficient of prod u_i^(k - a_i) in the expanded Vandermonde product."""
    exps = _check_exponents("exponents", exponents, _check_count("k", k))
    return vandermonde_product(k).coefficient(_vandermonde_target(k, exps))


def flag_integral(k: int, exponents: Sequence[int]) -> Fraction:
    """Integral of c_1^a_1 ... c_k^a_k over the flag variety, via the tower."""
    exps = _check_exponents("exponents", exponents, _check_count("k", k))
    value = pushforward_monomial(flag_tower(k), exps)
    return value.constant_value()


def localization_integral(
    k: int,
    exponents: Sequence[int],
    trials: int = 3,
    seed: int = LOCALIZATION_SEED,
) -> Fraction:
    """The same flag integral by torus-fixed-point summation.

    Each trial draws distinct random rational weights t_0..t_k, after the
    previous trial's, from ``random.Random(seed)``; the sum over orderings w
    of prod_i t_w(k+1-i)^a_i / prod_{p<q} (t_w(q) - t_w(p)) has
    denominators sign(w) V(t), V(t) = prod_{p<q} (t_q - t_p) = det(t_j^p),
    so it equals det(t_j^e_p) / V(t) with e = (0, a_k, ..., a_1).  All trials
    must agree exactly; disagreement raises ``LocalizationDisagreement``.
    The weights and V(t) of an int ``seed`` come from a memo of the last few
    (k, trials, seed) keys, so only the numerator determinant is per call.

    Exponents of total degree above the dimension k(k+1)/2 are refused: there
    the sum is a non-constant polynomial in the weights, not an integral.
    """
    exps = _check_exponents("exponents", exponents, _check_count("k", k))
    _check_count("trials", trials)
    dim = k * (k + 1) // 2
    if sum(exps) > dim:
        raise ValueError(f"exponents: total degree must be at most the flag dimension {dim}")
    powers = (0,) + exps[::-1]
    # random.Random(None) draws differently on every call, so only int seeds are kept.
    draw = _fixed_points if isinstance(seed, int) else _fixed_points.__wrapped__
    values = [_alternant(ts, powers) / vandermonde for ts, vandermonde in draw(k, trials, seed)]
    if any(v != values[0] for v in values):
        raise LocalizationDisagreement(
            f"fixed-point trials disagree for k={k}, exponents={exps}: {values}"
        )
    return values[0]


@lru_cache(maxsize=16)
def _fixed_points(
    k: int, trials: int, seed: int
) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
    """Per trial, the weights t_0..t_k and V(t) = prod_{p<q} (t_q - t_p)."""
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        ts = tuple(_draw_distinct(rng, k + 1))
        out.append((ts, math.prod(tq - tp for p, tp in enumerate(ts) for tq in ts[p + 1 :])))
    return tuple(out)


def _alternant(ts: Sequence[Fraction], powers: Sequence[int]) -> Fraction:
    """det(t_j^e_p), exactly, with integer arithmetic only.

    Column j times q_j^E, q_j the denominator of t_j and E = max(e), has the
    integer entries n_j^e_p q_j^(E - e_p).  Fraction-free (Bareiss)
    elimination takes their determinant, swapping in a lower row when a
    pivot is zero: every division in it is exact (Bareiss, Math. Comp. 22,
    1968).  Dividing by prod_j q_j^E gives det(t_j^e_p).
    """
    top = max(powers)
    fracs = [(t.numerator, t.denominator) for t in ts]
    rows = [[n**e * d ** (top - e) for n, d in fracs] for e in powers]
    sign, prev = 1, 1
    for c in range(len(rows) - 1):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            rows[c], rows[p], sign = rows[p], rows[c], -sign
        head = rows[c][c:]
        for row in rows[c + 1 :]:
            lead = row[c]
            row[c:] = [(x * head[0] - lead * y) // prev for x, y in zip(row[c:], head)]
        prev = head[0]
    return Fraction(sign * rows[-1][-1], math.prod(d for _, d in fracs) ** top)


def _draw_distinct(rng: random.Random, count: int) -> list[Fraction]:
    # Numerators and denominators bounded by 10^3; coincident draws are retried.
    out: list[Fraction] = []
    while len(out) < count:
        t = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
        if t not in out:
            out.append(t)
    return out
