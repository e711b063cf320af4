"""Complete-flag-variety tower, its integrals, and a localization oracle.

The variety of complete flags in a (k+1)-dimensional space is realized as a
k-level tower of projective bundles over a point; integrals of monomials in
the line-bundle classes c_1..c_k are then coefficients of a Vandermonde
product.  A torus-fixed-point summation provides a third, fully independent
way to evaluate the same integrals.  Its denominator at an ordering w is
sign(w) V(t), V(t) the Vandermonde determinant of the weights, so the sum is
the bialternant det(t_j^e_p) / V(t) with e = (0, a_k, ..., a_1) (Macdonald,
*Symmetric Functions and Hall Polynomials*, I.3).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .series import LaurentPoly, Monomial, RationalFunction1V
from .tower import (
    PIVOT,
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
    """``value`` as a count: an int >= 1 that is not a ``bool``."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ValueError(f"{name}: expected an integer >= 1, got {value!r}")
    return value


def flag_tower(k: int) -> TowerSpec:
    """The k-level projective-bundle tower of the complete flag variety.

    Level i carries one factor 1/u^(k+1) with zero twists and, for each
    lower level j, a factor u with twist -1 in slot j, so the single-step
    Segre series is (u - c_1)...(u - c_{i-1}) / u^(k+1).
    """
    _check_count("k", k)
    one = LaurentPoly.one()
    u = LaurentPoly.variable(PIVOT)
    levels = []
    for i in range(1, k + 1):
        factors = [
            TowerFactor(
                (0,) * (i - 1),
                RationalFunction1V(PIVOT, one, LaurentPoly.variable(PIVOT, k + 1)),
            )
        ]
        for j in range(1, i):
            twists = tuple(-1 if t == j else 0 for t in range(1, i))
            factors.append(TowerFactor(twists, RationalFunction1V(PIVOT, u, one)))
        levels.append(TowerLevel(i, tuple(factors)))
    return TowerSpec(k, tuple(levels))


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


def vandermonde_integral(k: int, exponents: Sequence[int]) -> Fraction:
    """Coefficient of prod u_i^(k - a_i) in the expanded Vandermonde product."""
    exps = _check_exponents("exponents", exponents, _check_count("k", k))
    target = Monomial((tower_variable(i + 1), k - a) for i, a in enumerate(exps))
    return vandermonde_product(k).coefficient(target)


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

    Each trial draws distinct random rational weights t_0..t_k; the sum over
    orderings w of prod_i t_w(k+1-i)^a_i / prod_{p<q} (t_w(q) - t_w(p)) has
    denominators sign(w) V(t), V(t) = prod_{p<q} (t_q - t_p) = det(t_j^p),
    so it equals det(t_j^e_p) / V(t) with e = (0, a_k, ..., a_1).  All trials
    must agree exactly; disagreement raises ``LocalizationDisagreement``.
    """
    exps = _check_exponents("exponents", exponents, _check_count("k", k))
    _check_count("trials", trials)
    powers = (0,) + exps[::-1]
    rng = random.Random(seed)
    values = []
    for trial in range(trials):
        ts = _draw_distinct(rng, k + 1)
        values.append(_alternant(ts, powers) / _alternant(ts, range(k + 1)))
    if any(v != values[0] for v in values):
        raise LocalizationDisagreement(
            f"fixed-point trials disagree for k={k}, exponents={exps}: {values}"
        )
    return values[0]


def _alternant(ts: Sequence[Fraction], powers: Sequence[int]) -> Fraction:
    """det(t_j^e_p), exactly: expand along the first column at its first
    nonzero entry, in row p (sign (-1)^p), after clearing the rest of it."""
    rows = [[t**e for t in ts] for e in powers]
    det = Fraction(1)
    while rows:
        p = next((i for i, row in enumerate(rows) if row[0]), None)
        if p is None:
            return Fraction(0)
        det *= -rows[p][0] if p % 2 else rows[p][0]
        pivot = [x / rows[p][0] for x in rows[p][1:]]
        rest = rows[:p] + rows[p + 1 :]
        rows = [[x - row[0] * y for x, y in zip(row[1:], pivot)] for row in rest]
    return det


def _draw_distinct(rng: random.Random, count: int) -> list[Fraction]:
    # Numerators and denominators bounded by 10^3; coincident draws are retried.
    out: list[Fraction] = []
    while len(out) < count:
        t = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
        if t not in out:
            out.append(t)
    return out
