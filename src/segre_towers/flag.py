"""Complete-flag-variety tower, its integrals, and a localization oracle.

The variety of complete flags in a (k+1)-dimensional space is realized as a
k-level tower of projective bundles over a point; integrals of monomials in
the line-bundle classes c_1..c_k are then coefficients of a Vandermonde
product.  A torus-fixed-point summation provides a third, fully independent
way to evaluate the same integrals.
"""

from __future__ import annotations

import itertools
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


def flag_tower(k: int) -> TowerSpec:
    """The k-level projective-bundle tower of the complete flag variety.

    Level i carries one factor 1/u^(k+1) with zero twists and, for each
    lower level j, a factor u with twist -1 in slot j, so the single-step
    Segre series is (u - c_1)...(u - c_{i-1}) / u^(k+1).
    """
    if k < 1:
        raise ValueError("flag towers need k >= 1")
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
    exps = _check_exponents("exponents", exponents, k)
    target = Monomial((tower_variable(i + 1), k - a) for i, a in enumerate(exps))
    return vandermonde_product(k).coefficient(target)


def flag_integral(k: int, exponents: Sequence[int]) -> Fraction:
    """Integral of c_1^a_1 ... c_k^a_k over the flag variety, via the tower."""
    exps = _check_exponents("exponents", exponents, k)
    value = pushforward_monomial(flag_tower(k), exps)
    return value.constant_value()


def localization_integral(
    k: int,
    exponents: Sequence[int],
    trials: int = 3,
    seed: int = LOCALIZATION_SEED,
) -> Fraction:
    """The same flag integral by torus-fixed-point summation.

    Each trial draws distinct random rational weights t_1..t_{k+1} and sums,
    over all orderings w, the monomial in the reversed weights divided by
    the product of weight differences.  All trials must agree exactly;
    disagreement raises ``LocalizationDisagreement``.
    """
    exps = _check_exponents("exponents", exponents, k)
    if trials < 1:
        raise ValueError("at least one trial is required")
    rng = random.Random(seed)
    values = []
    for trial in range(trials):
        ts = _draw_distinct(rng, k + 1)
        total = Fraction(0)
        for w in itertools.permutations(range(k + 1)):
            num = Fraction(1)
            for i in range(1, k + 1):
                num *= ts[w[k + 1 - i]] ** exps[i - 1]
            den = Fraction(1)
            for p in range(k + 1):
                for q in range(p + 1, k + 1):
                    den *= ts[w[q]] - ts[w[p]]
            total += num / den
        values.append(total)
    if any(v != values[0] for v in values):
        raise LocalizationDisagreement(
            f"fixed-point trials disagree for k={k}, exponents={exps}: {values}"
        )
    return values[0]


def _draw_distinct(rng: random.Random, count: int) -> list[Fraction]:
    # Numerators and denominators bounded by 10^3; coincident draws are retried.
    out: list[Fraction] = []
    while len(out) < count:
        t = Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))
        if t not in out:
            out.append(t)
    return out
