"""Shared builders for the test suite."""

from fractions import Fraction

from segre_towers import (
    LaurentPoly,
    Monomial,
    RationalFunction1V,
    TowerFactor,
    TowerLevel,
    TowerSpec,
    TruncationRequest,
    base_variable,
    flag_tower,
    taut_variable,
    tower_variable,
)
from segre_towers.tower import PIVOT

U = tower_variable
C = taut_variable
G = base_variable


def mono(*entries):
    """Monomial from (var, exp) pairs."""
    return Monomial(entries)


def poly(terms):
    """LaurentPoly from a {(var, exp) pairs tuple: coefficient} mapping."""
    return LaurentPoly({Monomial(entries): Fraction(c) for entries, c in terms.items()})


def upoly(terms):
    """Univariate LaurentPoly in the reserved pivot from {exp: coeff}."""
    return LaurentPoly({Monomial.of(PIVOT, e): Fraction(c) for e, c in terms.items()})


def rf(num, den):
    """RationalFunction1V in the pivot from {exp: coeff} maps (or constants)."""
    num = upoly(num) if isinstance(num, dict) else LaurentPoly.constant(num)
    den = upoly(den) if isinstance(den, dict) else LaurentPoly.constant(den)
    return RationalFunction1V(num, den)


def simple_tower(*level_descriptions, base_generators=()):
    """TowerSpec from per-level (factors, aux_names) tuples.

    Each factor is (twists, num, den) with num/den as {exp: coeff} or a
    constant; aux_names is an optional iterable of names.
    """
    levels = []
    for desc in level_descriptions:
        factors, aux_names = desc if isinstance(desc, tuple) and len(desc) == 2 else (desc, ())
        built = tuple(TowerFactor(tuple(t), rf(n, d)) for t, n, d in factors)
        levels.append(TowerLevel(built, tuple(aux_names)))
    return TowerSpec(tuple(levels), tuple(base_generators))


def padded(req: TruncationRequest, extra: int) -> TruncationRequest:
    """``req`` with ``extra`` added to every level's cap."""
    return req._replace(shift_caps=tuple(cap + extra for cap in req.shift_caps))


def arrangement_sign(values):
    """Sign of ``values`` as an arrangement of 0..n-1, or 0 if it is not one.

    Computed by inversion counting, independently of any series expansion.
    """
    vals = list(values)
    if sorted(vals) != list(range(len(vals))):
        return Fraction(0)
    inversions = sum(
        1
        for i in range(len(vals))
        for j in range(i + 1, len(vals))
        if vals[i] > vals[j]
    )
    return Fraction(-1) ** inversions


def flag_bundle(k):
    """The flag bundle of a rank n = k+1 bundle E, as a test-only tower.

    The base generators e1..en, of degrees 1..n, are the Chern classes of E.
    Level i is ``flag_tower(k)``'s level i with 1/u^n replaced by
    1/(u^n - e1*u^(n-1) + ... + (-1)^n*en), so e = 0 gives ``flag_tower(k)``.
    """
    n = k + 1
    den = LaurentPoly.variable(PIVOT, n)
    for i in range(1, n + 1):
        den = den + poly({((PIVOT, n - i), (G(f"e{i}"), 1)): (-1) ** i})
    levels = []
    for lvl in flag_tower(k).levels:
        point, *shifted = lvl.factors
        bundle = TowerFactor(point.twists, RationalFunction1V(1, den))
        levels.append(lvl._replace(factors=(bundle, *shifted)))
    return TowerSpec(tuple(levels), tuple((f"e{i}", i) for i in range(1, n + 1)))


def evaluate(value, values):
    """``value``, a Laurent polynomial, with each variable v set to ``values[v]``."""
    total = Fraction(0)
    for mono, coeff in value.items():
        for var, exp in mono:
            coeff *= values[var] ** exp
        total += coeff
    return total
