"""Shared builders for the test suite."""

from fractions import Fraction

from segre_towers import (
    LaurentPoly,
    Monomial,
    RationalFunction1V,
    TowerFactor,
    TowerLevel,
    TowerSpec,
    aux_variable,
    base_variable,
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
    return RationalFunction1V(PIVOT, num, den)


def simple_tower(*level_descriptions, base_generators=(), base_degree_cap=None):
    """TowerSpec from per-level (factors, aux_names) tuples.

    Each factor is (twists, num, den) with num/den as {exp: coeff} or a
    constant; aux_names is an optional iterable of names.
    """
    levels = []
    for pos, desc in enumerate(level_descriptions):
        index = pos + 1
        factors, aux_names = desc if isinstance(desc, tuple) and len(desc) == 2 else (desc, ())
        built = tuple(TowerFactor(tuple(t), rf(n, d)) for t, n, d in factors)
        aux = tuple(aux_variable(name, index) for name in aux_names)
        levels.append(TowerLevel(index, built, aux))
    return TowerSpec(len(levels), tuple(levels), tuple(base_generators), base_degree_cap)


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
