"""Shared builders for the test suite."""

import itertools
import math
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
    closed_formula_segre,
    flag_tower,
    stepwise_pushforward,
    taut_variable,
    tower_variable,
)
from segre_towers.flag import _determinant, _eliminate
from segre_towers.series import shift_expand
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


def falling_factorial_quotient(alpha, beta):
    """alpha*(alpha-1)*...*(alpha-beta+1)/beta!, multiplied out term by term."""
    value = Fraction(1)
    for t in range(beta):
        value *= Fraction(alpha - t, t + 1)
    return value


def shift_expand_reference(q, pivot, shift, cap):
    """``shift_expand(q, pivot, shift, cap)`` as a direct sum, per term of q,
    over b = 0..cap of C(a, b) * shift^b * pivot^(a-b)."""
    out = LaurentPoly.zero()
    for m, coeff in q.items():
        alpha = m.exponent(pivot)
        rest = m.without({pivot})
        power = LaurentPoly.one()
        for b in range(cap + 1):
            scale = coeff * falling_factorial_quotient(alpha, b)
            stem = LaurentPoly.monomial(rest * Monomial.of(pivot, alpha - b), scale)
            out = out + stem * power
            power = power * shift
    return out


def top_pivot_exponent(p):
    """The highest exponent of the pivot in a nonzero ``p``, read from its monomials."""
    return max(m.exponent(PIVOT) for m, _ in p.items())


def descending_reference(f, min_exponent):
    """``descending_expand(f, min_exponent)`` by long division.

    Each step divides the remainder's top pivot slice by the denominator's
    leading term and subtracts that quotient term times the denominator, so
    the remainder's top exponent falls; it stops once the next quotient term
    would lie below ``min_exponent``.
    """
    num, den = f.numerator, f.denominator
    lead_exp = top_pivot_exponent(den)
    ((lead_mono, lead_coeff),) = den.filter_terms(PIVOT, lead_exp).items()
    inverse = LaurentPoly.monomial(Monomial((v, -e) for v, e in lead_mono), 1 / lead_coeff)
    quotient, remainder = LaurentPoly.zero(), num
    while remainder and top_pivot_exponent(remainder) - lead_exp >= min_exponent:
        top = top_pivot_exponent(remainder)
        term = remainder.filter_terms(PIVOT, top, top) * inverse
        quotient, remainder = quotient + term, remainder - term * den
    return quotient


def shift_binomial(alpha, beta):
    """C(alpha, beta) as ``shift_expand`` computes it inline.

    It is the coefficient of t^beta * u^(alpha-beta) in the expansion of
    (u + t)^alpha to shift degree beta, with t = u1 and u the pivot.
    """
    t = U(1)
    expanded = shift_expand(
        LaurentPoly.variable(PIVOT, alpha), PIVOT, LaurentPoly.variable(t), beta
    )
    return expanded.coefficient(Monomial(((t, beta), (PIVOT, alpha - beta))))


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


def cap_reach(spec, tower_orders, aux_orders=None):
    """(reach, lead), each a list by level, from ``TruncationRequest``'s
    docstring: lead_i sums level i's positive factor leading degrees, aux_i
    its auxiliary orders, and reach_j = sum over i >= j of
    (lead_i + a_i + 1 + aux_i)."""
    aux_orders = aux_orders or {}
    lead = [
        sum(max(factor.series.leading_exponent or 0, 0) for factor in level.factors)
        for level in spec.levels
    ]
    steps = [
        lead_i + a + 1 + sum(aux_orders.get(name, 0) for name in level.aux)
        for lead_i, a, level in zip(lead, tower_orders, spec.levels)
    ]
    return [sum(steps[j:]) for j in range(spec.k)], lead


def check_window_growth(rng, spec, orders, aux=None):
    """Check, by both routes, that a grown window holds the window at ``orders``.

    Each tower order a and auxiliary order b grows by d and e drawn from
    0..2.  The window at a+d and b+e, with every u_i filtered back to
    [-a_i-1, -1] and every auxiliary variable to [-b-1, -1], must equal the
    window at a and b.  Returns whether any order grew.
    """
    small = TruncationRequest.derive(spec, orders, aux)
    small_aux = dict(small.aux_orders)
    grown = tuple(a + rng.randint(0, 2) for a in orders)
    grown_aux = {v.name: small_aux[v.name] + rng.randint(0, 2) for v in spec.aux_variables()}
    big = TruncationRequest.derive(spec, grown, grown_aux)
    for route in (closed_formula_segre, stepwise_pushforward):
        window = route(spec, big)
        for i, a in enumerate(orders, 1):
            window = window.filter_terms(U(i), -a - 1, -1)
        for v in spec.aux_variables():
            window = window.filter_terms(v, -small_aux[v.name] - 1, -1)
        assert window == route(spec, small), (route.__name__, spec, small, big)
    return big.tower_orders != small.tower_orders or big.aux_orders != small.aux_orders


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


def flag_type_tower(k, series, base_generators=()):
    """``flag_tower(k)`` with level i's factor 1/u^(k+1) replaced by one
    untwisted factor per entry of ``series``, the same objects on every
    level: a flag-type tower with F = the product of ``series`` everywhere."""
    levels = []
    for lvl in flag_tower(k).levels:
        first, *shifted = lvl.factors
        point = tuple(first._replace(series=f) for f in series)
        levels.append(lvl._replace(factors=point + tuple(shifted)))
    return TowerSpec(tuple(levels), tuple(base_generators))


def partial_flag(k):
    """``flag_tower(k)`` with 1/u^(k+1) replaced by 1/u^(k+2), a partial flag
    tower: flag-type, with F = u^-(k+2) on every level."""
    return flag_type_tower(k, [rf(1, {k + 2: 1})])


def rational_root_flag(k):
    """The flag-type tower with F = 1/(u-1)^(k+1) on every level: the flag
    bundle of a rank k+1 bundle whose Chern roots are all 1, so its
    coefficients are rational and it has no base generators."""
    n = k + 1
    return flag_type_tower(k, [rf(1, {i: math.comb(n, i) * (-1) ** (n - i) for i in range(n + 1)})])


def point_value_sign_and_partition(exps, n):
    """(sign, lambda) with the point value of a flag-type tower whose every
    level has F = u^-n * A(1/u), a_0 = 1, at ``exps`` equal to sign times
    det(a_(lambda_i-i+j)); (0, None) when the value is 0.

    Listing the rows by decreasing exponent turns det(a_(p_i+j-n)) into the
    Jacobi-Trudi determinant of lambda_i = q_i - n + i, q the
    exponents in decreasing order, at the sign of that reordering: (-1) to
    the number of pairs i < j with exps[i] < exps[j].  Equal exponents give
    equal rows, and a negative last part a zero last row.
    """
    k = len(exps)
    q = sorted(exps, reverse=True)
    lam = [q[i - 1] - n + i for i in range(1, k + 1)]
    if len(set(q)) < k or lam[-1] < 0:
        return 0, None
    rises = sum(a < b for a, b in itertools.combinations(exps, 2))
    return (-1) ** rises, [part for part in lam if part]


def schur_at_ones(lam, n):
    """s_lambda(1^n) by the hook-content formula: the product over the cells
    (i, j) of lambda of (n + j - i) / h(i, j), h the hook length."""
    conj = [sum(part >= j for part in lam) for j in range(1, (lam[0] if lam else 0) + 1)]
    value = Fraction(1)
    for i, part in enumerate(lam, 1):
        for j in range(1, part + 1):
            value *= Fraction(n + j - i, part - j + conj[j - 1] - i + 1)
    return value


def chern_point_value(k, exps):
    """The point value of ``flag_bundle(k)`` at ``exps``, as det M in the
    Chern presentation, by cofactor expansion along the first row.

    M_(i,j) = h_(p_i+j-n)(e), n = k+1, with h_0 = 1, h_t = 0 for t < 0, and
    h_t = sum over r = 1..n of (-1)^(r+1) * e_r * h_(t-r) for t > 0, the
    recurrence of 1/c_E: no series expansion and no tower code is used.
    """
    n = k + 1
    e = [None] + [LaurentPoly.variable(G(f"e{r}")) for r in range(1, n + 1)]
    h = [LaurentPoly.one()]
    for t in range(1, max(exps, default=0) + k - n + 1):
        h.append(sum(((-1) ** (r + 1) * e[r] * h[t - r] for r in range(1, min(t, n) + 1)),
                     LaurentPoly.zero()))

    def minor(row, columns):
        if row == k:
            return LaurentPoly.one()
        total = LaurentPoly.zero()
        for pos, j in enumerate(columns):
            t = exps[row] + j - n
            if t >= 0:
                rest = columns[:pos] + columns[pos + 1:]
                total = total + (-1) ** pos * h[t] * minor(row + 1, rest)
        return total

    return minor(0, tuple(range(1, k + 1)))


def evaluate(value, values):
    """``value``, a Laurent polynomial, with each variable v set to ``values[v]``."""
    total = Fraction(0)
    for mono, coeff in value.items():
        for var, exp in mono:
            coeff *= values[var] ** exp
        total += coeff
    return total


def alternant(ts, powers):
    """det(t_j^e_p), exactly, by ``flag._eliminate`` from an empty path.
    Rational points are scaled to integers by the lcm L of their
    denominators, and the integer determinant is divided by L^(sum of the
    powers)."""
    points = [Fraction(t) for t in ts]
    scale = math.lcm(*(t.denominator for t in points))
    powers = tuple(powers)
    weights = tuple(t.numerator * (scale // t.denominator) for t in points)
    return Fraction(_determinant(_eliminate((weights, ()), powers)), scale ** sum(powers))


def window_points(window, over):
    """The coefficients of ``window``, by the part of each monomial over the
    variables ``over``: {that part: the polynomial in the other variables
    multiplying it}, read from ``window.items()`` alone.  An absent part has
    the coefficient 0."""
    over = frozenset(over)
    points = {}
    for mono, coeff in window.items():
        part = Monomial((v, e) for v, e in mono if v in over)
        points[part] = points.get(part, LaurentPoly()) + LaurentPoly.monomial(mono.without(over), coeff)
    return points
