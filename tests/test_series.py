"""Unit and property tests for the exact Laurent-polynomial kernel."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segre_towers import (
    LaurentPoly,
    Monomial,
    RationalFunction1V,
    VariableId,
    binomial_general,
    coefficient_of,
    descending_expand,
    geometric_expand,
    negative_part,
    rename_variables,
    shift_expand,
)
from segre_towers.tower import PIVOT

from _helpers import G, U, mono, poly, rf, upoly

V = VariableId("v", "aux", 1)


# -- binomial_general --------------------------------------------------------


def falling_factorial_quotient(alpha, beta):
    # Independent evaluation: multiply the falling factorial term by term.
    value = Fraction(1)
    for t in range(beta):
        value *= Fraction(alpha - t, t + 1)
    return value


def test_binomial_standard():
    assert binomial_general(5, 2) == 10


@pytest.mark.parametrize("alpha", [-7, -2, 0, 1, 4, 9])
def test_binomial_empty_product(alpha):
    assert binomial_general(alpha, 0) == 1


def test_binomial_negative_upper():
    # (-2)(-3)(-4)/3! evaluated directly.
    assert falling_factorial_quotient(-2, 3) == Fraction(-4)
    assert binomial_general(-2, 3) == -4


def test_binomial_negative_lower_rejected():
    with pytest.raises(ValueError):
        binomial_general(3, -1)


def test_binomial_matches_direct_evaluation_on_grid():
    for alpha in range(-8, 9):
        for beta in range(0, 8):
            assert binomial_general(alpha, beta) == falling_factorial_quotient(alpha, beta)


def test_binomial_pascal_rule_grid():
    for alpha in range(-10, 11):
        for beta in range(1, 9):
            assert binomial_general(alpha, beta) == binomial_general(
                alpha - 1, beta
            ) + binomial_general(alpha - 1, beta - 1)


# -- monomials and polynomials ----------------------------------------------


def test_monomial_canonical_drops_zero_exponents():
    assert mono((U(1), 0)) == mono()
    assert mono((U(1), 2), (U(1), -2)) == mono()


def test_variable_order_is_kind_level_name():
    g, c1 = G("g"), VariableId("c1", "taut", 1)
    assert sorted([U(2), g, V, c1, U(1)]) == [V, g, c1, U(1), U(2)]
    assert (c1.name, c1.kind, c1.level) == ("c1", "taut", 1)
    assert repr(c1) == "VariableId('c1', 'taut', level=1)"
    assert str(c1) == "c1"
    with pytest.raises(ValueError, match="unknown variable kind"):
        VariableId("x", "bogus")


def test_poly_addition_cancels_to_zero():
    p = poly({((U(1), 2),): 3})
    assert (p - p).is_zero()
    assert p - p == LaurentPoly.zero()


def test_poly_equality_with_scalars():
    assert LaurentPoly.constant(Fraction(3, 2)) == Fraction(3, 2)
    assert LaurentPoly.zero() == 0
    assert LaurentPoly.one() == 1


def test_poly_str_is_deterministic():
    p = poly({((U(1), -2),): 1, ((U(2), -3),): Fraction(-1, 2)})
    assert str(p) == "u1^-2 - 1/2*u2^-3"


def test_constant_value():
    assert LaurentPoly.constant(5).constant_value() == 5
    assert LaurentPoly.zero().constant_value() == 0
    with pytest.raises(ValueError):
        poly({((U(1), 1),): 1}).constant_value()


variables_pool = [U(1), U(2), V, G("g")]


@st.composite
def laurent_polys(draw, max_terms=4):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        entries = []
        for var in draw(st.sets(st.sampled_from(variables_pool), max_size=2)):
            entries.append((var, draw(st.integers(-3, 3))))
        coeff = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
        key = Monomial(entries)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return LaurentPoly(terms)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    laurent_polys(),
    laurent_polys(),
    st.fractions(min_value=-5, max_value=5),
    st.fractions(min_value=-5, max_value=5),
    st.sets(st.sampled_from([U(1), U(2), V]), max_size=3),
)
def test_negative_part_is_linear_idempotent_projection(s, t, a, b, fv):
    fv = frozenset(fv)
    once = negative_part(s, fv)
    assert negative_part(once, fv) == once
    combined = negative_part(a * s + b * t, fv)
    assert combined == a * negative_part(s, fv) + b * negative_part(t, fv)


# -- descending_expand -------------------------------------------------------


def test_descending_expand_monomial_inverse():
    assert descending_expand(rf(1, {2: 1}), -4) == upoly({-2: 1})


def test_descending_expand_geometric_with_base_generator():
    g = G("g")
    f = RationalFunction1V(
        PIVOT, 1, LaurentPoly.variable(PIVOT) + LaurentPoly.variable(g)
    )
    got = descending_expand(f, -3)
    want = poly(
        {
            ((PIVOT, -1),): 1,
            ((PIVOT, -2), (g, 1)): -1,
            ((PIVOT, -3), (g, 2)): 1,
        }
    )
    assert got == want
    # Multiply back by (u + g): the residual sits strictly below the window.
    residual = got * f.denominator - 1
    assert all(m.exponent(PIVOT) < -2 for m, _ in residual.items())


def test_descending_expand_polynomial_passthrough():
    assert descending_expand(rf({1: 1}, 1), -5) == upoly({1: 1})


def test_descending_expand_truncates_polynomial_numerators():
    assert descending_expand(rf({1: 1, -6: 1}, 1), -5) == upoly({1: 1})


@pytest.mark.parametrize("den", [{3: 1, 2: -2, 0: 1}, {1: 2, 0: 3, -2: 1}, {0: 4, -1: 1}])
def test_descending_expand_remultiplication(den):
    f = rf({1: 1, 0: 2}, den)
    floor = -8
    expansion = descending_expand(f, floor)
    residual = expansion * f.denominator - f.numerator
    # Exactness window: everything at or above floor + max den exponent cancels.
    lead = max(den)
    assert all(m.exponent(PIVOT) < floor + lead for m, _ in residual.items())


def test_rational_function_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rf(1, 0)


def test_rational_function_rejects_ambiguous_leading_term():
    g, h = G("g"), G("h")
    den = LaurentPoly.variable(g) * LaurentPoly.variable(PIVOT) + LaurentPoly.variable(
        h
    ) * LaurentPoly.variable(PIVOT)
    with pytest.raises(ValueError):
        RationalFunction1V(PIVOT, 1, den)


def test_rational_function_rejects_foreign_variables():
    with pytest.raises(ValueError):
        RationalFunction1V(PIVOT, LaurentPoly.variable(U(1)), 1)


def test_descending_expand_base_monomial_leading_coefficient():
    g = G("g")
    f = RationalFunction1V(
        PIVOT, 1, LaurentPoly.variable(g) * LaurentPoly.variable(PIVOT)
    )
    assert descending_expand(f, -1) == poly({((PIVOT, -1), (g, -1)): 1})


# -- shift_expand -------------------------------------------------------------


def test_shift_expand_linear_is_exact():
    got = shift_expand(upoly({1: 1}), PIVOT, -LaurentPoly.variable(U(1)), 1)
    assert got == poly({((PIVOT, 1),): 1, ((U(1), 1),): -1})


def test_shift_expand_inverse_remultiplies_to_one():
    got = shift_expand(upoly({-1: 1}), PIVOT, LaurentPoly.variable(V), 2)
    want = poly(
        {
            ((PIVOT, -1),): 1,
            ((PIVOT, -2), (V, 1)): -1,
            ((PIVOT, -3), (V, 2)): 1,
        }
    )
    assert got == want
    check = got * (LaurentPoly.variable(PIVOT) + LaurentPoly.variable(V)) - 1
    assert all(m.exponent(V) > 2 for m, _ in check.items())


def test_shift_expand_zero_shift_is_identity():
    q = upoly({3: 2, 0: -1, -4: Fraction(1, 3)})
    for cap in (0, 1, 5):
        assert shift_expand(q, PIVOT, LaurentPoly.zero(), cap) == q


def test_shift_expand_rejects_pivot_in_shift():
    with pytest.raises(ValueError):
        shift_expand(upoly({-1: 1}), PIVOT, LaurentPoly.variable(PIVOT), 2)


def test_shift_expand_rejects_negative_shift_exponents():
    with pytest.raises(ValueError):
        shift_expand(upoly({-1: 1}), PIVOT, LaurentPoly.variable(V, -1), 2)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4),
    st.integers(0, 5),
)
def test_shift_expand_identity_shift_property(qdict, cap):
    q = upoly(qdict)
    assert shift_expand(q, PIVOT, LaurentPoly.zero(), cap) == q


def shift_expand_reference(q, pivot, shift, cap):
    # Direct sum over b = 0..cap of C(a, b) * shift^b * pivot^(a-b), per term.
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
    shift_vars = shift.variables()
    return out.filter_terms(lambda m: m.degree_in(shift_vars) <= cap)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(-2, 4), st.integers(0, 1)),
        st.integers(-5, 5).filter(bool),
        min_size=1,
        max_size=4,
    ),
    st.tuples(st.integers(-2, 2).filter(bool), st.integers(-2, 2).filter(bool)),
    st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)).filter(lambda e: sum(e) >= 2),
        st.integers(-3, 3).filter(bool),
        max_size=2,
    ),
    st.integers(0, 5),
)
def test_shift_expand_matches_direct_binomial_sum(qdict, linear, extra, headroom):
    # Mixed-sign pivot exponents and caps above the largest one: building
    # shift powers only up to the largest non-negative exponent must match
    # the full sum up to the cap.
    g = G("g")
    q = poly({((PIVOT, a), (g, e)): c for (a, e), c in qdict.items()})
    shift = poly({((U(1), 1),): linear[0], ((U(2), 1),): linear[1]})
    shift = shift + poly({((U(1), e1), (U(2), e2)): c for (e1, e2), c in extra.items()})
    cap = max(max(a for a, _ in qdict), 0) + headroom
    got = shift_expand(q, PIVOT, shift, cap)
    assert got == shift_expand_reference(q, PIVOT, shift, cap)


# -- geometric_expand ----------------------------------------------------------


def test_geometric_expand_small():
    u, u1 = U(2), U(1)
    assert geometric_expand(u, u1, 2) == poly(
        {
            ((u, -1),): 1,
            ((u, -2), (u1, 1)): 1,
            ((u, -3), (u1, 2)): 1,
        }
    )
    assert geometric_expand(u, u1, 0) == poly({((u, -1),): 1})


def test_geometric_expand_truncated_inverse_identity():
    u, v = U(2), U(1)
    for cap in range(0, 6):
        expansion = geometric_expand(u, v, cap)
        residual = expansion * (LaurentPoly.variable(u) - LaurentPoly.variable(v)) - 1
        assert all(m.exponent(v) == cap + 1 for m, _ in residual.items())


def test_geometric_expand_rejects_equal_variables():
    with pytest.raises(ValueError):
        geometric_expand(U(1), U(1), 3)


# -- negative_part / coefficient_of -------------------------------------------


def test_negative_part_examples():
    u = U(1)
    assert negative_part(upoly({}), {PIVOT}) == 0
    assert negative_part(poly({((u, -1),): 1}), {u}) == poly({((u, -1),): 1})
    s = poly({(): 1, ((u, -1),): 1, ((u, 1),): 1})
    assert negative_part(s, {u}) == poly({((u, -1),): 1})


def test_negative_part_base_variables_exempt():
    u, v, g = U(1), U(2), G("g")
    s = poly({((u, 2), (v, -1)): 1, ((u, -1), (v, -3), (g, 1)): 1})
    assert negative_part(s, {u, v}) == poly({((u, -1), (v, -3), (g, 1)): 1})


def test_negative_part_empty_filter_keeps_everything():
    s = poly({((U(1), 2),): 5, (): 1})
    assert negative_part(s, set()) == s


def test_coefficient_of_examples():
    u, v, g = U(1), U(2), G("g")
    s = poly({((u, -2), (v, -1)): 3, ((u, -1), (v, -1)): 1})
    assert coefficient_of(s, mono((u, -2), (v, -1)), {u, v}) == 3
    s2 = poly({((u, -1), (g, 1)): 1})
    assert coefficient_of(s2, mono((u, -1)), {u}) == LaurentPoly.variable(g)
    assert coefficient_of(s2, mono((u, -5)), {u}) == 0
    # An extraction variable the target lacks must be absent from the term.
    s3 = poly({((V, -1), (u, -1)): 1, ((g, 1), (u, -1)): 2})
    assert coefficient_of(s3, mono((u, -1)), {u, V}) == 2 * LaurentPoly.variable(g)
    # A two-variable corner pin, as in point mode: the base variable sorts
    # between the pinned ones and is all that remains.
    s4 = poly(
        {
            ((V, -1), (g, 2), (u, -2)): 5,
            ((V, -1), (u, -2)): 3,
            ((V, -2), (g, 1), (u, -2)): 1,
            ((V, -1), (u, -1)): 7,
            ((g, 1), (u, -2)): 4,
        }
    )
    corner = coefficient_of(s4, mono((u, -2), (V, -1)), (u, V))
    assert corner == 5 * LaurentPoly.variable(g, 2) + 3


def test_coefficient_of_rejects_target_outside_extraction_set():
    with pytest.raises(ValueError):
        coefficient_of(LaurentPoly.one(), mono((U(1), -1)), {U(2)})


def test_rename_variables_merges_collisions():
    u, v = U(1), U(2)
    s = poly({((u, 1),): 1, ((v, 1),): 2})
    assert rename_variables(s, {v: u}) == poly({((u, 1),): 3})
