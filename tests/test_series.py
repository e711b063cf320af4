"""Unit and property tests for the exact Laurent-polynomial kernel."""

import copy
import math
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from segre_towers import (
    ExponentOverflowError,
    LaurentPoly,
    Monomial,
    RationalFunction1V,
    VariableId,
    flag_tower,
)
from segre_towers import series
from segre_towers.series import (
    coefficient_of,
    descending_expand,
    geometric_expand,
    negative_part,
    rename_variables,
    shift_expand,
    _check_int,
    _is_int,
)
from segre_towers.tower import PIVOT

from _helpers import (
    G,
    U,
    descending_reference,
    falling_factorial_quotient,
    mono,
    poly,
    rf,
    shift_binomial,
    shift_expand_reference,
    upoly,
)

V = VariableId("v", "aux", 1)


# -- binomials: the coefficients shift_expand computes inline ----------------


def test_binomial_standard():
    assert shift_binomial(5, 2) == 10


@pytest.mark.parametrize("alpha", [-7, -2, 0, 1, 4, 9])
def test_binomial_empty_product(alpha):
    assert shift_binomial(alpha, 0) == 1


def test_binomial_negative_upper():
    # (-2)(-3)(-4)/3! evaluated directly.
    assert falling_factorial_quotient(-2, 3) == Fraction(-4)
    assert shift_binomial(-2, 3) == -4


def test_binomial_negative_lower_rejected():
    # A negative lower index is a negative shift degree, which is refused.
    with pytest.raises(ValueError):
        shift_expand(upoly({3: 1}), PIVOT, LaurentPoly.variable(U(1)), -1)


def test_binomial_matches_direct_evaluation_on_grid():
    for alpha in range(-8, 9):
        for beta in range(0, 8):
            got = shift_binomial(alpha, beta)
            assert got == falling_factorial_quotient(alpha, beta), (alpha, beta)
            if beta > alpha >= 0:
                assert got == 0, (alpha, beta)


def test_binomial_pascal_rule_grid():
    for alpha in range(-10, 11):
        for beta in range(1, 9):
            assert shift_binomial(alpha, beta) == shift_binomial(
                alpha - 1, beta
            ) + shift_binomial(alpha - 1, beta - 1)


# -- monomials and polynomials ----------------------------------------------


def test_monomial_canonical_drops_zero_exponents():
    assert mono((U(1), 0)) == mono()
    assert mono((U(1), 2), (U(1), -2)) == mono()


def test_monomial_is_its_canonical_entries_tuple():
    m = mono((U(2), -1), (V, 3), (U(1), -2), (U(2), 0), (V, -1))
    entries = ((V, 2), (U(1), -2), (U(2), -1))
    assert isinstance(m, tuple) and m == entries and hash(m) == hash(entries)
    assert m * mono((V, -2)) == entries[1:] and not mono()
    monos = [mono((U(1), a), (U(2), b), (V, c)) for a in (-2, 1) for b in (-1, 0) for c in (-1, 2)]
    assert [tuple(x) for x in sorted(monos)] == sorted(tuple(x) for x in monos)
    # Tuple concatenation and repetition would build non-canonical tuples.
    for op in (lambda: m + m, lambda: m + (), lambda: 2 * m, lambda: m * 2):
        with pytest.raises(TypeError):
            op()


def test_hash_colliding_monomials_stay_distinct_terms():
    # CPython hashes -1 and -2 alike, so a -1/-2 swap keeps the hash.
    a, b = mono((U(1), -1), (U(2), -2)), mono((U(1), -2), (U(2), -1))
    assert hash(a) == hash(b) and a != b
    p = LaurentPoly({a: 1, b: 2}) * poly({((V, -1),): 1, ((V, -2),): 1})
    assert len(p) == 4 and p.coefficient(a * mono((V, -2))) == 1
    q = p - LaurentPoly.monomial(b * mono((V, -1)), 2)
    assert len(q) == 3 and q.coefficient(a * mono((V, -1))) == 1


@pytest.mark.parametrize("exp", [1.5, 2.0, "2", Fraction(3, 1), None])
def test_monomial_refuses_non_integer_exponents(exp):
    # int() would have truncated 1.5 to 1 and parsed "2".
    with pytest.raises(TypeError):
        Monomial([(U(1), exp)])


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
    # An int, a bool and a Fraction of one value are one coefficient, in every
    # constructor and on either side of + and *; a float or a Decimal is none.
    m, p = mono((U(1), 2)), poly({((U(1), -1),): Fraction(1, 3)})
    for equal in ((1, True, Fraction(1)), (0, False, Fraction(0)), (-4, Fraction(-4))):
        built = [
            [LaurentPoly({m: c}), LaurentPoly([(m, c)]), LaurentPoly.constant(c),
             LaurentPoly.monomial(m, c), p + c, c + p, p - c, c - p, p * c, c * p]
            for c in equal
        ]
        assert all(row == built[0] for row in built), equal
        assert all(type(n) is int for row in built for q in row for n in q._terms.values())
    for inexact in (1.5, Decimal("1.5")):
        refusal = f"^coefficients must be exact rationals, got {type(inexact).__name__}$"
        for make in (
            lambda: LaurentPoly({m: inexact}),
            lambda: LaurentPoly.constant(inexact),
            lambda: LaurentPoly.monomial(m, inexact),
        ):
            with pytest.raises(TypeError, match=refusal):
                make()
        for op in (lambda: p + inexact, lambda: inexact + p, lambda: p * inexact,
                   lambda: inexact * p):
            with pytest.raises(TypeError, match="^unsupported operand type"):
                op()


def test_poly_str_is_deterministic():
    p = poly({((U(1), -2),): 1, ((U(2), -3),): Fraction(-1, 2)})
    assert str(p) == "u1^-2 - 1/2*u2^-3"


def test_other_operands_are_refused_and_zero_prints_as_0():
    # A str is no coefficient: subtraction on either side raises and
    # equality is False, as for a rational function against an int.
    p = poly({((U(1), -2),): 1})
    for op in (lambda: p - "x", lambda: "x" - p):
        with pytest.raises(TypeError, match="^unsupported operand type"):
            op()
    assert (p == "x") is False
    assert (RationalFunction1V(LaurentPoly.one(), LaurentPoly.one()) == 1) is False
    assert repr(Monomial.of(PIVOT, 2)) == "Monomial([(VariableId('u', 'tower', level=0), 2)])"
    assert repr(LaurentPoly()) == "LaurentPoly(0)" and str(LaurentPoly()) == "0"


def test_constant_value():
    assert LaurentPoly.constant(5).constant_value() == 5
    assert LaurentPoly.zero().constant_value() == 0
    # The value is a Fraction whatever the coefficient's type, zero included.
    for value in (5, True, Fraction(-3, 4), 0, False):
        got = LaurentPoly.constant(value).constant_value()
        assert type(got) is Fraction and got == value
    assert type(LaurentPoly.zero().constant_value()) is Fraction
    assert type(poly({((U(1), 1),): 2}).coefficient(mono((U(1), 1)))) is Fraction
    assert type(poly({((U(1), 1),): 2}).coefficient(mono((U(2), 1)))) is Fraction
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
    f = RationalFunction1V(1, LaurentPoly.variable(PIVOT) + LaurentPoly.variable(g))
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


@pytest.mark.parametrize(
    "den", [{3: 1, 2: -2, 0: 1}, {1: 2, 0: 3, -2: 1}, {0: 4, -1: 1}, {2: -3, 0: 1, -1: 2}]
)
def test_descending_expand_remultiplication(den):
    f = rf({1: 1, 0: 2}, den)
    floor = -8
    expansion = descending_expand(f, floor)
    residual = expansion * f.denominator - f.numerator
    # Exactness window: everything at or above floor + max den exponent cancels.
    lead = max(den)
    assert all(m.exponent(PIVOT) < floor + lead for m, _ in residual.items())


def test_descending_expand_carries_the_exact_exponent_bound():
    # 1/(u^3 + u) = u^-3 - u^-5 + u^-7 - ...: ratio -u^-2 and summand u^-3
    # carry their exact bounds, so summand s carries 3 + 2s, its own largest.
    f = rf(1, {3: 1, 1: 1})
    for depth, bound in ((-30, 29), (-300, 299)):
        expanded = descending_expand(f, depth)
        assert min(m.exponent(PIVOT) for m, _ in expanded.items()) == -bound
        assert expanded._bound == bound


def test_descending_expand_refuses_a_quotient_outside_the_slot():
    # u^-(2^31 - 1) / u has exponent -2^31, one past the slot.
    top = 2**31 - 1
    with pytest.raises(ExponentOverflowError):
        descending_expand(rf({-top: 1}, {1: 1}), -top)
    assert descending_expand(rf({-top + 1: 1}, {1: 1}), -top) == upoly({-top: 1})


def test_a_quotient_outside_the_slot_is_refused_by_the_expansion_not_the_series(monkeypatch):
    # The series itself fits; only its long division would leave the slot,
    # and that is refused before a single product is formed.
    top = 2**31 - 1
    f = rf({-top: 1}, {1: 1})
    assert f.leading_exponent == -top - 1
    formed = []
    monkeypatch.setattr(series, "_add_product", lambda *args: formed.append(args))
    with pytest.raises(ExponentOverflowError):
        descending_expand(f, -top)
    assert formed == []


def test_rational_function_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rf(1, 0)


def test_rational_function_rejects_ambiguous_leading_term():
    g, h = G("g"), G("h")
    den = LaurentPoly.variable(g) * LaurentPoly.variable(PIVOT) + LaurentPoly.variable(
        h
    ) * LaurentPoly.variable(PIVOT)
    with pytest.raises(ValueError):
        RationalFunction1V(1, den)


def test_rational_function_rejects_foreign_variables():
    # The foreign variable shares its term with a pivot power and a base generator.
    term = LaurentPoly.monomial(Monomial([(PIVOT, -2), (G("g"), 1), (U(1), 1)]))
    cases = {"numerator": (term, 1), "denominator": (1, LaurentPoly.variable(PIVOT) + term)}
    for side, args in cases.items():
        with pytest.raises(ValueError) as info:
            RationalFunction1V(*args)
        assert str(info.value) == f"{side} must involve only 'u' and base variables, found 'u1'"


def test_rational_function_records_the_base_names_of_both_sides():
    g, h = G("g"), G("h")
    num = LaurentPoly.monomial(Monomial([(PIVOT, -3), (g, -1)])) + 2
    den = LaurentPoly.variable(PIVOT, 2) + LaurentPoly.monomial(Monomial([(PIVOT, -1), (h, 2)]))
    f = RationalFunction1V(num, den)
    assert f.base_names == {"g", "h"}
    assert f.leading_exponent == -2


def test_stored_leading_exponent_is_numerator_top_minus_denominator_lead():
    rng = random.Random(2019)
    zero_numerators = 0
    for _ in range(200):
        num = {e: rng.randint(-3, 3) for e in rng.sample(range(-5, 6), rng.randint(0, 3))}
        den = {e: rng.choice([-2, -1, 1, 3]) for e in rng.sample(range(-5, 6), rng.randint(1, 3))}
        f = rf(num, den)
        top = {e for e, c in num.items() if c}
        if top:
            assert f.leading_exponent == max(top) - max(den)
        else:
            assert f.leading_exponent is None
            zero_numerators += 1
    assert zero_numerators > 0


def test_descending_expand_base_monomial_leading_coefficient():
    g = G("g")
    f = RationalFunction1V(1, LaurentPoly.variable(g) * LaurentPoly.variable(PIVOT))
    assert descending_expand(f, -1) == poly({((PIVOT, -1), (g, -1)): 1})


_RATIONALS = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 4))
# (pivot exponent, coefficient, exponent of g, exponent of h) of one term.
_TERMS = st.tuples(st.integers(-3, 4), _RATIONALS, st.integers(-1, 2), st.integers(-1, 1))


def _terms_poly(terms):
    g, h = G("g"), G("h")
    return sum(
        (LaurentPoly.monomial(Monomial(((PIVOT, e), (g, a), (h, b))), c) for e, c, a, b in terms),
        LaurentPoly(),
    )


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    st.lists(_TERMS, min_size=1, max_size=3),
    st.tuples(st.integers(-2, 3), _RATIONALS, st.integers(-2, 2), st.integers(0, 1)),
    st.lists(st.tuples(st.integers(1, 4), _RATIONALS, st.integers(-1, 2), st.integers(-1, 1))),
    st.integers(0, 8),
)
@example([(0, Fraction(1), 0, 0)], (1, Fraction(-3, 2), 1, 0), [(1, 2, 1, 0), (3, -1, 0, 1)], 7)
def test_descending_expand_is_the_long_division(num_terms, lead, falls, depth):
    # The denominator's leading coefficient may be negative, fractional or
    # times a base monomial; its lower terms, each ``fall`` below the lead,
    # carry base variables and may lie at several pivot exponents.
    lower = [(lead[0] - fall, c, x, y) for fall, c, x, y in falls]
    f = RationalFunction1V(_terms_poly(num_terms), _terms_poly([lead] + lower))
    least = (f.leading_exponent or 0) - depth
    got = descending_expand(f, least)
    assert got == descending_reference(f, least)
    assert all(abs(e) <= got._bound for m, _ in got.items() for _, e in m)


def test_descending_expand_refuses_its_bound_before_any_product(monkeypatch):
    # 1/(u + g^(2^30)): a term of depth s has exponents up to s * 2^30 in g,
    # so depth 1 fits a slot and depth 2 is refused.
    g = G("g")
    f = RationalFunction1V(1, LaurentPoly.variable(PIVOT) + LaurentPoly.variable(g, 2**30))
    calls = []
    monkeypatch.setattr(series, "_add_product", lambda *args: calls.append(args))
    with pytest.raises(ExponentOverflowError):
        descending_expand(f, -3)
    assert calls == []
    monkeypatch.undo()
    assert descending_expand(f, -2) == poly({((PIVOT, -1),): 1, ((PIVOT, -2), (g, 2**30)): -1})


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


def test_shift_expand_rejects_a_q_that_holds_a_shift_variable():
    # The shift's variables must be free in q, or q(pivot + shift) would mix
    # the expansion's powers of V with q's own.
    q = poly({((PIVOT, -1), (V, 1)): 1})
    with pytest.raises(ValueError, match="q must not involve the shift variables"):
        shift_expand(q, PIVOT, LaurentPoly.variable(V), 2)


def test_shift_expand_rejects_negative_shift_exponents():
    with pytest.raises(ValueError):
        shift_expand(upoly({-1: 1}), PIVOT, LaurentPoly.variable(V, -1), 2)


@pytest.mark.parametrize(
    "shift",
    [
        LaurentPoly.constant(2),
        LaurentPoly.variable(V, 2),
        poly({((U(1), 1), (V, 1)): 1}),
        LaurentPoly.variable(V) + 1,
    ],
    ids=["constant", "square", "product", "affine"],
)
def test_shift_expand_rejects_non_linear_shifts(shift):
    # The cap bounds the shift degree only because shift^b has degree b.
    with pytest.raises(ValueError, match="linear form"):
        shift_expand(upoly({-1: 1}), PIVOT, shift, 2)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    st.dictionaries(st.integers(-4, 4), st.integers(-5, 5), max_size=4),
    st.integers(0, 5),
)
def test_shift_expand_identity_shift_property(qdict, cap):
    q = upoly(qdict)
    assert shift_expand(q, PIVOT, LaurentPoly.zero(), cap) == q


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(-2, 4), st.integers(0, 1)),
        st.integers(-5, 5).filter(bool),
        min_size=1,
        max_size=4,
    ),
    st.tuples(
        st.fractions(-2, 2, max_denominator=3).filter(bool),
        st.fractions(-2, 2, max_denominator=3).filter(bool),
    ),
    st.integers(0, 5),
)
def test_shift_expand_matches_direct_binomial_sum(qdict, linear, headroom):
    # Mixed-sign pivot exponents and caps above the largest one: building
    # shift powers only up to the largest non-negative exponent must match
    # the full sum up to the cap.  Shift coefficients with denominators put
    # the powers over a common denominator.
    g = G("g")
    q = poly({((PIVOT, a), (g, e)): c for (a, e), c in qdict.items()})
    shift = poly({((U(1), 1),): linear[0], ((U(2), 1),): linear[1]})
    cap = max(max(a for a, _ in qdict), 0) + headroom
    got = shift_expand(q, PIVOT, shift, cap)
    assert got == shift_expand_reference(q, PIVOT, shift, cap)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    st.dictionaries(
        st.tuples(st.integers(-2, 4), st.integers(0, 1)),
        st.integers(-5, 5).filter(bool),
        max_size=4,
    ),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.integers(0, 6),
    st.integers(-9, 5),
)
def test_shift_expand_with_low_is_the_filtered_expansion(qdict, linear, cap, low):
    g = G("g")
    q = poly({((PIVOT, a), (g, e)): c for (a, e), c in qdict.items()})
    shift = poly({((U(1), 1),): linear[0], ((U(2), 1),): linear[1]})
    full = shift_expand(q, PIVOT, shift, cap)
    assert shift_expand(q, PIVOT, shift, cap, low) == full.filter_terms(PIVOT, low)


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


def test_geometric_range_is_the_filtered_expansion():
    # The stepwise push keeps each geometric series to a range of powers:
    # 0..order for a window, the order alone for a point.
    u, v = U(2), U(1)
    for low in range(4):
        for high in range(4):
            got = series._unsliced(series._geometric(u, v, low, high), v)
            assert got == geometric_expand(u, v, high).filter_terms(v, low, high), (low, high)
            if got:
                assert got._bound == high + 1


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
    # A two-variable target, as when a window coefficient is read: the base
    # variable sorts between the target's and is all that remains.
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


# -- the packed kernel against a dict reference --------------------------------

# Variables no other test uses, given consecutive slots by their first use here.
P = [VariableId(f"p{i}", "aux", 9) for i in range(3)]
LaurentPoly.monomial(Monomial((v, 1) for v in P))


def ref_sum(*refs):
    out = {}
    for ref in refs:
        for m, c in ref.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def ref_product(ra, rb):
    return ref_sum(*({m1 * m2: c1 * c2} for m1, c1 in ra.items() for m2, c2 in rb.items()))


def ref_coefficient(ref, target, over):
    return ref_sum(
        *(
            {m.without(over): c}
            for m, c in ref.items()
            if Monomial((v, e) for v, e in m if v in over) == target
        )
    )


def assert_matches(value, ref):
    """``value`` holds exactly the terms of ``ref``, in canonical form."""
    assert dict(value.items()) == ref and len(value) == len(ref)
    assert all(type(c) is Fraction for _, c in value.items() + value.terms())
    assert value == LaurentPoly(ref)
    # Lowest terms: a positive denominator sharing no factor with every numerator.
    assert value._den > 0 and math.gcd(value._den, *value._terms.values()) == 1
    assert all(value._terms.values())


@st.composite
def ref_polys(draw, max_terms=5):
    terms = []
    for _ in range(draw(st.integers(0, max_terms))):
        variables = draw(st.lists(st.sampled_from(P), max_size=3, unique=True))
        m = Monomial((v, draw(st.sampled_from([-2, -1, 1, 2]))) for v in variables)
        terms.append({m: Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 6)))})
    return ref_sum(*terms)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    ref_polys(),
    ref_polys(),
    st.integers(0, 5),
    st.sampled_from(P),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
def test_packed_kernel_matches_dict_reference(ra, rb, cancelled, var, low, high):
    # The first ``cancelled`` terms of a cancel exactly in a + b.
    rb = {**rb, **{m: -c for m, c in list(ra.items())[:cancelled]}}
    a, b = LaurentPoly(ra), LaurentPoly(rb)
    assert_matches(a, ra)
    assert_matches(b, rb)
    assert_matches(a + b, ref_sum(ra, rb))
    assert_matches(a - b, ref_sum(ra, {m: -c for m, c in rb.items()}))
    for scalar in (cancelled, Fraction(cancelled - 2, 3)):
        assert_matches(scalar - a, ref_sum({Monomial(): scalar}, {m: -c for m, c in ra.items()}))
    assert_matches(-a, {m: -c for m, c in ra.items()})
    assert_matches(a - a, {})
    assert_matches(a * b, ref_product(ra, rb))
    assert (a == b) == (ra == rb) and (a == a + 0)
    kept = {m: c for m, c in ra.items() if low <= m.exponent(var) <= high}
    assert_matches(a.filter_terms(var, low, high), kept)
    other = P[(P.index(var) + 1) % len(P)]
    for target, over in (
        (Monomial.of(var, low), {var}),
        (Monomial(((var, low), (other, high))), {var, other}),
        (Monomial(), {other}),
    ):
        assert_matches(coefficient_of(a, target, over), ref_coefficient(ra, target, over))
        # A Fraction, whether or not a holds the target.
        got = a.coefficient(target)
        assert type(got) is Fraction and got == ra.get(target, 0)
    renamed = ref_sum(
        *({Monomial((other if v == var else v, e) for v, e in m): c} for m, c in ra.items())
    )
    assert_matches(rename_variables(a, {var: other}), renamed)


window_bounds = st.none() | st.integers(-7, 7)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    laurent_polys(max_terms=6),
    laurent_polys(max_terms=6),
    st.sampled_from(variables_pool),
    window_bounds,
    window_bounds,
)
def test_windowed_product_is_the_filtered_product(a, b, var, low, high):
    # The sliced product with a window on var's exponent.  Base variables,
    # negative exponents, ends beyond every packed exponent and empty windows
    # (low > high) all occur among the draws.
    top = 2**31 - 1
    low, high = -top if low is None else low, top if high is None else high
    full = a * b
    sliced = series._product(series._sliced(a, var), series._sliced(b, var), low, high)
    assert all(sliced[0].values())
    got = series._unsliced(sliced, var)
    assert got == full.filter_terms(var, low, high)
    if got:
        assert got._bound == full._bound
    assert all(got._terms.values()) and math.gcd(got._den, *got._terms.values()) == 1


def test_windowed_product_refuses_an_overflowing_bound_before_forming_a_key(monkeypatch):
    top = 2**31 - 1
    a, b = LaurentPoly.variable(P[0], top), LaurentPoly.variable(P[1])
    sliced = series._sliced(a, P[1]), series._sliced(b, P[1])
    formed = []
    monkeypatch.setattr(series, "_add_product", lambda *args: formed.append(args))
    for low, high in ((-top, top), (0, top), (-top, 0), (1, 0)):
        with pytest.raises(ExponentOverflowError):
            series._product(*sliced, low, high)
    with pytest.raises(ExponentOverflowError):
        a * b
    assert formed == []


def test_windowed_product_refuses_its_bound_when_the_window_lies_in_a_gap(monkeypatch):
    # A stepwise block g^(2^31-2) * (1 + c1^2), sliced by c1 at 0 and 2,
    # meets a level series with one slice, at u^-2, only at the sums -2 and
    # 0, and the push keeps the sum -1, which lies in their gap.  The bound
    # 2^31 is refused all the same, before any key is formed; at g^(2^31-4)
    # the same product fits, and it is empty.
    level = {-2: {0: 1}}, 1, 2
    formed = []
    monkeypatch.setattr(series, "_add_product", lambda *args: formed.append(args))
    for exp in (2**31 - 2, 2**31 - 4):
        g = series._pack(Monomial.of(P[0], exp))[0]
        block = {0: {g: 1}, 2: {g: 1}}, 1, exp
        if exp + 2 < 2**31:
            assert series._product(block, level, -1, -1) == ({}, 1, exp + 2)
        else:
            with pytest.raises(ExponentOverflowError):
                series._product(block, level, -1, -1)
    assert formed == []


def test_product_cancels_to_exact_zero_terms():
    x, y = (LaurentPoly.variable(v) for v in P[:2])
    half = Fraction(1, 2)
    got = (half * x - half * y) * (x + y)
    assert_matches(got, {Monomial.of(P[0], 2): half, Monomial.of(P[1], 2): -half})
    assert_matches(got - got, {})


def test_slot_below_a_negative_exponent_decodes():
    # A negative exponent in slot s borrows from slot s + 1 in the packed
    # key; the exponent read back from slot s + 1 must not show the borrow.
    low, high = P[0], P[1]
    assert series._slot(high) == series._slot(low) + 1
    m = Monomial(((low, -1), (high, 3)))
    p = LaurentPoly({m: Fraction(2, 3)})
    assert p.items() == [(m, Fraction(2, 3))]
    assert series._exponents(p._terms, high) == [3] and series._exponents(p._terms, low) == [-1]
    assert p.filter_terms(high, 3, 3) == p and p.filter_terms(high, 2, 2).is_zero()
    below = LaurentPoly.variable(low, -1) * Fraction(2, 3)
    assert coefficient_of(p, Monomial.of(high, 3), {high}) == below
    assert series._sliced(p, high)[:2] == ({3: below._terms}, below._den)


def test_exponent_outside_its_slot_is_refused():
    top = 2**31 - 1
    for exp in (top, -top):
        p = LaurentPoly.variable(P[0], exp)
        assert series._exponents(p._terms, P[0]) == [exp]
        assert p.items() == [(Monomial.of(P[0], exp), 1)]
    for exp in (top + 1, -top - 1, 10**40):
        with pytest.raises(ExponentOverflowError):
            LaurentPoly.variable(P[0], exp)
    # A product whose exponent would leave the slot is refused, not wrapped
    # into the next slot (p0^top * p0 would read as p0^-top * p1).
    with pytest.raises(ExponentOverflowError):
        LaurentPoly.variable(P[0], top) * LaurentPoly.variable(P[0])
    with pytest.raises(ExponentOverflowError):
        geometric_expand(P[1], P[0], top)
    # 2**32 in slot s has the key of exponent 1 in slot s + 1: no match.
    assert LaurentPoly.variable(P[1]).coefficient(Monomial.of(P[0], 2**32)) == 0


def test_rename_refuses_a_move_that_leaves_the_slot():
    top = 2**31 - 1
    for sign in (1, -1):
        merged = LaurentPoly.monomial(Monomial(((P[0], sign * top), (P[1], sign))))
        # p1 moved onto p0 adds its exponent to p0's: one past the slot.
        with pytest.raises(ExponentOverflowError):
            rename_variables(merged, {P[1]: P[0]})
        # Swapped, no exponent grows; moved onto a free variable, neither.
        swapped = LaurentPoly.monomial(Monomial(((P[1], sign * top), (P[0], sign))))
        assert rename_variables(merged, {P[0]: P[1], P[1]: P[0]}) == swapped
        assert rename_variables(merged, {P[1]: P[2]}) == LaurentPoly.monomial(
            Monomial(((P[0], sign * top), (P[2], sign)))
        )


def test_values_survive_pickle_and_deepcopy():
    spec = flag_tower(2)
    series = poly({((U(1), -2), (G("g"), 1)): Fraction(3, 4), ((V, -1),): -1})
    for value in (spec, series, V, mono((U(1), -2), (V, 3))):
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value and type(copied) is type(value)


# -- cross-check against sympy's series at infinity ---------------------------


def to_sympy(sp, poly_value):
    return sum(
        sp.Rational(c.numerator, c.denominator)
        * sp.Mul(*(sp.Symbol(v.name) ** e for v, e in m))
        for m, c in poly_value.items()
    )


def random_upoly(rng, exps):
    return upoly({e: Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)) for e in exps})


def test_descending_expand_matches_sympy_series_at_infinity():
    sp = pytest.importorskip("sympy")
    x = sp.Symbol(PIVOT.name)
    rng = random.Random(5)
    for _ in range(10):
        lead = rng.randint(-1, 3)
        lower = rng.sample(range(-2, lead), rng.randint(0, min(2, lead + 2)))
        den = random_upoly(rng, lower) + random_upoly(rng, [lead])
        f = RationalFunction1V(random_upoly(rng, rng.sample(range(-2, 4), 2)), den)
        least = rng.randint(-5, 0)
        # At infinity, order n keeps every exponent above -n.
        theirs = sp.series(to_sympy(sp, f.numerator) / to_sympy(sp, den), x, sp.oo, 1 - least)
        ours = to_sympy(sp, descending_expand(f, least))
        assert sp.expand(theirs.removeO() - ours) == 0, (f, least)


def test_shift_expand_matches_sympy_series_at_infinity():
    # Each shift variable y is scaled to y/t, so the power t^-d of the series
    # at t = oo is the part of total shift degree d, the part the cap keeps.
    sp = pytest.importorskip("sympy")
    x, t = sp.Symbol(PIVOT.name), sp.Symbol("t")
    rng = random.Random(6)
    for _ in range(10):
        q = random_upoly(rng, rng.sample(range(-3, 4), rng.randint(1, 3)))
        shift = poly({((U(1), 1),): rng.choice([-2, -1, 1, 2]), ((U(2), 1),): rng.randint(-1, 1)})
        cap = rng.randint(0, 3)
        scaled = {sp.Symbol(v.name): sp.Symbol(v.name) / t for v in shift.variables()}
        argument = x + to_sympy(sp, shift).subs(scaled, simultaneous=True)
        theirs = sp.series(to_sympy(sp, q).subs(x, argument), t, sp.oo, cap + 1)
        ours = to_sympy(sp, shift_expand(q, PIVOT, shift, cap))
        assert sp.expand(theirs.removeO().subs(t, 1) - ours) == 0, (q, shift, cap)


def test_check_int_has_three_shapes_and_echoes_no_long_int():
    # One rule for every integer parameter and option: an int that is not a
    # bool, in low..high, refused under its name in one of three shapes.
    assert [_is_int(v) for v in (0, -(10**5000), True, False, 1.0, None)] == [
        True, True, False, False, False, False,
    ]
    assert _check_int("n", 5, 0, 5) == 5
    assert _check_int("n", -(10**5000)) == -(10**5000)
    cases = [
        ((True,), "n: expected an integer, got True"),
        ((2.0, 0), "n: expected an integer, got 2.0"),
        (("3",), "n: expected an integer, got '3'"),
        ((-1, 0), "n: must be at least 0, got -1"),
        ((6, 0, 5), "n: 6 is above the ceiling 5"),
        ((-sys.maxsize, 0), f"n: must be at least 0, got {-sys.maxsize}"),
        ((sys.maxsize, 0, 5), f"n: {sys.maxsize} is above the ceiling 5"),
        # Beyond sys.maxsize in absolute value an int is not echoed: it may
        # have more digits than str converts.
        ((-sys.maxsize - 1, 0), "n: must be at least 0"),
        ((sys.maxsize + 1, 0, 5), "n: the value is above the ceiling 5"),
        ((-(10**5000), 0), "n: must be at least 0"),
        ((10**5000, None, 5), "n: the value is above the ceiling 5"),
        # Nor is a non-int whose repr fails or is longer than 80 characters.
        ((Fraction(10**5000),), "n: expected an integer, got a value of type Fraction"),
        (("x" * 79,), "n: expected an integer, got a value of type str"),
        (("x" * 78,), f"n: expected an integer, got '{'x' * 78}'"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as info:
            _check_int("n", *args)
        assert str(info.value) == message
