"""Tests for the tower model, the closed formula, and the stepwise oracle."""

import dataclasses
import itertools
import random
import sys
from fractions import Fraction

import pytest

from segre_towers import (
    InvalidTowerError,
    LaurentPoly,
    Monomial,
    RationalFunction1V,
    TowerFactor,
    TowerLevel,
    TowerSpec,
    TruncationRequest,
    closed_formula_segre,
    coefficient_of,
    descending_expand,
    flag_integral,
    flag_tower,
    geometric_expand,
    individual_segre,
    localization_integral,
    pushforward_monomial,
    random_tower_spec,
    rename_variables,
    shift_expand,
    stepwise_pushforward,
    tower_violations,
    validate_tower,
    vandermonde_integral,
)
from segre_towers.cli import tower_spec_from_doc
from segre_towers.tower import PIVOT

from _helpers import C, G, U, mono, padded, poly, rf, simple_tower, upoly


# -- validation ---------------------------------------------------------------


def test_flag_towers_validate():
    for k in (1, 2, 3, 4):
        validate_tower(flag_tower(k))


def test_wrong_twist_length_names_the_level():
    spec = simple_tower(
        [((), 1, {2: 1})],
        [((), 1, {1: 1})],  # level 2 twist vector of length 0
    )
    violations = tower_violations(spec)
    assert any(v.level == 2 and "m" in v.field for v in violations)
    with pytest.raises(InvalidTowerError):
        validate_tower(spec)


def test_empty_factor_list_rejected():
    spec = TowerSpec(1, (TowerLevel(1, ()),))
    assert any(v.field == "factors" for v in tower_violations(spec))


def test_undeclared_base_generator_rejected():
    g = G("g")
    u = LaurentPoly.variable(PIVOT)
    den = u + LaurentPoly.variable(g)
    spec = TowerSpec(
        1, (TowerLevel(1, (TowerFactor((), RationalFunction1V(PIVOT, 1, den)),)),)
    )
    assert any("base variable 'g'" in v.message for v in tower_violations(spec))
    # Declared, a base variable may appear anywhere in q: with a negative
    # exponent, or in the leading denominator term.
    inverse_g = LaurentPoly.variable(g, -1)
    lead_g = LaurentPoly.variable(g) * u + 1
    for q_num, q_den in ((1, den), (inverse_g, u), (1, u + inverse_g), (1, lead_g)):
        factor = TowerFactor((), RationalFunction1V(PIVOT, q_num, q_den))
        assert tower_violations(TowerSpec(1, (TowerLevel(1, (factor,)),), (("g", 1),))) == []


def test_duplicate_aux_name_rejected():
    spec = simple_tower(
        ([((), 1, {2: 1})], ("v", "v")),
    )
    assert any("not unique" in v.message for v in tower_violations(spec))


@pytest.mark.parametrize(
    "k, reserved",
    [
        (1, {"u", "u1", "c1"}),
        (2, {"u", "u1", "c1", "c2"}),
        (10**12, {"u", "u1", "c1", "c2", "u10"}),
    ],
)
def test_reserved_names_follow_the_level_count(k, reserved):
    # The pivot's name and u1..uk, c1..ck in canonical decimal, and no others.
    # A name that is empty or holds whitespace, "," or "=" can head no table
    # column and key no --aux-orders entry, whatever k is.
    names = ("u", "u1", "c1", "c2", "u10", "u01", "u+1", "uc1", "w")
    unusable = ("", " w", "a\tb", "a,b", "a=b", "x\n")
    level = [((), 1, {2: 1})]
    aux_fields = [f"aux[{pos}]" for pos in range(len(names), len(names + unusable))]
    for spec, message, fields in (
        (simple_tower((level, names + unusable)), "is not unique", aux_fields),
        (
            simple_tower(level, base_generators=[(n, 1) for n in names + unusable]),
            "is reserved",
            ["base_generators"] * len(unusable),
        ),
    ):
        found = tower_violations(dataclasses.replace(spec, k=k))
        assert {v.message.split("'")[1] for v in found if message in v.message} == reserved
        refused = [v for v in found if "whitespace" in v.message]
        assert [v.field for v in refused] == fields
        assert [v.message.split(" must")[0] for v in refused] == [
            f"name {n!r}" for n in unusable
        ]


@pytest.mark.parametrize(
    "k", [-1, -(10**5000), sys.maxsize + 1, 10**5000], ids=["-1", "-10^5000", "max+1", "10^5000"]
)
def test_level_count_out_of_range_names_k(k):
    assert [v.field for v in tower_violations(TowerSpec(k, ()))] == ["k"]


def test_level_count_mismatch_rejected():
    spec = TowerSpec(2, (TowerLevel(1, (TowerFactor((), rf(1, {1: 1})),)),))
    assert any(v.field == "levels" for v in tower_violations(spec))


# -- individual_segre ----------------------------------------------------------


def test_individual_segre_flag_bottom_level():
    for k in (1, 2, 3):
        got = individual_segre(flag_tower(k), 1, -k - 2)
        assert got == upoly({-k - 1: 1})


def test_individual_segre_flag_top_level_k3():
    got = individual_segre(flag_tower(3), 3, -6)
    c1, c2 = C(1), C(2)
    want = poly(
        {
            ((PIVOT, -2),): 1,
            ((PIVOT, -3), (c1, 1)): -1,
            ((PIVOT, -3), (c2, 1)): -1,
            ((PIVOT, -4), (c1, 1), (c2, 1)): 1,
        }
    )
    assert got == want


def test_individual_segre_isomorphism_like_step():
    spec = simple_tower([((), 1, {1: 1})])
    assert individual_segre(spec, 1, -4) == upoly({-1: 1})


# -- closed formula -------------------------------------------------------------


def test_closed_formula_flag_k2_matches_vandermonde_form():
    spec = flag_tower(2)
    req = TruncationRequest.derive(spec, (3, 3))
    got = closed_formula_segre(spec, req)
    u1, u2 = U(1), U(2)
    want = poly({((u1, -3), (u2, -2)): 1, ((u1, -2), (u2, -3)): -1})
    assert got == want


def test_closed_formula_single_level_monomial():
    for r in (1, 2, 4):
        spec = simple_tower([((), 1, {r: 1})])
        req = TruncationRequest.derive(spec, (r + 1,))
        assert closed_formula_segre(spec, req) == poly({((U(1), -r),): 1})


def test_closed_formula_aux_level_values():
    # One level, series 1/u^2, one auxiliary variable: the only surviving
    # monomials pair total tautological degree 1 across the two slots.
    spec = simple_tower(([((), 1, {2: 1})], ("v",)))
    v = spec.aux_variables()[0]
    req = TruncationRequest.derive(spec, (2,), {"v": 2})
    got = closed_formula_segre(spec, req)
    u1 = U(1)
    want = poly({((u1, -2), (v, -1)): 1, ((u1, -1), (v, -2)): 1})
    assert got == want
    assert got.coefficient(mono((u1, -3), (v, -1))) == 0
    # Cross-checked against the independent stepwise computation.
    assert stepwise_pushforward(spec, req) == got


def test_closed_formula_output_is_all_negative():
    # Neither route filters its result, so both must land in the window
    # [-a_i-1, -1] per tower variable and [-b-1, -1] per auxiliary variable.
    rng = random.Random(3)
    nonempty = 0
    for _ in range(10):
        spec = random_tower_spec(rng)
        req = TruncationRequest.derive(
            spec,
            tuple(rng.randint(0, 2) for _ in range(spec.k)),
            {v.name: rng.randint(0, 1) for v in spec.aux_variables()},
        )
        bounds = list(zip(spec.tower_variables(), req.tower_orders))
        bounds += [(v, req.aux_order(v.name)) for v in spec.aux_variables()]
        for route in (closed_formula_segre, stepwise_pushforward):
            out = route(spec, req)
            nonempty += not out.is_zero()
            for m, _ in out.items():
                for var, order in bounds:
                    assert -order - 1 <= m.exponent(var) <= -1, (route.__name__, m)
    assert nonempty > 0


# -- stepwise oracle -------------------------------------------------------------


def test_stepwise_flag_k1_is_projective_line():
    spec = flag_tower(1)
    req = TruncationRequest.derive(spec, (2,))
    assert stepwise_pushforward(spec, req) == poly({((U(1), -2),): 1})


def test_stepwise_regression_twisted_two_level_tower():
    # Level 1: series 1/u^2.  Level 2: twist (1), series 1/u.  By direct hand
    # expansion the window a <= 2 carries exactly u1^-2*u2^-1 - u1^-1*u2^-2.
    spec = simple_tower(
        [((), 1, {2: 1})],
        [((1,), 1, {1: 1})],
    )
    req = TruncationRequest.derive(spec, (2, 2))
    got = stepwise_pushforward(spec, req)
    u1, u2 = U(1), U(2)
    assert got == poly({((u1, -2), (u2, -1)): 1, ((u1, -1), (u2, -2)): -1})
    assert got.coefficient(mono((u1, -1), (u2, -2))) == -1
    assert closed_formula_segre(spec, req) == got


def test_closed_equals_stepwise_on_flag_towers():
    for k in (1, 2, 3, 4, 5):
        spec = flag_tower(k)
        req = TruncationRequest.derive(spec, (k,) * k)
        assert closed_formula_segre(spec, req) == stepwise_pushforward(spec, req)


def zero_numerator_doc(level):
    """Two-level spec document, 1/u^2 at level 1 and 1/(u - c_1)^2 with aux
    ``v`` at level 2; ``level`` (if nonzero) gets the empty numerator."""
    factor = {"q_num": [[0, 1, 1]], "q_den": [[2, 1, 1]]}
    levels = [
        {"factors": [{"m": [], **factor}], "aux": []},
        {"factors": [{"m": [-1], **factor}], "aux": ["v"]},
    ]
    if level:
        levels[level - 1]["factors"][0]["q_num"] = []
    return {"k": 2, "base_generators": [], "levels": levels}


@pytest.mark.parametrize("level", [1, 2])
def test_zero_numerator_gives_zero_by_every_route(level):
    # The same tower with its numerators kept is nonzero by every route, so
    # the zero results below come from the empty numerator alone.
    for doc_level, nonzero in ((0, True), (level, False)):
        spec = tower_spec_from_doc(zero_numerator_doc(doc_level))
        req = TruncationRequest.derive(spec, (2, 2), {"v": 1})
        closed = closed_formula_segre(spec, req)
        assert closed == stepwise_pushforward(spec, req)
        assert closed.is_zero() != nonzero
        assert individual_segre(spec, level, -6).is_zero() != nonzero
        assert pushforward_monomial(spec, (1, 0), {"v": 1}).is_zero() != nonzero


def test_closed_equals_stepwise_on_random_towers_smoke():
    rng = random.Random(123)
    for _ in range(12):
        spec = random_tower_spec(rng)
        orders = tuple(rng.randint(0, 2) for _ in range(spec.k))
        aux = {v.name: rng.randint(0, 1) for v in spec.aux_variables()}
        req = TruncationRequest.derive(spec, orders, aux)
        assert closed_formula_segre(spec, req) == stepwise_pushforward(spec, req)


def unpruned_window(spec, req):
    """The closed formula with none of its prunes: from the top level down,
    every level's shifted factors (expanded to depth own - cap) and
    auxiliary series are multiplied in, and u_i is filtered to its window
    [-a_i-1, -1] only once level i is done."""
    result = LaurentPoly.one()
    for i in range(spec.k, 0, -1):
        lvl, u_i, cap = spec.levels[i - 1], U(i), req.shift_caps[i - 1]
        for factor in lvl.factors:
            own = max(factor.series.leading_exponent or 0, 0)
            expansion = rename_variables(descending_expand(factor.series, own - cap), {PIVOT: u_i})
            shift = LaurentPoly(
                (Monomial.of(U(j + 1)), Fraction(t)) for j, t in enumerate(factor.twists) if t
            )
            result = result * shift_expand(expansion, u_i, shift, cap)
        for var in lvl.aux:
            result = result * geometric_expand(var, u_i, req.aux_order(var.name))
        a_i = req.tower_orders[i - 1]
        result = result.filter_terms(lambda m: -a_i - 1 <= m.exponent(u_i) <= -1)
    return result


def test_both_routes_equal_the_unpruned_closed_formula():
    # The floors and the multiplier prefilter of both routes drop only terms
    # that cannot reach the window.  k <= 2 keeps the unpruned products small.
    rng = random.Random(41)
    nonempty = 0
    for _ in range(20):
        spec = random_tower_spec(rng, max_k=2)
        orders = tuple(rng.randint(0, 3) for _ in range(spec.k))
        aux = {v.name: rng.randint(0, 2) for v in spec.aux_variables()}
        req = TruncationRequest.derive(spec, orders, aux)
        want = unpruned_window(spec, req)
        assert closed_formula_segre(spec, req) == want
        assert stepwise_pushforward(spec, req) == want
        nonempty += not want.is_zero()
    assert nonempty >= 10


def test_closed_equals_stepwise_under_large_leading_degrees():
    # Monomial denominators with negative exponents maximize the positive
    # leading degree of each factor, the worst case for the mass-flow bound
    # behind the derived truncation caps.
    rng = random.Random(99)
    for _ in range(15):
        k = rng.randint(2, 3)
        levels = []
        for i in range(1, k + 1):
            factors = []
            for _ in range(rng.randint(1, 2)):
                twists = tuple(rng.randint(-2, 2) for _ in range(i - 1))
                num = LaurentPoly(
                    (Monomial.of(PIVOT, e), Fraction(rng.choice([-2, -1, 1, 2])))
                    for e in rng.sample(range(-3, 4), rng.randint(1, 2))
                )
                den = LaurentPoly.variable(PIVOT, rng.randint(-3, 0))
                factors.append(TowerFactor(twists, RationalFunction1V(PIVOT, num, den)))
            levels.append(TowerLevel(i, tuple(factors)))
        spec = TowerSpec(k, tuple(levels))
        orders = tuple(rng.randint(0, 2) for _ in range(spec.k))
        req = TruncationRequest.derive(spec, orders)
        closed = closed_formula_segre(spec, req)
        assert closed == stepwise_pushforward(spec, req)
        assert closed_formula_segre(spec, padded(req, 3)) == closed


def test_closed_equals_stepwise_with_base_coefficients():
    # Coefficients from the base ring travel through both computations: on
    # the bottom level only, on both levels, and with negative base exponents
    # from 1/(g*u + u^-1), whose expansion divides by g.
    g = G("g")
    u = LaurentPoly.variable(PIVOT)
    g_poly = LaurentPoly.variable(g)
    pairs = [
        (RationalFunction1V(PIVOT, 1, u * u + g_poly * u), rf({1: 1, 0: 2}, {2: 1})),
        (
            RationalFunction1V(PIVOT, 1, u * u + g_poly * u),
            RationalFunction1V(PIVOT, g_poly * u + 2, u * u + g_poly),
        ),
        (
            RationalFunction1V(PIVOT, 1, g_poly * u + LaurentPoly.variable(PIVOT, -1)),
            RationalFunction1V(PIVOT, g_poly, u * u),
        ),
    ]
    exponents = set()
    for bottom, top in pairs:
        levels = (
            TowerLevel(1, (TowerFactor((), bottom),)),
            TowerLevel(2, (TowerFactor((-1,), top),)),
        )
        spec = TowerSpec(2, levels, base_generators=(("g", 1),))
        req = TruncationRequest.derive(spec, (2, 2))
        closed = closed_formula_segre(spec, req)
        assert closed == stepwise_pushforward(spec, req)
        exponents |= {m.exponent(g) for m, _ in closed.items()}
    assert min(exponents) < 0 < max(exponents)


def test_degenerate_tower_is_constant_one():
    spec = TowerSpec(0, ())
    req = TruncationRequest.derive(spec, ())
    assert closed_formula_segre(spec, req) == 1
    assert stepwise_pushforward(spec, req) == 1


# -- window and invariants --------------------------------------------------------


def test_window_exactness_under_enlargement():
    rng = random.Random(5)
    for _ in range(8):
        spec = random_tower_spec(rng)
        small = tuple(rng.randint(0, 1) for _ in range(spec.k))
        big = tuple(a + 2 for a in small)
        aux_small = {v.name: 0 for v in spec.aux_variables()}
        aux_big = {v.name: 1 for v in spec.aux_variables()}
        req_small = TruncationRequest.derive(spec, small, aux_small)
        req_big = TruncationRequest.derive(spec, big, aux_big)
        out_small = closed_formula_segre(spec, req_small)
        out_big = closed_formula_segre(spec, req_big)

        def in_small_window(m):
            ok = all(
                -a - 1 <= m.exponent(U(i + 1)) <= -1 for i, a in enumerate(small)
            )
            return ok and all(m.exponent(v) == -1 for v in spec.aux_variables())

        assert out_big.filter_terms(in_small_window) == out_small


def test_factor_order_independence():
    spec = flag_tower(3)
    shuffled_levels = []
    rng = random.Random(9)
    for lvl in spec.levels:
        factors = list(lvl.factors)
        rng.shuffle(factors)
        shuffled_levels.append(TowerLevel(lvl.index, tuple(factors), lvl.aux))
    shuffled = TowerSpec(spec.k, tuple(shuffled_levels))
    req = TruncationRequest.derive(spec, (3, 3, 3))
    assert closed_formula_segre(spec, req) == closed_formula_segre(shuffled, req)
    assert stepwise_pushforward(spec, req) == stepwise_pushforward(shuffled, req)


def test_grading_vanishing_over_a_point():
    # Homogeneous factors over a point force a single surviving total order.
    spec = simple_tower([((), 1, {2: 1})])
    req = TruncationRequest.derive(spec, (4,))
    out = closed_formula_segre(spec, req)
    assert out == poly({((U(1), -2),): 1})  # only a = 1 survives


def test_grading_homogeneous_base_coefficients():
    # Series 1/(u + g) with deg g = 1: the coefficient of u1^(-a-1) is (-g)^a.
    g = G("g")
    den = LaurentPoly.variable(PIVOT) + LaurentPoly.variable(g)
    spec = TowerSpec(
        1,
        (TowerLevel(1, (TowerFactor((), RationalFunction1V(PIVOT, 1, den)),)),),
        base_generators=(("g", 1),),
    )
    req = TruncationRequest.derive(spec, (3,))
    out = closed_formula_segre(spec, req)
    for a in range(4):
        coeff = out.coefficient(mono((U(1), -a - 1), (g, a)))
        assert coeff == Fraction(-1) ** a
    # Homogeneity: every term's base degree matches its forced value.
    for m, _ in out.items():
        assert m.exponent(g) == -m.exponent(U(1)) - 1


# -- truncation request ----------------------------------------------------------


def test_truncation_request_validates_orders():
    spec = flag_tower(2)
    with pytest.raises(ValueError):
        TruncationRequest.derive(spec, (1,))
    with pytest.raises(ValueError):
        TruncationRequest.derive(spec, (1, -1))
    with pytest.raises(ValueError):
        TruncationRequest.derive(spec, (1, 1), {"nope": 1})


AUX_TOWER = simple_tower(([((), 1, {2: 1})], ("v",)))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: TruncationRequest.derive(flag_tower(2), (1,)), "tower_orders"),
        (lambda: TruncationRequest.derive(flag_tower(2), (1, -1)), "tower_orders"),
        (lambda: TruncationRequest.derive(flag_tower(2), (1, 1.9)), "tower_orders"),
        (lambda: TruncationRequest.derive(flag_tower(2), (True, 1)), "tower_orders"),
        (lambda: TruncationRequest.derive(AUX_TOWER, (1,), {"x": 1}), "aux_orders"),
        (lambda: TruncationRequest.derive(AUX_TOWER, (1,), {"v": -1}), "aux_orders"),
        (lambda: TruncationRequest.derive(AUX_TOWER, (1,), {"v": 0.5}), "aux_orders"),
        (lambda: pushforward_monomial(flag_tower(2), (1,)), "tower_exponents"),
        (lambda: pushforward_monomial(flag_tower(2), (2, -1)), "tower_exponents"),
        (lambda: pushforward_monomial(flag_tower(2), (1.9, 2.2)), "tower_exponents"),
        (lambda: pushforward_monomial(flag_tower(2), (True, 2)), "tower_exponents"),
        (lambda: pushforward_monomial(AUX_TOWER, (0,), {"w": 1}), "aux_exponents"),
        (lambda: pushforward_monomial(AUX_TOWER, (0,), {"v": False}), "aux_exponents"),
        (lambda: flag_integral(2, (1.9, 2.2)), "exponents"),
        (lambda: flag_integral(2, (True, 2)), "exponents"),
        (lambda: vandermonde_integral(2, (1.5, 2)), "exponents"),
        (lambda: vandermonde_integral(2, (1, True)), "exponents"),
        (lambda: localization_integral(2, (1.2, 2), trials=1), "exponents"),
        (lambda: localization_integral(2, (2, False), trials=1), "exponents"),
        (lambda: localization_integral(2, (1, 2), trials=0), "trials"),
        (lambda: localization_integral(2, (1, 2), trials=1.5), "trials"),
        (lambda: localization_integral(2, (1, 2), trials=True), "trials"),
        (lambda: flag_tower(0), "k"),
        (lambda: flag_tower(True), "k"),
        (lambda: flag_integral(0, ()), "k"),
        (lambda: flag_integral(-1, ()), "k"),
        (lambda: vandermonde_integral(0, ()), "k"),
        (lambda: vandermonde_integral(2.0, (1, 2)), "k"),
        (lambda: localization_integral(0, ()), "k"),
        (lambda: localization_integral(True, (1,)), "k"),
        # Counts beyond sys.maxsize match no tuple; 10**5000 cannot be printed.
        (lambda: flag_integral(10**5000, ()), "k"),
        (lambda: flag_integral(-(10**5000), ()), "k"),
        (lambda: vandermonde_integral(10**5000, ()), "k"),
        (lambda: vandermonde_integral(sys.maxsize + 1, ()), "k"),
        (lambda: localization_integral(10**5000, (), trials=1), "k"),
        (lambda: localization_integral(1, (1,), trials=10**5000), "trials"),
    ],
)
def test_library_errors_name_the_parameter(call, name):
    # Library errors name the function's parameter, never a CLI option, and
    # a float or a bool is refused rather than truncated by int().
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(f"{name}: ")
    assert "--" not in str(info.value)


def test_truncation_request_cap_floor():
    spec = flag_tower(2)
    req = TruncationRequest.derive(spec, (1, 2))
    floor = (1 + 1) + (2 + 1)
    assert req.degree_cap >= floor


def test_derived_caps_are_linear_suffix_sums():
    # On the full flag window the caps grow quadratically in k, not
    # exponentially; each is a suffix sum of one linear term per level.
    for k in range(1, 9):
        req = TruncationRequest.derive(flag_tower(k), (k,) * k)
        assert req.degree_cap == (3 * k * k + k) // 2
    assert TruncationRequest.derive(flag_tower(5), (5,) * 5).shift_caps == (40, 34, 27, 19, 10)
    rng = random.Random(31)
    for _ in range(20):
        spec = random_tower_spec(rng, max_k=4)
        orders = tuple(rng.randint(0, 3) for _ in range(spec.k))
        aux = {v.name: rng.randint(0, 2) for v in spec.aux_variables()}
        req = TruncationRequest.derive(spec, orders, aux)
        steps = [
            sum(max(f.series.leading_exponent or 0, 0) for f in lvl.factors)
            + a
            + 1
            + sum(aux[v.name] for v in lvl.aux)
            for lvl, a in zip(spec.levels, orders)
        ]
        assert req.shift_caps == tuple(sum(steps[j:]) for j in range(spec.k))
        assert req.degree_cap == sum(steps)


def test_stabilization_under_cap_increase():
    rng = random.Random(21)
    for _ in range(8):
        spec = random_tower_spec(rng)
        orders = tuple(rng.randint(0, 2) for _ in range(spec.k))
        aux = {v.name: rng.randint(0, 1) for v in spec.aux_variables()}
        req = TruncationRequest.derive(spec, orders, aux)
        assert closed_formula_segre(spec, req) == closed_formula_segre(spec, padded(req, 3))


# -- pushforward_monomial ----------------------------------------------------------


def test_pushforward_monomial_flag_values():
    spec = flag_tower(2)
    assert pushforward_monomial(spec, (2, 1)).constant_value() == 1
    assert pushforward_monomial(spec, (1, 2)).constant_value() == -1
    assert pushforward_monomial(spec, (3, 0)).constant_value() == 0


def test_pushforward_monomial_aux_exponents():
    spec = simple_tower(([((), 1, {2: 1})], ("v",)))
    assert pushforward_monomial(spec, (0,), {"v": 1}).constant_value() == 1
    assert pushforward_monomial(spec, (1,), {"v": 0}).constant_value() == 1
    assert pushforward_monomial(spec, (1,), {"v": 1}).constant_value() == 0
    with pytest.raises(ValueError):
        pushforward_monomial(spec, (0,), {"w": 1})


def test_pushforward_monomial_matches_window_coefficients():
    # The closed route against the stepwise push of one monomial: each push
    # must give exactly the closed window's coefficient at every window point,
    # aux exponents and base coefficients included.
    rng = random.Random(41)
    cases = []
    for _ in range(10):
        spec = random_tower_spec(rng)
        orders = tuple(rng.randint(0, 2) for _ in range(spec.k))
        cases.append((spec, orders, {v.name: rng.randint(0, 1) for v in spec.aux_variables()}))
    g = G("g")
    den = LaurentPoly.variable(PIVOT, 2) + LaurentPoly.variable(g) * LaurentPoly.variable(PIVOT)
    based = TowerSpec(
        2,
        (
            TowerLevel(1, (TowerFactor((), RationalFunction1V(PIVOT, 1, den)),)),
            TowerLevel(2, (TowerFactor((-1,), rf({1: 1, 0: 2}, {2: 1})),)),
        ),
        base_generators=(("g", 1),),
    )
    cases.append((based, (2, 2), {}))
    nonzero = with_base = 0
    for spec, orders, aux_orders in cases:
        window = closed_formula_segre(spec, TruncationRequest.derive(spec, orders, aux_orders))
        aux_vars = spec.aux_variables()
        over = spec.tower_variables() + aux_vars
        aux_ranges = [range(aux_orders[v.name] + 1) for v in aux_vars]
        for exps in itertools.product(*(range(a + 1) for a in orders)):
            for aux_exps in itertools.product(*aux_ranges):
                target = Monomial(
                    [(U(i + 1), -a - 1) for i, a in enumerate(exps)]
                    + [(v, -b - 1) for v, b in zip(aux_vars, aux_exps)]
                )
                aux = {v.name: b for v, b in zip(aux_vars, aux_exps)}
                value = pushforward_monomial(spec, exps, aux)
                assert value == coefficient_of(window, target, over), (spec, exps, aux)
                nonzero += not value.is_zero()
                with_base += not value.variables().isdisjoint(spec.base_variables())
    assert nonzero > 0 and with_base > 0


def test_pushforward_monomial_rejects_negative_exponents():
    with pytest.raises(ValueError):
        pushforward_monomial(flag_tower(2), (-1, 0))
