"""Tests for the tower model, the closed formula, and the stepwise oracle."""

import itertools
import random
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
    flag_integral,
    flag_tower,
    individual_segre,
    localization_integral,
    pushforward_monomial,
    random_tower_spec,
    stepwise_pushforward,
    tower_violations,
    validate_tower,
    vandermonde_integral,
)
from segre_towers.tower import PIVOT

from _helpers import C, G, U, mono, poly, rf, simple_tower, upoly


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
    den = LaurentPoly.variable(PIVOT) + LaurentPoly.variable(g)
    spec = TowerSpec(
        1, (TowerLevel(1, (TowerFactor((), RationalFunction1V(PIVOT, 1, den)),)),)
    )
    assert any("base variable 'g'" in v.message for v in tower_violations(spec))


def test_duplicate_aux_name_rejected():
    spec = simple_tower(
        ([((), 1, {2: 1})], ("v", "v")),
    )
    assert any("not unique" in v.message for v in tower_violations(spec))


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
    for k in (1, 2, 3):
        spec = flag_tower(k)
        req = TruncationRequest.derive(spec, (k,) * k)
        assert closed_formula_segre(spec, req) == stepwise_pushforward(spec, req)


def test_closed_equals_stepwise_on_random_towers_smoke():
    rng = random.Random(123)
    for _ in range(12):
        spec = random_tower_spec(rng)
        orders = tuple(rng.randint(0, 2) for _ in range(spec.k))
        aux = {v.name: rng.randint(0, 1) for v in spec.aux_variables()}
        req = TruncationRequest.derive(spec, orders, aux)
        assert closed_formula_segre(spec, req) == stepwise_pushforward(spec, req)


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
        padded = TruncationRequest.derive(spec, orders, degree_cap=req.degree_cap + 3)
        assert closed_formula_segre(spec, padded) == closed


def test_closed_equals_stepwise_with_base_coefficients():
    # Coefficients from the base ring travel through both computations.
    g = G("g")
    den = LaurentPoly.variable(PIVOT, 2) + LaurentPoly.variable(g) * LaurentPoly.variable(PIVOT)
    spec = TowerSpec(
        2,
        (
            TowerLevel(1, (TowerFactor((), RationalFunction1V(PIVOT, 1, den)),)),
            TowerLevel(2, (TowerFactor((-1,), rf({1: 1, 0: 2}, {2: 1})),)),
        ),
        base_generators=(("g", 1),),
    )
    req = TruncationRequest.derive(spec, (2, 2))
    closed = closed_formula_segre(spec, req)
    assert closed == stepwise_pushforward(spec, req)
    assert any(m.exponent(g) > 0 for m, _ in closed.items())


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


def test_base_degree_cap_drops_high_degrees_only():
    g = G("g")
    den = LaurentPoly.variable(PIVOT) + LaurentPoly.variable(g)
    factor = TowerFactor((), RationalFunction1V(PIVOT, 1, den))
    full = TowerSpec(1, (TowerLevel(1, (factor,)),), (("g", 1),))
    capped = TowerSpec(1, (TowerLevel(1, (factor,)),), (("g", 1),), base_degree_cap=2)
    req = TruncationRequest.derive(full, (4,))
    out_full = closed_formula_segre(full, req)
    out_capped = closed_formula_segre(capped, req)
    weights = {g: 1}
    low = out_full.filter_terms(lambda m: m.weighted_degree(weights) <= 2)
    assert out_capped == low
    assert out_capped != out_full

    # Two levels with base coefficients on both, by both routes: each capped
    # result is the uncapped window filtered to the cap.
    u = LaurentPoly.variable(PIVOT)
    g_poly = LaurentPoly.variable(g)
    bottom = RationalFunction1V(PIVOT, 1, u * u + g_poly * u)
    top = RationalFunction1V(PIVOT, g_poly * u + 2, u * u + g_poly)
    levels = (
        TowerLevel(1, (TowerFactor((), bottom),)),
        TowerLevel(2, (TowerFactor((-1,), top),)),
    )
    full = TowerSpec(2, levels, (("g", 1),))
    req = TruncationRequest.derive(full, (2, 2))
    out_full = closed_formula_segre(full, req)
    dropped = 0
    for cap in range(4):
        capped = TowerSpec(2, levels, (("g", 1),), base_degree_cap=cap)
        low = out_full.filter_terms(lambda m: m.weighted_degree(weights) <= cap)
        assert closed_formula_segre(capped, req) == low == stepwise_pushforward(capped, req)
        assert not low.is_zero()
        dropped += len(out_full) - len(low)
    assert dropped > 0


def test_base_degree_cap_refuses_negative_base_exponents():
    # Under a cap, 1/(g*u + u^-1) expands with g^-1: the capped routes would
    # both return 0 for orders (0, 1), while the uncapped window filtered to
    # base degree 0 holds u1^-1*u2^-2.
    g = G("g")
    u = LaurentPoly.variable(PIVOT)
    g_poly = LaurentPoly.variable(g)
    bottom = RationalFunction1V(PIVOT, 1, g_poly * u + LaurentPoly.variable(PIVOT, -1))
    top = RationalFunction1V(PIVOT, g_poly, u * u)
    levels = (
        TowerLevel(1, (TowerFactor((), bottom),)),
        TowerLevel(2, (TowerFactor((-1,), top),)),
    )
    uncapped = TowerSpec(2, levels, (("g", 1),))
    req = TruncationRequest.derive(uncapped, (0, 1))
    window = closed_formula_segre(uncapped, req)
    assert window.filter_terms(lambda m: m.exponent(g) <= 0) == poly({((U(1), -1), (U(2), -2)): 1})
    capped = TowerSpec(2, levels, (("g", 1),), base_degree_cap=0)
    violations = tower_violations(capped)
    assert [(v.level, v.field) for v in violations] == [(1, "factors[0].q")]
    assert "leading denominator term" in violations[0].message
    for route in (closed_formula_segre, stepwise_pushforward):
        with pytest.raises(InvalidTowerError):
            route(capped, req)

    # A negative base exponent anywhere in q is refused as well.
    inverse_g = LaurentPoly.variable(g, -1)
    for num, den in ((inverse_g, u), (1, u + inverse_g)):
        factor = TowerFactor((), RationalFunction1V(PIVOT, num, den))
        spec = TowerSpec(1, (TowerLevel(1, (factor,)),), (("g", 1),), base_degree_cap=2)
        violations = tower_violations(spec)
        assert [(v.level, v.field) for v in violations] == [(1, "factors[0].q")]
        assert "negative" in violations[0].message
        assert tower_violations(TowerSpec(1, spec.levels, (("g", 1),))) == []


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
    with pytest.raises(ValueError):
        TruncationRequest.derive(spec, (1, 2), degree_cap=req.degree_cap - 1)
    bigger = TruncationRequest.derive(spec, (1, 2), degree_cap=req.degree_cap + 5)
    assert bigger.degree_cap == req.degree_cap + 5


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
        padded = TruncationRequest.derive(
            spec, orders, aux, degree_cap=req.degree_cap + 3
        )
        assert closed_formula_segre(spec, req) == closed_formula_segre(spec, padded)


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
    # The pinned product must give exactly the window's coefficient at every
    # window point, aux exponents and capped base coefficients included.
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
        base_degree_cap=1,
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
