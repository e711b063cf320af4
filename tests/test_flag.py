"""Tests for the flag tower, Vandermonde coefficients, and localization."""

import itertools

import pytest

from segre_towers import (
    LaurentPoly,
    LocalizationDisagreement,
    Monomial,
    TruncationRequest,
    closed_formula_segre,
    flag_integral,
    flag_tower,
    localization_integral,
    negative_part,
    rename_variables,
    validate_tower,
    vandermonde_integral,
    vandermonde_product,
)
from segre_towers.cli import flag_exponent_tuples
from segre_towers.tower import PIVOT

from _helpers import U, arrangement_sign


def test_flag_tower_k1_structure():
    spec = flag_tower(1)
    assert spec.k == 1
    (factor,) = spec.levels[0].factors
    assert factor.twists == ()
    assert factor.series.numerator == 1
    assert factor.series.denominator == LaurentPoly.variable(PIVOT, 2)


def test_flag_tower_k2_level2_factors():
    spec = flag_tower(2)
    factors = spec.levels[1].factors
    assert [f.twists for f in factors] == [(0,), (-1,)]
    assert factors[0].series.denominator == LaurentPoly.variable(PIVOT, 3)
    assert factors[1].series.numerator == LaurentPoly.variable(PIVOT)


def test_flag_tower_validates():
    validate_tower(flag_tower(4))


def test_flag_tower_rejects_k0():
    with pytest.raises(ValueError):
        flag_tower(0)


# -- vandermonde integrals ------------------------------------------------------


def test_vandermonde_k1():
    assert vandermonde_integral(1, (1,)) == 1


def test_vandermonde_k2_values():
    assert vandermonde_integral(2, (1, 2)) == -1
    assert vandermonde_integral(2, (2, 1)) == 1
    assert vandermonde_integral(2, (1, 1)) == 0


def test_vandermonde_expansion_is_signed_permutation_sum():
    # Independent form of the same product: sum over permutations with signs.
    for k in (2, 3, 4):
        direct = vandermonde_product(k)
        alt = LaurentPoly.zero()
        for perm in itertools.permutations(range(k)):
            sign = arrangement_sign(perm)
            term = Monomial((U(i + 1), perm[i]) for i in range(k))
            alt = alt + LaurentPoly.monomial(term, sign)
        assert direct == alt


# -- flag integrals ---------------------------------------------------------------


def test_flag_integral_matches_vandermonde_small():
    for k in (1, 2, 3):
        for exps in flag_exponent_tuples(k):
            assert flag_integral(k, exps) == vandermonde_integral(k, exps)


def test_flag_integral_reversal_sign():
    assert flag_integral(3, (1, 2, 3)) == -1


def test_flag_integral_degree_vanishing():
    dim = 3
    for exps in itertools.product(range(3), repeat=2):
        if sum(exps) != dim:
            assert flag_integral(2, exps) == 0


def test_permutation_sign_law_k3():
    k = 3
    for exps in itertools.product(range(k + 1), repeat=k):
        if sum(exps) > k * (k + 1) // 2:
            continue
        expected = arrangement_sign(tuple(k - a for a in exps))
        assert flag_integral(k, exps) == expected


@pytest.mark.parametrize("k", [9, 10])
@pytest.mark.parametrize("reverse", [False, True], ids=["identity", "reversed"])
def test_permutation_sign_law_deep(k, reverse):
    # k - a_i runs over 0..k-1 in order (identity) or backwards (reversed).
    exps = tuple(range(1, k + 1)) if reverse else tuple(range(k, 0, -1))
    expected = arrangement_sign(tuple(k - a for a in exps))
    assert expected != 0
    assert flag_integral(k, exps) == expected


# -- localization ------------------------------------------------------------------


def test_localization_calibration_k1():
    # t2/(t2-t1) + t1/(t1-t2) = 1 identically; fixes the sign convention.
    assert localization_integral(1, (1,)) == 1


def test_localization_k2_agreement():
    assert localization_integral(2, (2, 1)) == 1
    assert localization_integral(2, (1, 2)) == -1


def test_localization_zero_sum_below_dimension():
    assert localization_integral(2, (0, 0)) == 0


def test_localization_seed_determinism():
    a = localization_integral(3, (1, 2, 3), trials=2, seed=99)
    b = localization_integral(3, (1, 2, 3), trials=2, seed=99)
    assert a == b == -1


def test_localization_rejects_bad_trials():
    with pytest.raises(ValueError):
        localization_integral(1, (1,), trials=0)


def test_localization_disagreement_surfaces():
    # Above the dimension the fixed-point sum depends on the weights (here it
    # is a nonconstant symmetric polynomial), so distinct trials must be
    # reported as an internal-consistency failure.
    with pytest.raises(LocalizationDisagreement):
        localization_integral(2, (4, 2), trials=3, seed=5)


def test_triple_agreement_k_up_to_3():
    for k in (1, 2, 3):
        for exps in flag_exponent_tuples(k):
            ft = flag_integral(k, exps)
            vd = vandermonde_integral(k, exps)
            loc = localization_integral(k, exps, trials=2, seed=17)
            assert ft == vd == loc


# -- structural properties ----------------------------------------------------------


def test_antisymmetry_of_segre_numerator():
    for k in (2, 3):
        spec = flag_tower(k)
        req = TruncationRequest.derive(spec, (k,) * k)
        series = closed_formula_segre(spec, req)
        shifted = series * LaurentPoly.monomial(
            Monomial((U(i + 1), k + 1) for i in range(k))
        )
        for i in range(1, k + 1):
            for j in range(i + 1, k + 1):
                swap = {U(i): U(j), U(j): U(i)}
                assert rename_variables(shifted, swap) == -shifted


def test_no_projection_needed_for_flag_towers():
    # The pre-projection closed-formula product of the flag tower is the
    # Vandermonde product times prod u_i^(-k-1), and it is already
    # all-negative.
    for k in (1, 2, 3, 4):
        tower_vars = [U(i) for i in range(1, k + 1)]
        product = vandermonde_product(k) * LaurentPoly.monomial(
            Monomial((u, -k - 1) for u in tower_vars)
        )
        assert product
        assert negative_part(product, tower_vars) == product


def test_arrangement_sign():
    assert arrangement_sign((0, 1, 2)) == 1
    assert arrangement_sign((1, 0)) == -1
    assert arrangement_sign((2, 1, 0)) == -1
    assert arrangement_sign((0, 0, 1)) == 0
    assert arrangement_sign((3, 1, 0)) == 0
