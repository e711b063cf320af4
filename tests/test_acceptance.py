"""Acceptance suite: one test per criterion, exact equality throughout.

Every check is tolerance-free; a criterion passes only if each of its cases
matches exactly.  Each test prints a single PASS/FAIL line (run pytest with
-s to see them).  All randomized suites use the recorded seeds below.
"""

import itertools
import random
from fractions import Fraction

from segre_towers import (
    LaurentPoly,
    Monomial,
    TruncationRequest,
    binomial_general,
    closed_formula_segre,
    flag_integral,
    flag_tower,
    geometric_expand,
    localization_integral,
    negative_part,
    random_tower_spec,
    rename_variables,
    shift_expand,
    stepwise_pushforward,
    tower_variable,
    vandermonde_integral,
    vandermonde_product,
)
from segre_towers.cli import flag_exponent_tuples
from segre_towers.tower import PIVOT

from _helpers import U, arrangement_sign, upoly

SEED_TOWER_CORPUS = 7
SEED_PROPERTIES = 2026
LOCALIZATION_TRIALS = 3


def report(criterion, description, check):
    try:
        detail = check()
    except BaseException:
        print(f"ACCEPTANCE {criterion}: FAIL ({description})")
        raise
    print(f"ACCEPTANCE {criterion}: PASS ({description}; {detail})")


def test_criterion_1_flag_segre_series_reproduction():
    def check():
        cases = 0
        for k in range(1, 5):
            spec = flag_tower(k)
            req = TruncationRequest.derive(spec, (k,) * k)
            got = closed_formula_segre(spec, req)
            prefactor = Monomial((tower_variable(i), -k - 1) for i in range(1, k + 1))
            want = vandermonde_product(k) * LaurentPoly.monomial(prefactor)
            assert got == want, f"flag k={k} series mismatch"
            cases += 1
        return f"{cases} towers, coefficient-by-coefficient"

    report(1, "flag Segre series equals the Vandermonde closed form, k <= 4", check)


def test_criterion_2_closed_equals_stepwise():
    def check():
        for k in range(1, 5):
            spec = flag_tower(k)
            req = TruncationRequest.derive(spec, (k,) * k)
            assert closed_formula_segre(spec, req) == stepwise_pushforward(spec, req)
        rng = random.Random(SEED_TOWER_CORPUS)
        for index in range(50):
            spec = random_tower_spec(rng)
            orders = tuple(rng.randint(0, 2) for _ in range(spec.k))
            aux = {v.name: rng.randint(0, 1) for v in spec.aux_variables()}
            req = TruncationRequest.derive(spec, orders, aux)
            closed = closed_formula_segre(spec, req)
            stepwise = stepwise_pushforward(spec, req)
            assert closed == stepwise, f"tower #{index} (seed {SEED_TOWER_CORPUS})"
        return f"4 flag towers + 50 random towers, seed {SEED_TOWER_CORPUS}"

    report(2, "closed formula agrees exactly with the stepwise push-forward", check)


def test_criterion_3_triple_agreement():
    def check():
        cases = 0
        for k in range(1, 5):
            for exps in flag_exponent_tuples(k):
                via_tower = flag_integral(k, exps)
                via_vandermonde = vandermonde_integral(k, exps)
                via_fixed_points = localization_integral(
                    k, exps, trials=LOCALIZATION_TRIALS
                )
                assert via_tower == via_vandermonde == via_fixed_points, (k, exps)
                cases += 1
        return f"{cases} integrals, 3 localization trials each"

    report(3, "tower, Vandermonde and localization integrals coincide", check)


def test_criterion_4_permutation_sign_law():
    def check():
        cases = 0
        for k in range(1, 5):
            dim = k * (k + 1) // 2
            for exps in itertools.product(range(k + 1), repeat=k):
                if sum(exps) > dim:
                    continue
                expected = arrangement_sign(tuple(k - a for a in exps))
                assert flag_integral(k, exps) == expected, (k, exps)
                cases += 1
        return f"{cases} exponent tuples, exhaustive for k <= 4"

    report(4, "flag integrals follow the permutation-sign law", check)


def _random_poly(rng, variables, max_terms=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        entries = tuple(
            (v, rng.randint(-3, 3)) for v in rng.sample(variables, rng.randint(0, 2))
        )
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        mono = Monomial(entries)
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return LaurentPoly(terms)


def test_criterion_5_property_suites():
    pool = [U(1), U(2), U(3)]

    def negative_part_laws():
        rng = random.Random(SEED_PROPERTIES)
        for _ in range(100):
            s = _random_poly(rng, pool)
            t = _random_poly(rng, pool)
            fv = frozenset(rng.sample(pool, rng.randint(0, 3)))
            a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            once = negative_part(s, fv)
            assert negative_part(once, fv) == once
            assert negative_part(a * s + b * t, fv) == a * once + b * negative_part(t, fv)

    def pascal_rule():
        rng = random.Random(SEED_PROPERTIES + 1)
        for _ in range(100):
            alpha = rng.randint(-50, 50)
            beta = rng.randint(1, 25)
            assert binomial_general(alpha, beta) == binomial_general(
                alpha - 1, beta
            ) + binomial_general(alpha - 1, beta - 1)

    def truncated_inverse():
        rng = random.Random(SEED_PROPERTIES + 2)
        for _ in range(100):
            outer, inner = rng.sample(pool, 2)
            cap = rng.randint(0, 6)
            residual = geometric_expand(outer, inner, cap) * (
                LaurentPoly.variable(outer) - LaurentPoly.variable(inner)
            ) - 1
            assert all(m.exponent(inner) == cap + 1 for m, _ in residual.items())

    def shift_identity():
        rng = random.Random(SEED_PROPERTIES + 3)
        for _ in range(100):
            q = upoly(
                {
                    rng.randint(-5, 5): Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                    for _ in range(rng.randint(0, 4))
                }
            )
            cap = rng.randint(0, 6)
            assert shift_expand(q, PIVOT, LaurentPoly.zero(), cap) == q

    def flag_antisymmetry():
        rng = random.Random(SEED_PROPERTIES + 4)
        shifted = {}
        for k in (2, 3, 4):
            spec = flag_tower(k)
            req = TruncationRequest.derive(spec, (k,) * k)
            series = closed_formula_segre(spec, req)
            shifted[k] = series * LaurentPoly.monomial(
                Monomial((tower_variable(i), k + 1) for i in range(1, k + 1))
            )
        for _ in range(100):
            k = rng.choice((2, 3, 4))
            i, j = sorted(rng.sample(range(1, k + 1), 2))
            swap = {tower_variable(i): tower_variable(j), tower_variable(j): tower_variable(i)}
            assert rename_variables(shifted[k], swap) == -shifted[k]

    def stabilization():
        rng = random.Random(SEED_PROPERTIES + 5)
        for _ in range(100):
            spec = random_tower_spec(rng)
            orders = tuple(rng.randint(0, 2) for _ in range(spec.k))
            aux = {v.name: rng.randint(0, 1) for v in spec.aux_variables()}
            req = TruncationRequest.derive(spec, orders, aux)
            padded = TruncationRequest.derive(
                spec, orders, aux, degree_cap=req.degree_cap + 3
            )
            assert closed_formula_segre(spec, req) == closed_formula_segre(spec, padded)

    suites = [
        ("negative-part projection laws", negative_part_laws),
        ("generalized-binomial recurrence", pascal_rule),
        ("truncated-inverse identities", truncated_inverse),
        ("shift-expansion identity shift", shift_identity),
        ("flag numerator antisymmetry", flag_antisymmetry),
        ("stabilization at cap and cap+3", stabilization),
    ]

    def check():
        for _, suite in suites:
            suite()
        return (
            f"{len(suites)} suites x 100 instances, seeds "
            f"{SEED_PROPERTIES}..{SEED_PROPERTIES + 5}"
        )

    report(5, "randomized property suites with zero failures", check)


def test_criterion_6_no_projection_needed_for_flags():
    # The flag tower's unpruned product is the Vandermonde product times
    # prod u_i^(-k-1); criterion 1 checks that it equals the window.
    def check():
        for k in range(1, 5):
            tower_vars = [tower_variable(i) for i in range(1, k + 1)]
            prefactor = Monomial((u, -k - 1) for u in tower_vars)
            product = vandermonde_product(k) * LaurentPoly.monomial(prefactor)
            assert product and negative_part(product, tower_vars) == product, k
        return "pre-projection product already all-negative, k <= 4"

    report(6, "the all-negative projection is the identity on flag towers", check)
