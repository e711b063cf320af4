"""Tests for the flag tower, Vandermonde coefficients, and localization."""

import ast
import itertools
import math
import pickle
import random
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from segre_towers import (
    LaurentPoly,
    LocalizationDisagreement,
    Monomial,
    RationalFunction1V,
    TowerFactor,
    TowerLevel,
    TruncationRequest,
    closed_formula_segre,
    flag_integral,
    flag_tower,
    localization_integral,
    pushforward_monomial,
    stepwise_pushforward,
    taut_variable,
    validate_tower,
    vandermonde_integral,
)
from segre_towers import flag as flag_mod
from segre_towers import series as series_mod
from segre_towers import tower as tower_mod
from segre_towers.cli import flag_exponent_tuples
from segre_towers.flag import _draw_distinct, vandermonde_product
from segre_towers.series import (
    coefficient_of,
    descending_expand,
    negative_part,
    rename_variables,
)
from segre_towers.tower import PIVOT

from _helpers import (
    G,
    U,
    alternant,
    arrangement_sign,
    chern_point_value,
    evaluate,
    flag_bundle,
    flag_type_tower,
    partial_flag,
    point_value_sign_and_partition,
    poly,
    rational_root_flag,
    rf,
    schur_at_ones,
)


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


def _expanded_coefficient(product, k, exps):
    return product.coefficient(Monomial((U(i + 1), k - a) for i, a in enumerate(exps)))


def test_vandermonde_formula_is_the_expanded_coefficient():
    # Entries 0..k+1 give b_i = k - a_i from k down to -1, so out-of-range
    # and repeated arrangements appear, at every total degree, not only the
    # flag dimension.
    for k in (1, 2, 3, 4):
        product = vandermonde_product(k)
        for exps in itertools.product(range(k + 2), repeat=k):
            assert vandermonde_integral(k, exps) == _expanded_coefficient(product, k, exps)


@pytest.mark.parametrize("k", [5, 6])
def test_vandermonde_formula_matches_every_flag_tuple(k):
    product = vandermonde_product(k)
    values = [vandermonde_integral(k, exps) for exps in flag_exponent_tuples(k)]
    assert values == [
        _expanded_coefficient(product, k, exps) for exps in flag_exponent_tuples(k)
    ]
    assert values.count(1) == values.count(-1) == math.factorial(k) // 2


# -- flag integrals ---------------------------------------------------------------


def test_flag_integral_matches_vandermonde_small():
    for k in (1, 2, 3, 4, 5):
        for exps in flag_exponent_tuples(k):
            assert flag_integral(k, exps) == vandermonde_integral(k, exps)


def test_flag_integral_reversal_sign():
    assert flag_integral(3, (1, 2, 3)) == -1


def test_flag_integral_degree_vanishing():
    dim = 3
    for exps in itertools.product(range(3), repeat=2):
        if sum(exps) != dim:
            value = flag_integral(2, exps)
            assert type(value) is Fraction and value == 0


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
    value = localization_integral(2, (0, 0))
    assert type(value) is Fraction and value == 0


def test_localization_seed_determinism():
    a = localization_integral(3, (1, 2, 3), trials=2, seed=99)
    b = localization_integral(3, (1, 2, 3), trials=2, seed=99)
    assert a == b == -1


def test_localization_memo_gives_fresh_draws(monkeypatch):
    # Each call must see the weights random.Random(seed) draws, trial after
    # trial, whatever the memo holds.  Keys that differ only in k, trials or
    # seed are interleaved in one memo.
    memo = {}
    keys = [(k, trials, seed) for seed in (5, 6, 2026) for trials in (1, 3) for k in range(1, 6)]
    order = keys * 2
    random.Random(19).shuffle(order)
    real, seen = flag_mod._eliminate, []

    def recording(path, powers):
        seen.append(path[0])
        return real(path, powers)

    monkeypatch.setattr(flag_mod, "_eliminate", recording)
    for k, trials, seed in order:
        rng = random.Random(seed)
        draws = [tuple(_draw_distinct(rng, k + 1)) for _ in range(trials)]
        exps = tuple(range(k, 0, -1))
        seen.clear()
        value = localization_integral(k, exps, trials=trials, seed=seed, memo=memo)
        assert seen == draws
        assert value == alternant(draws[0], (0,) + exps[::-1]) / alternant(draws[0], range(k + 1))
        entry = [(path[0], vandermonde) for vandermonde, path in memo[k, trials, seed]]
        assert entry == [(ts, alternant(ts, range(k + 1))) for ts in draws]
    assert len(memo) == len(keys)


def test_localization_without_a_memo_draws_every_call(monkeypatch):
    # Nothing outlives a call without a memo: each call of one key draws
    # from random.Random(seed) again and reduces every row from an empty path.
    rng = random.Random(5)
    expected = [tuple(_draw_distinct(rng, 3)) for _ in range(2)]
    real_draw, real_eliminate = flag_mod._draw_distinct, flag_mod._eliminate
    drawn, paths = [], []

    def drawing(rng, count):
        out = real_draw(rng, count)
        drawn.append(tuple(out))
        return out

    def eliminating(path, powers):
        paths.append(path)
        return real_eliminate(path, powers)

    monkeypatch.setattr(flag_mod, "_draw_distinct", drawing)
    monkeypatch.setattr(flag_mod, "_eliminate", eliminating)
    for _ in range(2):
        drawn.clear()
        paths.clear()
        assert localization_integral(2, (2, 1), trials=2, seed=5) == 1
        assert drawn == expected
        assert paths == [(ts, ()) for ts in expected]


@pytest.mark.parametrize("seed", [7, None, "seven", b"7"])
def test_localization_memo_draws_each_key_once(monkeypatch, seed):
    # With a memo, a key's weights are drawn once per memo, whatever the
    # seed's type; a second memo draws them again.
    real, drawn = flag_mod._draw_distinct, []

    def drawing(rng, count):
        drawn.append(count)
        return real(rng, count)

    monkeypatch.setattr(flag_mod, "_draw_distinct", drawing)
    tuples = flag_exponent_tuples(3)
    for _ in range(2):
        memo = {}
        drawn.clear()
        values = [localization_integral(3, e, trials=2, seed=seed, memo=memo) for e in tuples]
        assert values == [vandermonde_integral(3, e) for e in tuples]
        assert drawn == [4, 4]
        assert list(memo) == [(3, 2, seed)]


def test_localization_rejects_bad_trials():
    with pytest.raises(ValueError):
        localization_integral(1, (1,), trials=0)


def test_localization_disagreement_surfaces(monkeypatch):
    # Up to the dimension every trial gives the integral, so trials disagree
    # only through a fault: one injected into the second trial's numerator
    # determinant must be reported as an internal-consistency failure.  V(t)
    # is a product of the weights' differences, not a determinant, so each
    # call of ``_determinant`` is one numerator.
    real, calls = flag_mod._determinant, []

    def skewed(path):
        calls.append(path)
        return real(path) + (len(calls) == 2)

    monkeypatch.setattr(flag_mod, "_determinant", skewed)
    with pytest.raises(LocalizationDisagreement):
        localization_integral(2, (2, 1), trials=3, seed=5)
    assert len(calls) == 3


@pytest.mark.parametrize("trials", [1, 3])
def test_localization_refuses_exponents_above_the_dimension(monkeypatch, trials):
    # Above the dimension the fixed-point sum is a non-constant polynomial in
    # the weights, while the integral is 0: one trial used to return
    # -7354/805 for (3, 1), and several raised LocalizationDisagreement.
    # Below it the sum is exactly 0.
    for exps in ((0, 0), (1, 1), (2, 0), (0, 2)):
        assert localization_integral(2, exps, trials=trials) == 0
    assert localization_integral(3, (2, 2, 1), trials=trials) == 0

    def no_draw(*args):
        raise AssertionError("weights drawn before the refusal")

    monkeypatch.setattr(flag_mod, "_draw_distinct", no_draw)
    with pytest.raises(ValueError) as info:
        localization_integral(2, (3, 1), trials=trials)
    assert str(info.value).startswith("exponents: ")
    assert flag_integral(2, (3, 1)) == vandermonde_integral(2, (3, 1)) == 0


def test_localization_refusal_gives_the_total_unless_it_is_too_long_to_echo():
    for exps, got in (((4, 4, 4), ", got 12"), ((10**5000, 0, 0), "")):
        with pytest.raises(ValueError) as info:
            localization_integral(3, exps)
        assert str(info.value) == f"exponents: total degree must be at most the flag dimension 6{got}"


def walk(ts, exps):
    """The fixed-point sum as a walk over all orderings w of the weights:
    sum_w prod_i t_w(k+1-i)^a_i / prod_{p<q} (t_w(q) - t_w(p))."""
    k = len(exps)
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
    return total


def walk_integral(exps, trials, seed):
    rng = random.Random(seed)
    values = {walk(_draw_distinct(rng, len(exps) + 1), exps) for _ in range(trials)}
    assert len(values) == 1
    return values.pop()


def below_dimension_tuples(k, count, rng):
    """Tuples of total degree below k(k+1)/2 with entries in 0..k+2, so with
    repeats, zeros and entries above k.  Below that degree some entry of
    e = (0, a_k, ..., a_1) repeats, so the alternant matrix is singular."""
    out = []
    while len(out) < count:
        exps = tuple(rng.randint(0, k + 2) for _ in range(k))
        if sum(exps) < k * (k + 1) // 2:
            out.append(exps)
    return out


@pytest.mark.parametrize("trials, seed", [(1, 7), (3, 11)])
def test_localization_equals_the_permutation_walk(trials, seed):
    rng = random.Random(seed)
    for k in (1, 2, 3):
        cases = flag_exponent_tuples(k) + below_dimension_tuples(k, 8, rng)
        for exps in cases:
            expected = walk_integral(exps, trials, seed)
            assert localization_integral(k, exps, trials=trials, seed=seed) == expected


def test_bialternant_identity_above_dimension():
    # Above the dimension the sum depends on the weights, so this checks
    # det/V = walk itself, not only a constant both happen to reach.  With
    # t_1 = -t_0 and e = (0, 2, 1, 4) the second pivot is found one row down.
    # localization_integral refuses such exponents, so the ratio is taken here.
    exps = (4, 1, 2)
    weights = (
        [Fraction(3), Fraction(-3), Fraction(5, 7), Fraction(2)],
        [Fraction(0), Fraction(1), Fraction(-4, 3), Fraction(7, 2)],
    )
    values = []
    for ts in weights:
        values.append(alternant(ts, (0,) + exps[::-1]) / alternant(ts, range(4)))
        assert values[-1] == walk(ts, exps)
    assert values[0] != values[1]


def fresh_ratio(k, exps, trials, seed):
    """The fixed-point value from a fresh determinant of every trial's draws."""
    rng = random.Random(seed)
    values = set()
    for _ in range(trials):
        ts = _draw_distinct(rng, k + 1)
        values.add(alternant(ts, (0,) + exps[::-1]) / alternant(ts, range(k + 1)))
    assert len(values) == 1
    return values.pop()


def above_k_tuples(k, count, rng):
    """Tuples up to the dimension with an entry above k, so above every
    entry of a flag tuple."""
    dim = k * (k + 1) // 2
    pool = [e for e in itertools.product(range(dim + 1), repeat=k) if sum(e) <= dim and max(e) > k]
    return rng.sample(pool, min(count, len(pool)))


@pytest.mark.parametrize("order", ["lexicographic", "reversed", "shuffled"])
def test_localization_keeps_exact_prefixes_in_any_call_order(monkeypatch, order):
    # Keys are interleaved in runs of 1..8 calls, each run in one of two
    # memos, so a path is kept, or resumed from a call several tuples back.
    rng = random.Random(order)
    memos = ({}, {})
    keys = [(k, trials, seed) for k in (1, 2, 3, 4) for trials in (1, 2) for seed in (31, 32, 33)]
    queues = {}
    for k, trials, seed in keys:
        cases = flag_exponent_tuples(k) + below_dimension_tuples(k, 6, rng) + above_k_tuples(k, 3, rng)
        cases = sorted(set(cases), reverse=order == "reversed")
        if order == "shuffled":
            rng.shuffle(cases)
        queues[k, trials, seed] = cases
    real, seen = flag_mod._eliminate, {"resumed": 0, "dead prefix kept": 0}

    def counting(path, powers):
        out = real(path, powers)
        kept = sum(1 for a, b in zip(path[1], out[1]) if a is b)
        seen["resumed"] += kept >= 2
        seen["dead prefix kept"] += kept == len(out[1]) and out[1][-1][2] is None
        return out

    monkeypatch.setattr(flag_mod, "_eliminate", counting)
    expected = {}
    while any(queues.values()):
        key = rng.choice([key for key, cases in queues.items() if cases])
        k, trials, seed = key
        memo = rng.choice(memos)
        for _ in range(rng.randint(1, 8)):
            if not queues[key]:
                break
            exps = queues[key].pop(0)
            value = localization_integral(k, exps, trials=trials, seed=seed, memo=memo)
            assert value == fresh_ratio(k, exps, trials, seed), (key, exps)
            if k <= 3:
                walked = expected.setdefault((exps, trials, seed), walk_integral(exps, trials, seed))
                assert value == walked, (key, exps)
    assert min(seen.values()) > 0, seen


def test_resumed_prefix_keeps_its_column_pivot():
    # With t_1 = -t_0, row t_j^2 reduced against row 1 is zero in column 1,
    # so its pivot is column 2.  The call for (0, 2, 1) resumes that row
    # from the call for (0, 2, 3) and must give the fresh determinant.
    ts = (21, -21, 10)
    path = flag_mod._eliminate((ts, ()), (0, 2, 3))
    assert [step[2] for step in path[1]] == [0, 2, 1]
    resumed = flag_mod._eliminate(path, (0, 2, 1))
    assert resumed[1][:2] == path[1][:2] and resumed[1][1] is path[1][1]
    expected = leibniz([[t**e for t in ts] for e in (0, 2, 1)])
    assert expected != 0
    assert flag_mod._determinant(resumed) == alternant(ts, (0, 2, 1)) == expected
    # A dependent prefix stops the path, and every call that shares it is 0.
    dead = flag_mod._eliminate(resumed, (0, 1, 1))
    assert dead[1][-1][2] is None and len(dead[1]) == 3
    again = flag_mod._eliminate(dead, (0, 1, 1))
    assert again[1] == dead[1] and flag_mod._determinant(again) == 0


def test_draw_distinct_returns_distinct_integers_in_range():
    # Weights are ints drawn uniformly from [-10^6, 10^6], distinct within a
    # draw; a value already drawn is drawn again.
    rng = random.Random(37)
    seen = []
    for _ in range(2000):
        ts = _draw_distinct(rng, 6)
        assert all(type(t) is int and -(10**6) <= t <= 10**6 for t in ts), ts
        assert len(set(ts)) == 6
        seen += ts
    assert min(seen) < -990_000 and max(seen) > 990_000

    class Scripted:
        def __init__(self, values):
            self.values, self.bounds = iter(values), set()

        def randint(self, low, high):
            self.bounds.add((low, high))
            return next(self.values)

    scripted = Scripted([5, 5, -5, 5, 10**6])
    assert _draw_distinct(scripted, 3) == [5, -5, 10**6]
    assert scripted.bounds == {(-(10**6), 10**6)}


def test_a_memo_entry_holds_an_int_vandermonde_and_a_weights_steps_path():
    # Each trial's entry is (V(t), (weights, steps)): V(t) the int product of
    # the weights' differences, the weights the ints drawn for the trial, and
    # one (e, row, pivot, sign) step of ints per reduced row.
    k, trials, seed, exps = 3, 2, 41, (3, 1, 2)
    memo = {}
    value = localization_integral(k, exps, trials=trials, seed=seed, memo=memo)
    assert value == vandermonde_integral(k, exps) == -1
    rng = random.Random(seed)
    draws = [tuple(_draw_distinct(rng, k + 1)) for _ in range(trials)]
    entry = memo[k, trials, seed]
    assert len(entry) == trials
    for (vandermonde, path), ts in zip(entry, draws):
        assert type(vandermonde) is int
        assert vandermonde == math.prod(tq - tp for p, tp in enumerate(ts) for tq in ts[p + 1 :])
        weights, steps = path
        assert weights == ts and all(type(t) is int for t in weights)
        assert [step[0] for step in steps] == [0, *exps]
        for _, row, pivot, sign in steps:
            assert all(type(x) is int for x in row) and type(pivot) is int and sign in (1, -1)
        determinant = flag_mod._determinant(path)
        assert type(determinant) is int and determinant == alternant(ts, (0, *exps))


def test_a_tuple_above_k_resumes_the_prefix_its_key_kept():
    # After every flag tuple of k = 4 in one memo, the last being (4, 4, 2, 0),
    # the tuple (4, 1, 5, 0) has an entry above k and shares the rows t_j^0
    # and t_j^4 with it: each trial keeps those two steps, the same objects,
    # reduces the rest, and gives the fresh value.
    k, trials, seed, exps = 4, 2, 43, (4, 1, 5, 0)
    memo = {}
    tuples = flag_exponent_tuples(k)
    for e in tuples:
        localization_integral(k, e, trials=trials, seed=seed, memo=memo)
    assert tuples[-1] == (4, 4, 2, 0)
    before = [path[1] for _, path in memo[k, trials, seed]]
    value = localization_integral(k, exps, trials=trials, seed=seed, memo=memo)
    after = [path[1] for _, path in memo[k, trials, seed]]
    assert len(before) == len(after) == trials
    for old, new in zip(before, after):
        assert new[0] is old[0] and new[1] is old[1]
        assert [step[0] for step in new] == [0, *exps] and new[-1][2] is None
    assert value == fresh_ratio(k, exps, trials, seed) == vandermonde_integral(k, exps) == 0


def test_localization_threads_share_a_key_exactly():
    # Four threads call one key in different tuple orders, each with a memo
    # of its own, as every sweep has; the module keeps no state between
    # calls, so every value must equal the single-thread value.
    k, trials, seed = 4, 2, 4242
    cases = flag_exponent_tuples(k) + below_dimension_tuples(k, 20, random.Random(4))
    single = {e: fresh_ratio(k, e, trials, seed) for e in cases}
    orders = [list(cases), cases[::-1]]
    for index in range(2):
        orders.append(random.Random(index).sample(cases, len(cases)))
    results = [None] * len(orders)

    def run(index):
        memo = {}
        results[index] = [
            localization_integral(k, e, trials=trials, seed=seed, memo=memo)
            for e in orders[index] * 3
        ]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(orders))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for order, values in zip(orders, results):
        assert values == [single[e] for e in order * 3]


def leibniz(matrix):
    """det by the Leibniz sum over all permutations."""
    n = len(matrix)
    return sum(
        arrangement_sign(perm) * math.prod(matrix[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )


def test_alternant_equals_the_leibniz_determinant():
    # Seeded weights, small enough that zeros and repeats are common, with
    # repeated powers too, plus three fixed cases: a zero first pivot on a
    # nonsingular matrix (t_0 = 0 under a positive power), a zero second
    # pivot (t_1 = -t_0 under powers 0 and 2), and a singular matrix.
    rng = random.Random(2026)
    cases = [
        ([Fraction(0), Fraction(1), Fraction(-2, 3)], [1, 0, 2]),
        ([Fraction(3, 2), Fraction(-3, 2), Fraction(5, 7), Fraction(2)], [0, 2, 1, 4]),
        ([Fraction(1, 2), Fraction(1, 2), Fraction(4)], [0, 1, 3]),
    ]
    for _ in range(300):
        n = rng.randint(1, 5)
        ts = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
        cases.append((ts, [rng.randint(0, 5) for _ in range(n)]))
    seen = {"zero first pivot": 0, "singular": 0, "nonzero": 0}
    for ts, powers in cases:
        expected = leibniz([[t**e for t in ts] for e in powers])
        assert alternant(ts, powers) == expected, (ts, powers)
        seen["singular"] += expected == 0
        seen["nonzero"] += expected != 0
        seen["zero first pivot"] += expected != 0 and ts[0] == 0 and powers[0] > 0
    assert min(seen.values()) >= 3, seen


def test_triple_agreement_k_up_to_3():
    for k in (1, 2, 3):
        for exps in flag_exponent_tuples(k):
            ft = flag_integral(k, exps)
            vd = vandermonde_integral(k, exps)
            loc = localization_integral(k, exps, trials=2, seed=17)
            assert ft == vd == loc
            # Each route returns a Fraction, zeros included.
            assert type(ft) is type(vd) is type(loc) is Fraction


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


def test_shared_factor_series_give_the_results_of_fresh_copies(monkeypatch):
    # A walk down a tower keeps one expansion per (series object, twists,
    # floor) (``tower._expansion``).  flag_tower's linear factors share one
    # series object, and in ``shared`` every level's bundle factor shares one
    # too.  Copies with a fresh, equal series per factor must give the same
    # windows and point values, by the determinant and by the generic push.
    # The memo still shares: each shared window forms fewer long divisions
    # than its copy (2 against 10 at equal orders, and 7 against 10 for the
    # bundle at (5, 4, 3, 2), whose floors differ from level to level).  A
    # bundle value of top degree is a constant, which no term of positive
    # degree in the e's can reach, so the bundle is also pushed at degrees
    # 11 and 12.
    above = [a for a in itertools.product(range(7), repeat=4) if 10 < sum(a) <= 12]
    bundle = flag_bundle(4)
    point = bundle.levels[0].factors[0].series
    shared = bundle._replace(
        levels=tuple(
            lvl._replace(factors=(lvl.factors[0]._replace(series=point), *lvl.factors[1:]))
            for lvl in bundle.levels
        )
    )

    def fresh(f):
        num, den = (LaurentPoly(p.items()) for p in (f.series.numerator, f.series.denominator))
        return TowerFactor(f.twists, RationalFunction1V(num, den))

    divisions = []

    def spy(*args, _real=tower_mod._descending):
        divisions.append(args)
        return _real(*args)

    monkeypatch.setattr(tower_mod, "_descending", spy)
    cases = [(flag_tower(4), [(4,) * 4], []), (shared, [(5,) * 4, (5, 4, 3, 2)], above)]
    for spec, windows, more in cases:
        copy = spec._replace(
            levels=tuple(TowerLevel(tuple(map(fresh, lvl.factors))) for lvl in spec.levels)
        )
        assert copy == spec
        assert len({id(f.series) for lvl in spec.levels for f in lvl.factors}) == 2
        assert len({id(f.series) for lvl in copy.levels for f in lvl.factors}) == 10
        for route, orders in itertools.product((closed_formula_segre, stepwise_pushforward), windows):
            got, formed = [], []
            for s in (spec, copy):
                divisions.clear()
                got.append(route(s, TruncationRequest.derive(s, orders)))
                formed.append(len(divisions))
            assert got[0] == got[1] and got[0]
            assert formed[0] < formed[1], (route, orders, formed)
        tuples = flag_exponent_tuples(4) + more
        values = [pushforward_monomial(copy, exps) for exps in tuples]
        assert values == [pushforward_monomial(spec, exps) for exps in tuples]
        for tower in (spec, copy):
            assert [_generic_push(tower, exps) for exps in tuples] == values
        assert any(values)


def test_a_pickled_bundle_gives_the_same_windows_in_a_process_with_other_slots():
    # A series' two sides hold packed keys, and slots are given out in order
    # of first use, so each side's copy is rebuilt from monomials.
    # The fresh process gives out the slots of the variables met here in
    # the reverse of this process's order before it loads the copy.
    spec = flag_bundle(3)
    series = spec.levels[2].factors[0].series
    req = TruncationRequest.derive(spec, (4,) * 3)
    windows = [route(spec, req) for route in (closed_formula_segre, stepwise_pushforward)]
    here = [str(descending_expand(series, -6)), *map(str, windows)]
    used = {PIVOT, *spec.tower_variables(), *spec.base_variables()}
    used |= {taut_variable(j) for j in range(1, spec.k + 1)}
    seen = [v for v in series_mod._VARS if v in used]
    script = (
        "import pickle, sys\n"
        f"sys.path.insert(0, {str(Path(series_mod.__file__).parents[1])!r})\n"
        "from segre_towers import closed_formula_segre, stepwise_pushforward\n"
        "from segre_towers import series\n"
        "from segre_towers.series import VariableId, descending_expand\n"
        f"for name, kind, level in {[(v.name, v.kind, v.level) for v in reversed(seen)]!r}:\n"
        "    series._slot(VariableId(name, kind, level))\n"
        f"spec, f, req = pickle.loads(bytes.fromhex({pickle.dumps((spec, series, req)).hex()!r}))\n"
        "windows = [route(spec, req) for route in (closed_formula_segre, stepwise_pushforward)]\n"
        "print(repr([str(descending_expand(f, -6)), *map(str, windows)]))\n"
        "print(repr([tuple(v) for v in series._VARS]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.stderr == ""
    there, order = map(ast.literal_eval, done.stdout.splitlines())
    assert len(seen) == len(used) == 11
    assert there == here and all(here)
    assert order[: len(seen)] == [tuple(v) for v in reversed(seen)] != [tuple(v) for v in seen]


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


@pytest.mark.parametrize("k", [2, 3])
def test_flag_bundle_pushforwards_match_the_bialternant(k):
    # By the Gysin formula for flag bundles, the push-forward of
    # c_1^a_1...c_k^a_k is a_alpha(r)/a_delta(r), alpha = (a_1, ..., a_k, 0),
    # at the Chern roots r of E: the fixed-point ratio, with roots for weights.
    spec = flag_bundle(k)
    rng = random.Random(k)
    draws = []
    for _ in range(2):
        roots = _draw_distinct(rng, k + 1)
        chern = {
            G(f"e{i}"): sum(map(math.prod, itertools.combinations(roots, i)))
            for i in range(1, k + 2)
        }
        draws.append((roots, chern))
    non_constant = 0
    for exps in itertools.product(range(k + 3), repeat=k):
        value = pushforward_monomial(spec, exps)
        for roots, chern in draws:
            expected = alternant(roots, (0,) + exps[::-1]) / alternant(roots, range(k + 1))
            assert evaluate(value, chern) == expected, (exps, value)
        non_constant += bool(value.variables())
    assert non_constant > 0


def _generic_push(spec, exps, aux=None):
    """``pushforward_monomial`` by the generic point push, on any tower:
    ``_push_down`` on one-power ranges, read at its one monomial."""
    aux = aux or {}
    over = spec.tower_variables() + spec.aux_variables()
    bs = [aux.get(v.name, 0) for v in spec.aux_variables()]
    powers = (*exps, *bs)
    target = Monomial(zip(over, [-e - 1 for e in powers]))
    pushed = tower_mod._push_down(spec, {x: (e, e) for x, e in zip(over, powers)})
    return coefficient_of(pushed, target, over)


def test_flag_type_determinant_equals_the_push_and_both_windows_on_every_flag_tuple():
    # Every flag tuple with k <= 6, taken as a determinant, equals the
    # generic push and its coefficient in the stepwise and in the closed
    # window at orders (k,)*k.  Each window is read once per k, by slot, as
    # run_verify reads it.
    for k in range(1, 7):
        spec = flag_tower(k)
        assert tower_mod._flag_type_levels(spec) is not None
        req = TruncationRequest.derive(spec, (k,) * k)
        windows = [
            {exps: Fraction(num, window._den)
             for exps, num in window._header_rows(spec.tower_variables())}
            for window in (stepwise_pushforward(spec, req), closed_formula_segre(spec, req))
        ]
        nonzero = 0
        for exps in flag_exponent_tuples(k):
            at = tuple(-a - 1 for a in exps)
            value = pushforward_monomial(spec, exps)
            assert value == _generic_push(spec, exps), exps
            assert value == windows[0].get(at, 0) == windows[1].get(at, 0), exps
            nonzero += bool(value)
        assert nonzero == math.factorial(k)


def test_flag_type_determinant_equals_the_push_and_the_closed_window_on_bundles_and_partial_flags():
    # flag_bundle(4) on 40 seeded tuples with entries up to 6, 30 of them
    # without a repeated entry, partial flags (F = u^-(k+2)) at k <= 4 on
    # every tuple with entries up to k + 1, flag_bundle(3) with an
    # auxiliary variable on levels 1 and 3 on all 512 monomials with
    # exponents up to 3, and a tower whose levels come from a bundle, a
    # partial flag and a flag tower, so its rows differ, on every tuple with
    # entries up to 5: each value, a polynomial in the base generators for
    # a bundle, is the generic push's and the closed window's coefficient
    # exactly.  Only the tower with different rows is left to the generic
    # push.
    rng = random.Random(31)
    bundle_tuples = [tuple(rng.sample(range(7), 4)) for _ in range(30)]
    bundle_tuples += [tuple(rng.randint(0, 6) for _ in range(4)) for _ in range(10)]
    cases = [(flag_bundle(4), bundle_tuples, {})]
    cases += [
        (partial_flag(k), list(itertools.product(range(k + 2), repeat=k)), {})
        for k in range(1, 5)
    ]
    bundle = flag_bundle(3)
    levels = list(bundle.levels)
    levels[0], levels[2] = levels[0]._replace(aux=("v",)), levels[2]._replace(aux=("w",))
    with_aux = bundle._replace(levels=tuple(levels))
    cases.append((with_aux, list(itertools.product(range(4), repeat=3)), {"v": 3, "w": 1}))
    mixed = bundle._replace(
        levels=(bundle.levels[0], partial_flag(3).levels[1], flag_tower(3).levels[2])
    )
    cases.append((mixed, list(itertools.product(range(6), repeat=3)), {}))
    nonzero = with_base = monomials = 0
    for spec, tuples, aux_orders in cases:
        assert (tower_mod._flag_type_levels(spec) is None) == (spec is mixed)
        orders = tuple(map(max, zip(*tuples)))
        req = TruncationRequest.derive(spec, orders, aux_orders)
        window = closed_formula_segre(spec, req)
        over = spec.tower_variables() + spec.aux_variables()
        for exps in tuples:
            for aux_exps in itertools.product(*(range(b + 1) for b in aux_orders.values())):
                aux = dict(zip(aux_orders, aux_exps))
                target = Monomial(
                    [(U(i), -a - 1) for i, a in enumerate(exps, 1)]
                    + [(v, -aux[v.name] - 1) for v in spec.aux_variables()]
                )
                value = pushforward_monomial(spec, exps, aux)
                assert value == _generic_push(spec, exps, aux), (exps, aux)
                assert value == coefficient_of(window, target, over), (exps, aux)
                nonzero += bool(value)
                with_base += bool(value.variables())
                monomials += spec is with_aux
    assert monomials == 512 and nonzero >= 40 and with_base >= 10


def test_flag_bundle_point_values_equal_the_chern_determinant():
    # The oracle forms det M from h_t(e) by its own recurrence, so it shares
    # no code with the route, which reads a bundle's values from the dual
    # determinant.  Every tuple here has entries up to 2k, so lambda_1 <= k;
    # ``test_the_dual_past_lambda_1_equals_k_equals_the_chern_and_hook_content_oracles``
    # takes larger ones.
    rng = random.Random(39)
    cases = [(k, list(itertools.product(range(2 * k + 1), repeat=k))) for k in (1, 2, 3)]
    cases += [(k, [tuple(rng.randint(0, 2 * k) for _ in range(k)) for _ in range(40)]) for k in (4, 5)]
    with_base = 0
    for k, tuples in cases:
        spec = flag_bundle(k)
        for exps in tuples:
            value = pushforward_monomial(spec, exps)
            assert value == chern_point_value(k, exps), (k, exps)
            with_base += bool(value.variables())
    assert with_base >= 100


def test_rational_root_flag_values_are_hook_content_numbers():
    # F = 1/(u-1)^(k+1) on every level: the point value is +-s_lambda(1^(k+1)),
    # a number with a magnitude, not only a sign.
    rng = random.Random(18)
    nonzero = 0
    for k in range(1, 6):
        spec = rational_root_flag(k)
        for _ in range(40):
            exps = tuple(rng.randint(0, 2 * k + 1) for _ in range(k))
            sign, lam = point_value_sign_and_partition(exps, k + 1)
            expected = sign * schur_at_ones(lam, k + 1) if sign else 0
            assert pushforward_monomial(spec, exps) == expected, exps
            nonzero += abs(expected) > 1
    assert nonzero >= 40
    # At (2k, ..., k+1), lambda is the k x k square and s_lambda(1^(k+1)) = C(2k, k).
    for k in range(6, 11):
        exps = tuple(range(2 * k, k, -1))
        assert pushforward_monomial(rational_root_flag(k), exps) == math.comb(2 * k, k)


def test_rational_root_windows_equal_the_hook_content_values_at_every_point():
    # Both windows of rational_root_flag(3) at every order tuple in 0..4,
    # and of rational_root_flag(4) at two with unequal entries, hold
    # +-s_lambda(1^(k+1)) at every point.  The oracle shares no tower code.
    # A walk memo that hands back an expansion at any floor, however high,
    # makes both windows lose the same terms at unequal orders such as
    # (2, 3, 1), so the two methods agree with each other there and only the
    # oracle sees it.
    cases = [(3, order) for order in itertools.product(range(5), repeat=3)]
    cases += [(4, (1, 4, 5, 2)), (4, (2, 5, 3, 1))]
    nonzero = 0
    for k, orders in cases:
        spec = rational_root_flag(k)
        req = TruncationRequest.derive(spec, orders)
        for window in (closed_formula_segre(spec, req), stepwise_pushforward(spec, req)):
            got = {
                exps: Fraction(num, window._den)
                for exps, num in window._header_rows(spec.tower_variables())
            }
            for exps in itertools.product(*(range(a + 1) for a in orders)):
                sign, lam = point_value_sign_and_partition(exps, k + 1)
                expected = sign * schur_at_ones(lam, k + 1) if sign else 0
                assert got.get(tuple(-a - 1 for a in exps), 0) == expected, (k, orders, exps)
                nonzero += bool(expected)
    assert nonzero >= 600


def _record_routes(monkeypatch):
    """Patch ``tower._dual_push`` and ``tower._push_down`` to append their
    names, one per call."""
    routes = []
    for name in ("_dual_push", "_push_down"):
        def spy(*args, _name=name, _route=getattr(tower_mod, name), **kwargs):
            routes.append(_name)
            return _route(*args, **kwargs)

        monkeypatch.setattr(tower_mod, name, spy)
    return routes


def _random_denominator(rng, lead):
    """A pivot denominator of top degree 1..3 with leading coefficient ``lead``
    (a number, or a (number, base variable) pair) and up to two lower terms."""
    d = rng.randint(1, 3)
    coeff, base = lead if isinstance(lead, tuple) else (lead, None)
    terms = {((PIVOT, d), (base, 1)) if base else ((PIVOT, d),): coeff}
    for e in rng.sample(range(-1, d), rng.randint(0, 2)):
        terms[((PIVOT, e),)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
    return poly(terms)


def _non_unit(rng):
    return Fraction(rng.choice([-3, -2, 2, 3]), rng.choice([1, 2, 5]))


def test_dual_side_equals_the_push_and_the_closed_window_on_random_flag_type_towers(monkeypatch):
    # Flag-type towers whose shared F has one-term numerators: with a non-unit
    # rational coefficient, over a denominator led by a non-unit rational
    # times a base monomial, and as several untwisted factors per level.
    # Each value is the generic push's and the closed window's coefficient,
    # and the dual side gives every one of them, past lambda_1 = k too.
    routes = _record_routes(monkeypatch)
    rng = random.Random(3917)
    g = G("g")
    dual_nonzero = wide = 0
    for trial in range(24):
        kind = ("coefficient", "base", "several")[trial % 3]
        k = rng.randint(1, 3)
        count = rng.randint(2, 3) if kind == "several" else 1
        series, bases = [], ()
        for _ in range(count):
            num = LaurentPoly.monomial(Monomial.of(PIVOT, rng.randint(-1, 1)), _non_unit(rng))
            lead = (_non_unit(rng), g) if kind == "base" else rng.choice([1, _non_unit(rng)])
            series.append(RationalFunction1V(num, _random_denominator(rng, lead)))
        if kind == "base":
            bases = (("g", 1),)
        spec = flag_type_tower(k, series, bases)
        n = -sum(f.leading_exponent for f in series)
        tuples = [
            tuple(max(0, n - k + x) for x in rng.sample(range(2 * k + 1), k)) for _ in range(6)
        ]
        tuples += [tuple(rng.randint(0, max(n, 0) + k) for _ in range(k)) for _ in range(2)]
        orders = tuple(map(max, zip(*tuples)))
        window = closed_formula_segre(spec, TruncationRequest.derive(spec, orders))
        for exps in tuples:
            del routes[:]
            target = Monomial((U(i), -a - 1) for i, a in enumerate(exps, 1))
            value = pushforward_monomial(spec, exps)
            assert routes == ["_dual_push"], (spec, exps)
            assert value == _generic_push(spec, exps), (spec, exps)
            assert value == coefficient_of(window, target, spec.tower_variables()), (spec, exps)
            dual_nonzero += bool(value)
            wide += bool(value) and max(exps) - n + 1 > k
    assert dual_nonzero >= 40 and wide >= 30


def test_the_dual_takes_wide_tuples_and_other_towers_take_the_generic_push(monkeypatch):
    # A numerator with several terms and levels with different F never reach
    # the dual side: they take the generic push.  A partial flag at a tuple
    # with lambda_1 > k takes the dual side.  Each value is still the
    # generic push's and the closed window's coefficient.
    routes = _record_routes(monkeypatch)
    bundle = flag_bundle(3)
    mixed = bundle._replace(
        levels=(bundle.levels[0], partial_flag(3).levels[1], flag_tower(3).levels[2])
    )
    several = flag_type_tower(3, [rf({0: 1, -1: 2}, {3: 1, 1: Fraction(-1, 2)})])
    # partial_flag(2) has n = 4, so lambda = (max p - 3, min p - 2).
    wide = [(2, 6), (7, 3), (6, 4), (9, 2)]
    cases = [
        (several, list(itertools.product(range(6), repeat=3)), "_push_down"),
        (mixed, list(itertools.product(range(6), repeat=3)), "_push_down"),
        (partial_flag(2), wide, "_dual_push"),
    ]
    nonzero = 0
    for spec, tuples, route in cases:
        orders = tuple(map(max, zip(*tuples)))
        window = closed_formula_segre(spec, TruncationRequest.derive(spec, orders))
        for exps in tuples:
            del routes[:]
            target = Monomial((U(i), -a - 1) for i, a in enumerate(exps, 1))
            value = pushforward_monomial(spec, exps)
            assert routes == [route], (spec, exps)
            assert value == _generic_push(spec, exps), (spec, exps)
            assert value == coefficient_of(window, target, spec.tower_variables()), (spec, exps)
            nonzero += bool(value)
    assert nonzero >= 20


def test_the_dual_past_lambda_1_equals_k_equals_the_chern_and_hook_content_oracles(monkeypatch):
    # Seeded tuples with max p > 2k, so lambda_1 = max p - k > k, and
    # entries up to 3k + 2.  On flag_bundle(k) each value is the Chern
    # determinant and the generic push; on rational_root_flag(k) it is
    # +-s_lambda(1^(k+1)).  The dual side gives every one.
    routes = _record_routes(monkeypatch)
    rng = random.Random(44)
    with_base = magnitudes = 0
    for k in range(1, 6):
        bundle, roots = flag_bundle(k), rational_root_flag(k)
        draws = 6 if k == 5 else 10
        tuples = []
        while len(tuples) < draws:
            exps = tuple(rng.sample(range(3 * k + 3), k))
            if max(exps) > 2 * k:
                tuples.append(exps)
        tuples.append(tuple(rng.randint(2 * k + 1, 3 * k + 2) for _ in range(k)))
        for exps in tuples:
            del routes[:]
            value = pushforward_monomial(bundle, exps)
            assert routes == ["_dual_push"], (k, exps)
            assert value == chern_point_value(k, exps), (k, exps)
            assert value == _generic_push(bundle, exps), (k, exps)
            with_base += bool(value.variables())
            sign, lam = point_value_sign_and_partition(exps, k + 1)
            expected = sign * schur_at_ones(lam, k + 1) if sign else 0
            assert pushforward_monomial(roots, exps) == expected, (k, exps)
            magnitudes += abs(expected) > 1
    assert with_base >= 30 and magnitudes >= 30


def test_arrangement_sign():
    assert arrangement_sign((0, 1, 2)) == 1
    assert arrangement_sign((1, 0)) == -1
    assert arrangement_sign((2, 1, 0)) == -1
    assert arrangement_sign((0, 0, 1)) == 0
    assert arrangement_sign((3, 1, 0)) == 0
