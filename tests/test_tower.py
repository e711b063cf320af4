"""Tests for the tower model, the closed formula, and the stepwise oracle."""

import importlib.util
import itertools
import json
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segre_towers import (
    InvalidTowerError,
    LaurentPoly,
    Monomial,
    RationalFunction1V,
    TowerFactor,
    TowerLevel,
    TowerSpec,
    TruncationOverrun,
    TruncationRequest,
    aux_variable,
    closed_formula_segre,
    flag_integral,
    flag_tower,
    geometric_expand,
    localization_integral,
    pushforward_monomial,
    random_tower_spec,
    stepwise_pushforward,
    tower_violations,
    validate_tower,
    vandermonde_integral,
)
from segre_towers.cli import SpecFileError, main, tower_spec_from_doc, tower_spec_to_doc
from segre_towers import series, tower
from segre_towers.series import (
    ExponentOverflowError,
    coefficient_of,
    descending_expand,
    rename_variables,
    shift_expand,
    _geometric,
    _sliced,
    _unsliced,
)
from segre_towers.tower import PIVOT, individual_segre, _level_product, _level_series

from _helpers import (
    C,
    G,
    U,
    check_window_growth,
    descending_reference,
    flag_bundle,
    flag_type_tower,
    mono,
    partial_flag,
    poly,
    rf,
    shift_expand_reference,
    simple_tower,
    upoly,
)


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
    spec = TowerSpec((TowerLevel(()),))
    assert any(v.field == "factors" for v in tower_violations(spec))


def test_undeclared_base_generator_rejected():
    g = G("g")
    u = LaurentPoly.variable(PIVOT)
    den = u + LaurentPoly.variable(g)
    spec = TowerSpec((TowerLevel((TowerFactor((), RationalFunction1V(1, den)),)),))
    assert any("base variable 'g'" in v.message for v in tower_violations(spec))
    # Declared, a base variable may appear anywhere in q: with a negative
    # exponent, or in the leading denominator term.
    inverse_g = LaurentPoly.variable(g, -1)
    lead_g = LaurentPoly.variable(g) * u + 1
    for q_num, q_den in ((1, den), (inverse_g, u), (1, u + inverse_g), (1, lead_g)):
        factor = TowerFactor((), RationalFunction1V(q_num, q_den))
        assert tower_violations(TowerSpec((TowerLevel((factor,)),), (("g", 1),))) == []


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
        (10, {"u", "u1", "c1", "c2", "u10"}),
    ],
)
def test_reserved_names_follow_the_level_count(k, reserved):
    # The pivot's name and u1..uk, c1..ck in canonical decimal, and no others.
    # A name that is empty or holds whitespace, "," or "=" can head no table
    # column and key no --aux-orders entry, whatever k is.
    names = ("u", "u1", "c1", "c2", "u10", "u01", "u+1", "uc1", "w")
    unusable = ("", " w", "a\tb", "a,b", "a=b", "x\n")
    levels = [[((0,) * i, 1, {2: 1})] for i in range(k)]
    aux_fields = [f"aux[{pos}]" for pos in range(len(names), len(names + unusable))]
    for spec, message, fields in (
        (simple_tower((levels[0], names + unusable), *levels[1:]), "is not unique", aux_fields),
        (
            simple_tower(*levels, base_generators=[(n, 1) for n in names + unusable]),
            "is reserved",
            ["base_generators"] * len(unusable),
        ),
    ):
        assert spec.k == k
        found = tower_violations(spec)
        assert {v.message.split("'")[1] for v in found if message in v.message} == reserved
        refused = [v for v in found if "whitespace" in v.message]
        assert [v.field for v in refused] == fields
        assert [v.message.split(" must")[0] for v in refused] == [
            f"name {n!r}" for n in unusable
        ]


def test_aux_names_must_be_strings():
    # Auxiliary variables are given by name; the level they belong to is
    # their level's position.
    level = TowerLevel((TowerFactor((), rf(1, {2: 1})),), (aux_variable("v", 1),))
    (violation,) = tower_violations(TowerSpec((level,)))
    assert (violation.level, violation.field) == (1, "aux[0]")
    assert violation.message.endswith("must be a string")


def test_violations_are_reported_never_raised():
    # A series without a rational function's attributes, an unhashable aux or
    # base-generator name, a bool degree, records of the wrong shape (each of
    # which used to raise TypeError, AttributeError or ValueError here) and
    # twists that are not ints: each is a violation under its field, and
    # every route refuses the tower with InvalidTowerError.  On flag_tower(2)'s
    # level-2 linear factor a twist of 0.5 used to pass, and closed and
    # stepwise both gave the twist-0 window; -1.0 made both raise TypeError.
    series = rf(1, {2: 1})
    good = TowerFactor((), series)
    flags = flag_tower(2)
    point, linear = flags.levels[1].factors

    def twisted(twist):
        level = TowerLevel((point, TowerFactor((twist,), linear.series)))
        return TowerSpec((flags.levels[0], level))

    cases = [
        (TowerSpec((TowerLevel((TowerFactor((), None),)),)), (1, "factors[0].q")),
        (TowerSpec((TowerLevel((good,), (["v"],)),)), (1, "aux[0]")),
        (TowerSpec((TowerLevel((good,), ("v", ["v"], "v")),)), (1, "aux[1]")),
        (TowerSpec((TowerLevel((good,)),), ((["g"], 1),)), (None, "base_generators")),
        (TowerSpec((TowerLevel((good,)),), (("g", True),)), (None, "base_generators")),
        (TowerSpec((TowerLevel((TowerFactor(None, series),)),)), (1, "factors[0].m")),
        (TowerSpec((TowerLevel((series,)),)), (1, "factors[0]")),
        (TowerSpec((TowerLevel((good,)),), (("g",),)), (None, "base_generators")),
        (TowerSpec((TowerLevel(None),)), (1, "factors")),
        (TowerSpec(None), (None, "levels")),
        (TowerSpec((None,)), (1, "factors")),
        (TowerSpec((TowerLevel((good,), None),)), (1, "aux")),
        (TowerSpec((TowerLevel((good,)),), None), (None, "base_generators")),
    ]
    twists = [0.5, -1.0, None, "1", Fraction(1, 2)]
    cases += [(twisted(t), (2, "factors[1].m")) for t in twists]
    req = TruncationRequest((0,), (), (1,))
    for spec, where in cases:
        found = tower_violations(spec)
        assert where in {(v.level, v.field) for v in found}, (spec, found)
        for route in (
            validate_tower,
            lambda s: closed_formula_segre(s, req),
            lambda s: stepwise_pushforward(s, req),
            lambda s: pushforward_monomial(s, (0,)),
            lambda s: individual_segre(s, 1, -1),
        ):
            with pytest.raises(InvalidTowerError) as info:
                route(spec)
            assert f"{where[1]}:" in str(info.value)
    # The third case reports the repeated string name once, and only it.
    assert [str(v) for v in tower_violations(cases[2][0])] == [
        "level 1, aux[1]: name ['v'] must be a string",
        "level 1, aux[2]: name 'v' is not unique",
    ]
    assert [str(v) for v in tower_violations(twisted(0.5))] == [
        "level 2, factors[1].m: twists must be a sequence of integers, got (0.5,)"
    ]
    # A bool is the int it is.
    assert tower_violations(twisted(True)) == []


def test_name_checks_agree_with_their_regular_expressions():
    # The two name checks are string tests; each agrees with the regular
    # expression it replaced.  Every code point is tried as a name and inside
    # one, and in the digit place of a tower variable's name.
    def problem(name):
        return not name or bool(re.search(r"[\s,=]", name))

    def reserved(name, k):
        match = re.fullmatch(r"[uc]([1-9][0-9]*)", name)
        top = str(k)
        return name == "u" or (bool(match) and (len(match[1]), match[1]) <= (len(top), top))

    chars = [chr(n) for n in range(sys.maxunicode + 1)]
    refused = [c for c in chars if problem(c)]
    assert [c for c in chars if tower._name_problem(c)] == refused
    for name in ("", *refused, *map(chr, range(128)), "\u00e9", "\U0001f600"):
        assert (tower._name_problem(name) is not None) == problem(name), repr(name)
        assert (tower._name_problem(f"a{name}b") is not None) == problem(f"a{name}b"), repr(name)
    digits = [c for c in chars if c.isdigit() or c.isascii()]
    long = "u" + "9" * 5000
    names = ["u", "u0", "u01", "c10", "c9", "u1", long, long.replace("u9", "u1", 1)]
    names += [f"u{c}" for c in digits] + [f"c1{c}" for c in digits]
    for k in (0, 1, 9, 10, sys.maxsize):
        for name in names:
            assert tower._is_reserved(name, k) == reserved(name, k), (name, k)
    assert "re" not in vars(tower)


def test_each_computation_validates_its_tower_once(tmp_path, monkeypatch, capsys):
    # Every public computation validates its tower exactly once, and the
    # private walks never do; a tower-segre job validates once, in its route.
    calls = []
    checked = tower.validate_tower
    monkeypatch.setattr(tower, "validate_tower", lambda spec: calls.append(spec) or checked(spec))
    flags, generic = flag_tower(3), random_tower_spec(random.Random(5), max_k=3)
    req = TruncationRequest.derive(generic, (1,) * generic.k)
    power = [1, 2, 3]
    cases = [
        lambda: closed_formula_segre(generic, req),
        lambda: stepwise_pushforward(generic, req),
        lambda: pushforward_monomial(generic, (0,) * generic.k),
        lambda: pushforward_monomial(flags, power),
        lambda: individual_segre(generic, generic.k, -3),
    ]
    for case in cases:
        calls.clear()
        case()
        assert len(calls) == 1
    calls.clear()
    tower._push_down(generic, req)
    tower._push_down(generic, req, point=True)
    tower._dual_push(tower._flag_type_levels(flags), power)
    assert calls == []
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(tower_spec_to_doc(generic)), encoding="utf-8")
    orders = ",".join("1" * generic.k)
    for method in ("closed", "stepwise"):
        calls.clear()
        assert main(["tower-segre", str(path), "--orders", orders, "--method", method]) == 0
        assert calls == [generic]
    capsys.readouterr()


def test_pushforward_monomial_validates_before_reading_the_tower(monkeypatch):
    # An over-long twist vector is refused before the tower is classified or
    # its auxiliary names are read.
    spec = flag_tower(2)
    level = spec.levels[1]
    bad = level._replace(factors=(level.factors[0]._replace(twists=(-1, 0)),) + level.factors[1:])
    spec = spec._replace(levels=(spec.levels[0], bad))
    read = []
    monkeypatch.setattr(tower, "_flag_type_levels", lambda s: read.append(s))
    monkeypatch.setattr(tower, "_aux_exponents", lambda *args: read.append(args))
    with pytest.raises(InvalidTowerError) as info:
        pushforward_monomial(spec, (1, 0))
    assert "level 2, factors[0].m" in str(info.value)
    assert read == []


@pytest.mark.parametrize(
    "k", [-1, -(10**5000), sys.maxsize + 1, 10**5000], ids=["-1", "-10^5000", "max+1", "10^5000"]
)
def test_level_count_out_of_range_names_k(k):
    # A tower stores no k: its level count is len(levels).  A spec file's k
    # is refused under its name before any level is decoded, without echoing
    # a value that str() may not convert.
    with pytest.raises(SpecFileError) as info:
        tower_spec_from_doc({"k": k, "levels": "not decoded"})
    assert str(info.value) == f"k: expected an integer in 0..{sys.maxsize}"


def test_level_count_mismatch_rejected(tmp_path, capsys):
    doc = tower_spec_to_doc(flag_tower(2))
    doc["levels"].pop()
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["tower-segre", str(path), "--orders", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: levels: expected 2 levels, found 1\n"


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


def test_floors_and_levels_must_be_ints():
    # A floor or a level must be an int that is not a bool: a float would
    # otherwise fail deep inside the long division or run, and a bool run
    # as 1.  Each is refused under its parameter's name, and so is a level
    # out of range, without echoing one too long to print.
    x = LaurentPoly.variable(G("x"))
    cases = [
        ("min_exponent: expected an integer", lambda: descending_expand(rf(1, {2: 1, 0: 3}), -6.5)),
        ("min_exponent: expected an integer", lambda: descending_expand(rf(1, {2: 1}), -6.5)),
        ("min_exponent: expected an integer", lambda: descending_expand(rf(1, {2: 1}), True)),
        ("low: expected an integer", lambda: shift_expand(upoly({-1: 1}), PIVOT, x, 2, low=-2.5)),
        ("low: expected an integer", lambda: shift_expand(upoly({-1: 1}), PIVOT, x, 2, low=True)),
        ("level: expected an integer", lambda: individual_segre(flag_tower(2), True, -3)),
        ("level: expected an integer", lambda: individual_segre(flag_tower(2), 1.0, -3)),
        ("level: 3 is above the ceiling 2$", lambda: individual_segre(flag_tower(2), 3, -3)),
        ("level: must be at least 1, got 0$", lambda: individual_segre(flag_tower(2), 0, -3)),
        (
            "level: the value is above the ceiling 2$",
            lambda: individual_segre(flag_tower(2), 10**5000, -3),
        ),
        ("min_exponent: expected an integer", lambda: individual_segre(flag_tower(2), 1, -3.0)),
        ("min_exponent: expected an integer", lambda: individual_segre(flag_tower(2), 1, False)),
    ]
    for message, case in cases:
        with pytest.raises(ValueError, match=f"^{message}"):
            case()
    assert shift_expand(upoly({-1: 1}), PIVOT, x, 2, low=-2) == poly(
        {((PIVOT, -1),): 1, ((PIVOT, -2), (G("x"), 1)): -1}
    )


def _pool_tower(index):
    """Tower ``index`` of the benchmark's pool (``benchmarks/inputs.py``)."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "inputs.py"
    if "pool_inputs" not in sys.modules:
        module_spec = importlib.util.spec_from_file_location("pool_inputs", path)
        module = importlib.util.module_from_spec(module_spec)
        sys.modules["pool_inputs"] = module
        module_spec.loader.exec_module(module)
    return tower_spec_from_doc(sys.modules["pool_inputs"].tower_item(index)[0])


def _with_pivot(value, pivot):
    """``value`` with the exponent of PIVOT moved onto ``pivot``."""
    return LaurentPoly(
        {Monomial((pivot if v == PIVOT else v, e) for v, e in m): c for m, c in value.items()}
    )


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    st.integers(0, 2**32),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.integers(-1, 2),
    st.none() | st.integers(-1, 3),
)
def test_level_product_is_the_filtered_unwindowed_product(seed, flags, closed, aux, below, span):
    # The reference multiplies whole multipliers with no window and filters
    # the product afterwards: no slice code is used.  Each factor is expanded
    # by long division and shifted by the direct binomial sum to a random
    # depth at or below its source floor floor - M - U + own, own its
    # leading exponent (see ``_level_product``), so on the window it is the
    # untruncated product.
    # The floor is drawn near one of the pivot exponents of a shallow
    # product, so the window cuts through it.
    rng = random.Random(seed)
    spec = flag_tower(rng.randint(1, 4)) if flags else random_tower_spec(rng, max_k=3)
    level = rng.randint(1, spec.k)
    pivot, lower = (U(level), U) if closed else (PIVOT, C)
    others = [G("g"), U(spec.k + 1)] + [lower(j) for j in range(1, level)]
    result = sum(
        (
            LaurentPoly.monomial(
                Monomial(((pivot, rng.randint(-2, 1)), (rng.choice(others), rng.randint(-1, 1)))),
                Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)),
            )
            for _ in range(rng.randint(1, 3))
        ),
        LaurentPoly(),
    )
    orders = [rng.randint(0, 2) for _ in range(2 if aux else 0)]
    extras = [
        (geometric_expand(aux_variable(f"w{n}", level), pivot, b), b)
        for n, b in enumerate(orders)
    ]
    factors = spec.levels[level - 1].factors
    ups = [factor.series.leading_exponent for factor in factors]

    def unwindowed(depths):
        # Each factor expanded to its depth, and shifted to every term at or
        # above it.
        full = result
        for factor, own, depth in zip(factors, ups, depths):
            q = _with_pivot(descending_reference(factor.series, depth), pivot)
            shift = sum(
                (t * LaurentPoly.variable(lower(j + 1)) for j, t in enumerate(factor.twists)),
                LaurentPoly(),
            )
            full = full * shift_expand_reference(q, pivot, shift, max(own - depth, 0))
        for extra, _ in extras:
            full = full * extra
        return full

    exps = sorted({m.exponent(pivot) for m, _ in unwindowed([up - 2 for up in ups]).items()})
    floor = rng.choice(exps or [0]) - below
    top = max((m.exponent(pivot) for m, _ in result.items()), default=0)
    # No span: a ceiling no term exceeds, the result's top plus every up.
    ceiling = top + sum(ups) + sum(orders) if span is None else floor + span
    slack = floor - top - sum(ups) - sum(orders)
    full = unwindowed([slack + up - rng.randint(0, 2) for up in ups])
    # As ``closed_formula_segre`` does: the level product on the window
    # shifted by the running product's pivot exponents, then one meeting.
    running = _sliced(result, pivot)
    level_product = _level_product(
        factors, lower, {}, floor - top, ceiling - min(running[0], default=0),
        [(_sliced(extra, pivot), b) for extra, b in extras],
    )
    sliced = series._product(running, level_product, floor, ceiling)
    assert all(sliced[0].values())
    got = _unsliced(sliced, pivot)
    assert got == full.filter_terms(pivot, floor, ceiling)


def test_level_product_below_its_tops_expands_nothing(monkeypatch):
    # Each factor's top is its leading exponent, so a floor above the sum of
    # the tops and the extras' leaves the product empty before any factor is
    # expanded.  flag_tower(3)'s level 3 has the tops -4, 1 and 1.
    spec = flag_tower(3)
    factors = spec.levels[2].factors
    assert [f.series.leading_exponent for f in factors] == [-4, 1, 1]
    memo = {}
    extra = [(_geometric(aux_variable("w", 3), PIVOT, 0, 2), 2)]
    assert _level_product(factors, C, memo, -2, 0)[0]
    assert _level_product(factors, C, memo, 0, 0, extra)[0]
    expanded = []
    monkeypatch.setattr(tower, "_expansion", lambda *args: expanded.append(args))
    for floor, extras in ((-1, ()), (1, extra)):
        assert _level_product(factors, C, {}, floor, floor + 3, extras) == ({}, 1, 0)
    assert expanded == []


def test_level_product_refuses_its_bound_before_forming_a_key(monkeypatch):
    # An extra's bound plus the factors' leaves the slot: refused before any
    # product slice is formed.  Level 3's factors carry bounds 4, 2 and 2,
    # so at top - 6 the first two products would still fit.
    spec, top = flag_tower(3), 2**31 - 1
    cases = []
    for level, pivot, lower, below in ((1, U(1), U, 3), (3, U(3), U, 6), (3, PIVOT, C, 6)):
        for big in (top, top - below):
            result = LaurentPoly({Monomial(((pivot, -1), (G("g"), big))): 1})
            cases.append((level, pivot, lower, result))
    formed = []
    monkeypatch.setattr(tower, "_product", lambda *args: formed.append(args))
    for level, pivot, lower, result in cases:
        with pytest.raises(ExponentOverflowError):
            _level_product(
                spec.levels[level - 1].factors, lower, {}, -8, -1, [(_sliced(result, pivot), 0)]
            )
    assert formed == []


def test_level_series_with_a_ceiling_is_the_filtered_level_series():
    # The pool's four costliest towers, random towers and flag bundles.
    rng = random.Random(23)
    specs = [_pool_tower(index) for index in (20, 167, 313, 336)]
    specs += [random_tower_spec(rng, max_k=4) for _ in range(6)]
    specs += [flag_bundle(3), flag_bundle(4)]
    # ``got`` shares one memo per tower, as a walk does: its floors fall and
    # rise between levels, so expansions are both recomputed and reused.
    cut = 0
    for spec in specs:
        memo = {}
        for level in range(1, spec.k + 1):
            # The sum of the ups is a ceiling no term exceeds.
            factors = spec.levels[level - 1].factors
            top = sum(max(f.series.leading_exponent or 0, 0) for f in factors)
            for floor in (-1, -4):
                full = _unsliced(_level_series(factors, {}, floor, top), PIVOT)
                assert full == _unsliced(_level_series(factors, {}, floor, top + 3), PIVOT)
                for ceiling in range(floor - 1, 2):
                    got = _unsliced(_level_series(factors, memo, floor, ceiling), PIVOT)
                    assert got == full.filter_terms(PIVOT, high=ceiling)
                    cut += len(got) < len(full)
    assert cut > 200


def _sized_calls():
    q, shift = poly({((PIVOT, 2),): 1}), poly({((U(1), 1),): 1})
    calls = {
        "geometric_expand": ("degree_cap", lambda n: geometric_expand(U(1), PIVOT, n), -1),
        "shift_expand": ("degree_cap", lambda n: shift_expand(q, PIVOT, shift, n), -1),
        "random_tower_spec": ("max_k", lambda n: random_tower_spec(random.Random(3), max_k=n), 0),
    }
    for label, (name, call, low) in calls.items():
        for bad in (True, False, 2.0, "2", None, low):
            yield pytest.param(name, call, bad, id=f"{label}-{bad!r}")


@pytest.mark.parametrize("name, call, bad", _sized_calls())
def test_bad_sizes_are_refused_by_name(name, call, bad):
    # A bool is an int, so True used to be taken as 1, and max_k = 0 failed
    # inside randrange without naming the parameter.
    with pytest.raises(ValueError) as info:
        call(bad)
    assert str(info.value).startswith(f"{name}: ")


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
        for name in lvl.aux:
            result = result * geometric_expand(aux_variable(name, i), u_i, req.aux_order(name))
        a_i = req.tower_orders[i - 1]
        result = result.filter_terms(u_i, -a_i - 1, -1)
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


def sympy_window(sp, spec, req):
    """The window of ``spec`` read off sympy's own series, with no code of the routes.

    The rational product is prod_i prod_f q_f(u_i + sum_j m_j u_j) times
    1/(w - u_i) for each auxiliary w of level i.  Both routes expand it in
    the regime w >> u_k >> ... >> u_1, so it is expanded at infinity in that
    order, one variable at a time.  Each step expands only the factors that
    involve the variable; the others ride along unchanged.
    """
    pivot = sp.Symbol(PIVOT.name)

    def side(p):
        return sum(sp.Rational(c.numerator, c.denominator) * pivot ** m.exponent(PIVOT)
                   for m, c in p.items())

    factors = []
    for i, lvl in enumerate(spec.levels, 1):
        u_i = sp.Symbol(U(i).name)
        for factor in lvl.factors:
            shifted = u_i + sum(t * sp.Symbol(U(j).name) for j, t in enumerate(factor.twists, 1))
            q = side(factor.series.numerator) / side(factor.series.denominator)
            factors.append(q.subs(pivot, shifted))
        factors += [1 / (sp.Symbol(aux_variable(n, i).name) - u_i) for n in lvl.aux]
    order = [(aux_variable(n, i), req.aux_order(n)) for i, lvl in enumerate(spec.levels, 1)
             for n in lvl.aux]
    order += [(U(i), req.tower_orders[i - 1]) for i in range(spec.k, 0, -1)]
    terms = {(): factors}
    for var, a in order:
        x, expanded = sp.Symbol(var.name), {}
        for entries, parts in terms.items():
            rest = [f for f in parts if not f.has(x)]
            involved = sp.Mul(*(f for f in parts if f.has(x)))
            coeffs = {}
            # At infinity, order a + 2 keeps every exponent above -a - 2.
            for term in sp.Add.make_args(sp.series(involved, x, sp.oo, a + 2).removeO()):
                coeff, power = term.as_independent(x, as_Add=False)
                base, e = power.as_base_exp()
                if base == x and -a - 1 <= e <= -1:
                    coeffs[int(e)] = coeffs.get(int(e), 0) + coeff
            for e, coeff in coeffs.items():
                expanded[entries + ((var, e),)] = rest + [coeff]
        terms = expanded
    values = {Monomial(entries): sp.Rational(sp.Mul(*parts)) for entries, parts in terms.items()}
    return {m: Fraction(int(c.p), int(c.q)) for m, c in values.items() if c}


def test_small_windows_match_sympy_series():
    sp = pytest.importorskip("sympy")
    cases = [(flag_tower(1), (1,), {}), (flag_tower(2), (2, 2), {})]
    rng = random.Random(62)
    while len(cases) < 10:
        spec = random_tower_spec(rng, max_k=2)
        orders = tuple(rng.randint(0, 2) for _ in range(spec.k))
        aux = {v.name: rng.randint(0, 1) for v in spec.aux_variables()}
        # One sympy series takes 0.1-0.4 s, and each auxiliary variable
        # multiplies the number taken; at most one keeps the test near 4 s.
        if len(aux) <= 1:
            cases.append((spec, orders, aux))
    nonempty = 0
    for spec, orders, aux in cases:
        req = TruncationRequest.derive(spec, orders, aux)
        want = sympy_window(sp, spec, req)
        for route in (closed_formula_segre, stepwise_pushforward):
            assert dict(route(spec, req).items()) == want, (route.__name__, spec, orders, aux)
        nonempty += bool(want)
    assert nonempty >= 6


def test_closed_equals_stepwise_under_large_leading_degrees():
    # Monomial denominators with negative exponents maximize the positive
    # leading degree of each factor, the worst case for the source floors
    # of the level products; a grown window must hold the same window.
    rng = random.Random(99)
    grown = 0
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
                factors.append(TowerFactor(twists, RationalFunction1V(num, den)))
            levels.append(TowerLevel(tuple(factors)))
        spec = TowerSpec(tuple(levels))
        orders = tuple(rng.randint(0, 2) for _ in range(spec.k))
        req = TruncationRequest.derive(spec, orders)
        assert closed_formula_segre(spec, req) == stepwise_pushforward(spec, req)
        grown += check_window_growth(rng, spec, orders)
    assert grown >= 8, grown


def test_closed_equals_stepwise_with_base_coefficients():
    # Coefficients from the base ring travel through both computations: on
    # the bottom level only, on both levels, and with negative base exponents
    # from 1/(g*u + u^-1), whose expansion divides by g.
    g = G("g")
    u = LaurentPoly.variable(PIVOT)
    g_poly = LaurentPoly.variable(g)
    pairs = [
        (RationalFunction1V(1, u * u + g_poly * u), rf({1: 1, 0: 2}, {2: 1})),
        (
            RationalFunction1V(1, u * u + g_poly * u),
            RationalFunction1V(g_poly * u + 2, u * u + g_poly),
        ),
        (
            RationalFunction1V(1, g_poly * u + LaurentPoly.variable(PIVOT, -1)),
            RationalFunction1V(g_poly, u * u),
        ),
    ]
    exponents = set()
    for bottom, top in pairs:
        levels = (TowerLevel((TowerFactor((), bottom),)), TowerLevel((TowerFactor((-1,), top),)))
        spec = TowerSpec(levels, base_generators=(("g", 1),))
        req = TruncationRequest.derive(spec, (2, 2))
        closed = closed_formula_segre(spec, req)
        assert closed == stepwise_pushforward(spec, req)
        exponents |= {m.exponent(g) for m, _ in closed.items()}
    assert min(exponents) < 0 < max(exponents)


def test_degenerate_tower_is_constant_one():
    spec = TowerSpec(())
    req = TruncationRequest.derive(spec, ())
    assert closed_formula_segre(spec, req) == 1
    assert stepwise_pushforward(spec, req) == 1


# -- window and invariants --------------------------------------------------------


def test_window_exactness_under_enlargement():
    # Orders up to 2 against the same orders plus 4, by the closed route;
    # the stepwise route on the small window also runs its TruncationOverrun
    # check on every gamma_max it meets.
    rng = random.Random(5)
    for _ in range(8):
        spec = random_tower_spec(rng)
        small = tuple(rng.randint(0, 2) for _ in range(spec.k))
        big = tuple(a + 4 for a in small)
        aux_small = {v.name: 0 for v in spec.aux_variables()}
        aux_big = {v.name: 1 for v in spec.aux_variables()}
        req_small = TruncationRequest.derive(spec, small, aux_small)
        req_big = TruncationRequest.derive(spec, big, aux_big)
        out_small = closed_formula_segre(spec, req_small)
        out_big = closed_formula_segre(spec, req_big)
        assert stepwise_pushforward(spec, req_small) == out_small

        in_small_window = out_big
        for i, a in enumerate(small):
            in_small_window = in_small_window.filter_terms(U(i + 1), -a - 1, -1)
        for v in spec.aux_variables():
            in_small_window = in_small_window.filter_terms(v, -1, -1)
        assert in_small_window == out_small


def test_factor_order_independence():
    spec = flag_tower(3)
    shuffled_levels = []
    rng = random.Random(9)
    for lvl in spec.levels:
        factors = list(lvl.factors)
        rng.shuffle(factors)
        shuffled_levels.append(TowerLevel(tuple(factors), lvl.aux))
    shuffled = TowerSpec(tuple(shuffled_levels))
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
        (TowerLevel((TowerFactor((), RationalFunction1V(1, den)),)),), base_generators=(("g", 1),)
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


def test_the_window_routes_refuse_a_request_of_another_shape():
    # A request needs one order per level and the tower's auxiliary names:
    # too few orders would raise a bare IndexError, too many be cut to the
    # tower's levels, and a missing name raise KeyError.
    derive = TruncationRequest.derive
    renamed = AUX_TOWER._replace(levels=(AUX_TOWER.levels[0]._replace(aux=("w",)),))
    cases = [
        (flag_tower(3), derive(flag_tower(2), (2, 2))),
        (flag_tower(3), derive(flag_tower(4), (2, 2, 2, 2))),
        (renamed, derive(flag_tower(1), (2,))),
        (flag_tower(1), derive(renamed, (2,), {"w": 1})),
        (renamed, derive(AUX_TOWER, (2,), {"v": 1})),
    ]
    for spec, req in cases:
        for route in (closed_formula_segre, stepwise_pushforward):
            with pytest.raises(ValueError, match="^req: derived for"):
                route(spec, req)
    # A request of the right shape is read as it is.
    req = derive(AUX_TOWER, (2,), {"v": 1})
    assert closed_formula_segre(renamed, req._replace(aux_orders=(("w", 1),))) == rename_variables(
        closed_formula_segre(AUX_TOWER, req), {aux_variable("v", 1): aux_variable("w", 1)}
    )


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
        # An int past sys.maxsize, refused without echoing its digits.
        (lambda: TruncationRequest.derive(flag_tower(1), (-(10**5000),)), "tower_orders"),
        (lambda: TruncationRequest.derive(AUX_TOWER, (1,), {"v": -(10**5000)}), "aux_orders"),
        (lambda: pushforward_monomial(flag_tower(1), (-(10**5000),)), "tower_exponents"),
        # A non-int whose repr would convert an int too long for str.
        (lambda: pushforward_monomial(flag_tower(1), (Fraction(10**5000),)), "tower_exponents"),
        (lambda: pushforward_monomial(AUX_TOWER, (0,), {"v": -(10**5000)}), "aux_exponents"),
        (lambda: flag_integral(1, (-(10**5000),)), "exponents"),
        (lambda: vandermonde_integral(1, (-(10**5000),)), "exponents"),
        (lambda: localization_integral(1, (-(10**5000),), trials=1), "exponents"),
        (lambda: shift_expand(upoly({-1: 1}), PIVOT, LaurentPoly.variable(G("x")), -(10**5000)),
         "degree_cap"),
        (lambda: geometric_expand(G("x"), G("y"), -(10**5000)), "degree_cap"),
        (lambda: individual_segre(flag_tower(2), 10**5000, -3), "level"),
    ],
)
def test_library_errors_name_the_parameter(call, name):
    # Library errors name the function's parameter, never a CLI option, and
    # a float or a bool is refused rather than truncated by int().  An int
    # too long to print is not echoed.
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(f"{name}: ")
    assert "--" not in str(info.value)
    assert "1" + "0" * 30 not in str(info.value)


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
            + sum(aux[name] for name in lvl.aux)
            for lvl, a in zip(spec.levels, orders)
        ]
        assert req.shift_caps == tuple(sum(steps[j:]) for j in range(spec.k))
        assert req.degree_cap == sum(steps)


def test_stabilization_under_window_growth():
    rng = random.Random(21)
    grown = 0
    for _ in range(8):
        spec = random_tower_spec(rng)
        orders = tuple(rng.randint(0, 2) for _ in range(spec.k))
        aux = {v.name: rng.randint(0, 1) for v in spec.aux_variables()}
        grown += check_window_growth(rng, spec, orders, aux)
    assert grown >= 4, grown


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
        (
            TowerLevel((TowerFactor((), RationalFunction1V(1, den)),)),
            TowerLevel((TowerFactor((-1,), rf({1: 1, 0: 2}, {2: 1})),)),
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


def test_push_refuses_a_degree_above_its_cap(monkeypatch):
    # flag_tower(2) at orders (2, 2) meets c2^2 at level 2 by the stepwise
    # push; with level 2's cap lowered to 1 the TruncationOverrun check
    # fires.  A flag-type tower's point value is a determinant that reads no
    # caps, so the public route's check is taken on a tower the predicate
    # rejects: the first variant of flag_tower(3) at (2, 2, 2) meets c2^3.
    derive = TruncationRequest.derive

    def lowered(req, cap):
        return req._replace(shift_caps=(req.shift_caps[0], cap, *req.shift_caps[2:]))

    spec = flag_tower(2)
    with pytest.raises(TruncationOverrun, match="degree 2 in c2 exceeds the derived cap 1"):
        stepwise_pushforward(spec, lowered(derive(spec, (2, 2)), 1))
    variant = _flag3_variants()[0]
    assert pushforward_monomial(variant, (2, 2, 2))
    monkeypatch.setattr(
        TruncationRequest, "derive", classmethod(lambda cls, *args: lowered(derive(*args), 2))
    )
    with pytest.raises(TruncationOverrun, match="degree 3 in c2 exceeds the derived cap 2"):
        pushforward_monomial(variant, (2, 2, 2))


def test_push_refuses_its_bound_before_pairing_any_slice(monkeypatch):
    # Level 2 of this tower is u^-n * (u - 2 c1), not flag-type, so the point
    # (0, n - 1) takes the generic push.  Its level-2 block c2^(n-1) u2^-n,
    # bound n, meets the series' slice at u^-n, -2 c1 with the bound n + 2,
    # through ``series._product``, which refuses the sum of the bounds
    # before forming any key.  The spy records each product of the block's
    # part with any part but the unit one a level product starts from.
    def spec(n):
        return simple_tower([((), 1, {2: 1})], [((0,), {-n: 1}, 1), ((-2,), {1: 1}, 1)])

    formed = []

    def spy(data, a, b, scale=1, _real=series._add_product):
        if block in (a, b) and {0: 1} not in (a, b):
            formed.append((a, b))
        return _real(data, a, b, scale)

    monkeypatch.setattr(series, "_add_product", spy)
    for n, fits in ((2**29, True), (2**31 - 3, False)):
        assert tower._flag_type_levels(spec(n)) is None
        block = {series._pack(Monomial.of(U(2), -n))[0]: 1}
        formed.clear()
        if fits:
            assert pushforward_monomial(spec(n), (0, n - 1)) == -2
            assert len(formed) == 1
            continue
        with pytest.raises(ExponentOverflowError) as caught:
            pushforward_monomial(spec(n), (0, n - 1))
        assert str(caught.value) == (
            f"exponents up to {2 * n + 2} do not fit a packed monomial (at most 2147483647)"
        )
        assert formed == []


def test_generic_push_gives_the_exact_zero_near_the_slot_limit():
    # ``flag-integral --k 2 --exps 2147483646,1`` prints the exact 0 by the
    # determinant, whose first row reads no coefficient of u^3.  The generic
    # point push of the same monomial gives the same 0 with no refusal: level 1's
    # series is read only at u^-2147483647, where 1/u^3 has no slice, so
    # the push stops before it forms level 1's block, whose bound would
    # take the state's past the slot.
    spec, exps = flag_tower(2), (2147483646, 1)
    req = TruncationRequest.derive(spec, exps)
    assert tower._push_down(spec, req, point=True).is_zero()
    assert pushforward_monomial(spec, exps) == 0


# -- the flag-type point push ---------------------------------------------------


def _flag3_variants():
    """``flag_tower(3)`` with level 3's linear factors changed, one way each."""
    spec = flag_tower(3)
    point, first, second = spec.levels[2].factors

    def with_level3(*factors):
        return spec._replace(levels=spec.levels[:2] + (spec.levels[2]._replace(factors=factors),))

    return [
        with_level3(point, first._replace(twists=(-2, 0)), second),
        with_level3(point, second),
        with_level3(point, first, first, second),
    ]


def test_flag_type_predicate_accepts_flags_bundles_and_partial_flags():
    accepted = [flag_tower(k) for k in range(1, 6)] + [flag_bundle(3), partial_flag(3)]
    # The shared F is level 1's untwisted factors.  The flag tower's levels
    # share one series object, the bundle's are equal copies.
    for spec in accepted:
        assert tower._flag_type_levels(spec) == [spec.levels[0].factors[0]], spec
    bundle = flag_bundle(3)
    assert len({id(level.factors[0].series) for level in bundle.levels}) == 3
    # Rejected: a tower without levels, which shares no F; levels from a
    # bundle, a partial flag and a flag tower, whose F differ; a shared F
    # whose numerator has several terms; a pool tower; and flag_tower(3)
    # with level 3's linear factors changed.
    mixed = bundle._replace(
        levels=(bundle.levels[0], partial_flag(3).levels[1], flag_tower(3).levels[2])
    )
    several = flag_type_tower(3, [rf({0: 1, -1: 2}, {3: 1, 1: Fraction(-1, 2)})])
    pool = next(spec for spec in map(_pool_tower, range(400)) if spec.k >= 2)
    for spec in [TowerSpec(()), mixed, several, pool, *_flag3_variants()]:
        assert tower._flag_type_levels(spec) is None, spec
    assert pushforward_monomial(TowerSpec(()), ()) == 1


def test_the_determinant_derives_no_caps(monkeypatch):
    # A flag-type tower's value is a determinant, which reads no truncation
    # caps, so none are derived; the exponents are still checked.
    def refuse(cls, *args):
        raise AssertionError("a TruncationRequest was derived")

    monkeypatch.setattr(TruncationRequest, "derive", classmethod(refuse))
    assert pushforward_monomial(flag_tower(3), (3, 2, 1)) == 1
    assert pushforward_monomial(flag_bundle(2), (3, 2)).variables()
    with pytest.raises(ValueError, match="tower_exponents"):
        pushforward_monomial(flag_tower(3), (3, 2, -1))


def test_a_tower_the_predicate_rejects_takes_the_generic_push(monkeypatch):
    # Each variant of flag_tower(3) is pushed generically, and its values
    # still equal its closed window's coefficients; flag_tower(3) itself
    # takes the determinant.
    routes = []
    for name in ("_push_down", "_dual_push"):
        def spy(*args, _name=name, _route=getattr(tower, name), **kwargs):
            routes.append(_name)
            return _route(*args, **kwargs)

        monkeypatch.setattr(tower, name, spy)
    nonzero = 0
    for spec in _flag3_variants():
        window = closed_formula_segre(spec, TruncationRequest.derive(spec, (4, 4, 4)))
        for exps in itertools.product(range(5), repeat=3):
            target = Monomial((U(i), -a - 1) for i, a in enumerate(exps, 1))
            value = pushforward_monomial(spec, exps)
            assert value == coefficient_of(window, target, spec.tower_variables()), exps
            nonzero += bool(value)
    assert nonzero and set(routes) == {"_push_down"}
    assert len(routes) == 3 * 5**3
    pushforward_monomial(flag_tower(3), (3, 2, 1))
    assert routes[-1] == "_dual_push"
