"""Tests for the command-line front end and the spec-file round trip."""

import argparse
import ast
import contextlib
import io
import json
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segre_towers import (
    InvalidTowerError,
    LaurentPoly,
    Monomial,
    flag_tower,
    random_tower_spec,
    tower_variable,
)
from segre_towers.cli import (
    ResultTable,
    format_rational,
    main,
    tower_spec_from_doc,
    tower_spec_to_doc,
)
from segre_towers import cli as cli_mod
from segre_towers import series as series_mod
from segre_towers.series import PIVOT, VariableId

from fractions import Fraction

from _helpers import arrangement_sign, flag_bundle, simple_tower


def write_spec(tmp_path, spec, name="tower.json"):
    path = tmp_path / name
    path.write_text(json.dumps(tower_spec_to_doc(spec)), encoding="utf-8")
    return str(path)


# -- rational formatting -------------------------------------------------------


def test_format_rational():
    assert format_rational(Fraction(1)) == "1"
    assert format_rational(Fraction(-3)) == "-3"
    assert format_rational(Fraction(2, 4)) == "1/2"
    assert format_rational(Fraction(-7, 3)) == "-7/3"
    # The packed form's numerators need not be in lowest terms with their
    # denominator: each is reduced as it is formatted.
    for num in range(-12, 13):
        for den in range(1, 13):
            assert cli_mod._format_quotient(num, den) == format_rational(Fraction(num, den))


# -- spec file round trip --------------------------------------------------------


def test_spec_round_trip_flag_towers():
    for k in (1, 2, 3):
        spec = flag_tower(k)
        assert tower_spec_from_doc(tower_spec_to_doc(spec)) == spec


def test_spec_round_trip_random_corpus():
    rng = random.Random(31)
    for _ in range(20):
        spec = random_tower_spec(rng)
        doc = json.loads(json.dumps(tower_spec_to_doc(spec)))
        assert tower_spec_from_doc(doc) == spec


def test_spec_with_base_variable_coefficients_is_refused_under_the_field():
    # flag_bundle's denominators hold the Chern classes e_i, which a spec
    # file's [exp, num, den] triples cannot carry.
    with pytest.raises(cli_mod.SpecFileError) as info:
        tower_spec_to_doc(flag_bundle(2))
    assert str(info.value) == (
        "levels[1].factors.q_den: only rational coefficients can be serialized"
    )


def test_spec_file_error_names_the_field(tmp_path, capsys):
    # A well-formed document of an invalid tower decodes; the route refuses
    # it, naming the level.
    doc = tower_spec_to_doc(flag_tower(2))
    doc["levels"][1]["factors"][0]["m"] = []
    path = tmp_path / "short.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for method in ("closed", "stepwise"):
        assert main(["tower-segre", str(path), "--orders", "1,1", "--method", method]) == 1
        assert "level 2" in capsys.readouterr().err
    # Booleans are JSON literals, not integers, wherever an integer is required;
    # a generator name must be a string, never coerced (null is not "None").
    # A k out of range, or one that is not the number of levels, is refused
    # before any level is decoded, and no message echoes an integer that
    # str() may not convert.
    flags = (True, False)
    cases = [
        (("k",), "k", flags + (-1, sys.maxsize + 1, 10**5000)),
        (("k",), "levels", (3,)),
        (("levels", 1, "factors", 1, "m", 0), "levels[2].factors[1].m", flags),
        (("levels", 0, "factors", 0, "q_num", 0, 1), "levels[1].factors[0].q_num[0]", flags),
        (("base_generators", 0, "degree"), "base_generators[0].degree", flags),
        (("base_generators", 0, "name"), "base_generators[0].name", (None, 3, True, ["g"])),
        (("levels", 0, "factors", 0, "q_den", 0, 0), "levels[1].factors[0].q_den[0]",
         (2**31, -(2**31), 3000000000)),
        (("levels", 1, "factors", 1, "q_num", 0, 0), "levels[2].factors[1].q_num[0]",
         (2**31, -(2**31))),
    ]
    for path, field, values in cases:
        for value in values:
            doc = tower_spec_to_doc(flag_tower(2))
            doc["base_generators"] = [{"name": "g", "degree": 1}]
            target = doc
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            with pytest.raises(cli_mod.SpecFileError) as info:
                tower_spec_from_doc(doc)
            assert str(info.value).startswith(field + ":"), (field, value)
            assert all(int(n) <= sys.maxsize for n in re.findall(r"\d+", str(info.value)))


def test_spec_file_of_the_wrong_json_shape_names_the_field(tmp_path, capsys):
    # A top level that is not an object, and a factor that is not one, are
    # refused under their place in the document, with no traceback.
    bad_factor = tower_spec_to_doc(flag_tower(1))
    bad_factor["levels"][0]["factors"][0] = 3
    for doc, message in (
        ([1], "error: top level: expected a JSON object"),
        (bad_factor, "error: levels[1].factors[0]: expected an object"),
    ):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["tower-segre", str(path), "--orders", "1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.strip() == message and not captured.out


def test_spec_file_refuses_a_huge_level_count_at_once():
    start = time.perf_counter()
    with pytest.raises(cli_mod.SpecFileError) as info:
        tower_spec_from_doc({"k": 10**12, "levels": []})
    assert time.perf_counter() - start < 1
    assert str(info.value) == "levels: expected 1000000000000 levels, found 0"


def test_spec_refuses_a_level_count_beyond_int_to_str_digits():
    # str() of an int above 4300 digits raises; no message may need it.
    doc = {"k": 10**5000, "levels": [], "base_generators": [{"name": "u1", "degree": 1}]}
    with pytest.raises(cli_mod.SpecFileError) as info:
        tower_spec_from_doc(doc)
    assert str(info.value) == f"k: expected an integer in 0..{sys.maxsize}"


def test_spec_file_with_an_oversized_integer_names_the_path(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text('{"k": 1' + "0" * 5000 + ', "levels": []}', encoding="utf-8")
    with pytest.raises(cli_mod.SpecFileError) as info:
        cli_mod.load_tower_spec(str(path))
    assert str(path) in str(info.value)


@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"k": ', "}")],
                         ids=["arrays", "objects"])
def test_deeply_nested_spec_file_is_refused_with_a_message(tmp_path, capsys, opening, closing):
    # Nested past the decoder's recursion limit on every supported Python
    # (Python 3.13 decodes 3,000 levels of arrays).
    depth = 100_000
    path = tmp_path / "nested.json"
    path.write_text(opening * depth + "1" + closing * depth, encoding="utf-8")
    assert main(["tower-segre", str(path), "--orders", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path} cannot be decoded: ")
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err


# Spec-shaped JSON documents, mostly near-valid: a well-typed document whose
# names may be reserved or repeated and whose k may be wrong, negative or up
# to 10**12, with up to two of its values dropped or replaced by JSON of
# another type (bools included).  About a fifth decode to a spec.  Some carry
# ``base_degree_cap``, a key that older files hold and the decoder ignores.
_ODD_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**12), st.floats(-2, 2),
    st.text(max_size=2), st.lists(st.integers(-1, 1), max_size=3),
    st.dictionaries(st.sampled_from(["k", "name"]), st.none()),
)
_NAMES = st.sampled_from(["g", "w", "u", "u1", "c2", "c10", "u01"])
_TRIPLE = st.tuples(
    st.integers(-3, 3), st.sampled_from([-2, -1, 1, 3]), st.integers(1, 3)
).map(list)
_TRIPLES = st.lists(_TRIPLE, min_size=1, max_size=3)


def _slots(node, label="doc"):
    """Every (field label, container, key) of a JSON document, depth first.

    A list entry is labelled by its list's field with ``[]`` appended, so a
    fault picks a field first and only then one of its occurrences.
    """
    if isinstance(node, dict):
        pairs = node.items()
    elif isinstance(node, list):
        pairs = enumerate(node)
    else:
        return
    for key, child in pairs:
        name = key if isinstance(node, dict) else label + "[]"
        yield name, node, key
        yield from _slots(child, name)


@st.composite
def _spec_docs(draw):
    levels = []
    for index in range(1, draw(st.integers(0, 3)) + 1):
        twists = st.lists(st.integers(-2, 2), min_size=index - 1, max_size=index - 1)
        factor = st.fixed_dictionaries({"m": twists, "q_num": _TRIPLES, "q_den": _TRIPLES})
        level = st.fixed_dictionaries(
            {"factors": st.lists(factor, min_size=1, max_size=2)},
            optional={"aux": st.lists(_NAMES, max_size=2)},
        )
        levels.append(draw(level))
    base = st.fixed_dictionaries({"name": _NAMES, "degree": st.integers(-1, 2)})
    doc = draw(st.fixed_dictionaries({}, optional={
        "base_generators": st.lists(base, max_size=2), "base_degree_cap": st.integers(-1, 3),
    }))
    wrong_k = st.one_of(st.integers(-2, 10**12), st.just(10**12))
    doc.update(k=len(levels) if draw(st.integers(0, 2)) else draw(wrong_k), levels=levels)
    for _ in range(draw(st.integers(0, 2))):
        slots = list(_slots(doc))
        field = draw(st.sampled_from(sorted({label for label, _, _ in slots})))
        _, node, key = draw(st.sampled_from([slot for slot in slots if slot[0] == field]))
        if isinstance(node, dict) and draw(st.booleans()):
            del node[key]
        else:
            node[key] = draw(_ODD_JSON)
    return doc


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_spec_docs())
def test_spec_decoder_fuzz_returns_a_spec_or_names_the_fault(doc):
    try:
        spec = tower_spec_from_doc(doc)
    except (cli_mod.SpecFileError, InvalidTowerError):
        return
    assert tower_spec_from_doc(json.loads(json.dumps(tower_spec_to_doc(spec)))) == spec


def test_spec_decoder_builds_one_series_per_distinct_triples(monkeypatch):
    # Factors with equal q_num and q_den triples share one series object,
    # built once per document, so the walk memo hands their expansions back
    # as in process (the ``root_flag`` digest guards it); an equal function
    # written with other triples, or read from another document, gets its own.
    built, real = [], cli_mod.RationalFunction1V
    monkeypatch.setattr(cli_mod, "RationalFunction1V", lambda *a: built.append(a) or real(*a))
    doc = tower_spec_to_doc(flag_tower(3))
    doc["levels"][2]["factors"][0]["q_den"] = [[4, 2, 2]]
    spec = tower_spec_from_doc(doc)
    assert spec == flag_tower(3)
    series = [factor.series for level in spec.levels for factor in level.factors]
    assert len(built) == len({id(s) for s in series}) == 3
    assert series[0] is series[1] and series[2] is series[4] is series[5]
    assert series[3] == series[0] and series[3] is not series[0]
    assert tower_spec_from_doc(doc).levels[0].factors[0].series is not series[0]


def test_spec_file_rejects_zero_denominator_triples():
    doc = tower_spec_to_doc(flag_tower(1))
    doc["levels"][0]["factors"][0]["q_den"] = [[2, 1, 0]]
    with pytest.raises(Exception) as info:
        tower_spec_from_doc(doc)
    assert "q_den" in str(info.value)


def test_spec_triples_add_up_and_cancelling_ones_name_the_field():
    # Triples of one exponent add up, as a polynomial's terms do; a q_den
    # whose triples cancel is a zero denominator, refused under its field.
    doc = tower_spec_to_doc(flag_tower(2))
    doc["levels"][1]["factors"][0]["q_den"] = [[3, 1, 2], [3, 1, 2]]
    assert tower_spec_from_doc(doc) == flag_tower(2)
    for triples in ([[1, 1, 1], [1, -1, 1]], [[2, 1, 2], [0, 3, 1], [2, -2, 4], [0, -6, 2]]):
        doc["levels"][1]["factors"][0]["q_den"] = triples
        with pytest.raises(cli_mod.SpecFileError) as info:
            tower_spec_from_doc(doc)
        assert str(info.value).startswith("levels[2].factors[0].q_den: ")


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-4, 4), st.sampled_from([-6, -2, -1, 1, 3, 4])),
    max_size=5,
))
def test_spec_triples_decode_to_the_sum_of_their_terms(triples):
    want = LaurentPoly([(Monomial.of(PIVOT, e), Fraction(n, d)) for e, n, d in triples])
    got = cli_mod._poly_from_triples([list(t) for t in triples], "q")
    assert got == want
    assert got.items() == want.items()  # in the same internal order, too


# -- result table ------------------------------------------------------------------


def test_result_table_round_trip():
    from segre_towers import TruncationRequest, closed_formula_segre

    spec = flag_tower(2)
    req = TruncationRequest.derive(spec, (2, 2))
    series = closed_formula_segre(spec, req)
    table = ResultTable.from_poly(series, spec.tower_variables())
    assert json.loads(json.dumps(table.to_json_doc())) == {
        "header": ["u1", "u2"],
        "rows": [
            {"exponents": [-3, -2], "value": "1"},
            {"exponents": [-2, -3], "value": "-1"},
        ],
    }
    assert table.rows == (((-3, -2), "1"), ((-2, -3), "-1"))


def test_result_table_reads_each_column_by_slot():
    # Fresh variables take adjacent slots, so the negative exponents of the
    # term below sit side by side in one packed key.
    u1, u2, w = (VariableId(f"table_{name}", "aux", 1) for name in ("u1", "u2", "w"))
    term = Monomial([(u1, -1), (u2, -2), (w, -1)])
    poly = LaurentPoly({term: Fraction(-3, 4), Monomial.of(u2, 1): 2})
    slots = [series_mod._slot(v) for v in (u1, u2, w)]
    assert slots == [slots[0], slots[0] + 1, slots[0] + 2]
    # A header variable in no term reads 0, whether or not it holds a slot.
    elsewhere = VariableId("table_elsewhere", "aux", 1)
    LaurentPoly.variable(elsewhere)
    never = VariableId("table_never_packed", "base")
    table = ResultTable.from_poly(poly, [u1, u2, w, elsewhere, never])
    assert table.header == ("table_u1", "table_u2", "table_w", "table_elsewhere",
                            "table_never_packed")
    assert table.rows == (((-1, -2, -1, 0, 0), "-3/4"), ((0, 1, 0, 0, 0), "2"))
    with pytest.raises(ValueError) as info:
        ResultTable.from_poly(poly, [u1, u2, elsewhere])
    assert str(info.value) == f"term {term} involves variables outside the table header"
    assert ResultTable.from_poly(LaurentPoly.one(), []).rows == (((), "1"),)
    assert ResultTable.from_poly(LaurentPoly(), [u1]).rows == ()


# -- flag-integral command -----------------------------------------------------------


def test_cmd_flag_integral_values(capsys):
    assert main(["flag-integral", "--k", "2", "--exps", "2,1"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["flag-integral", "--k", "2", "--exps", "1,2"]) == 0
    assert capsys.readouterr().out == "-1\n"
    assert main(["flag-integral", "--k", "2", "--exps", "1,1"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_cmd_flag_integral_verbose_cross_checks(capsys):
    assert main(["flag-integral", "--k", "2", "--exps", "2,1", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "vandermonde: 1" in out
    assert "localization: 1" in out
    assert "# seed:" in out


def test_cmd_flag_integral_json(capsys):
    assert main(["flag-integral", "--k", "2", "--exps", "2,1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == doc["vandermonde"] == doc["localization"] == "1"


def test_cmd_flag_integral_json_cross_checks_up_to_the_ceiling(capsys):
    # Every --k flag-integral accepts is cross-checked: one shuffled
    # permutation of 1..k (value +-1) and one tuple on the dimension with a
    # repeated k - a_i (value 0) per k.
    for k in range(9, cli_mod.MAX_FLAG_K + 1):
        perm = list(range(1, k + 1))
        random.Random(0).shuffle(perm)
        zero = [k, k] + list(range(k - 2, 1, -1)) + [0]
        sign = arrangement_sign([k - a for a in perm])
        assert sign in (1, -1)
        for exps, want in ((perm, format_rational(sign)), (zero, "0")):
            argv = ["flag-integral", "--k", str(k), "--exps", ",".join(map(str, exps))]
            assert main(argv + ["--format", "json"]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["value"] == doc["vandermonde"] == doc["localization"] == want


ABOVE = cli_mod.MAX_FLAG_K + 1
K_ABOVE = ["--k", str(ABOVE), "--exps", ",".join(str(a) for a in range(1, ABOVE + 1))]


@pytest.mark.parametrize(
    "extra, named",
    [
        # The later --k and --exps replace the k = 10 ones.
        (K_ABOVE + ["--verbose"], ("--k",)),
        (K_ABOVE + ["--format", "json", "--trials", "1"], ("--k",)),
        (["--trials", "0"], ("--trials",)),
        (K_ABOVE, ("--k",)),
    ],
)
def test_cmd_flag_integral_refuses_before_computing(capsys, monkeypatch, extra, named):
    # Above MAX_FLAG_K no point-route time has been measured, with or
    # without the cross-checks: refused before any work.
    def no_work(*args, **kwargs):
        raise AssertionError("computation started before the refusal")

    for name in ("flag_integral", "_flag_pushforward", "vandermonde_integral",
                 "localization_integral"):
        monkeypatch.setattr(cli_mod.flag_mod, name, no_work)
    exps = ",".join(str(a) for a in range(1, 11))
    code = main(["flag-integral", "--k", "10", "--exps", exps] + extra)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {named[0]}: ")
    for text in named:
        assert text in captured.err


# -- tower-segre command ---------------------------------------------------------------


def test_cmd_tower_segre_table(tmp_path, capsys):
    path = write_spec(tmp_path, flag_tower(2))
    assert main(["tower-segre", path, "--orders", "2,2"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "u1\tu2\tvalue"
    assert lines[1] == "-3\t-2\t1"
    assert lines[2] == "-2\t-3\t-1"


def test_cmd_tower_segre_stepwise_identical(tmp_path, capsys):
    path = write_spec(tmp_path, flag_tower(2))
    assert main(["tower-segre", path, "--orders", "2,2"]) == 0
    closed_out = capsys.readouterr().out
    assert main(["tower-segre", path, "--orders", "2,2", "--method", "stepwise"]) == 0
    assert capsys.readouterr().out == closed_out


def test_cmd_tower_segre_determinism(tmp_path, capsys):
    spec = random_tower_spec(random.Random(77))
    path = write_spec(tmp_path, spec)
    orders = ",".join("1" for _ in range(spec.k))
    assert main(["tower-segre", path, "--orders", orders, "--format", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["tower-segre", path, "--orders", orders, "--format", "json"]) == 0
    assert capsys.readouterr().out == first


def test_cmd_tower_segre_malformed_file(tmp_path, capsys):
    doc = tower_spec_to_doc(flag_tower(2))
    doc["levels"][1]["factors"][0]["m"] = [1, 2, 3]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["tower-segre", str(path), "--orders", "1,1"]) != 0
    assert "level 2" in capsys.readouterr().err


def test_cmd_tower_segre_missing_file(capsys):
    assert main(["tower-segre", "/nonexistent.json", "--orders", "1"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cmd_tower_segre_aux_orders(tmp_path, capsys):
    from segre_towers import PIVOT, RationalFunction1V, TowerFactor, TowerLevel, TowerSpec

    factor = TowerFactor((), RationalFunction1V(1, LaurentPoly.variable(PIVOT, 2)))
    spec = TowerSpec((TowerLevel((factor,), ("v",)),))
    path = write_spec(tmp_path, spec)
    assert main(["tower-segre", path, "--orders", "2", "--aux-orders", "v=2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "u1\tv\tvalue"
    assert set(lines[1:]) == {"-1\t-2\t1", "-2\t-1\t1"}


def test_cmd_tower_segre_without_levels_prints_the_value_one(tmp_path, capsys):
    # A tower of no levels takes no orders: its window is the constant 1,
    # one row with no exponent columns.
    path = write_spec(tmp_path, simple_tower())
    assert main(["tower-segre", path, "--orders", ""]) == 0
    assert capsys.readouterr().out == "value\n1\n"
    assert main(["tower-segre", path, "--orders", "", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "header": [], "rows": [{"exponents": [], "value": "1"}]
    }


def test_cmd_tower_segre_passes_on_a_request_error_of_no_option(tmp_path, capsys, monkeypatch):
    # A ``derive`` error under a name that is no option's is printed as the
    # library words it, not renamed.
    def derive(cls, *args):
        raise ValueError("req: no option names this")

    monkeypatch.setattr(cli_mod.TruncationRequest, "derive", classmethod(derive))
    assert main(["tower-segre", write_spec(tmp_path, flag_tower(1)), "--orders", "1"]) == 1
    assert capsys.readouterr() == ("", "error: req: no option names this\n")


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_cmd_flag_integral_reports_a_cross_check_mismatch(capsys, monkeypatch, fmt):
    # A localization value one off the other two: every value is printed,
    # the mismatch goes to stderr and the exit status is 1.
    real = cli_mod.flag_mod.localization_integral
    monkeypatch.setattr(
        cli_mod.flag_mod, "localization_integral", lambda *a, **kw: real(*a, **kw) + 1
    )
    argv = ["flag-integral", "--k", "2", "--exps", "2,1", "--verbose", "--format", fmt]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: cross-check mismatch\n"
    if fmt == "json":
        doc = json.loads(captured.out)
        assert (doc["value"], doc["vandermonde"], doc["localization"]) == ("1", "1", "2")
    else:
        assert captured.out.splitlines()[1:] == ["1", "vandermonde: 1", "localization: 2"]


def test_cmd_localization_disagreement_is_reported(capsys, monkeypatch):
    # Trials that disagree mean a fault, not bad input: one reported line
    # and exit 1, not a traceback.  The fault is injected into the second
    # trial's numerator determinant.
    from segre_towers import flag as flag_mod

    real, calls = flag_mod._determinant, []

    def skewed(path):
        calls.append(path)
        return real(path) + (len(calls) == 2)

    monkeypatch.setattr(flag_mod, "_determinant", skewed)
    argv = ["flag-integral", "--k", "2", "--exps", "2,1", "--verbose", "--trials", "3"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal-consistency failure: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, option",
    [
        (["tower-segre", "SPEC", "--orders", "1", "--aux-orders", "w=1,w=0"], "--aux-orders"),
        (["tower-segre", "SPEC", "--orders", "1", "--aux-orders", "w=x"], "--aux-orders"),
        (["tower-segre", "SPEC", "--orders", "1", "--aux-orders", "w"], "--aux-orders"),
        (["tower-segre", "SPEC", "--orders", "x"], "--orders"),
        (["tower-segre", "SPEC", "--orders", "1,a"], "--orders"),
        (["flag-integral", "--k", "2", "--exps", "1,a"], "--exps"),
        (["flag-integral", "--k", "1", "--exps", "x"], "--exps"),
        (["flag-integral", "--k", "2", "--exps", "1,2,3"], "--exps"),
        (["tower-segre", "SPEC", "--orders", "1,1"], "--orders"),
        (["tower-segre", "SPEC", "--orders", "-1"], "--orders"),
        (["tower-segre", "SPEC", "--orders", "1", "--aux-orders", "x=1"], "--aux-orders"),
        (["tower-segre", "SPEC", "--orders", "1", "--aux-orders", "w=-1"], "--aux-orders"),
        (["flag-integral", "--k", "-1", "--exps", ""], "--k"),
        (["flag-integral", "--k", "0", "--exps", ""], "--k"),
        (["flag-integral", "--k", "2", "--exps", "3,1", "--verbose"], "--exps"),
        (["flag-integral", "--k", "2", "--exps", "3,1", "--format", "json"], "--exps"),
        (["flag-integral", "--k", "2", "--exps", "1,-1"], "--exps"),
        (["flag-integral", "--k", "2", "--exps", "1,-1", "--verbose"], "--exps"),
        (["verify", "--max-k", "1", "--towers", "0", "--trials", "99999999999999999999"],
         "--trials"),
        (["flag-integral", "--k", "2", "--exps", "2,1", "-v", "--trials", "99999999999999999999"],
         "--trials"),
        (["verify", "--towers", str(cli_mod.MAX_VERIFY_TOWERS + 1)], "--towers"),
        (["verify", "--towers", "99999999999999999999"], "--towers"),
        (["flag-integral", "--k", str(cli_mod.MAX_FLAG_K + 1), "--exps", "1"], "--k"),
        # An order or exponent a whose u^(-a-1) leaves its packed slot, by either method.
        (["tower-segre", "SPEC", "--orders", "3000000000", "--method", "closed"], "--orders"),
        (["tower-segre", "SPEC", "--orders", "3000000000", "--method", "stepwise"], "--orders"),
        (["tower-segre", "SPEC", "--orders", str(2**31 - 1)], "--orders"),
        (["tower-segre", "SPEC", "--orders", "1", "--aux-orders", "w=3000000000"], "--aux-orders"),
        (["flag-integral", "--k", "1", "--exps", "3000000000"], "--exps"),
        # ``int()`` reads each of these; only ASCII decimal digits count.
        (["tower-segre", "SPEC", "--orders", "1_0"], "--orders"),
        (["flag-integral", "--k", "2", "--exps", "+1,2"], "--exps"),
        (["tower-segre", "SPEC", "--orders", "1", "--aux-orders", "w=\uff11"], "--aux-orders"),
    ],
)
def test_cli_parse_errors_name_the_option(tmp_path, capsys, monkeypatch, argv, option):
    # Every refusal comes before any computation.
    def no_work(*args, **kwargs):
        raise AssertionError("computation started before the refusal")

    for name in ("closed_formula_segre", "stepwise_pushforward", "random_tower_spec"):
        monkeypatch.setattr(cli_mod, name, no_work)
    monkeypatch.setattr(cli_mod.flag_mod, "flag_integral", no_work)
    spec = simple_tower(([((), 1, {2: 1})], ("w",)))
    path = write_spec(tmp_path, spec)
    code = main([path if arg == "SPEC" else arg for arg in argv])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option}: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["flag-integral", "--k", "3", "--exps", "3,2"], "--exps: expected 3 entries, got 2"),
        (["flag-integral", "--k", "2", "--exps", "1,2,3"], "--exps: expected 2 entries, got 3"),
        (["flag-integral", "--k", "3", "--exps", "4,4,4", "--verbose"],
         "--exps: total degree must be at most the flag dimension 6, got 12"),
        (["flag-integral", "--k", "3", "--exps", "4,4,4", "--format", "json"],
         "--exps: total degree must be at most the flag dimension 6, got 12"),
        (["flag-integral", "--k", "2", "--exps", "1,-1"], "--exps: must be at least 0, got -1"),
        (["flag-integral", "--k", "2", "--exps", "1,-1", "--verbose"],
         "--exps: must be at least 0, got -1"),
        (["flag-integral", "--k", "2", "--exps", "+1,2"],
         "--exps: expected comma-separated integers, got '+1,2'"),
        (["tower-segre", "SPEC", "--orders", "-1"], "--orders: must be at least 0, got -1"),
        (["tower-segre", "SPEC", "--orders", "1_0"],
         "--orders: expected comma-separated integers, got '1_0'"),
        (["tower-segre", "SPEC", "--orders", "1", "--aux-orders", "w=-1"],
         "--aux-orders: must be at least 0, got -1"),
        (["tower-segre", "SPEC", "--orders", "1", "--aux-orders", "w=x"],
         "--aux-orders: expected an integer value, got 'w=x'"),
    ],
)
def test_list_option_refusals_read_exactly(tmp_path, capsys, monkeypatch, argv, message):
    # A list entry is read as a scalar option is, and a sign is refused by
    # the range check; the entry count and the flag-dimension bound are the
    # library's own refusals, under the option's name.  None draws a weight
    # or starts a route.
    def no_work(*args, **kwargs):
        raise AssertionError("computation started before the refusal")

    for name in ("closed_formula_segre", "stepwise_pushforward"):
        monkeypatch.setattr(cli_mod, name, no_work)
    for name in ("flag_integral", "_flag_pushforward", "vandermonde_integral", "_draw_distinct"):
        monkeypatch.setattr(cli_mod.flag_mod, name, no_work)
    path = write_spec(tmp_path, simple_tower(([((), 1, {2: 1})], ("w",))))
    code = main([path if arg == "SPEC" else arg for arg in argv])
    assert (code, *capsys.readouterr()) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("value", ["\uff13", "1_0", "+3"])
@pytest.mark.parametrize(
    "argv, option",
    [
        (["flag-integral", "--exps", "3,2,1", "--k"], "--k"),
        (["flag-integral", "--k", "2", "--exps", "2,1", "--seed"], "--seed"),
        (["flag-integral", "--k", "2", "--exps", "2,1", "-v", "--trials"], "--trials"),
        (["verify", "--towers", "0", "--max-k"], "--max-k"),
        (["verify", "--max-k", "1", "--towers", "0", "--seed"], "--seed"),
        (["verify", "--max-k", "1", "--towers", "0", "--trials"], "--trials"),
        (["verify", "--max-k", "1", "--towers"], "--towers"),
    ],
)
def test_scalar_options_take_ascii_digits_only(capsys, argv, option, value):
    # ``int()`` reads a full-width digit, ``_`` and a ``+``; each is refused
    # as argparse refuses ``--k abc``, while the arguments are parsed.
    with pytest.raises(SystemExit) as info:
        main([*argv, value])
    assert info.value.code == 2
    assert f"error: argument {option}: invalid int value: {value!r}" in capsys.readouterr().err


def test_seed_takes_a_leading_minus(capsys):
    # The one scalar option whose negative values run; the others reach
    # their range checks (``test_cli_parse_errors_name_the_option``).
    assert main(["verify", "--max-k", "1", "--towers", "0", "--seed", "-5"]) == 0
    assert capsys.readouterr().out.startswith("# segre-towers verify  seed: -5 ")


def test_flag_integral_near_the_slot_limit(capsys):
    # At k = 1 and 2 the dual determinant has about 2**31 rows, but its
    # first row reads coefficients of 1/F = u^(k+1) only from u^k down,
    # where it has none, so the value is the exact 0 before any row or
    # bound is formed.  The generic push gives the same 0
    # (``test_generic_push_gives_the_exact_zero_near_the_slot_limit``).
    assert main(["flag-integral", "--k", "1", "--exps", "2147483646"]) == 0
    assert capsys.readouterr() == ("0\n", "")
    assert main(["flag-integral", "--k", "2", "--exps", "2147483646,1"]) == 0
    assert capsys.readouterr() == ("0\n", "")


def test_stepwise_window_at_the_largest_order_forms_only_the_powers_met(tmp_path):
    # flag_tower(1)'s level series is 1/u^2, a single slice, so the stepwise
    # block meets it only at c1^1: its other 2^31 - 2 powers are never
    # formed, and both methods print the one row at once.  So it is for an
    # auxiliary w at its largest order on the same factor: both walks form
    # w's series at the two powers that reach the window.  Under 1/(u^2 - 1),
    # which meets every power, both refuse the level's expansion first.
    # Each runs in a child with a 512 MiB address space and a timeout, so a
    # series formed in full fails the test with a MemoryError or a timeout
    # instead of hanging.
    refused = (
        "error: exponents up to 2147483648 do not fit a packed monomial (at most 2147483647)\n"
    )
    cases = [
        (flag_tower(1), ["--orders", "2147483646"], (0, "u1\tvalue\n-2\t1\n", "")),
        (
            simple_tower(([((), 1, {2: 1})], ("w",))),
            ["--orders", "1", "--aux-orders", "w=2147483646"],
            (0, "u1\tw\tvalue\n-2\t-1\t1\n-1\t-2\t1\n", ""),
        ),
        (
            simple_tower(([((), 1, {2: 1, 0: -1})], ("w",))),
            ["--orders", "1", "--aux-orders", "w=2147483646"],
            (1, "", refused),
        ),
    ]
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        f"sys.path.insert(0, {str(Path(cli_mod.__file__).parents[1])!r})\n"
        "from segre_towers.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    for spec, options, expected in cases:
        path = write_spec(tmp_path, spec)
        for method in ("closed", "stepwise"):
            argv = ["tower-segre", path, *options, "--method", method]
            done = subprocess.run(
                [sys.executable, "-c", script, *argv], capture_output=True, text=True, timeout=60
            )
            assert (done.returncode, done.stdout, done.stderr) == expected, argv


def test_largest_exponents_that_fit_a_slot_are_accepted():
    top = 2**31 - 1
    assert cli_mod._parse_int_list(f"0,{top - 1}", "--orders") == (0, top - 1)
    assert cli_mod._parse_assignments(f"w={top - 1}", "--aux-orders") == {"w": top - 1}
    for exp in (top, -top):
        doc = tower_spec_to_doc(flag_tower(1))
        doc["levels"][0]["factors"][0]["q_num"][0][0] = exp
        assert tower_spec_from_doc(doc).levels[0].factors[0].series.leading_exponent == exp - 2


# -- argument parsing ----------------------------------------------------------------


_PARSER_ARGVS = [
    [],
    ["bogus"],
    ["-h"],
    ["flag-integral", "-h"],
    ["tower-segre", "-h"],
    ["verify", "-h"],
    ["tower-segre", "SPEC"],
    ["flag-integral", "--exps", "2,1"],
    ["tower-segre", "SPEC", "--orders", "2,2", "--method", "bogus"],
    ["tower-segre", "SPEC", "--orders", "2,2", "--bogus"],
    ["tower-segre", "SPEC", "extra", "--orders", "2,2"],
    ["tower-segre", "--orders", "2,2", "--", "SPEC"],
    ["tower-segre", "--", "SPEC", "--orders", "2,2"],
    ["tower-segre", "SPEC", "--orders", "2,2", "--"],
    ["tower-segre", "SPEC", "--orders", "2,2", "--aux-orders"],
    ["tower-segre", "SPEC", "--orders", "2,2", "--aux-orders", "-x"],
    ["--", "verify", "--max-k", "1", "--towers", "0"],
    ["tower-segre", "SPEC", "--ord", "2,2", "--meth", "stepwise"],
    ["flag-integral", "--k=2", "--exps=2,1"],
    ["flag-integral", "--k", "x", "--exps", "1"],
    ["verify", "--max-k", "1", "--towers", "1", "--format", "json"],
]


@pytest.mark.parametrize("argv", _PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_main_parses_as_the_full_parser_tree_does(tmp_path, capsys, monkeypatch, argv):
    argv = [write_spec(tmp_path, flag_tower(2)) if arg == "SPEC" else arg for arg in argv]

    def outcome():
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    got = outcome()
    monkeypatch.setattr(cli_mod, "_parse_args", lambda a: cli_mod.build_parser().parse_args(a))
    assert outcome() == got


def _parse_outcome(parse, argv):
    """The ``vars`` of ``parse(argv)``, or the exit code, stdout and stderr it exits with."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return vars(parse(argv))
    except SystemExit as exc:
        return exc.code, out.getvalue(), err.getvalue()


#: Tokens that give each subcommand every option it requires.
_REQUIRED_TOKENS = {
    "flag-integral": ["--k", "2", "--exps", "2,1"],
    "tower-segre": ["SPEC", "--orders", "2,2"],
    "verify": [],
}

_VALUES = st.one_of(
    st.integers(-12, 12).map(str),
    st.sampled_from(["x", "1.5", "2,1", "", " 3", "+2", "1_0", "9" * 5000]),
    st.sampled_from(["table", "json", "closed", "stepwise", "bogus"]),
)


def _valid_chunk(names, kwargs):
    """An option string of ``names`` with a value its option accepts."""
    if kwargs.get("action") == "store_true":
        return st.tuples(st.sampled_from(names))
    if "choices" in kwargs:
        values = st.sampled_from(kwargs["choices"])
    elif "type" in kwargs:
        values = st.integers(0, 12).map(str)
    else:
        values = st.sampled_from(["2,1", "", "w=1", "x y"])
    return st.tuples(st.sampled_from(names), values)


@st.composite
def _argvs(draw):
    name = draw(st.sampled_from(sorted(cli_mod._SUBCOMMANDS)))
    options = [(names, kw) for names, kw in cli_mod._SUBCOMMANDS[name][2] if names[0].startswith("-")]
    valid = st.one_of([_valid_chunk(names, kw) for names, kw in options])
    option = st.sampled_from([flag for names, _ in options for flag in names])
    abbreviation = option.filter(lambda f: len(f) > 3).flatmap(
        lambda f: st.integers(3, len(f) - 1).map(lambda n: f[:n])
    )
    faulty = st.one_of(
        st.tuples(option, _VALUES),
        st.tuples(option, st.sampled_from(["-", "-1", "-x", "--", "-h", "-v"])),
        st.tuples(option),
        st.tuples(abbreviation, _VALUES),
        st.builds(lambda f, v: (f"{f}={v}",), option, _VALUES),
        st.tuples(st.sampled_from(["--", "-h", "--help", "-v", "--bogus", "SPEC", "extra"])),
        st.tuples(_VALUES),
    )
    # Valid options with at most two others among them, so that most argvs
    # are well-formed or one fault away from it.
    chunks = draw(st.lists(valid, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        chunks.insert(draw(st.integers(0, len(chunks))), draw(faulty))
    head = _REQUIRED_TOKENS[name] if draw(st.booleans()) else []
    return [name, *head, *(token for c in chunks for token in c)]


@settings(max_examples=400, derandomize=True, deadline=None)
@given(_argvs())
def test_parse_args_reads_as_the_parser_tree_does(argv):
    # Only the parse: no generated argv runs a computation.
    assert _parse_outcome(cli_mod._parse_args, argv) == _parse_outcome(
        lambda a: cli_mod.build_parser().parse_args(a), argv
    )


def test_a_well_formed_call_builds_no_parser(tmp_path, capsys, monkeypatch):
    def no_parser(*args, **kwargs):
        raise AssertionError("an argparse parser was built")

    monkeypatch.setattr(argparse, "ArgumentParser", no_parser)
    path = write_spec(tmp_path, flag_tower(2))
    assert main(["flag-integral", "--k", "2", "--exps", "2,1", "-v"]) == 0
    assert main(["tower-segre", path, "--orders", "2,2", "--method", "stepwise"]) == 0
    assert main(["verify", "--max-k", "1", "--towers", "0", "--format", "json"]) == 0
    assert capsys.readouterr().err == ""


def test_a_well_formed_call_loads_neither_argparse_nor_gettext(tmp_path):
    # random, fractions (with decimal and numbers) load only where weights
    # are drawn or a Fraction is built: the plain calls leave them unloaded,
    # and the cross-checks and verify import them when they run.  Each call
    # runs in its own fresh process, so no call sees another's imports.
    flag_path = write_spec(tmp_path, flag_tower(2))
    # Rational coefficients: at these orders 23 of the 24 rows print num/den.
    spec = random_tower_spec(random.Random(68))
    random_path = write_spec(tmp_path, spec, "random.json")
    orders = ",".join("2" * spec.k)
    plain = [
        ["flag-integral", "--k", "2", "--exps", "2,1"],
        ["tower-segre", flag_path, "--orders", "2,2", "--format", "json"],
        ["tower-segre", random_path, "--orders", orders],
        ["tower-segre", random_path, "--orders", orders, "--method", "stepwise"],
    ]
    checked = [
        ["flag-integral", "--k", "2", "--exps", "2,1", "--verbose"],
        ["verify", "--max-k", "1", "--towers", "0"],
    ]
    guarded = ("argparse", "gettext", "random", "fractions", "decimal", "numbers")
    script = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(Path(cli_mod.__file__).parents[1])!r})\n"
        f"guarded = {guarded!r}\n"
        "assert not any(m in sys.modules for m in guarded), 'loaded at start-up'\n"
        "from segre_towers.cli import main\n"
        "code = main(json.loads(sys.argv[1]))\n"
        "print(code, [m for m in guarded if m in sys.modules])\n"
    )
    for argvs, loaded in ((plain, []), (checked, ["random", "fractions", "decimal", "numbers"])):
        for argv in argvs:
            done = subprocess.run(
                [sys.executable, "-S", "-c", script, json.dumps(argv)],
                capture_output=True, text=True, timeout=120,
            )
            assert done.stderr == "", argv
            *printed, last = done.stdout.splitlines()
            assert last == f"0 {loaded!r}", argv
            if random_path in argv:
                assert any("/" in line.split("\t")[-1] for line in printed[1:]), argv


# -- verify command ------------------------------------------------------------------


def test_cmd_verify_small_sweep(capsys):
    code = main(
        ["verify", "--max-k", "2", "--seed", "7", "--trials", "2", "--towers", "5"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS degenerate k=0" in out
    assert "PASS flag k=1" in out
    assert "PASS flag k=2" in out
    assert out.count("PASS tower") == 5
    assert "FAIL" not in out


def test_cmd_verify_vacuous_max_k0(capsys):
    # An empty flag sweep would pass vacuously, so it is refused up front.
    code = main(["verify", "--max-k", "0", "--seed", "7", "--towers", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "--max-k" in captured.err


@pytest.mark.parametrize(
    "flag, value",
    [("--max-k", "-1"), ("--towers", "-3"), ("--trials", "0"), ("--trials", "-2")],
)
def test_cmd_verify_rejects_vacuous_sizes(capsys, flag, value):
    code = main(["verify", "--max-k", "2", "--towers", "2", flag, value])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}: must be")


def test_cmd_verify_zero_towers_runs_the_flag_sweep(capsys):
    code = main(["verify", "--max-k", "1", "--towers", "0", "--trials", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS flag k=1" in out
    assert "PASS tower" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max-k", "1", "--towers", "0"],
        ["flag-integral", "--k", "2", "--exps", "2,1", "--verbose"],
        ["flag-integral", "--k", "2", "--exps", "2,1"],
    ],
    ids=["verify", "flag-integral-verbose", "flag-integral"],
)
def test_trials_above_the_ceiling_are_refused_before_any_work(capsys, monkeypatch, argv):
    # verify holds every trial's weights and rows for its run, and each
    # trial reduces its own rows, so a huge --trials would run out of time
    # or memory rather than finish.
    def no_work(*args, **kwargs):
        raise AssertionError("computation started before the refusal")

    for name in ("flag_integral", "_flag_pushforward", "vandermonde_integral",
                 "localization_integral"):
        monkeypatch.setattr(cli_mod.flag_mod, name, no_work)
    monkeypatch.setattr(cli_mod, "stepwise_pushforward", no_work)
    monkeypatch.setattr(cli_mod, "closed_formula_segre", no_work)
    trials = str(cli_mod.MAX_TRIALS + 1)
    assert main(argv + ["--trials", trials]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --trials: {trials} is above the ceiling {cli_mod.MAX_TRIALS}\n"
    )


def test_verify_runs_in_one_process_each_draw_their_weights(capsys, monkeypatch):
    # Nothing outlives a run: a second run of the same argv in one process
    # draws the fixed-point weights again, 3 trials per k.
    real, drawn = cli_mod.flag_mod._draw_distinct, []

    def drawing(rng, count):
        drawn.append(count)
        return real(rng, count)

    monkeypatch.setattr(cli_mod.flag_mod, "_draw_distinct", drawing)
    outs = []
    for _ in range(2):
        drawn.clear()
        assert main(["verify", "--max-k", "2", "--towers", "0", "--seed", "7"]) == 0
        outs.append(capsys.readouterr().out)
        assert drawn == [2, 2, 2, 3, 3, 3]
    assert outs[0] == outs[1]


def test_trials_at_the_ceiling_are_accepted(capsys):
    trials = str(cli_mod.MAX_TRIALS)
    assert main(["verify", "--max-k", "2", "--towers", "0", "--trials", trials]) == 0
    assert main(["flag-integral", "--k", "2", "--exps", "2,1", "-v", "--trials", trials]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cmd_verify_rejects_k_above_ceiling(capsys):
    assert main(["verify", "--max-k", "7"]) == 1
    err = capsys.readouterr().err
    assert "ceiling" in err
    assert err.startswith("error: --max-k: 7 ")


def test_cmd_verify_determinism(capsys):
    args = ["verify", "--max-k", "1", "--seed", "3", "--towers", "3"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_cmd_verify_reports_injected_mismatch(capsys, monkeypatch):
    # Perturb the Vandermonde value of one k = 2 tuple: verify must flag that
    # tuple and exit nonzero.
    real = cli_mod.flag_mod.vandermonde_integral

    def skewed(k, exps):
        return real(k, exps) + (1 if (k, tuple(exps)) == (2, (2, 1)) else 0)

    monkeypatch.setattr(cli_mod.flag_mod, "vandermonde_integral", skewed)
    code = main(["verify", "--max-k", "2", "--seed", "7", "--towers", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "PASS flag k=1" in out
    assert "FAIL flag k=2" in out
    assert "a=(2, 1): tower=1 vandermonde=2 localization=1" in out


def test_cmd_verify_reports_differing_flag_windows(capsys, monkeypatch):
    # A closed flag window with one extra term: the FAIL line names k, the
    # orders and the first differing monomial with both values, which is
    # enough to rerun the two windows alone.
    real = cli_mod.closed_formula_segre
    extra = Monomial([(tower_variable(1), -1), (tower_variable(2), -3)])

    def skewed(spec, req):
        window = real(spec, req)
        return window + LaurentPoly.monomial(extra) if spec.k == 2 else window

    monkeypatch.setattr(cli_mod, "closed_formula_segre", skewed)
    code = main(["verify", "--max-k", "3", "--seed", "7", "--towers", "0", "--trials", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "PASS flag k=1" in out and "PASS flag k=3" in out
    (line,) = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert line == (
        f"FAIL flag k=2: closed and stepwise windows of the flag tower k=2 at orders "
        f"(2, 2) first differ at monomial {extra}: closed=1 stepwise=0"
    )


def test_cmd_verify_reports_a_degenerate_tower_that_is_not_one(capsys, monkeypatch):
    # A closed window of the tower without levels that is not 1 fails the
    # degenerate case, and only it.
    real = cli_mod.closed_formula_segre

    def skewed(spec, req):
        window = real(spec, req)
        return window + 1 if spec.k == 0 else window

    monkeypatch.setattr(cli_mod, "closed_formula_segre", skewed)
    code = main(["verify", "--max-k", "1", "--seed", "7", "--towers", "0", "--trials", "1"])
    out = capsys.readouterr().out
    assert code == 1
    (line,) = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert line == "FAIL degenerate k=0 tower: degenerate tower does not reduce to the constant 1"


def test_cmd_verify_reports_a_differing_random_tower_on_its_own(capsys, monkeypatch):
    # The second random tower's stepwise window with its first term doubled:
    # the FAIL case names that monomial with both values, and its spec and
    # window orders alone rebuild the tower's closed window.
    real, seen, skewed_case = cli_mod.stepwise_pushforward, [], []

    def skewed(spec, req):
        window = real(spec, req)
        if spec.k and spec != flag_tower(spec.k):
            seen.append(spec)
            if len(seen) == 2:
                (extra, value), *_ = window.terms()
                skewed_case.append((spec, req, extra, value))
                return window + LaurentPoly.monomial(extra, value)
        return window

    monkeypatch.setattr(cli_mod, "stepwise_pushforward", skewed)
    argv = ["verify", "--max-k", "1", "--seed", "2", "--towers", "3", "--trials", "1"]
    assert main([*argv, "--format", "json"]) == 1
    cases = json.loads(capsys.readouterr().out)["cases"]
    (failed,) = [case for case in cases if not case["passed"]]
    ((spec, req, extra, value),) = skewed_case
    difference, spec_json = failed["detail"].split("; spec=")
    assert difference == (
        f"monomial {extra}: closed={format_rational(value)} stepwise={format_rational(2 * value)}"
    )
    name = re.fullmatch(r"tower 02/3 \(k=3, window=(\(.*?\))(\{.*\})?\)", failed["name"])
    orders, aux = ast.literal_eval(name[1]), ast.literal_eval(name[2] or "{}")
    rebuilt = tower_spec_from_doc(json.loads(spec_json))
    closed = cli_mod.closed_formula_segre(spec, req)
    assert len(closed) == 36
    assert cli_mod.closed_formula_segre(
        rebuilt, cli_mod.TruncationRequest.derive(rebuilt, orders, aux)
    ) == closed


@pytest.mark.parametrize(
    "argv, status",
    [
        (["segre-towers", "flag-integral", "--k", "2", "--exps", "2,1"], 0),
        (["segre-towers", "verify", "--max-k", "0"], 1),
    ],
)
def test_entry_exits_with_main_status(capsys, monkeypatch, argv, status):
    monkeypatch.setattr(sys, "argv", argv)
    with pytest.raises(SystemExit) as info:
        cli_mod.entry()
    assert info.value.code == status


def test_verify_case_listing_includes_seed_header(capsys):
    main(["verify", "--max-k", "1", "--seed", "42", "--towers", "1"])
    out = capsys.readouterr().out
    assert "seed: 42" in out
