"""Tests for the command-line front end and the spec-file round trip."""

import json
import random
import re
import sys
import time

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

from fractions import Fraction

from _helpers import simple_tower


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


def test_spec_file_error_names_the_field():
    doc = tower_spec_to_doc(flag_tower(2))
    doc["levels"][1]["factors"][0]["m"] = []
    with pytest.raises(Exception) as info:
        tower_spec_from_doc(doc)
    assert "level 2" in str(info.value)
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


def test_spec_file_rejects_zero_denominator_triples():
    doc = tower_spec_to_doc(flag_tower(1))
    doc["levels"][0]["factors"][0]["q_den"] = [[2, 1, 0]]
    with pytest.raises(Exception) as info:
        tower_spec_from_doc(doc)
    assert "q_den" in str(info.value)


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


@pytest.mark.parametrize(
    "extra, named",
    [
        (["--verbose"], ("--k",)),
        (["--format", "json", "--trials", "1"], ("--k",)),
        (["--trials", "0"], ("--trials",)),
        # The later --k and --exps replace the k = 10 ones.
        (["--k", "9", "--exps", "1,2,3,4,5,6,7,8,9", "--verbose"], ("--k",)),
    ],
)
def test_cmd_flag_integral_refuses_before_computing(capsys, monkeypatch, extra, named):
    # Above k = 8 the Vandermonde cross-check would take minutes, whatever
    # --trials is: refused before any work.
    def no_work(*args, **kwargs):
        raise AssertionError("computation started before the refusal")

    monkeypatch.setattr(cli_mod.flag_mod, "flag_integral", no_work)
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


def test_cmd_tower_segre_cap_overrun_is_reported(tmp_path, capsys, monkeypatch):
    # A cap below the stepwise oracle's intermediate degrees is an internal
    # inconsistency: one reported line and exit 1, not a traceback.
    from segre_towers import TruncationRequest

    real = TruncationRequest.derive

    def capped(*args, **kwargs):
        req = real(*args, **kwargs)
        return req._replace(shift_caps=(0,) * len(req.shift_caps))

    monkeypatch.setattr(TruncationRequest, "derive", staticmethod(capped))
    path = write_spec(tmp_path, flag_tower(2))
    assert main(["tower-segre", path, "--orders", "1,1", "--method", "stepwise"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal-consistency failure: ")
    assert "exceeds the derived cap 0" in captured.err
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
    # Perturb one coefficient of the k = 2 Vandermonde expansion, which verify
    # reads every k = 2 value from: it must flag that tuple and exit nonzero.
    real = cli_mod.flag_mod.vandermonde_product

    def skewed(k):
        product = real(k)
        if k == 2:
            # u1^(2-2) * u2^(2-1) is the coefficient read for a = (2, 1).
            product = product + LaurentPoly.variable(tower_variable(2))
        return product

    monkeypatch.setattr(cli_mod.flag_mod, "vandermonde_product", skewed)
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
