"""Command-line front end: spec-file ingestion, computations, verification.

The ``segre-towers`` binary exposes three subcommands:

* ``flag-integral`` evaluates one flag-variety integral (with optional
  cross-checks, at every ``--k`` it accepts, against the Vandermonde
  permutation sign and the fixed-point sum),
* ``tower-segre`` prints the Segre-series coefficients of a tower read from
  a JSON spec file, by either computation method,
* ``verify`` runs the flag triple-agreement sweep and the randomized
  closed-versus-stepwise corpus, exiting nonzero on any exact mismatch.

Each subcommand's options are declared once, in ``_SUBCOMMANDS``.  A
well-formed argv is read straight from that table; any other argv goes to
the argparse tree ``build_parser`` builds from it, which alone imports
argparse, so help, usage and every parse error are argparse's own and a
well-formed call loads neither argparse nor gettext.  In the same way
``random`` is imported only where weights are drawn: by ``run_verify`` for
its corpus and by ``flag.localization_integral`` for the fixed-point
cross-check.  ``fractions`` (with ``decimal`` and ``numbers``) is imported
only where a ``Fraction`` is built: by ``verify`` and the ``--verbose`` or
``--format json`` cross-checks, whose three routes return one each.  A
plain ``flag-integral`` call and every ``tower-segre`` call load neither
module, and the import of this module loads only the standard library
every call needs.

Output is deterministic: identical inputs and seeds produce byte-identical
text, and all rationals are printed exactly as ``num/den`` in lowest terms.
A table row, and a plain ``flag-integral`` value, is read straight from the
packed polynomial: its integer numerator over the polynomial's denominator,
reduced by one gcd (``_format_quotient``).
"""

from __future__ import annotations

import json
import itertools
import math
import sys
from collections import namedtuple
from collections.abc import Sequence
from types import SimpleNamespace

from . import flag as flag_mod
from .series import (
    _HALF,
    PIVOT,
    LaurentPoly,
    RationalFunction1V,
    VariableId,
    _check_int,
    _is_int,
)
from .tower import (
    InvalidTowerError,
    TowerFactor,
    TowerLevel,
    TowerSpec,
    TruncationRequest,
    closed_formula_segre,
    random_tower_spec,
    stepwise_pushforward,
)

#: Largest ``--max-k`` of verify.  With each route batched per k and the
#: fixed-point rows kept from tuple to tuple, the k = 6 sweep (7872
#: integrals) takes 0.54-0.67 s at 3 trials and ``--towers 0`` (four fresh
#: processes, 2-core Xeon, Python 3.11); k = 7 has 115788 integrals.
MAX_VERIFY_K = 6
#: Largest ``--towers`` of verify.  The random corpus takes 3-3.5 ms per
#: tower: 200 towers in 0.59-0.70 s, 1000 in 3.3-3.5 s (seeds 7 and 11,
#: 2-core Xeon, Python 3.11), so the ceiling bounds it near 35 s.
MAX_VERIFY_TOWERS = 10_000
#: Largest ``--trials`` of flag-integral and verify.  Each trial reduces
#: its own rows for every tuple, and verify holds every trial's weights and
#: rows for its run.  ``verify --max-k 6 --towers 0`` took 0.88, 6.6 and
#: 21 s at 3, 30 and 100 trials; ``flag-integral --k 12 --format json``
#: took 0.52 s at 100 (fresh processes, 2-core Xeon, Python 3.11).
MAX_TRIALS = 100
DEFAULT_SEED = 7
DEFAULT_TRIALS = 3
DEFAULT_TOWERS = 50
#: Largest ``--k`` of flag-integral.  The flag tower's value is read from
#: the dual Jacobi-Trudi determinant (``tower._dual_push``), where a
#: permutation of 1..k gives the empty partition, and a repeated entry or
#: any other tuple 0 before any row is formed, since 1/F = u^(k+1):
#: over six permutations of 1..k shuffled by ``random.Random(0..5)`` the
#: median and the maximum of ``flag_integral`` were 0.47 and 0.51 ms at
#: k = 13 and 0.56 and 0.59 ms at k = 16, and the slowest of 300 seeded
#: shuffles at k = 16 took 0.7 to 8.8 ms over two runs (in process, 2-core
#: Xeon, Python 3.11).
MAX_FLAG_K = 16
#: Largest order or exponent a of ``--orders``, ``--aux-orders`` and
#: ``--exps``.  a stands for u^(-a-1), which the stepwise route packs into a
#: monomial; the closed route only filters by it, so both are refused it
#: here alike.
MAX_ORDER = _HALF - 2


def format_rational(value: Fraction) -> str:
    """Exact ``num/den`` in lowest terms; just ``num`` for integers."""
    return _format_quotient(value.numerator, value.denominator)


def _format_quotient(num: int, den: int) -> str:
    """``format_rational`` of num/den, den > 0, read without a ``Fraction``."""
    g = math.gcd(num, den)
    if g == den:
        return str(num // den)
    return f"{num // g}/{den // g}"


class SpecFileError(ValueError):
    """A tower spec file that cannot be decoded; the message names the location."""


# -- tower spec (de)serialization -------------------------------------------


def _poly_to_triples(poly: LaurentPoly, where: str) -> list[list[int]]:
    triples = []
    for mono, coeff in poly.terms():
        exp = mono.exponent(PIVOT)
        if not mono.without({PIVOT}).is_one():
            raise SpecFileError(
                f"{where}: only rational coefficients can be serialized"
            )
        triples.append([exp, coeff.numerator, coeff.denominator])
    return triples


def _poly_from_triples(raw, where: str) -> LaurentPoly:
    if not isinstance(raw, list):
        raise SpecFileError(f"{where}: expected a list of [exp, num, den] triples")
    for pos, item in enumerate(raw):
        if (
            not isinstance(item, list)
            or len(item) != 3
            or not all(_is_int(x) for x in item)
        ):
            raise SpecFileError(f"{where}[{pos}]: expected an [exp, num, den] integer triple")
        exp, num, den = item
        if den == 0:
            raise SpecFileError(f"{where}[{pos}]: zero denominator")
        if abs(exp) >= _HALF:
            raise SpecFileError(
                f"{where}[{pos}]: exponent {exp} does not fit a packed monomial "
                f"(at most {_HALF - 1} in absolute value)"
            )
    return LaurentPoly._from_triples(PIVOT, raw)


def tower_spec_to_doc(spec: TowerSpec) -> dict:
    """JSON-ready document for a tower (rational-coefficient factors only)."""
    return {
        "k": spec.k,
        "base_generators": [
            {"name": name, "degree": degree} for name, degree in spec.base_generators
        ],
        "levels": [
            {
                "factors": [
                    {
                        "m": list(f.twists),
                        "q_num": _poly_to_triples(
                            f.series.numerator, f"levels[{index}].factors.q_num"
                        ),
                        "q_den": _poly_to_triples(
                            f.series.denominator, f"levels[{index}].factors.q_den"
                        ),
                    }
                    for f in lvl.factors
                ],
                "aux": list(lvl.aux),
            }
            for index, lvl in enumerate(spec.levels, 1)
        ],
    }


def tower_spec_from_doc(doc) -> TowerSpec:
    """Decode a tower spec document, naming faulty fields.

    It checks the document's shape and field types, so every name is a
    string and every twist and degree an integer; ``k`` is stored only as
    the number of levels, so it is checked against them before any level
    is decoded.  The tower itself is validated by the computation it is
    given to, once (``validate_tower``).
    """
    if not isinstance(doc, dict):
        raise SpecFileError("top level: expected a JSON object")
    k = doc.get("k")
    # No tuple holds more than sys.maxsize levels; a larger k is not echoed,
    # since it may have more digits than str converts.
    if not _is_int(k) or not 0 <= k <= sys.maxsize:
        raise SpecFileError(f"k: expected an integer in 0..{sys.maxsize}")
    raw_bases = doc.get("base_generators", [])
    if not isinstance(raw_bases, list):
        raise SpecFileError("base_generators: expected a list")
    bases = []
    for pos, item in enumerate(raw_bases):
        if not isinstance(item, dict) or "name" not in item or "degree" not in item:
            raise SpecFileError(f"base_generators[{pos}]: expected {{name, degree}}")
        if not _is_int(item["degree"]):
            raise SpecFileError(f"base_generators[{pos}].degree: expected an integer")
        if not isinstance(item["name"], str):
            raise SpecFileError(f"base_generators[{pos}].name: expected a string")
        bases.append((item["name"], item["degree"]))
    raw_levels = doc.get("levels")
    if not isinstance(raw_levels, list):
        raise SpecFileError("levels: expected a list")
    if len(raw_levels) != k:
        raise SpecFileError(f"levels: expected {k} levels, found {len(raw_levels)}")
    levels = []
    for index, raw_level in enumerate(raw_levels, 1):
        where = f"levels[{index}]"
        if not isinstance(raw_level, dict):
            raise SpecFileError(f"{where}: expected an object")
        raw_factors = raw_level.get("factors")
        if not isinstance(raw_factors, list):
            raise SpecFileError(f"{where}.factors: expected a list")
        factors = []
        for fpos, raw_factor in enumerate(raw_factors):
            fwhere = f"{where}.factors[{fpos}]"
            if not isinstance(raw_factor, dict):
                raise SpecFileError(f"{fwhere}: expected an object")
            m = raw_factor.get("m")
            if not isinstance(m, list) or not all(_is_int(x) for x in m):
                raise SpecFileError(f"{fwhere}.m: expected a list of integers")
            num = _poly_from_triples(raw_factor.get("q_num"), f"{fwhere}.q_num")
            den = _poly_from_triples(raw_factor.get("q_den"), f"{fwhere}.q_den")
            try:
                series = RationalFunction1V(num, den)
            except (ValueError, ZeroDivisionError) as exc:
                raise SpecFileError(f"{fwhere}.q_den: {exc}") from exc
            factors.append(TowerFactor(tuple(m), series))
        raw_aux = raw_level.get("aux", [])
        if not isinstance(raw_aux, list) or not all(isinstance(x, str) for x in raw_aux):
            raise SpecFileError(f"{where}.aux: expected a list of names")
        levels.append(TowerLevel(tuple(factors), tuple(raw_aux)))
    return TowerSpec(tuple(levels), tuple(bases))


def load_tower_spec(path: str) -> TowerSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    # Bad JSON or UTF-8, an integer above int's digit limit, or arrays and
    # objects nested deeper than the decoder's recursion limit.
    except (ValueError, RecursionError) as exc:
        raise SpecFileError(f"{path} cannot be decoded: {exc}") from exc
    return tower_spec_from_doc(doc)


# -- result tables -----------------------------------------------------------


class ResultTable(namedtuple("ResultTable", "header rows")):
    """Coefficients keyed by exponent tuples, in deterministic row order.

    ``header`` names the columns; each row is (exponents, value text).  Like
    the tower records, a table is a named tuple.
    """

    __slots__ = ()

    @classmethod
    def from_poly(cls, poly: LaurentPoly, variables: Sequence[VariableId]) -> "ResultTable":
        var_list = list(variables)
        den = poly._den
        rows = [(exps, _format_quotient(num, den)) for exps, num in poly._header_rows(var_list)]
        rows.sort(key=lambda row: row[0])
        return cls(tuple(v.name for v in var_list), tuple(rows))

    def to_text(self) -> str:
        lines = ["\t".join(self.header + ("value",))]
        for exps, value in self.rows:
            lines.append("\t".join([str(e) for e in exps] + [value]))
        return "\n".join(lines)

    def to_json_doc(self) -> dict:
        return {
            "header": list(self.header),
            "rows": [{"exponents": list(exps), "value": value} for exps, value in self.rows],
        }


# -- verification sweeps -----------------------------------------------------


class VerifyCase(namedtuple("VerifyCase", "name passed detail")):
    """One verify check: its name, whether it passed, and what was compared or differed."""

    __slots__ = ()

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def flag_exponent_tuples(k: int) -> list[tuple[int, ...]]:
    """All exponent tuples with entries in 0..k summing to the flag dimension."""
    dim = k * (k + 1) // 2
    return [e for e in itertools.product(range(k + 1), repeat=k) if sum(e) == dim]


def _first_difference(closed: LaurentPoly, stepwise: LaurentPoly) -> str:
    """The first monomial, in canonical order, where the two series differ."""
    mono, _ = (closed - stepwise).terms()[0]
    return (
        f"monomial {mono}: closed={format_rational(closed.coefficient(mono))} "
        f"stepwise={format_rational(stepwise.coefficient(mono))}"
    )


def run_verify(
    max_k: int,
    seed: int,
    trials: int,
    towers: int = DEFAULT_TOWERS,
) -> list[VerifyCase]:
    """Triple-agreement sweep plus the randomized closed-vs-stepwise corpus.

    Sizes under which a run could pass vacuously, or above their ceilings,
    are refused before any work, under the option's name; ``towers=0``
    skips only the random corpus.
    """
    _check_int("--max-k", max_k, 1, MAX_VERIFY_K)
    _check_int("--towers", towers, 0, MAX_VERIFY_TOWERS)
    _check_int("--trials", trials, 1, MAX_TRIALS)
    cases: list[VerifyCase] = []

    empty = TowerSpec(())
    req = TruncationRequest.derive(empty, ())
    degenerate_ok = (
        closed_formula_segre(empty, req) == 1 and stepwise_pushforward(empty, req) == 1
    )
    cases.append(
        VerifyCase(
            "degenerate k=0 tower",
            degenerate_ok,
            "closed and stepwise series both equal 1"
            if degenerate_ok
            else "degenerate tower does not reduce to the constant 1",
        )
    )

    import fractions

    zero = fractions.Fraction(0)
    # The fixed-point weights and rows of this run (see localization_integral).
    memo: dict = {}
    for k in range(1, max_k + 1):
        # The tower values are the coefficients of u^(-a-1) in one window
        # per k, at orders (k,)*k (see pushforward_monomial).
        tuples = flag_exponent_tuples(k)
        spec = flag_mod.flag_tower(k)
        req = TruncationRequest.derive(spec, (k,) * k)
        window = stepwise_pushforward(spec, req)
        closed = closed_formula_segre(spec, req)
        bad: list[str] = []
        if closed != window:
            bad.append(
                f"closed and stepwise windows of the flag tower k={k} at orders "
                f"{req.tower_orders} first differ at {_first_difference(closed, window)}"
            )
        # The window is read once, by slot, into {exponents: value}; an
        # absent tuple has the value 0, as ``coefficient`` gives it.
        den = window._den
        window_values = {
            exps: fractions.Fraction(num, den)
            for exps, num in window._header_rows(spec.tower_variables())
        }
        for exps in tuples:
            via_tower = window_values.get(tuple(-a - 1 for a in exps), zero)
            via_vandermonde = flag_mod.vandermonde_integral(k, exps)
            via_fixed_points = flag_mod.localization_integral(
                k, exps, trials=trials, seed=seed, memo=memo
            )
            if not (via_tower == via_vandermonde == via_fixed_points):
                bad.append(
                    f"a={exps}: tower={format_rational(via_tower)} "
                    f"vandermonde={format_rational(via_vandermonde)} "
                    f"localization={format_rational(via_fixed_points)}"
                )
        cases.append(
            VerifyCase(
                f"flag k={k}",
                not bad,
                f"{len(tuples)} integrals, triple agreement" if not bad else "; ".join(bad),
            )
        )

    import random

    rng = random.Random(seed)
    for index in range(1, towers + 1):
        spec = random_tower_spec(rng)
        orders = tuple(rng.randint(0, 2) for _ in range(spec.k))
        aux_orders = {v.name: rng.randint(0, 1) for v in spec.aux_variables()}
        req = TruncationRequest.derive(spec, orders, aux_orders)
        closed = closed_formula_segre(spec, req)
        stepwise = stepwise_pushforward(spec, req)
        name = f"tower {index:02d}/{towers} (k={spec.k}, window={orders}{aux_orders or ''})"
        if closed == stepwise:
            cases.append(
                VerifyCase(name, True, f"{len(closed)} coefficients agree exactly")
            )
        else:
            detail = (
                f"{_first_difference(closed, stepwise)}; "
                f"spec={json.dumps(tower_spec_to_doc(spec))}"
            )
            cases.append(VerifyCase(name, False, detail))
    return cases


# -- subcommands -------------------------------------------------------------


def _decimal(text: str) -> int:
    """``text`` as an int if, stripped, it is ASCII decimal digits alone;
    ``int()`` also reads a sign, ``_`` and other scripts' digits."""
    text = text.strip()
    if not (text.isascii() and text.isdigit()):
        raise ValueError(text)
    return int(text)


def _integer(text: str) -> int:
    """``text`` as an int if, stripped, it is ASCII decimal digits after an
    optional ``-``: the type of every scalar integer option."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(text)
    return int(text)


# argparse names the type in its refusal, as for ``int``: "invalid int value: '+3'".
_integer.__name__ = "int"


def _parse_int_list(raw: str, option: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        values = tuple(map(_decimal, raw.split(",")))
    except ValueError as exc:
        raise ValueError(
            f"{option}: expected comma-separated decimal digits, got {raw!r}"
        ) from exc
    for value in values:
        _check_int(option, value, 0, MAX_ORDER)
    return values


def _parse_assignments(raw: str, option: str) -> dict[str, int]:
    out: dict[str, int] = {}
    if not raw.strip():
        return out
    for item in raw.split(","):
        name, _, value = (part.strip() for part in item.partition("="))
        if not name or not value:
            raise ValueError(f"{option}: expected name=value assignments, got {item!r}")
        if name in out:
            raise ValueError(f"{option}: {name!r} is given more than once")
        try:
            out[name] = _decimal(value)
        except ValueError as exc:
            raise ValueError(f"{option}: expected a value of decimal digits, got {item!r}") from exc
        _check_int(option, out[name], 0, MAX_ORDER)
    return out


def cmd_flag_integral(args) -> int:
    _check_int("--k", args.k, 1, MAX_FLAG_K)
    exps = _parse_int_list(args.exps, "--exps")
    if len(exps) != args.k:
        raise ValueError(f"--exps: needs exactly {args.k} entries, got {len(exps)}")
    _check_int("--trials", args.trials, 1, MAX_TRIALS)
    if not (args.verbose or args.format == "json"):
        # The push's constant is printed from its numerator and denominator,
        # so a plain call builds no Fraction and never loads ``fractions``.
        push = flag_mod._flag_pushforward(args.k, exps)
        print(_format_quotient(*push._constant_ratio()))
        return 0
    # Above the dimension the fixed-point sum is no integral, and
    # localization_integral refuses it under its parameter; refused here
    # under the option, before any work.
    dim = args.k * (args.k + 1) // 2
    if sum(exps) > dim:
        raise ValueError(
            f"--exps: the cross-checks need a total degree of at most the flag "
            f"dimension {dim}, got {sum(exps)}"
        )
    value = flag_mod.flag_integral(args.k, exps)
    vdm = flag_mod.vandermonde_integral(args.k, exps)
    loc = flag_mod.localization_integral(
        args.k, exps, trials=args.trials, seed=args.seed
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "value": format_rational(value),
                    "vandermonde": format_rational(vdm),
                    "localization": format_rational(loc),
                    "seed": args.seed,
                    "trials": args.trials,
                }
            )
        )
    else:
        print(f"# seed: {args.seed}  trials: {args.trials}")
        print(format_rational(value))
        print(f"vandermonde: {format_rational(vdm)}")
        print(f"localization: {format_rational(loc)}")
    if not (value == vdm == loc):
        print("error: cross-check mismatch", file=sys.stderr)
        return 1
    return 0


_OPTION_OF_PARAMETER = {"tower_orders": "--orders", "aux_orders": "--aux-orders"}


def cmd_tower_segre(args) -> int:
    orders = _parse_int_list(args.orders, "--orders")
    aux_orders = _parse_assignments(args.aux_orders, "--aux-orders")
    spec = load_tower_spec(args.spec)
    try:
        req = TruncationRequest.derive(spec, orders, aux_orders)
    except ValueError as exc:
        # The library names its parameters; the user gave options.
        param, _, rest = str(exc).partition(": ")
        if param not in _OPTION_OF_PARAMETER:
            raise
        raise ValueError(f"{_OPTION_OF_PARAMETER[param]}: {rest}") from exc
    if args.method == "stepwise":
        series = stepwise_pushforward(spec, req)
    else:
        series = closed_formula_segre(spec, req)
    variables = (
        list(spec.tower_variables())
        + list(spec.aux_variables())
        + list(spec.base_variables())
    )
    table = ResultTable.from_poly(series, variables)
    if args.format == "json":
        print(json.dumps(table.to_json_doc()))
    else:
        print(table.to_text())
    return 0


def cmd_verify(args) -> int:
    cases = run_verify(args.max_k, args.seed, args.trials, args.towers)
    ok = all(case.passed for case in cases)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "seed": args.seed,
                    "trials": args.trials,
                    "max_k": args.max_k,
                    "cases": [
                        {"name": c.name, "passed": c.passed, "detail": c.detail}
                        for c in cases
                    ],
                    "passed": ok,
                }
            )
        )
    else:
        print(f"# segre-towers verify  seed: {args.seed}  trials: {args.trials}  max-k: {args.max_k}")
        for case in cases:
            print(case.line())
        passed = sum(1 for c in cases if c.passed)
        print(f"# {passed}/{len(cases)} checks passed")
    return 0 if ok else 1


#: Each subcommand's help line, function and options.  An option is the
#: (flags, keyword arguments) of one ``add_argument`` call: ``build_parser``
#: makes those calls, and ``_read_argv`` reads a well-formed argv from them.
_SUBCOMMANDS = {
    "flag-integral": (
        "integrate a monomial over a flag variety",
        cmd_flag_integral,
        (
            (("--k",), {"type": _integer, "required": True, "help": "number of tower levels"}),
            (("--exps",), {"required": True, "help": "comma-separated exponents a_1..a_k"}),
            (("-v", "--verbose"), {"action": "store_true", "help": "print cross-checks"}),
            (("--seed",), {"type": _integer, "default": DEFAULT_SEED}),
            (("--trials",), {"type": _integer, "default": DEFAULT_TRIALS}),
            (("--format",), {"choices": ("table", "json"), "default": "table"}),
        ),
    ),
    "tower-segre": (
        "Segre series of a tower spec file",
        cmd_tower_segre,
        (
            (("spec",), {"help": "path to a JSON tower spec"}),
            (("--orders",), {"required": True, "help": "per-level orders a_1,..,a_k"}),
            (("--aux-orders",), {"default": "", "help": "per-aux orders as name=b,name=b"}),
            (("--method",), {"choices": ("closed", "stepwise"), "default": "closed"}),
            (("--format",), {"choices": ("table", "json"), "default": "table"}),
        ),
    ),
    "verify": (
        "run the cross-validation sweeps",
        cmd_verify,
        (
            (("--max-k",), {"type": _integer, "default": 3}),
            (("--seed",), {"type": _integer, "default": DEFAULT_SEED}),
            (("--trials",), {"type": _integer, "default": DEFAULT_TRIALS}),
            (("--towers",), {"type": _integer, "default": DEFAULT_TOWERS}),
            (("--format",), {"choices": ("table", "json"), "default": "table"}),
        ),
    ),
}


def build_parser():
    """The argparse tree of the option table: the reference for every argv."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="segre-towers",
        description="Exact Segre-series push-forwards on projective towers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, func, options) in _SUBCOMMANDS.items():
        sub_parser = sub.add_parser(name, help=help_text)
        for flags, kwargs in options:
            sub_parser.add_argument(*flags, **kwargs)
        sub_parser.set_defaults(func=func)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a well-formed argv, read from the option table, or None.

    Well-formed means: a subcommand's name, then only its exact option
    strings, each valued one followed by a value that does not start with
    ``-``, converts with the option's type and lies in its choices, and at
    most one other token, which fills the subcommand's positional; every
    required option and the positional are given.  Such an argv leaves
    argparse no choice to make, so the namespace is the one it would build:
    the last of a repeated option wins and every other option has its
    default.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, func, options = _SUBCOMMANDS[argv[0]]
    values = {"command": argv[0], "func": func}
    by_flag = {}
    positional = None
    required = set()
    for flags, kwargs in options:
        if not flags[0].startswith("-"):
            positional = flags[0]
            required.add(positional)
            continue
        # argparse's rule: the first long flag, less its dashes, with "_" for "-".
        long_flag = next((f for f in flags if f.startswith("--")), flags[0])
        dest = long_flag.lstrip("-").replace("-", "_")
        flag_only = kwargs.get("action") == "store_true"
        values[dest] = kwargs.get("default", False if flag_only else None)
        if kwargs.get("required"):
            required.add(dest)
        by_flag.update(dict.fromkeys(flags, (dest, kwargs)))
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token in by_flag:
            dest, kwargs = by_flag[token]
            if kwargs.get("action") == "store_true":
                values[dest] = True
            else:
                raw = next(tokens, None)
                if raw is None or raw.startswith("-"):
                    return None
                try:
                    value = kwargs["type"](raw) if "type" in kwargs else raw
                except ValueError:
                    return None
                if "choices" in kwargs and value not in kwargs["choices"]:
                    return None
                values[dest] = value
        elif token.startswith("-") or positional is None or positional in seen:
            return None
        else:
            dest = positional
            values[dest] = token
        seen.add(dest)
    if not required <= seen:
        return None
    return SimpleNamespace(**values)


def _parse_args(argv: Sequence[str]):
    """The namespace that ``build_parser().parse_args(argv)`` gives.

    A well-formed argv (see ``_read_argv``) is read from the option table
    without a parser.  Every other argv goes unchanged to the argparse tree:
    help, ``--``, abbreviations, ``--opt=value``, unknown tokens and values
    that fail to convert, so help, usage and every error are argparse's own,
    and argparse is imported only then.

    Nothing outlives the call: a cached reader would make a run of many
    calls in one process cheaper than the fresh process each CLI call is.
    """
    argv = list(argv)
    args = _read_argv(argv)
    return build_parser().parse_args(argv) if args is None else args


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (SpecFileError, InvalidTowerError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except flag_mod.LocalizationDisagreement as exc:
        print(f"internal-consistency failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
