"""Command-line front end: spec-file ingestion, computations, verification.

The ``segre-towers`` binary exposes three subcommands:

* ``flag-integral`` evaluates one flag-variety integral (with optional
  cross-checks against the Vandermonde coefficient and the fixed-point sum),
* ``tower-segre`` prints the Segre-series coefficients of a tower read from
  a JSON spec file, by either computation method,
* ``verify`` runs the flag triple-agreement sweep and the randomized
  closed-versus-stepwise corpus, exiting nonzero on any exact mismatch.

Output is deterministic: identical inputs and seeds produce byte-identical
text, and all rationals are printed exactly as ``num/den`` in lowest terms.
"""

from __future__ import annotations

import argparse
import json
import itertools
import random
import sys
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction

from . import flag as flag_mod
from .series import PIVOT, LaurentPoly, Monomial, RationalFunction1V, VariableId
from .tower import (
    InvalidTowerError,
    TowerFactor,
    TowerLevel,
    TowerSpec,
    TruncationOverrun,
    TruncationRequest,
    closed_formula_segre,
    random_tower_spec,
    stepwise_pushforward,
    tower_variable,
    validate_tower,
)

#: Largest ``--max-k`` of verify.  With each route batched per k, the k = 6
#: sweep (7872 integrals) takes 7.5-8.1 s at 3 trials and ``--towers 0``, on
#: a 2-core Xeon with Python 3.11; k = 7 has 115788 integrals.
MAX_VERIFY_K = 6
#: Largest ``--towers`` of verify.  The random corpus takes 3-3.5 ms per
#: tower: 200 towers in 0.59-0.70 s, 1000 in 3.3-3.5 s (seeds 7 and 11,
#: 2-core Xeon, Python 3.11), so the ceiling bounds it near 35 s.
MAX_VERIFY_TOWERS = 10_000
DEFAULT_SEED = 7
DEFAULT_TRIALS = 3
DEFAULT_TOWERS = 50
#: Largest ``--k`` that flag-integral cross-checks.  The fixed-point sum is
#: O(k^3) per trial, but ``vandermonde_product(k)`` grows more than 10x per
#: level: 0.046 s at k = 7 and 0.59-0.77 s at k = 8 (2-core Xeon, Python 3.11).
MAX_CROSS_CHECK_K = 8
#: Largest ``--k`` of flag-integral.  The point route's time depends on the
#: tuple: over 10 shuffled permutations of 1..k each (seed 3, single
#: in-process runs, 2-core Xeon, Python 3.11) the median and the maximum
#: were 0.025 and 0.14 s at k = 11, 0.14 and 1.4 s at k = 12, and 0.30 and
#: 11 s at k = 13.
MAX_FLAG_K = 12


def format_rational(value: Fraction) -> str:
    """Exact ``num/den`` in lowest terms; just ``num`` for integers."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class SpecFileError(ValueError):
    """A tower spec file that cannot be decoded; the message names the location."""


# -- tower spec (de)serialization -------------------------------------------


def _is_int(value) -> bool:
    # JSON ``true``/``false`` decode to ``bool``, a subclass of ``int``.
    return isinstance(value, int) and not isinstance(value, bool)


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
    terms = []
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
        terms.append((Monomial.of(PIVOT, exp), Fraction(num, den)))
    return LaurentPoly(terms)


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
    """Decode and validate a tower spec document, naming faulty fields.

    ``k`` is stored only as the number of levels, so it is checked against
    them before any level is decoded.
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
    spec = TowerSpec(tuple(levels), tuple(bases))
    validate_tower(spec)
    return spec


def load_tower_spec(path: str) -> TowerSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an integer above int's digit limit
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
        var_set = set(var_list)
        rows = []
        for mono, coeff in poly.items():
            if not mono.without(var_set).is_one():
                raise ValueError(f"term {mono} involves variables outside the table header")
            exps = tuple(mono.exponent(v) for v in var_list)
            rows.append((exps, format_rational(coeff)))
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


def _check_trials(trials: int) -> None:
    # Checked here, since the library would name its parameter, not the option.
    if not 1 <= trials <= sys.maxsize:
        raise ValueError(f"--trials: must be in 1..{sys.maxsize}, got {trials}")


def run_verify(
    max_k: int,
    seed: int,
    trials: int,
    towers: int = DEFAULT_TOWERS,
) -> list[VerifyCase]:
    """Triple-agreement sweep plus the randomized closed-vs-stepwise corpus.

    Sizes under which a run could pass vacuously are refused before any
    work; ``towers=0`` skips only the random corpus.
    """
    if max_k > MAX_VERIFY_K:
        raise ValueError(f"--max-k: {max_k} is above the ceiling {MAX_VERIFY_K}")
    if max_k < 1:
        raise ValueError(f"--max-k: must be at least 1, got {max_k}")
    if towers < 0:
        raise ValueError(f"--towers: must be non-negative, got {towers}")
    if towers > MAX_VERIFY_TOWERS:
        raise ValueError(f"--towers: {towers} is above the ceiling {MAX_VERIFY_TOWERS}")
    _check_trials(trials)
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

    for k in range(1, max_k + 1):
        # Each route is batched per k: the tower values are the coefficients
        # of u^(-a-1) in the window at orders (k,)*k (see pushforward_monomial),
        # and the Vandermonde values come from one expansion.
        tuples = flag_exponent_tuples(k)
        spec = flag_mod.flag_tower(k)
        req = TruncationRequest.derive(spec, (k,) * k)
        window = stepwise_pushforward(spec, req)
        closed = closed_formula_segre(spec, req)
        vandermonde = flag_mod.vandermonde_product(k)
        bad: list[str] = []
        if closed != window:
            bad.append(
                f"closed and stepwise windows of the flag tower k={k} at orders "
                f"{req.tower_orders} first differ at {_first_difference(closed, window)}"
            )
        for exps in tuples:
            via_tower = window.coefficient(
                Monomial((tower_variable(i + 1), -a - 1) for i, a in enumerate(exps))
            )
            via_vandermonde = vandermonde.coefficient(flag_mod._vandermonde_target(k, exps))
            via_fixed_points = flag_mod.localization_integral(
                k, exps, trials=trials, seed=seed
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


def _parse_int_list(raw: str, option: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    try:
        values = tuple(int(x) for x in raw.split(","))
    except ValueError as exc:
        raise ValueError(
            f"{option}: expected a comma-separated integer list, got {raw!r}"
        ) from exc
    for value in values:
        if value < 0:
            raise ValueError(f"{option}: expected non-negative integers, got {value}")
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
            out[name] = int(value)
        except ValueError as exc:
            raise ValueError(f"{option}: expected an integer value, got {item!r}") from exc
    return out


def cmd_flag_integral(args) -> int:
    if args.k < 1:
        raise ValueError(f"--k: flag towers need at least 1 level, got {args.k}")
    if args.k > MAX_FLAG_K:
        raise ValueError(f"--k: {args.k} is above the ceiling {MAX_FLAG_K}")
    exps = _parse_int_list(args.exps, "--exps")
    if len(exps) != args.k:
        raise ValueError(f"--exps: needs exactly {args.k} entries, got {len(exps)}")
    cross_check = args.verbose or args.format == "json"
    _check_trials(args.trials)
    if cross_check:
        if args.k > MAX_CROSS_CHECK_K:
            raise ValueError(
                f"--k: the cross-checks run up to k = {MAX_CROSS_CHECK_K}, got {args.k}"
            )
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
    if cross_check:
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
    print(format_rational(value))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segre-towers",
        description="Exact Segre-series push-forwards on projective towers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_flag = sub.add_parser("flag-integral", help="integrate a monomial over a flag variety")
    p_flag.add_argument("--k", type=int, required=True, help="number of tower levels")
    p_flag.add_argument("--exps", required=True, help="comma-separated exponents a_1..a_k")
    p_flag.add_argument("-v", "--verbose", action="store_true", help="print cross-checks")
    p_flag.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_flag.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_flag.add_argument("--format", choices=("table", "json"), default="table")
    p_flag.set_defaults(func=cmd_flag_integral)

    p_segre = sub.add_parser("tower-segre", help="Segre series of a tower spec file")
    p_segre.add_argument("spec", help="path to a JSON tower spec")
    p_segre.add_argument("--orders", required=True, help="per-level orders a_1,..,a_k")
    p_segre.add_argument(
        "--aux-orders", default="", help="per-aux orders as name=b,name=b"
    )
    p_segre.add_argument("--method", choices=("closed", "stepwise"), default="closed")
    p_segre.add_argument("--format", choices=("table", "json"), default="table")
    p_segre.set_defaults(func=cmd_tower_segre)

    p_verify = sub.add_parser("verify", help="run the cross-validation sweeps")
    p_verify.add_argument("--max-k", type=int, default=3, dest="max_k")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p_verify.add_argument("--towers", type=int, default=DEFAULT_TOWERS)
    p_verify.add_argument("--format", choices=("table", "json"), default="table")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecFileError, InvalidTowerError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (flag_mod.LocalizationDisagreement, TruncationOverrun) as exc:
        print(f"internal-consistency failure: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
