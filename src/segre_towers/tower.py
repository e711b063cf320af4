"""Projective-tower data model and the two tower Segre-series computations.

A tower is described level by level: each level carries a list of factors
(a univariate rational function together with an integer twist vector over
the lower levels) whose shifted product is the Segre series of that single
step, plus an optional set of auxiliary variables that pair extra copies of
the level's tautological class.  Everything else about a level is its
position: its number, its variables u_i and c_i, and the level its
auxiliary variables belong to.

Two computations of the tower Segre series share the pruned product of one
level's shifted factors (the paper's input) but combine the levels differently:

* ``closed_formula_segre`` multiplies the shifted factors in the formal
  tower variables, pruning each level's variable to terms that can still
  reach the requested window.
* ``stepwise_pushforward`` walks the levels once from the top down: at each
  level it multiplies in the powers of that level's tautological class and
  replaces each by the matching coefficient of the level's own Segre
  series.  It never uses the closed formula's resummation, which makes it
  an independent oracle for the combination of the levels.

Both return exactly the window of the paper's all-negative projection:
every tower variable u_i has exponent in [-a_i-1, -1] and every auxiliary
variable in [-b-1, -1].  Neither filters its result afterwards; each
function's docstring says why no term outside the window can arise.

``pushforward_monomial`` needs one coefficient of that window, not all of
it, so it runs the same top-down push with one power of c_j per level in
place of the level's blocks (its docstring proves this exact).  The shift
expansions stop at the last nonzero binomial, which for the flag tower's
linear factors is the first power (see ``shift_expand``).

The records ``TowerFactor``, ``TowerLevel``, ``TowerSpec``, ``Violation``
and ``TruncationRequest`` are named tuples: immutable and picklable, and
hashable when their fields are.  ``_replace`` makes a modified copy.  As
tuples, they iterate over their fields, ``len`` counts the fields, and a
record equals a plain tuple of the same fields.
"""

from __future__ import annotations

import random
import re
from collections import namedtuple
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction

from .series import (
    PIVOT,
    LaurentPoly,
    Monomial,
    RationalFunction1V,
    VariableId,
    coefficient_of,
    descending_expand,
    geometric_expand,
    rename_variables,
    shift_expand,
)

def tower_variable(level: int) -> VariableId:
    return VariableId(f"u{level}", "tower", level)


def taut_variable(level: int) -> VariableId:
    return VariableId(f"c{level}", "taut", level)


def aux_variable(name: str, level: int) -> VariableId:
    return VariableId(name, "aux", level)


def base_variable(name: str) -> VariableId:
    return VariableId(name, "base", 0)


class TowerFactor(namedtuple("TowerFactor", "twists series")):
    """One factor of a level's Segre-series factorization.

    ``twists`` has one integer per lower level; the factor's argument is the
    level variable shifted by the twisted sum of lower tautological classes.
    ``series`` is a univariate rational function in the pivot.
    """

    __slots__ = ()


class TowerLevel(namedtuple("TowerLevel", "factors aux", defaults=((),))):
    """One step of a tower: its factors and the names of its auxiliary variables."""

    __slots__ = ()


class TowerSpec(namedtuple("TowerSpec", "levels base_generators", defaults=((),))):
    """A complete tower description.

    ``levels[i-1]`` is level i, so the level count ``k`` is ``len(levels)``
    (``len(spec)`` is 2, its field count).  ``base_generators`` lists
    (name, degree) pairs for the free graded coefficient ring.
    """

    __slots__ = ()

    @property
    def k(self) -> int:
        return len(self.levels)

    def tower_variables(self) -> tuple[VariableId, ...]:
        return tuple(tower_variable(i) for i in range(1, self.k + 1))

    def aux_variables(self) -> tuple[VariableId, ...]:
        return tuple(
            aux_variable(name, i) for i, lvl in enumerate(self.levels, 1) for name in lvl.aux
        )

    def base_variables(self) -> tuple[VariableId, ...]:
        return tuple(base_variable(name) for name, _ in self.base_generators)


class Violation(namedtuple("Violation", "level field message")):
    """One invariant breach: its level (``None`` for the whole tower), field and message."""

    __slots__ = ()

    def __str__(self) -> str:
        where = f"level {self.level}" if self.level is not None else "tower"
        return f"{where}, {self.field}: {self.message}"


class InvalidTowerError(ValueError):
    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


def _is_reserved(name: str, k: int) -> bool:
    """Whether ``name`` is the pivot's or one of u1..uk, c1..ck.

    Matched as text, so a name with more digits than ``int()`` converts
    is compared too; without leading zeros, (length, digits) orders the
    numbers.
    """
    top, match = str(k), isinstance(name, str) and re.fullmatch(r"[uc]([1-9][0-9]*)", name)
    return name == PIVOT.name or (bool(match) and (len(match[1]), match[1]) <= (len(top), top))


def _name_problem(name: object) -> str | None:
    """Why ``name`` cannot head a table column or key an ``--aux-orders`` entry."""
    if not isinstance(name, str):
        return f"name {name!r} must be a string"
    if not name or re.search(r"[\s,=]", name):
        return f"name {name!r} must be nonempty, without whitespace, ',' or '='"
    return None


def tower_violations(spec: TowerSpec) -> list[Violation]:
    """All invariant breaches of a tower description, each naming its location."""
    out: list[Violation] = []
    declared_bases = set()
    for name, degree in spec.base_generators:
        if name in declared_bases:
            out.append(Violation(None, "base_generators", f"duplicate generator {name!r}"))
        declared_bases.add(name)
        if problem := _name_problem(name):
            out.append(Violation(None, "base_generators", problem))
        if not isinstance(degree, int) or degree <= 0:
            out.append(
                Violation(None, "base_generators", f"generator {name!r} needs a positive degree")
            )

    seen_names = set(declared_bases)
    for name in sorted(n for n in declared_bases if _is_reserved(n, spec.k)):
        out.append(Violation(None, "base_generators", f"name {name!r} is reserved"))

    for level, lvl in enumerate(spec.levels, 1):
        if not lvl.factors:
            out.append(Violation(level, "factors", "factor list must be nonempty"))
        for fpos, factor in enumerate(lvl.factors):
            if len(factor.twists) != level - 1:
                out.append(
                    Violation(
                        level,
                        f"factors[{fpos}].m",
                        f"twist vector must have length {level - 1}, got {len(factor.twists)}",
                    )
                )
            q = factor.series
            base_names = {
                v.name
                for poly in (q.numerator, q.denominator)
                for v in poly.variables()
                if v.kind == "base"
            }
            out += [
                Violation(
                    level,
                    f"factors[{fpos}].q",
                    f"base variable {name!r} is not declared in base_generators",
                )
                for name in sorted(base_names - declared_bases)
            ]
        for apos, name in enumerate(lvl.aux):
            if problem := _name_problem(name):
                out.append(Violation(level, f"aux[{apos}]", problem))
            if name in seen_names or _is_reserved(name, spec.k):
                out.append(Violation(level, f"aux[{apos}]", f"name {name!r} is not unique"))
            seen_names.add(name)
    return out


class TruncationOverrun(RuntimeError):
    """A computation met a degree above its derived truncation cap.

    The derived caps are proven bounds, so this signals an internal
    inconsistency, never bad input.
    """


def validate_tower(spec: TowerSpec) -> None:
    """Raise ``InvalidTowerError`` listing every invariant breach, if any."""
    violations = tower_violations(spec)
    if violations:
        raise InvalidTowerError(violations)


def _check_exponents(name: str, values: Sequence[int], n: int) -> tuple[int, ...]:
    """``values`` as a tuple of ``n`` non-negative ints; errors start with ``name``.

    ``bool`` is refused although it is an ``int``, and nothing is converted,
    since ``int()`` would silently truncate a float.
    """
    exps = tuple(values)
    if len(exps) != n:
        raise ValueError(f"{name}: expected {n} entries, got {len(exps)}")
    for a in exps:
        if not isinstance(a, int) or isinstance(a, bool) or a < 0:
            raise ValueError(f"{name}: expected non-negative integers, got {a!r}")
    return exps


def _aux_exponents(spec: TowerSpec, given: Mapping[str, int] | None, name: str) -> dict[str, int]:
    """One non-negative int per auxiliary variable of ``spec``, 0 unless given."""
    names = [v.name for v in spec.aux_variables()]
    given = dict(given or {})
    unknown = set(given) - set(names)
    if unknown:
        raise ValueError(f"{name}: unknown auxiliary variables: {sorted(unknown)}")
    values = _check_exponents(name, [given.get(n, 0) for n in names], len(names))
    return dict(zip(names, values))


def _lead_plus(factor: TowerFactor) -> int:
    lead = factor.series.leading_exponent
    return max(lead, 0) if lead is not None else 0


class TruncationRequest(namedtuple("TruncationRequest", "tower_orders aux_orders shift_caps")):
    """Exactness window for tower-series computations.

    ``tower_orders[i-1] = a`` guarantees exact coefficients of u_i^(-t-1)
    for all t <= a; ``aux_orders`` does the same per auxiliary variable.

    Let lead_i be the sum of level i's positive factor leading degrees,
    aux_i the sum of its auxiliary orders, and
    reach_j = sum over i >= j of (lead_i + a_i + 1 + aux_i).  Level j's cap
    is ``shift_caps[j-1] = reach_j``, since at most reach_j of tower degree
    can leave levels >= j on the way to the window:

    * Levels >= j end with every u_i exponent >= -a_i-1.
    * Those levels gain exponent only from their own factors (at most
      lead_i) and their auxiliary series (at most aux_i).
    * A shift moves degree only to lower levels, never back up.

    So the degree shifted out of level j is at most reach_j, and the
    degree flowing into it is at most reach_{j+1} + aux_j.  Hence a term of
    a factor's expansion whose u_j exponent is below that factor's positive
    leading degree minus reach_j never reaches the window, which fixes the
    depth of the expansion.

    In the stepwise oracle, pushing level i down replaces c_i^g by a
    coefficient of total c-degree at most g + lead_i + 1, and level i's
    blocks add at most a_i + aux_i.  So the degree of c_j met at level j is
    at most a_j + aux_j + reach_{j+1} = reach_j - lead_j - 1, below level
    j's cap.  ``degree_cap`` is the largest cap, reach_1.  ``aux_orders``
    holds (name, order) pairs sorted by name.
    """

    __slots__ = ()

    @property
    def degree_cap(self) -> int:
        return self.shift_caps[0] if self.shift_caps else 0

    @classmethod
    def derive(
        cls,
        spec: TowerSpec,
        tower_orders: Sequence[int],
        aux_orders: Mapping[str, int] | None = None,
    ) -> "TruncationRequest":
        k = spec.k
        orders = _check_exponents("tower_orders", tower_orders, k)
        aux_map = _aux_exponents(spec, aux_orders, "aux_orders")

        steps = [
            sum(map(_lead_plus, lvl.factors)) + a + 1 + sum(aux_map[name] for name in lvl.aux)
            for lvl, a in zip(spec.levels, orders)
        ]
        return cls(
            tower_orders=orders,
            aux_orders=tuple(sorted(aux_map.items())),
            shift_caps=tuple(sum(steps[j:]) for j in range(k)),
        )

    def aux_order(self, name: str) -> int:
        for n, b in self.aux_orders:
            if n == name:
                return b
        raise KeyError(name)


def _level_product(
    spec: TowerSpec, result: LaurentPoly, level: int, pivot: VariableId,
    lower: Callable[[int], VariableId], cap: int, floor: int,
    extras: Sequence[tuple[LaurentPoly, int]] = (),
) -> LaurentPoly:
    """``result`` times the shifted factors of ``level`` in ``pivot``, then ``extras``.

    A factor is shifted by its twisted sum of the lower variables
    ``lower(j)``, and its expansion stops at its positive leading degree
    minus ``cap`` (``TruncationRequest``).  Each multiplier comes with
    ``up``, the most it can raise the pivot's exponent, so a term below
    ``floor`` minus the ups still to come can never reach ``floor``.
    """
    multipliers = []
    for factor in spec.levels[level - 1].factors:
        own = _lead_plus(factor)
        expansion = rename_variables(descending_expand(factor.series, own - cap), {PIVOT: pivot})
        shift = LaurentPoly(
            (Monomial.of(lower(j + 1)), Fraction(t)) for j, t in enumerate(factor.twists) if t
        )
        multipliers.append((shift_expand(expansion, pivot, shift, cap), own))
    multipliers += extras
    future_up = sum(up for _, up in multipliers)
    for poly, up in multipliers:
        if result.is_zero():
            return result
        future_up -= up
        least = floor - future_up
        # A product term's exponent is at most the running product's top plus the
        # multiplier term's: terms below ``reach`` form only terms below ``least``.
        reach = least - result.max_exponent_in(pivot)
        result = (result * poly.filter_terms(pivot, reach)).filter_terms(pivot, least)
    return result


def individual_segre(spec: TowerSpec, level: int, min_exponent: int) -> LaurentPoly:
    """Segre series of the single step at ``level``.

    Returns the shifted-factor product as a Laurent polynomial in the
    reserved pivot and the tautological variables c_1..c_{level-1}; pivot
    exponents >= min_exponent are exact.
    """
    validate_tower(spec)
    if not 1 <= level <= spec.k:
        raise ValueError(f"level must be in 1..{spec.k}, got {level}")
    return _level_series(spec, level, min_exponent)


def _level_series(spec: TowerSpec, level: int, min_exponent: int) -> LaurentPoly:
    """``individual_segre`` of a tower already validated, at a level in range."""
    cap = max(sum(map(_lead_plus, spec.levels[level - 1].factors)) - min_exponent, 0)
    return _level_product(spec, LaurentPoly.one(), level, PIVOT, taut_variable, cap, min_exponent)


def closed_formula_product(spec: TowerSpec, req: TruncationRequest) -> LaurentPoly:
    """The closed-formula product of the shifted factors, level by level.

    The running product is restricted to terms that can still reach the
    requested window, and each level ends restricted to its window range,
    so the result is the window itself (``closed_formula_segre``).
    """
    validate_tower(spec)
    result = LaurentPoly.one()
    for i in range(spec.k, 0, -1):
        lvl = spec.levels[i - 1]
        u_i = tower_variable(i)
        a_i = req.tower_orders[i - 1]
        # The only source of each auxiliary variable: exponents in [-b-1, -1].
        orders = [(name, req.aux_order(name)) for name in lvl.aux]
        aux_series = [(geometric_expand(aux_variable(n, i), u_i, b), b) for n, b in orders]
        cap = req.shift_caps[i - 1]
        result = _level_product(spec, result, i, u_i, tower_variable, cap, -a_i - 1, aux_series)
        # Lower levels never shift u_i; the last prune kept only exponents >= -a_i-1.
        result = result.filter_terms(u_i, high=-1)
    return result


def closed_formula_segre(spec: TowerSpec, req: TruncationRequest) -> LaurentPoly:
    """Tower Segre series by the closed formula, restricted to the window.

    Every returned coefficient is exact.  The pruned product already is the
    window, so no projection follows it: each level's last prune fixes the
    exponent of u_i to [-a_i-1, -1], and the lower levels, whose twists
    involve only u_1..u_{i-1}, never shift u_i again.  An auxiliary
    variable enters only through ``geometric_expand``, with exponents in
    [-b-1, -1].
    """
    return closed_formula_product(spec, req)


def _push_down(
    spec: TowerSpec, req: TruncationRequest, block: Callable[[int], LaurentPoly]
) -> LaurentPoly:
    """Multiply in ``block(j)``, a polynomial in c_j and level j's own
    variables, and push c_j down, for each level j from the top.

    Each c_j^g becomes the coefficient of pivot^(-g-1) in the level's own
    Segre series; it holds only lower c's and base variables, so the
    exponents a block sets never change.
    """
    validate_tower(spec)
    state = LaurentPoly.one()
    for j in range(spec.k, 0, -1):
        if state.is_zero():
            break
        c_j = taut_variable(j)
        slices = (state * block(j)).by_exponent(c_j)
        gamma_max = max(slices)
        if gamma_max > req.shift_caps[j - 1]:
            raise TruncationOverrun(
                f"intermediate degree {gamma_max} in {c_j.name} exceeds the "
                f"derived cap {req.shift_caps[j - 1]}"
            )
        series = _level_series(spec, j, -gamma_max - 1)
        pushed = []
        for gamma, part in slices.items():
            piece = coefficient_of(series, Monomial.of(PIVOT, -gamma - 1), {PIVOT})
            if piece:
                pushed.append(part * piece)
        state = LaurentPoly.sum(pushed)
    return state


def stepwise_pushforward(spec: TowerSpec, req: TruncationRequest) -> LaurentPoly:
    """Tower Segre series by explicit level-by-level push-forward.

    Level j's block is the truncated generating series of its tautological
    powers, sum_g c_j^g u_j^(-g-1), times the same for each auxiliary
    variable, and ``_push_down`` replaces every power of c_j by the matching
    descending coefficient of the level's own Segre series.  No closed-form
    resummation is used, so this serves as an independent oracle for
    ``closed_formula_segre``.

    Multiplying level j's block in only when c_j is pushed gives the same
    terms as starting from the product of all blocks: the push at level i
    changes only c_i and is linear over everything free of c_i, and the
    blocks of levels below i hold no c_i.  So the slices by c_i and their
    ``gamma_max`` come out the same.

    The result is the window with no projection applied: the blocks set
    every u_i exponent to [-a_i-1, -1] and every auxiliary exponent to
    [-b-1, -1], and the level series multiplied in afterwards involve only
    the pivot and the tautological variables c_j.
    """

    def block(j: int) -> LaurentPoly:
        c_j = taut_variable(j)
        out = geometric_expand(tower_variable(j), c_j, req.tower_orders[j - 1])
        for name in spec.levels[j - 1].aux:
            out = out * geometric_expand(aux_variable(name, j), c_j, req.aux_order(name))
        return out

    return _push_down(spec, req, block)


def pushforward_monomial(
    spec: TowerSpec,
    tower_exponents: Sequence[int],
    aux_exponents: Mapping[str, int] | None = None,
) -> LaurentPoly:
    """Push-forward of a tautological monomial, as a polynomial in base variables.

    ``tower_exponents`` gives the power a_j of each level's tautological
    class; ``aux_exponents`` gives the power b of each extra copy carried by
    an auxiliary variable v.  The value is the coefficient of
    prod u_j^(-a_j-1) prod v^(-b-1) in ``stepwise_pushforward``'s window,
    computed alone: the same top-down push, with level j's block replaced
    by the one term c_j^(a_j + sum of the level's b).  That is exact:

    * The push at level j is linear over everything free of c_j, and once
      level j is done its u_j and auxiliary exponents never change.  So the
      target coefficient can be taken from each block as it is multiplied in.
    * Only the g = a_j term of sum_g c_j^g u_j^(-g-1) reaches u_j^(-a_j-1),
      and only the g = b term of sum_g c_j^g v^(-g-1) reaches v^(-b-1).
      Their product is that one power of c_j.

    The slices met are among the window's, so its derived caps hold.
    """
    exps = _check_exponents("tower_exponents", tower_exponents, spec.k)
    aux = _aux_exponents(spec, aux_exponents, "aux_exponents")
    req = TruncationRequest.derive(spec, exps, aux)
    power = [a + sum(aux[name] for name in lvl.aux) for a, lvl in zip(exps, spec.levels)]
    return _push_down(spec, req, lambda j: LaurentPoly.variable(taut_variable(j), power[j - 1]))


def random_tower_spec(rng: random.Random, max_k: int = 3) -> TowerSpec:
    """A random tower for cross-validation sweeps.

    Each level has 1 to 3 factors and 0 to 2 auxiliary variables.  Twists
    lie in [-2, 2], numerator/denominator supports within [-3, 3], and every
    coefficient is a small exact rational.  Coefficients stay rational (no base
    generators) so each generated tower serializes through the file format.
    """
    k = rng.randint(1, max_k)
    levels = []
    for i in range(1, k + 1):
        factors = []
        for _ in range(rng.randint(1, 3)):
            twists = tuple(rng.randint(-2, 2) for _ in range(i - 1))
            num_exps = rng.sample(range(-3, 4), rng.randint(1, 3))
            num = LaurentPoly(
                (Monomial.of(PIVOT, e), _random_coeff(rng)) for e in num_exps
            )
            lead = rng.randint(0, 3)
            den = LaurentPoly.variable(PIVOT, lead)
            for e in rng.sample(range(-3, lead), rng.randint(0, 2)):
                den = den + LaurentPoly.monomial(Monomial.of(PIVOT, e), _random_coeff(rng))
            factors.append(TowerFactor(twists, RationalFunction1V(num, den)))
        aux = tuple(f"w{i}_{t}" for t in range(rng.randint(0, 2)))
        levels.append(TowerLevel(tuple(factors), aux))
    return TowerSpec(tuple(levels))


def _random_coeff(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-3, 4) if n])
    return Fraction(num, rng.randint(1, 3))
