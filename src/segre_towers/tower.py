"""Projective-tower data model and the two tower Segre-series computations.

A tower is described level by level: each level carries a list of factors
(a univariate rational function together with an integer twist vector over
the lower levels) whose shifted product is the Segre series of that single
step, plus an optional set of auxiliary variables that pair extra copies of
the level's tautological class.

Two independent computations of the tower Segre series are provided:

* ``closed_formula_segre`` multiplies the shifted factors in the formal
  tower variables, pruning each level's variable to terms that can still
  reach the requested window.
* ``stepwise_pushforward`` pushes tautological powers down one level at a
  time, replacing each power of a tautological class by the matching
  coefficient of that level's own Segre series.  It never uses the closed
  formula's resummation, which makes it an independent oracle.

Both return exactly the window of the paper's all-negative projection:
every tower variable u_i has exponent in [-a_i-1, -1] and every auxiliary
variable in [-b-1, -1].  Neither filters its result afterwards; each
function's docstring says why no term outside the window can arise.

``pushforward_monomial`` needs one coefficient of that window, not all of
it, so it runs the closed-formula product in point mode.  The invariant
behind both the window and the pin is the same: once level i is done, a
term's u_i and auxiliary exponents never change.  So each level can be
pinned to its target exponent, and its variables dropped, as soon as it is
done.  The shift expansions stop at the last nonzero binomial, which for the
flag tower's linear factors is the first power (see ``shift_expand``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .series import (
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

#: Reserved expansion pivot for univariate rational functions.
PIVOT = VariableId("u", "tower", 0)


def tower_variable(level: int) -> VariableId:
    return VariableId(f"u{level}", "tower", level)


def taut_variable(level: int) -> VariableId:
    return VariableId(f"c{level}", "taut", level)


def aux_variable(name: str, level: int) -> VariableId:
    return VariableId(name, "aux", level)


def base_variable(name: str) -> VariableId:
    return VariableId(name, "base", 0)


@dataclass(frozen=True)
class TowerFactor:
    """One factor of a level's Segre-series factorization.

    ``twists`` has one integer per lower level; the factor's argument is the
    level variable shifted by the twisted sum of lower tautological classes.
    ``series`` is the univariate rational function in the reserved pivot.
    """

    twists: tuple[int, ...]
    series: RationalFunction1V


@dataclass(frozen=True)
class TowerLevel:
    index: int
    factors: tuple[TowerFactor, ...]
    aux: tuple[VariableId, ...] = ()


@dataclass(frozen=True)
class TowerSpec:
    """A complete tower description.

    ``base_generators`` lists (name, degree) pairs for the free graded
    coefficient ring; ``base_degree_cap``, when set, drops terms above that
    weighted base degree during tower computations.  Dropping them after each
    product is exact only while no base exponent is negative, so with a cap
    no factor may have one, and no denominator's leading coefficient may
    involve a base variable, since the expansion divides by it.
    """

    k: int
    levels: tuple[TowerLevel, ...]
    base_generators: tuple[tuple[str, int], ...] = ()
    base_degree_cap: int | None = None

    def tower_variables(self) -> tuple[VariableId, ...]:
        return tuple(tower_variable(i) for i in range(1, self.k + 1))

    def aux_variables(self) -> tuple[VariableId, ...]:
        return tuple(v for lvl in self.levels for v in lvl.aux)

    def base_variables(self) -> tuple[VariableId, ...]:
        return tuple(base_variable(name) for name, _ in self.base_generators)


@dataclass(frozen=True)
class Violation:
    level: int | None
    field: str
    message: str

    def __str__(self) -> str:
        where = f"level {self.level}" if self.level is not None else "tower"
        return f"{where}, {self.field}: {self.message}"


class InvalidTowerError(ValueError):
    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


def tower_violations(spec: TowerSpec) -> list[Violation]:
    """All invariant breaches of a tower description, each naming its location."""
    out: list[Violation] = []
    if spec.k < 0:
        out.append(Violation(None, "k", f"level count must be non-negative, got {spec.k}"))
    if len(spec.levels) != max(spec.k, 0):
        out.append(
            Violation(None, "levels", f"expected {spec.k} levels, found {len(spec.levels)}")
        )
    declared_bases = set()
    for name, degree in spec.base_generators:
        if name in declared_bases:
            out.append(Violation(None, "base_generators", f"duplicate generator {name!r}"))
        declared_bases.add(name)
        if not isinstance(degree, int) or degree <= 0:
            out.append(
                Violation(None, "base_generators", f"generator {name!r} needs a positive degree")
            )
    if spec.base_degree_cap is not None and spec.base_degree_cap < 0:
        out.append(Violation(None, "base_degree_cap", "cap must be non-negative"))

    reserved = {f"u{i}" for i in range(1, spec.k + 1)}
    reserved |= {f"c{i}" for i in range(1, spec.k + 1)}
    reserved.add(PIVOT.name)
    seen_names = set(reserved) | declared_bases
    if len(declared_bases & reserved) > 0:
        for name in sorted(declared_bases & reserved):
            out.append(Violation(None, "base_generators", f"name {name!r} is reserved"))

    for pos, lvl in enumerate(spec.levels):
        want = pos + 1
        if lvl.index != want:
            out.append(Violation(want, "index", f"expected index {want}, got {lvl.index}"))
        if not lvl.factors:
            out.append(Violation(want, "factors", "factor list must be nonempty"))
        for fpos, factor in enumerate(lvl.factors):
            if len(factor.twists) != want - 1:
                out.append(
                    Violation(
                        want,
                        f"factors[{fpos}].m",
                        f"twist vector must have length {want - 1}, got {len(factor.twists)}",
                    )
                )
            q = factor.series
            base_exps = [
                (v.name, e)
                for poly in (q.numerator, q.denominator)
                for m, _ in poly.items()
                for v, e in m.items()
                if v.kind == "base"
            ]
            problems = [] if q.var == PIVOT else ["series must use the reserved pivot variable"]
            problems += [
                f"base variable {name!r} is not declared in base_generators"
                for name in sorted({name for name, _ in base_exps} - declared_bases)
            ]
            if spec.base_degree_cap is not None:
                top = q.denominator.max_exponent_in(q.var)
                if any(
                    m.exponent(q.var) == top and not m.without({q.var}).is_one()
                    for m, _ in q.denominator.items()
                ):
                    problems.append(
                        "base_degree_cap: leading denominator term has a base variable"
                    )
                if any(e < 0 for _, e in base_exps):
                    problems.append("base_degree_cap: a base exponent is negative")
            out += [Violation(want, f"factors[{fpos}].q", msg) for msg in problems]
        for apos, var in enumerate(lvl.aux):
            if var.kind != "aux":
                out.append(Violation(want, f"aux[{apos}]", f"{var.name!r} is not aux-kind"))
            if var.level != want:
                out.append(
                    Violation(
                        want,
                        f"aux[{apos}]",
                        f"{var.name!r} is attached to level {var.level}, expected {want}",
                    )
                )
            if var.name in seen_names:
                out.append(Violation(want, f"aux[{apos}]", f"name {var.name!r} is not unique"))
            seen_names.add(var.name)
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


@dataclass(frozen=True)
class TruncationRequest:
    """Exactness window for tower-series computations.

    ``tower_orders[i-1] = a`` guarantees exact coefficients of u_i^(-t-1)
    for all t <= a; ``aux_orders`` does the same per auxiliary variable.
    The ``degree_cap`` argument may raise the derived bound (never lower
    it), which pads every per-level cap by the same amount.

    Let lead_i be the sum of level i's positive factor leading degrees,
    aux_i the sum of its auxiliary orders, and
    reach_j = sum over i >= j of (lead_i + a_i + 1 + aux_i).  The derived
    bound is ``degree_cap = reach_1`` and level j's cap is
    ``shift_caps[j-1] = reach_j``, since at most reach_j of tower degree
    can leave levels >= j on the way to the window:

    * Levels >= j end with every u_i exponent >= -a_i-1.
    * Those levels gain exponent only from their own factors (at most
      lead_i) and their auxiliary series (at most aux_i).
    * A shift moves degree only to lower levels, never back up.

    So the degree shifted out of level j is at most reach_j, and the
    degree flowing into it is at most reach_{j+1} + aux_j.  Hence a term of
    a factor's expansion whose u_j exponent is below that factor's positive
    leading degree minus reach_j never reaches the window, which fixes the
    depth of the expansion.  In the stepwise oracle, pushing level i down raises the total
    c-degree by at most lead_i + 1, so the degree of c_j it meets is at
    most reach_1 - 1, below ``degree_cap``.
    """

    tower_orders: tuple[int, ...]
    aux_orders: tuple[tuple[str, int], ...]
    degree_cap: int
    shift_caps: tuple[int, ...] = field(compare=False)

    @classmethod
    def derive(
        cls,
        spec: TowerSpec,
        tower_orders: Sequence[int],
        aux_orders: Mapping[str, int] | None = None,
        degree_cap: int | None = None,
    ) -> "TruncationRequest":
        k = spec.k
        orders = _check_exponents("tower_orders", tower_orders, k)
        aux_map = _aux_exponents(spec, aux_orders, "aux_orders")

        steps = [
            sum(map(_lead_plus, lvl.factors)) + a + 1 + sum(aux_map[v.name] for v in lvl.aux)
            for lvl, a in zip(spec.levels, orders)
        ]
        derived = sum(steps)
        if degree_cap is not None and degree_cap < derived:
            raise ValueError(f"degree_cap {degree_cap} is below the derived bound {derived}")
        pad = 0 if degree_cap is None else degree_cap - derived
        return cls(
            tower_orders=orders,
            aux_orders=tuple(sorted(aux_map.items())),
            degree_cap=derived + pad,
            shift_caps=tuple(sum(steps[j:]) + pad for j in range(k)),
        )

    def aux_order(self, name: str) -> int:
        for n, b in self.aux_orders:
            if n == name:
                return b
        raise KeyError(name)


def _base_weights(spec: TowerSpec) -> dict[VariableId, int]:
    return {base_variable(name): degree for name, degree in spec.base_generators}


def _cap_base(poly: LaurentPoly, spec: TowerSpec) -> LaurentPoly:
    if spec.base_degree_cap is None or not spec.base_generators:
        return poly
    weights = _base_weights(spec)
    cap = spec.base_degree_cap
    return poly.filter_terms(lambda m: m.weighted_degree(weights) <= cap)


def individual_segre(spec: TowerSpec, level: int, min_exponent: int) -> LaurentPoly:
    """Segre series of the single step at ``level``.

    Returns the shifted-factor product as a Laurent polynomial in the
    reserved pivot and the tautological variables c_1..c_{level-1}; pivot
    exponents >= min_exponent are exact.
    """
    validate_tower(spec)
    if not 1 <= level <= spec.k:
        raise ValueError(f"level must be in 1..{spec.k}, got {level}")
    lvl = spec.levels[level - 1]
    pluses = [_lead_plus(f) for f in lvl.factors]
    if any(f.series.numerator.is_zero() for f in lvl.factors):
        return LaurentPoly.zero()
    total_plus = sum(pluses)
    cap = max(total_plus - min_exponent, 0)
    result = LaurentPoly.one()
    remaining = total_plus
    for factor, own in zip(lvl.factors, pluses):
        depth = min_exponent - (total_plus - own)
        expansion = descending_expand(factor.series, depth)
        shift = LaurentPoly(
            (Monomial.of(taut_variable(j + 1)), Fraction(t))
            for j, t in enumerate(factor.twists)
            if t
        )
        result = result * shift_expand(expansion, PIVOT, shift, cap)
        result = _cap_base(result, spec)
        remaining -= own
        floor = min_exponent - remaining
        result = result.filter_terms(lambda m, f=floor: m.exponent(PIVOT) >= f)
    return result


def closed_formula_product(
    spec: TowerSpec, req: TruncationRequest, point: bool = False
) -> LaurentPoly:
    """The closed-formula product of the shifted factors, level by level.

    The running product is restricted to terms that can still reach the
    requested window, and each level ends restricted to its window range,
    so the result is the window itself (``closed_formula_segre``).

    With ``point`` each level instead ends pinned to the window's corner:
    only the coefficient of u_i^(-a_i-1) times v^(-b-1) for each of the
    level's auxiliary variables v is kept, and those variables are dropped.
    The result is that one coefficient, a polynomial in the base variables
    (``pushforward_monomial``).  Pinning is exact because after level i a
    term's u_i and auxiliary exponents never change: the lower levels'
    twists involve only u_1..u_{i-1}, and an auxiliary variable enters only
    through ``geometric_expand`` at its own level.  So terms with different
    values of those exponents never combine, and those off the target never
    reach it.
    """
    validate_tower(spec)
    result = LaurentPoly.one()
    for i in range(spec.k, 0, -1):
        lvl = spec.levels[i - 1]
        u_i = tower_variable(i)
        a_i = req.tower_orders[i - 1]
        cap = req.shift_caps[i - 1]
        # The level's multipliers, each with the most it can raise u_i's
        # exponent: the shifted factor expansions, then the auxiliary series.
        multipliers = []
        for factor in lvl.factors:
            own = _lead_plus(factor)
            # Terms below own - cap never reach the window (``TruncationRequest``).
            expansion = rename_variables(
                descending_expand(factor.series, own - cap), {PIVOT: u_i}
            )
            shift = LaurentPoly(
                (Monomial.of(tower_variable(j + 1)), Fraction(t))
                for j, t in enumerate(factor.twists)
                if t
            )
            multipliers.append((shift_expand(expansion, u_i, shift, cap), own))
        for var in lvl.aux:
            # The only source of ``var``: its exponents lie in [-b-1, -1].
            b = req.aux_order(var.name)
            multipliers.append((geometric_expand(var, u_i, b), b))
        future_up = sum(up for _, up in multipliers)
        for poly, up in multipliers:
            result = _cap_base(result * poly, spec)
            future_up -= up
            floor = -a_i - 1 - future_up
            result = result.filter_terms(lambda m, f=floor: m.exponent(u_i) >= f)
        if point:
            corner = [(u_i, -a_i - 1)]
            corner += [(v, -req.aux_order(v.name) - 1) for v in lvl.aux]
            result = coefficient_of(result, Monomial(corner), (u_i,) + lvl.aux)
        else:
            # Lower levels shift only u_1..u_{i-1}, so u_i stays in this range.
            result = result.filter_terms(
                lambda m: -a_i - 1 <= m.exponent(u_i) <= -1
            )
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


def stepwise_pushforward(spec: TowerSpec, req: TruncationRequest) -> LaurentPoly:
    """Tower Segre series by explicit level-by-level push-forward.

    Starts from the truncated generating product of all tautological powers
    inside the window and, for each level from the top down, replaces every
    power of that level's tautological class by the matching descending
    coefficient of the level's own Segre series.  No closed-form
    resummation is used, so this serves as an independent oracle for
    ``closed_formula_segre``.

    The result is the window with no projection applied: the initial
    blocks set every u_i exponent to [-a_i-1, -1] and every auxiliary
    exponent to [-b-1, -1], and the level series multiplied in afterwards
    involve only the pivot and the tautological variables c_j.
    """
    validate_tower(spec)
    state = LaurentPoly.one()
    for i in range(1, spec.k + 1):
        lvl = spec.levels[i - 1]
        c_i = taut_variable(i)
        u_i = tower_variable(i)
        a_i = req.tower_orders[i - 1]
        block = LaurentPoly(
            (Monomial(((c_i, g), (u_i, -g - 1))), Fraction(1)) for g in range(a_i + 1)
        )
        state = state * block
        for var in lvl.aux:
            b = req.aux_order(var.name)
            state = state * LaurentPoly(
                (Monomial(((c_i, g), (var, -g - 1))), Fraction(1)) for g in range(b + 1)
            )
    for j in range(spec.k, 0, -1):
        if state.is_zero():
            break
        c_j = taut_variable(j)
        slices: dict[int, dict[Monomial, Fraction]] = {}
        for mono, coeff in state.items():
            gamma = mono.exponent(c_j)
            slices.setdefault(gamma, {})[mono.without({c_j})] = coeff
        gamma_max = max(slices)
        if gamma_max > req.degree_cap:
            raise TruncationOverrun(
                f"intermediate degree {gamma_max} in {c_j.name} exceeds the "
                f"derived cap {req.degree_cap}"
            )
        series = individual_segre(spec, j, -gamma_max - 1)
        state = LaurentPoly.zero()
        for gamma, terms in slices.items():
            piece = coefficient_of(series, Monomial.of(PIVOT, -gamma - 1), {PIVOT})
            if piece.is_zero():
                continue
            # ``piece`` holds only c's and base variables, so the u and aux
            # exponents the blocks set are never changed.
            state = state + _cap_base(LaurentPoly(terms) * piece, spec)
    return state


def pushforward_monomial(
    spec: TowerSpec,
    tower_exponents: Sequence[int],
    aux_exponents: Mapping[str, int] | None = None,
) -> LaurentPoly:
    """Push-forward of a tautological monomial, as a polynomial in base variables.

    ``tower_exponents`` gives the power of each level's tautological class;
    ``aux_exponents`` gives powers for the extra copies carried by auxiliary
    variables.  The value is the coefficient of the matching all-negative
    monomial of the closed-formula Segre series, computed alone: the product
    runs in point mode, which pins each level to its target exponent as soon
    as the level is done, so no other coefficient of the window is carried
    down the lower levels.
    """
    exps = _check_exponents("tower_exponents", tower_exponents, spec.k)
    aux = _aux_exponents(spec, aux_exponents, "aux_exponents")
    req = TruncationRequest.derive(spec, exps, aux)
    return closed_formula_product(spec, req, point=True)


def random_tower_spec(
    rng: random.Random,
    max_k: int = 3,
    max_factors: int = 3,
    twist_bound: int = 2,
    exponent_bound: int = 3,
    max_aux: int = 2,
) -> TowerSpec:
    """A random tower for cross-validation sweeps.

    Twists lie in [-twist_bound, twist_bound], numerator/denominator
    supports within [-exponent_bound, exponent_bound], and every coefficient
    is a small exact rational.  Coefficients stay rational (no base
    generators) so each generated tower serializes through the file format.
    """
    k = rng.randint(1, max_k)
    levels = []
    for i in range(1, k + 1):
        factors = []
        for _ in range(rng.randint(1, max_factors)):
            twists = tuple(rng.randint(-twist_bound, twist_bound) for _ in range(i - 1))
            num_exps = rng.sample(
                range(-exponent_bound, exponent_bound + 1), rng.randint(1, 3)
            )
            num = LaurentPoly(
                (Monomial.of(PIVOT, e), _random_coeff(rng)) for e in num_exps
            )
            lead = rng.randint(0, exponent_bound)
            den = LaurentPoly.variable(PIVOT, lead)
            for e in rng.sample(range(-exponent_bound, lead), rng.randint(0, 2)):
                den = den + LaurentPoly.monomial(Monomial.of(PIVOT, e), _random_coeff(rng))
            factors.append(TowerFactor(twists, RationalFunction1V(PIVOT, num, den)))
        aux = tuple(
            aux_variable(f"w{i}_{t}", i) for t in range(rng.randint(0, max_aux))
        )
        levels.append(TowerLevel(i, tuple(factors), aux))
    return TowerSpec(k, tuple(levels))


def _random_coeff(rng: random.Random) -> Fraction:
    num = rng.choice([n for n in range(-3, 4) if n])
    return Fraction(num, rng.randint(1, 3))
