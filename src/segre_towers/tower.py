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

* ``closed_formula_segre`` forms each level's product in the formal tower
  variables with the running product of the levels above as its last
  multiplier, pruning each level's variable to the requested window.
* ``stepwise_pushforward`` walks the levels once from the top down: at each
  level it multiplies in the powers of that level's tautological class and
  replaces each by the matching coefficient of the level's own Segre
  series.  It never uses the closed formula's resummation, which makes it
  an independent oracle for the combination of the levels.

Both return exactly the window of the paper's all-negative projection:
every tower variable u_i has exponent in [-a_i-1, -1] and every auxiliary
variable in [-b-1, -1].  Neither filters its result afterwards; each
function's docstring says why no term outside the window can arise.

A level's product (``_level_product``) is held in slices by the exponent
of the level's variable, {exponent: {key of the rest: numerator}} over one
denominator, from the factor expansions to the result.  Its floor and
ceiling are proved for single terms, and a product slice is a sum of
products of single slices whose exponents add up to its own, so the same
bounds drop whole slice pairs.  Each factor's expansion and shift stop at
the source floor alone.  No route reads the truncation caps of
``TruncationRequest``: they are a proven bound on the degrees the stepwise
push meets, and its docstring proves that no cap could stop an expansion
earlier.  One walk over the levels (a call of ``_closed``, ``_push_down``,
``_dual_push`` or ``individual_segre``) expands each pair of a series
object and its twists once per floor, and hands that expansion back only
at that floor (``_expansion``); nothing is kept between walks.

Both walks take one input: a range (low, high) of powers per tower and
auxiliary variable x, which keeps x to the exponents [-high-1, -low-1].
A window's ranges start at 0 (``_window_ranges``), and a point's are
ranges of one.  Every level step of either walk is one such product whose
last multiplier is the running state, so ``_level_product`` is the one
caller of ``series._product``.  The closed walk (``_closed``) multiplies
level i's factors, its auxiliary series and the running product, sliced
by u_i, on u_i's range, and packs the slices back into u_i.  The stepwise
push slices its state by c_j: c_j^g stands for the coefficient of
pivot^(-g-1) in the level's own Segre series, a level product in the
reserved ``PIVOT``.  So its step multiplies one geometric series in c_j
per level variable, each kept to a range of powers, then that series, then
the state, on [-1, -1]; the slice at -1 is the pushed state.

``pushforward_monomial`` needs one coefficient of the window, not all of
it, so it passes the push (``_push_down``) ranges of one, the power that
reaches its monomial (its docstring proves this exact).  The closed walk
at the same ranges gives the same value, and combines the levels without
the push.  The shift expansions stop at the last nonzero binomial, which
for the flag tower's linear factors is the first power (see
``shift_expand``).

A flag-type tower whose levels share one F, level i being F(u) *
prod_(m<i) (u - c_m) with each of F's untwisted numerators one term (flag
towers, flag bundles, partial flags; ``_flag_type_levels`` finds F), is
not pushed level by level.  Its closed product is the Vandermonde
determinant times prod_i F(u_i), so a point value is a k x k determinant
of coefficients of F.  With F = c * u^(-n) * A(1/u), a_0 = 1, that is c^k
times the Jacobi-Trudi determinant det(a_(lambda_i-i+j)), lambda_i =
q_(k+1-i) - n + i for q the exponents sorted, at the sorting sign times
(-1)^(k(k-1)/2); equal exponents or lambda_k < 0 give 0.  The value is
read from its dual, det(b_(lambda'_i-i+j)) with B(t) = 1/A(-t), of size
lambda_1 (Macdonald, *Symmetric Functions and Hall Polynomials*,
I.2-I.3), whose entries, up to the factor 1/c each, are the coefficients
of 1/F, a Laurent polynomial: so the value is +-c^(k+lambda_1) times the
determinant of those coefficients (``_dual_push``).  A flag bundle's b_m
are its Chern classes, single terms, where its a_m are dense.  The dual
matrix is banded, and ``_determinant`` drops every partial sum that no
later row can complete.  No linear factor is expanded or shifted.  Every
other tower, with different F_i or a numerator of several terms, takes
the push.

The records ``TowerFactor``, ``TowerLevel``, ``TowerSpec``, ``Violation``
and ``TruncationRequest`` are named tuples: immutable and picklable, and
hashable when their fields are.  ``_replace`` makes a modified copy.  As
tuples, they iterate over their fields, ``len`` counts the fields, and a
record equals a plain tuple of the same fields.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Callable, Mapping, Sequence
from itertools import combinations, starmap
from operator import gt

from .series import (
    PIVOT,
    LaurentPoly,
    Monomial,
    RationalFunction1V,
    VariableId,
    _check_int,
    _checked,
    _descending,
    _geometric,
    _is_int,
    _leading_power,
    _pack,
    _product,
    _shifted,
    _sliced,
    _unit,
    _unsliced,
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

    Compared as text, so a name with more digits than ``int()`` converts
    is compared too; without leading zeros, (length, digits) orders the
    numbers.  Only ASCII digits count: ``str.isdigit`` alone accepts others.
    """
    top, digits = str(k), name[1:]
    return name == PIVOT.name or (
        name[:1] in ("u", "c") and digits.isascii() and digits.isdigit()
        and digits[0] != "0" and (len(digits), digits) <= (len(top), top)
    )


def _name_problem(name: object) -> str | None:
    """Why ``name`` cannot head a table column or key an ``--aux-orders`` entry."""
    if not isinstance(name, str):
        return f"name {name!r} must be a string"
    if not name or "," in name or "=" in name or any(map(str.isspace, name)):
        return f"name {name!r} must be nonempty, without whitespace, ',' or '='"
    return None


def tower_violations(spec: TowerSpec) -> list[Violation]:
    """All invariant breaches of a tower description, each naming its location.

    It reports and never raises.  A record of the wrong shape is reported
    under its field: a tower, a level or a factor without its fields, a
    level or factor list that is not a sequence, a base generator that is
    not a (name, degree) pair, and a series without a rational function's
    attributes.  A twist vector must be a sequence of ints, tested as
    ``type(sum(twists)) is int``, so a bool counts as the int it is.  A
    name that is not a string is reported and left out of the uniqueness
    tests, which would hash it.
    """
    try:
        k = len(spec.levels)
    except (AttributeError, TypeError):
        return [Violation(None, "levels", "levels must be a sequence of TowerLevels")]
    out: list[Violation] = []
    declared_bases = set()
    try:
        bases = iter(spec.base_generators)
    except TypeError:
        out.append(Violation(None, "base_generators", "base_generators must be a sequence"))
        bases = ()
    for entry in bases:
        try:
            name, degree = entry
        except (TypeError, ValueError):
            problem = f"entry {entry!r} must be a (name, degree) pair"
            out.append(Violation(None, "base_generators", problem))
            continue
        if isinstance(name, str):
            if name in declared_bases:
                out.append(Violation(None, "base_generators", f"duplicate generator {name!r}"))
            declared_bases.add(name)
        if problem := _name_problem(name):
            out.append(Violation(None, "base_generators", problem))
        if not _is_int(degree) or degree <= 0:
            out.append(
                Violation(None, "base_generators", f"generator {name!r} needs a positive degree")
            )

    seen_names = set(declared_bases)
    for name in sorted(n for n in declared_bases if _is_reserved(n, k)):
        out.append(Violation(None, "base_generators", f"name {name!r} is reserved"))

    for level, lvl in enumerate(spec.levels, 1):
        try:
            factors = enumerate(lvl.factors)
        except (AttributeError, TypeError):
            out.append(Violation(level, "factors", "factors must be a sequence of TowerFactors"))
            factors = ()
        else:
            if not lvl.factors:
                out.append(Violation(level, "factors", "factor list must be nonempty"))
        for fpos, factor in factors:
            try:
                twists = factor.twists
                count, total = len(twists), sum(twists)
            except AttributeError:
                out.append(Violation(level, f"factors[{fpos}]", "factor must be a TowerFactor"))
                continue
            except TypeError:
                count = total = None
            if type(total) is not int or count != level - 1:
                problem = (
                    f"twist vector must have length {level - 1}, got {count}"
                    if type(total) is int
                    else f"twists must be a sequence of integers, got {twists!r}"
                )
                out.append(Violation(level, f"factors[{fpos}].m", problem))
            try:
                base_names = factor.series.base_names
            except AttributeError:
                out.append(
                    Violation(level, f"factors[{fpos}].q", "series must be a RationalFunction1V")
                )
                continue
            if not base_names <= declared_bases:
                out += [
                    Violation(
                        level,
                        f"factors[{fpos}].q",
                        f"base variable {name!r} is not declared in base_generators",
                    )
                    for name in sorted(base_names - declared_bases)
                ]
        try:
            aux = enumerate(lvl.aux)
        except (AttributeError, TypeError):
            out.append(Violation(level, "aux", "aux must be a sequence of names"))
            continue
        for apos, name in aux:
            if problem := _name_problem(name):
                out.append(Violation(level, f"aux[{apos}]", problem))
            if not isinstance(name, str):
                continue
            if name in seen_names or _is_reserved(name, k):
                out.append(Violation(level, f"aux[{apos}]", f"name {name!r} is not unique"))
            seen_names.add(name)
    return out


def validate_tower(spec: TowerSpec) -> None:
    """Raise ``InvalidTowerError`` listing every invariant breach, if any."""
    violations = tower_violations(spec)
    if violations:
        raise InvalidTowerError(violations)


def _check_exponents(name: str, values: Sequence[int], n: int) -> tuple[int, ...]:
    """``values`` as a tuple of ``n`` non-negative ints (``_check_int``);
    errors start with ``name``."""
    exps = tuple(values)
    if len(exps) != n:
        raise ValueError(f"{name}: expected {n} entries, got {len(exps)}")
    for a in exps:
        _check_int(name, a, 0)
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
    for all t <= a; ``aux_orders`` does the same per auxiliary variable and
    holds (name, order) pairs sorted by name.

    Let lead_i be the sum of level i's positive factor leading degrees,
    aux_i the sum of its auxiliary orders, and
    reach_j = sum over i >= j of (lead_i + a_i + 1 + aux_i).  Level j's cap
    is ``shift_caps[j-1] = reach_j``, and ``degree_cap`` is the largest cap,
    reach_1.  The caps are a proven bound on the degrees of c_j that the
    stepwise push meets, and no route reads them: pushing level i down
    replaces c_i^g by a coefficient of total c-degree at most g + lead_i + 1,
    and level i's blocks add at most a_i + aux_i.  So the degree of c_j met
    at level j is at most a_j + aux_j + reach_{j+1} = reach_j - lead_j - 1,
    below level j's cap.

    No expansion reads the caps either.  ``_level_product`` stops each
    factor's expansion and shift at its source floor, floor - U + own, own
    the factor's leading exponent and U the sum of every multiplier's top
    (its docstring has the proof), and a cap would stop them at own - cap,
    never higher.  Each own is at most its factor's positive leading degree.
    Take level i of the closed route, whose step has the floor -a_i-1 and
    U <= lead_i + aux_i + M, M the running product's top exponent of u_i,
    its last multiplier:

    * The running product holds the levels above i, each already in its
      window, so every u_j with j > i has exponent >= -a_j-1.
    * A u_j with j <= i enters it only through a shift, to a power >= 0.
    * A factor's term adds at most its up to the total tower degree, since
      a shift only moves degree between levels, and an auxiliary term adds
      at most its order.

    So a term's u_i exponent is at most its total degree plus the sum of
    a_j + 1 over j > i, and M <= reach_{i+1}.  Hence
    -a_i-1 - U + own >= own - reach_i = own - cap.  Level j's series on
    the stepwise route has the floor -gamma-1 with gamma <= reach_j - lead_j
    - 1 and no extras, so U <= lead_j and its source floors are at or above
    own - reach_j as well.
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
        """The request for ``spec``'s window at these orders.  The route it
        is given to validates ``spec``; a read that fails here does, so a
        record of the wrong shape is refused under its field."""
        try:
            k = spec.k
            orders = _check_exponents("tower_orders", tower_orders, k)
            aux_map = _aux_exponents(spec, aux_orders, "aux_orders")
            steps = [
                sum(map(_lead_plus, lvl.factors)) + a + 1 + sum(aux_map[name] for name in lvl.aux)
                for lvl, a in zip(spec.levels, orders)
            ]
        except (AttributeError, TypeError):
            validate_tower(spec)
            raise
        return cls(
            tower_orders=orders,
            aux_orders=tuple(sorted(aux_map.items())),
            shift_caps=tuple(sum(steps[j:]) for j in range(k)),
        )


def _window_ranges(spec: TowerSpec, req: TruncationRequest) -> dict[VariableId, tuple[int, int]]:
    """The walks' input for the window ``req`` asks of ``spec``: the range
    (0, a) for each tower and auxiliary variable of order a.

    ``spec`` is validated first, then a ``req`` is refused unless it has
    one tower order per level and one auxiliary order per auxiliary name of
    ``spec``.  Only the shape is checked: no walk reads a cap, so a request
    of that shape derived for another tower gives this tower's window.
    """
    validate_tower(spec)
    names = sorted(v.name for v in spec.aux_variables())
    got = [name for name, _ in req.aux_orders]
    if len(req.tower_orders) != spec.k or got != names:
        raise ValueError(
            f"req: derived for {len(req.tower_orders)} levels and auxiliary variables "
            f"{got}, but the tower has {spec.k} levels and auxiliary variables {names}"
        )
    aux, aux_vars = dict(req.aux_orders), spec.aux_variables()
    orders = (*req.tower_orders, *(aux[x.name] for x in aux_vars))
    return {x: (0, a) for x, a in zip(spec.tower_variables() + aux_vars, orders)}


def _expansion(
    memo: dict, series: RationalFunction1V, twists: tuple[tuple[int, int], ...], low: int
) -> tuple[dict[int, dict[int, int]], int, int]:
    """``series`` expanded down to ``low`` and shifted by the linear form of
    the (unit key, twist) pairs ``twists``, sliced by the pivot.

    ``memo`` is kept for one walk down a tower: one call of ``_closed``,
    ``_push_down``, ``_dual_push`` or ``individual_segre``.  It maps
    (``id(series)``, ``twists``, ``low``) to the expansion formed for that
    floor, while the tower keeps every series alive, so an entry is handed
    back only to a call that would form it again: a walk's results and
    refusals are those of the same tower with a fresh series per factor.
    The entry with no twists is the unshifted expansion, so factors that
    share a series share its long division at each floor.
    """
    key = id(series), twists, low
    expanded = memo.get(key)
    if expanded is None:
        if twists:
            expanded = _shifted(_expansion(memo, series, (), low), twists, low)
        else:
            expanded = _descending(series, low)
        memo[key] = expanded
    return expanded


def _level_product(
    factors: Sequence[TowerFactor], lower: Callable[[int], VariableId], memo: dict,
    floor: int, ceiling: int, series: Sequence[tuple[VariableId, int, int]] = (),
    extras: Sequence[tuple[dict[int, dict[int, int]], int, int]] = (),
) -> tuple[dict[int, dict[int, int]], int, int]:
    """The product of a level's shifted ``factors``, then the geometric
    ``series``, then ``extras``, keeping the terms whose pivot exponent lies
    in ``floor..ceiling``.

    The pivot is the level's variable: u_i on the closed route, the
    reserved ``PIVOT`` for a level's own series (a call with no extras),
    c_j for a stepwise step, which has no factors.  Each (x, low, high) of
    ``series`` stands for sum_n pivot^n x^(-n-1), n in low..high
    (``series._geometric``), and each extra comes sliced by the pivot's
    exponent, so this function never names the pivot.  Every level step of
    ``_closed`` and ``_push_down`` is one call whose last extra is the
    running state.

    The product is held as slices, {pivot exponent: {key of the rest:
    numerator}} over one denominator (``series._product``), from the factor
    expansions to the return value.  A factor's expansion is sliced by the
    pivot as it is formed (``series._descending``), and its shift by the
    twisted sum of the lower variables ``lower(j)`` goes straight from the
    twist vector into slices (``series._shifted``).  Both stop at the source
    floor below and nowhere else.  The denominator is reduced once, by
    whoever unpacks the slices.  The product's bound, the sum of every
    multiplier's, is refused before any product slice is formed.

    Each multiplier has a top and a lowest exponent, the highest and lowest
    pivot exponents it can hold: a factor's top is its series'
    ``leading_exponent``, since a shift never raises the pivot's exponent
    (``shift_expand``), and its lowest is its expansion's; a geometric
    series' are its high and its low, an extra's its highest and lowest
    slices.  No slice outside the window is formed, and none that could
    only form slices outside it.  A product slice at e is a sum of products
    of one slice of each multiplier whose exponents sum to e, so the bounds
    below, proved for single terms, hold for whole slices:

    * Floor.  Let U be the sum of all the tops.  A slice of multiplier f at
      exponent e forms only slices at or below e + U - top_f, so one below
      floor - U + top_f never reaches ``floor``: a factor's expansion, and
      its shift with its ``low``, stop there.  Likewise a partial product's
      slice below ``floor`` minus the tops still to come never reaches
      ``floor``.  When U is below ``floor`` no slice reaches it, and the
      product is empty before any factor is expanded; so it is when a
      factor's numerator is zero, which has no leading exponent, or an
      extra is empty.  Past these entry checks a factor's source floor is
      at most top_f, so its expansion, shifted or not, keeps a slice at
      top_f, and an empty partial product stays empty.
    * Ceiling.  Let L be the sum of all the lowest exponents.  A slice of
      multiplier f at e forms only slices at or above e + L - lowest_f, and
      a partial product's slice above ``ceiling`` minus the lowest
      exponents still to come forms only slices above ``ceiling``.

    So a geometric series is formed only at the powers from
    max(low, floor - U + high) to min(high, ceiling - L + low), once the
    factors are expanded, and an empty cut leaves the product empty.  Each
    product pairs only the slices whose exponents sum between the two
    bounds, so the result is the full product filtered to the window.

    Each factor's shifted expansion comes from ``memo`` (``_expansion``),
    which the caller keeps for one walk over the levels and drops after it,
    and which hands an expansion back only at the floor it was formed for.
    A flag tower's levels share two series objects, and the linear factor
    twisted by level m's variable recurs on every level above m, so a walk
    whose levels meet it at one floor, as a window at equal orders does,
    forms O(k) factor expansions, not O(k**2).
    """
    tops = [factor.series.leading_exponent for factor in factors]
    if None in tops or not all(parts for parts, _, _ in extras):
        return {}, 1, 0
    tops += [high for _, _, high in series] + [max(parts) for parts, _, _ in extras]
    slack = floor - sum(tops)
    if slack > 0:
        return {}, 1, 0
    multipliers = [
        _expansion(
            memo, factor.series,
            tuple((_unit(lower(j)), t) for j, t in enumerate(factor.twists, 1) if t), slack + own,
        )
        for factor, own in zip(factors, tops)
    ]
    lows = [min(parts) for parts, _, _ in multipliers]
    lows += [low for _, low, _ in series] + [min(parts) for parts, _, _ in extras]
    up, down = sum(tops), sum(lows)
    cuts = [(max(lo, floor - up + hi), min(hi, ceiling - down + lo)) for _, lo, hi in series]
    if any(lo > hi for lo, hi in cuts):
        return {}, 1, 0
    multipliers += [_geometric(x, *cut) for (x, _, _), cut in zip(series, cuts)] + [*extras]
    _checked(sum(bound for _, _, bound in multipliers))
    product = {0: {0: 1}}, 1, 0
    for multiplier, top, least in zip(multipliers, tops, lows):
        up -= top
        down -= least
        product = _product(product, multiplier, floor - up, ceiling - down)
    return product


def individual_segre(spec: TowerSpec, level: int, min_exponent: int) -> LaurentPoly:
    """Segre series of the single step at ``level``.

    Returns the shifted-factor product as a Laurent polynomial in the
    reserved pivot and the tautological variables c_1..c_{level-1}; pivot
    exponents >= min_exponent are exact.  No shift raises the pivot's
    exponent, so none exceeds the sum of the factors' ``_lead_plus``.
    ``level`` must be an int in 1..k and ``min_exponent`` an int; each is
    refused under its name (``_check_int``) after the tower is validated.
    """
    validate_tower(spec)
    _check_int("level", level, 1, spec.k)
    _check_int("min_exponent", min_exponent)
    factors = spec.levels[level - 1].factors
    top = sum(map(_lead_plus, factors))
    return _unsliced(_level_product(factors, taut_variable, {}, min_exponent, top), PIVOT)


def closed_formula_segre(spec: TowerSpec, req: TruncationRequest) -> LaurentPoly:
    """Tower Segre series by the closed formula, restricted to the window:
    the closed walk (``_closed``) on ``req``'s ranges (``_window_ranges``,
    which refuses a ``req`` of another shape than ``spec``)."""
    return _closed(spec, _window_ranges(spec, req))


def _closed(spec: TowerSpec, ranges: Mapping[VariableId, tuple[int, int]]) -> LaurentPoly:
    """The closed formula's product, each tower and auxiliary variable x of
    ``spec`` kept to x^(-g-1) for g in the range (low, high) ``ranges`` maps
    it to: a window at ranges from 0 (``closed_formula_segre``), a point's
    term at ranges of one.

    The levels are taken from the top.  Each level step is one
    ``_level_product`` on [-high-1, -low-1] of u_i: level i's shifted
    factors, its auxiliary series and, last, the running product of the
    levels above, sliced by u_i.  Every returned coefficient is exact, and
    the pruned product already is the result, so no projection follows it:
    the step keeps the exponent of u_i in its range, and the lower levels,
    whose twists involve only u_1..u_{i-1}, never shift u_i again.  An
    auxiliary variable enters only through its geometric series.

    The running product holds u_i only through shifts, at exponents m..M,
    so the floor and ceiling rules keep the factors and auxiliary series to
    [-high-1-M, -low-1-m] before it meets them: each factor's expansion
    stops at its source floor -high-1 - U + own, with M in U
    (``TruncationRequest`` shows that no cap would stop it sooner), and an
    auxiliary series is formed only at the powers of u_i it keeps.  An empty
    running product is an empty extra: the levels below expand nothing and
    form no series.  The caller validates ``spec``.
    """
    result = LaurentPoly.one()
    memo: dict = {}
    for i in range(spec.k, 0, -1):
        lvl = spec.levels[i - 1]
        u_i = tower_variable(i)
        low, high = ranges[u_i]
        # The only source of each auxiliary variable.
        aux = [(x, *ranges[x]) for x in (aux_variable(n, i) for n in lvl.aux)]
        running = [_sliced(result, u_i)]
        level = _level_product(lvl.factors, tower_variable, memo, -high - 1, -low - 1, aux, running)
        result = _unsliced(level, u_i)
    return result


#: Only a second name for ``closed_formula_segre``: the benchmark tracer
#: (``benchmarks/spans.py``) patches ``closed_formula_product`` by name.
closed_formula_product = closed_formula_segre


def _push_down(spec: TowerSpec, ranges: Mapping[VariableId, tuple[int, int]]) -> LaurentPoly:
    """Multiply in level j's block and push c_j down, for each level j from
    the top.  ``ranges`` maps each tower and auxiliary variable x of
    ``spec`` to a range (low, high) of powers, and level j's block is the
    product of sum_g c_j^g x^(-g-1), g in low..high, over u_j and the
    auxiliary variables of level j.  They are the closed walk's input
    (``_closed``): a window's ranges start at 0 (``stepwise_pushforward``,
    through ``_window_ranges``); a point's are ranges of one, so its block
    is one term (``pushforward_monomial``).

    Each c_j^g becomes the coefficient of pivot^(-g-1) in the level's own
    Segre series, a ``_level_product`` of its factors in the pivot; it
    holds only lower c's and base variables, so the exponents a block sets
    never change.  The state is sliced by c_j and the level series by the
    pivot, so that coefficient is the series' slice at -g-1, read with no
    key decoded, and a state slice at s and a block power g meet the series
    only at -(s+g)-1.  So the step is one ``_level_product`` on [-1, -1]
    with no factors, over the geometric series, the level series and the
    state, in that order: its slice at -1 is the next state, and no
    ``state * block`` is formed.  Its floor and ceiling rules pair the
    block with the series only where g plus the series' exponent is -1
    minus some state exponent.

    The series is expanded down to -1 minus the state's top slice and the
    highs, a floor read from the state and the ranges and from no cap, and
    up to -1 minus the state's lowest slice and the lows.  So the step's
    tops never sum below -1 nor its lows above it, no cut is empty, and its
    bound is refused before any pair is formed, even when no pair lands at
    -1.  The caller validates ``spec``.
    """
    state = LaurentPoly.one()
    memo: dict = {}
    for j in range(spec.k, 0, -1):
        if state.is_zero():
            break
        c_j = taut_variable(j)
        lvl = spec.levels[j - 1]
        sliced = _sliced(state, c_j)
        own = [(x, *ranges[x]) for x in (tower_variable(j), *(aux_variable(n, j) for n in lvl.aux))]
        low = sum(lo for _, lo, _ in own)
        high = sum(hi for _, _, hi in own)
        top, least = max(sliced[0]), min(sliced[0])
        series = _level_product(
            lvl.factors, taut_variable, memo, -(top + high) - 1, -least - low - 1
        )
        pushed, den, bound = _level_product((), taut_variable, memo, -1, -1, own, [series, sliced])
        state = LaurentPoly._wrap(pushed.get(-1, {}), den, bound)
    return state


def stepwise_pushforward(spec: TowerSpec, req: TruncationRequest) -> LaurentPoly:
    """Tower Segre series by explicit level-by-level push-forward.

    Level j's block is the truncated generating series of its tautological
    powers, sum_g c_j^g u_j^(-g-1) for g in 0..a_j, times the same for each
    auxiliary variable, and ``_push_down`` replaces every power of c_j by
    the matching descending coefficient of the level's own Segre series.
    Each step is one level product in c_j (``_level_product``) that forms
    the block only at the powers of c_j that series can meet, which drops
    only terms the push would pair with no slice.  No closed-form resummation is used, so
    this serves as an independent oracle for ``closed_formula_segre``.

    Multiplying level j's block in only when c_j is pushed gives the same
    terms as starting from the product of all blocks: the push at level i
    changes only c_i and is linear over everything free of c_i, and the
    blocks of levels below i hold no c_i.  So the slices by c_i come out
    the same.

    The result is the window with no projection applied: the blocks set
    every u_i exponent to [-a_i-1, -1] and every auxiliary exponent to
    [-b-1, -1], and the level series multiplied in afterwards involve only
    the pivot and the tautological variables c_j.

    The push reads ``req``'s orders as the ranges (0, a) and no cap
    (``_window_ranges``, which refuses a ``req`` of another shape than
    ``spec``).
    """
    return _push_down(spec, _window_ranges(spec, req))


def pushforward_monomial(
    spec: TowerSpec,
    tower_exponents: Sequence[int],
    aux_exponents: Mapping[str, int] | None = None,
) -> LaurentPoly:
    """Push-forward of a tautological monomial, as a polynomial in base variables.

    ``tower_exponents`` gives the power a_j of each level's tautological
    class; ``aux_exponents`` gives the power b of each extra copy carried by
    an auxiliary variable v.  The value is the coefficient of
    prod u_j^(-a_j-1) prod v^(-b-1) in ``stepwise_pushforward``'s window at
    the orders a_j and b.  Only the power g = a_j of sum_g c_j^g u_j^(-g-1)
    reaches u_j^(-a_j-1), and only g = b of the series in v reaches
    v^(-b-1), and no later level moves a u_j or v exponent.  So a point is
    a range of one: the window's push on the ranges (a_j, a_j) and (b, b)
    (``_push_down``).  Every term of that push is the target monomial times
    a term of the value, so the value is the push with the target's key
    taken from each key.

    A flag-type tower whose levels share one F with one-term numerators
    (``_flag_type_levels``) takes its value as the dual Jacobi-Trudi
    determinant (``_dual_push``); every other tower takes the push.  A
    level's auxiliary exponents only add to its power of c_i there, since
    each extra copy of c_i is pushed as c_i is.  The tower is validated
    first, before any of it is read.
    """
    validate_tower(spec)
    exps = _check_exponents("tower_exponents", tower_exponents, spec.k)
    aux = _aux_exponents(spec, aux_exponents, "aux_exponents")
    factors = _flag_type_levels(spec)
    if factors is not None:
        power = [a + sum(aux[name] for name in lvl.aux) for a, lvl in zip(exps, spec.levels)]
        return _dual_push(factors, power)
    over = spec.tower_variables() + spec.aux_variables()
    powers = (*exps, *aux.values())
    target = _pack(Monomial(zip(over, [-e - 1 for e in powers])))[0]
    pushed = _push_down(spec, {x: (e, e) for x, e in zip(over, powers)})
    return LaurentPoly._wrap(
        {key - target: num for key, num in pushed._terms.items()}, pushed._den, pushed._bound
    )


def _dual_push(factors: Sequence[TowerFactor], power: Sequence[int]) -> LaurentPoly:
    """``pushforward_monomial`` of prod_i c_i^p_i, p_i = ``power[i-1]``, on
    a flag-type tower of k >= 1 levels, k = ``len(power)``, whose every
    level's untwisted factors are ``factors``, each numerator one term
    (``_flag_type_levels``), by the dual Jacobi-Trudi determinant.

    The value is the coefficient of prod_i u_i^(-p_i-1) in the closed
    product of the tower without its auxiliary variables, since a level's
    auxiliary exponents only add to its power of c_i
    (``pushforward_monomial``).  Level i's shifted factors are F(u_i) and
    u_i - u_m for each m < i, so that product is V(u) * prod_i F(u_i),
    with V = prod_(m<i) (u_i - u_m) = det(u_i^(j-1)).  By Leibniz the
    coefficient is the sum over permutations s of sign(s) times
    prod_i [u^(-p_i-s(i))] F, which is det M, M_(i,j) = [u^(-p_i-j)] F for
    i, j in 1..k (Macdonald, *Symmetric Functions and Hall Polynomials*,
    I.3).

    Let F, the product of ``factors``, be c * u^(-n) * A(1/u), with
    A(t) = sum_m a_m t^m and a_0 = 1, so n is minus F's leading exponent and
    c its leading coefficient, one term.  Then M_(i,j) = c * a_(p_i+j-n).
    Sort p into increasing q and reverse the rows, which multiplies det M by
    the sorting sign times (-1)^(k(k-1)/2): the rows become those of the
    Jacobi-Trudi matrix c * a_(lambda_i-i+j), lambda_i = q_(k+1-i) - n + i.
    Two equal entries of p give two equal rows, and lambda_k < 0 a zero
    last row, so either gives 0.  Otherwise lambda is a partition, and
    det(a_(lambda_i-i+j)) = det(b_(lambda'_i-i+j)) over i, j in
    1..lambda_1, with lambda' the conjugate partition and
    B(t) = sum_m b_m t^m = 1/A(-t).  With a_m the complete symmetric
    functions h_m, the b_m are the elementary e_m and both sides are the
    Schur function s_lambda (the involution omega); the h_m are
    algebraically independent, so the identity holds for every sequence
    with a_0 = 1 (Macdonald, I.2-I.3).

    1/F is the product of the swapped factors, each its denominator over
    its numerator of one term, so a Laurent polynomial whose expansion
    (``_level_product``) is finite.  Its coefficient of u^(n-m) is
    (-1)^m * b_m / c, and the entries read are those with odd m negated.
    Each of the lambda_1 rows holds 1/c where the dual matrix holds 1, so
    the value is the sign times c^(k+lambda_1) (``series._leading_power``,
    from the factors' leading terms) times the determinant of the entries
    read (``_determinant``).  That scale times the determinant is one
    product, made for every value not found 0 at once; a permutation of
    1..k on the flag tower gives the empty partition, reads no entry, and
    its determinant is 1.

    The size lambda_1 = max p - n + 1 grows with max p without bound, so
    it is weighed before any row is formed.  Row 1 reads b_m only for m >=
    lambda'_1, at most k: when 1/F has no term that deep, the row is zero
    and the value 0 at once (``flag_tower(1)`` at p = 2**31 - 2, lambda_1 =
    2**31 - 3, has 1/F = u^2 and gives 0 in O(k) steps).  Otherwise the
    determinant multiplies lambda_1 entries, and that many times the
    expansion's bound is refused (``series._checked``).  Row i reads b_m
    only for m in 0..top, top 1/F's deepest index, so its nonzero entries
    lie in columns i - lambda'_i .. i - lambda'_i + top: the matrix is
    banded, its lowest columns never fall, and ``_determinant`` keeps only
    the partial sums the later rows can complete.  A flag bundle's b_m are
    its Chern classes, single terms that vanish above the rank, where its
    a_m are dense complete symmetric polynomials.
    """
    k = len(power)
    n = -sum(factor.series.leading_exponent for factor in factors)
    order = sorted(range(k), key=power.__getitem__)
    q = [power[i] for i in order]
    lam = [q[k - i] - n + i for i in range(1, k + 1)]
    if any(a == b for a, b in zip(q, q[1:])) or lam[-1] < 0:
        return LaurentPoly()
    size = lam[0]
    rows = []
    if size:
        # Row 1 reads b_m, at u^(n-m), for m from lambda'_1 to
        # lambda'_1 + lambda_1 - 1, and no later row reads a larger m.
        first = sum(part > 0 for part in lam)
        swapped = [
            factor._replace(
                series=RationalFunction1V(factor.series.denominator, factor.series.numerator)
            )
            for factor in factors
        ]
        parts, den, bound = _level_product(
            swapped, taut_variable, {}, n - first - size + 1, n
        )
        if n - min(parts) < first:
            return LaurentPoly()
        _checked(size * bound)
        entries = {}
        for e, part in parts.items():
            entry = LaurentPoly._wrap(part, den, bound)
            entries[n - e] = -entry if (n - e) % 2 else entry
        for i in range(size):
            shift = i - sum(part > i for part in lam)
            rows.append([(m + shift, entries[m]) for m in entries if 0 <= m + shift < size])
    scale = _leading_power([factor.series for factor in factors], k + size)
    if (_inversions(order) + k * (k - 1) // 2) % 2:
        scale = -scale
    return scale * _determinant(rows)


def _inversions(order: Sequence[int]) -> int:
    """The number of pairs that ``order`` puts out of increasing order."""
    return sum(starmap(gt, combinations(order, 2)))


def _determinant(rows: Sequence[Sequence[tuple[int, LaurentPoly]]]) -> LaurentPoly:
    """The determinant of the square matrix whose row t has the nonzero
    entries ``rows[t]``, (column, entry) pairs with columns from 0.

    It is expanded row by row, with one partial sum per set of used
    columns: choosing column j multiplies a partial sum by the entry and by
    the parity of the used columns after j, which counts the inversions the
    choice adds.  A zero partial sum is never carried, so rows with one
    nonzero entry each keep one partial sum.

    After row t, a set of used columns that leaves a column unused below
    the lowest column of every later row (below the size after the last
    row) is dropped before its sum is formed.  Only a later row adds a
    column to the set, one of its own entries', and each of those is at or
    above that lowest column, so the unused column stays unused and the set
    never becomes the full column set, the only one the determinant reads.
    The dropped sums are therefore exactly ones that cannot reach the
    result.
    """
    needs = []
    low = len(rows)
    for row in reversed(rows):
        needs.append((1 << low) - 1)
        low = min([low, *(j for j, _ in row)])
    partial = {0: LaurentPoly.one()}
    for row, need in zip(rows, reversed(needs)):
        sums: dict[int, LaurentPoly] = {}
        for used, value in partial.items():
            for j, entry in row:
                key = used | 1 << j
                if used >> j & 1 or key & need != need:
                    continue
                term = value * entry
                if (used >> j).bit_count() % 2:
                    term = -term
                sums[key] = sums[key] + term if key in sums else term
        partial = {used: value for used, value in sums.items() if value}
    return partial.get((1 << len(rows)) - 1, LaurentPoly())


def _flag_type_levels(spec: TowerSpec) -> list[TowerFactor] | None:
    """The untwisted factors that every level of ``spec`` shares, if level i
    is F(u) * prod_(m<i) (u - c_m) for every i, with one F whose factors'
    numerators have one term each; else None.

    So each level's factors are one factor u with twist -1 in slot m, and
    zero elsewhere, for each lower level m, and any number of untwisted
    factors, whose product is F; the factors returned are level 1's.
    ``flag_tower``, flag bundles and partial flags qualify; a tower without
    levels, whose push is 1, does not.  A linear factor counts only with the
    series u / 1 as its two sides, and levels share F only when their
    untwisted factors' series are equal in order, each pair tested by
    identity and then ``==``.  A tower that fails any test, an equal series
    written otherwise included, takes the generic push, which is always
    exact.
    """
    u, one = LaurentPoly.variable(PIVOT), LaurentPoly.one()
    linear = None  # the last series found to be u / 1
    shared = None
    for lower, level in enumerate(spec.levels):
        slots, untwisted = [], []
        for factor in level.factors:
            twists = factor.twists
            zeros = twists.count(0)
            if zeros == lower:
                untwisted.append(factor)
                continue
            if zeros != lower - 1 or -1 not in twists:
                return None
            series = factor.series
            if series is not linear:
                if series.numerator != u or series.denominator != one:
                    return None
                linear = series
            slots.append(twists.index(-1))
        if sorted(slots) != list(range(lower)):
            return None
        if shared is None:
            if any(len(factor.series.numerator) != 1 for factor in untwisted):
                return None
            shared = untwisted
        # List equality tests each pair by identity, then by ``==``.
        elif [f.series for f in untwisted] != [f.series for f in shared]:
            return None
    return shared


def random_tower_spec(rng: random.Random, max_k: int = 3) -> TowerSpec:
    """A random tower for cross-validation sweeps.

    Each level has 1 to 3 factors and 0 to 2 auxiliary variables.  Twists
    lie in [-2, 2], numerator/denominator supports within [-3, 3], and every
    coefficient is a small exact rational.  Coefficients stay rational (no base
    generators) so each generated tower serializes through the file format.
    """
    k = rng.randint(1, _check_int("max_k", max_k, 1, sys.maxsize))
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
    import fractions

    num = rng.choice([n for n in range(-3, 4) if n])
    return fractions.Fraction(num, rng.randint(1, 3))
