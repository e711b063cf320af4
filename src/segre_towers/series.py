"""Exact sparse Laurent-polynomial kernel.

Everything here is immutable and exact.  Series are finite Laurent
polynomials, so every expansion primitive takes an explicit truncation
argument and documents which part of its output is exact.  There is no
floating point anywhere.

``VariableId`` and ``Monomial`` (canonical tuples) are the public form of a
term; inside a ``LaurentPoly`` a term is two ints.  Its monomial is packed
into one key by signed Kronecker substitution: each variable owns a slot,
given out on first use by one module-wide table, and the key is the sum of
e_v * 2**(W*slot(v)) with W = 32.  Multiplying monomials is adding keys, and
a key hashes and compares as one int.  The coefficients are integer
numerators over one positive denominator per polynomial, kept in lowest
terms: the gcd of the denominator and all the numerators is 1, so equal
polynomials have equal representations and a product's coefficient is one
int product.

A slot holds exponents e with |e| < 2**(W-1).  In that range a key decodes
exactly: the slots below slot s sum to less than half of 2**(W*s) in
absolute value, whatever their signs, so rounding key / 2**(W*s) to the
nearest int leaves the slots from s up, and their lowest W bits, read as a
signed number, are e_s.  A key is never formed from an exponent outside
the range.  Every polynomial carries a bound on the absolute values of its
exponents: the largest one it was built from, the sum of its factors'
bounds for a product, the larger bound for a sum, and its parent's for any
part of it.  A constructor or operation whose bound would leave the range
raises ``ExponentOverflowError`` before it forms a key, so no exponent ever
carries into its neighbour's slot.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from operator import index, itemgetter

_KINDS = ("tower", "aux", "taut", "base")

_ZERO = Fraction(0)

#: Bits per slot of a packed key; a slot holds exponents in (-_HALF, _HALF).
_W = 32
_HALF = 1 << (_W - 1)
_MASK = (1 << _W) - 1


def _accumulate(data: dict, items) -> dict:
    """Add each (key, value) of ``items`` into ``data``, dropping zero sums."""
    get = data.get
    for key, value in items:
        old = get(key)
        if old is None:
            if value:
                data[key] = value
        else:
            total = old + value
            if total:
                data[key] = total
            else:
                del data[key]
    return data


class VariableId(tuple):
    """A formal variable: the tuple ``(kind, level, name)``.

    ``kind`` distinguishes tower variables (one per level of a tower),
    auxiliary variables attached to a level, tautological-class variables
    (used internally by the stepwise push-forward), and generators of the
    base coefficient ring.  ``level`` is 0 for base variables and for the
    reserved expansion pivot.  Order, equality and hashing are the tuple's,
    so variables are totally ordered by (kind, level, name).
    """

    __slots__ = ()

    def __new__(cls, name: str, kind: str, level: int = 0) -> "VariableId":
        if kind not in _KINDS:
            raise ValueError(f"unknown variable kind: {kind!r}")
        return tuple.__new__(cls, (kind, level, name))

    def __getnewargs__(self) -> tuple[str, str, int]:
        return self.name, self.kind, self.level

    kind = property(itemgetter(0))
    level = property(itemgetter(1))
    name = property(itemgetter(2))

    def __repr__(self) -> str:
        return f"VariableId({self.name!r}, {self.kind!r}, level={self.level})"

    def __str__(self) -> str:
        return self.name


#: The one variable of every ``RationalFunction1V``.
PIVOT = VariableId("u", "tower", 0)


class Monomial(tuple):
    """A Laurent monomial: the tuple of its sorted ``(VariableId, exponent)`` entries.

    The constructor merges repeated variables, drops zero exponents, sorts,
    and refuses non-integer exponents.  Equality, hashing and the term order
    of ``LaurentPoly.terms`` are the tuple's.  ``+`` and ``n * m`` would
    build non-canonical tuples, so they raise ``TypeError``.  The monomial 1
    is the empty, false tuple: test it with ``is_one()``.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[tuple[VariableId, int]] = ()) -> "Monomial":
        merged = _accumulate({}, ((var, index(exp)) for var, exp in entries))
        return tuple.__new__(cls, sorted(merged.items()))

    @classmethod
    def of(cls, var: VariableId, exp: int = 1) -> "Monomial":
        return cls(((var, exp),))

    def exponent(self, var: VariableId) -> int:
        for v, e in self:
            if v == var:
                return e
        return 0

    def variables(self) -> tuple[VariableId, ...]:
        return tuple(v for v, _ in self)

    def is_one(self) -> bool:
        return not self

    def without(self, variables: frozenset[VariableId] | set[VariableId]) -> "Monomial":
        return Monomial((v, e) for v, e in self if v not in variables)

    def rename(self, mapping: Mapping[VariableId, VariableId]) -> "Monomial":
        return Monomial((mapping.get(v, v), e) for v, e in self)

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        return Monomial((*self, *other))

    __add__ = __rmul__ = None

    def __pow__(self, n: int) -> "Monomial":
        return Monomial((v, e * n) for v, e in self)

    def __repr__(self) -> str:
        return f"Monomial({list(self)!r})"

    def __str__(self) -> str:
        if not self:
            return "1"
        return "*".join(v.name if e == 1 else f"{v.name}^{e}" for v, e in self)


class ExponentOverflowError(ValueError):
    """An exponent, or a bound on a result's exponents, does not fit a slot."""


# -- packed keys ----------------------------------------------------------------

_SLOTS: dict[VariableId, int] = {}
_VARS: list[VariableId] = []


def _slot(var: VariableId) -> int:
    slot = _SLOTS.get(var)
    if slot is None:
        # ``append``, ``index`` and ``setdefault`` are atomic, so concurrent
        # first uses of one variable agree on its first position.
        _VARS.append(var)
        slot = _SLOTS.setdefault(var, _VARS.index(var))
    return slot


def _checked(bound: int) -> int:
    """``bound`` if exponents of that size fit a slot, else refuse it."""
    if bound >= _HALF:
        raise ExponentOverflowError(
            f"exponents up to {bound} do not fit a packed monomial (at most {_HALF - 1})"
        )
    return bound


def _pack(mono: Monomial) -> tuple[int, int]:
    """The key of ``mono`` and the largest absolute value of its exponents."""
    key = bound = 0
    for var, exp in mono:
        if abs(exp) >= _HALF:
            raise ExponentOverflowError(
                f"the exponent of {var.name} does not fit a packed monomial "
                f"(at most {_HALF - 1} in absolute value)"
            )
        key += exp << (_W * _slot(var))
        bound = max(bound, abs(exp))
    return key, bound


def _lookup_key(mono: Monomial) -> int | None:
    """The key of ``mono``, or None when no polynomial can hold it."""
    if any(abs(exp) >= _HALF for _, exp in mono):
        return None
    return _pack(mono)[0]


def _decode(key: int) -> list[tuple[int, int]]:
    """The (slot, exponent) pairs of a key, lowest slot first."""
    out = []
    slot = 0
    while key:
        # Skip to the slot of the lowest set bit: the slots below are empty.
        empty = ((key & -key).bit_length() - 1) // _W
        key >>= _W * empty
        slot += empty
        exp = ((key + _HALF) & _MASK) - _HALF
        out.append((slot, exp))
        key = (key - exp) >> _W
        slot += 1
    return out


def _monomial(key: int) -> Monomial:
    return tuple.__new__(Monomial, sorted((_VARS[slot], exp) for slot, exp in _decode(key)))


def _exponents(keys: Iterable[int], var: VariableId) -> list[int]:
    """The exponent of ``var`` in each key (see the module docstring)."""
    shift = _W * _slot(var)
    half = (1 << shift) >> 1
    return [((((key + half) >> shift) + _HALF) & _MASK) - _HALF for key in keys]


def _lowest(data: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """``data / den`` in lowest terms; the zero polynomial gets denominator 1."""
    if den != 1:
        g = math.gcd(den, *data.values())
        if g != 1:
            data = {key: num // g for key, num in data.items()}
            den //= g
    return data, den


def _coerce_coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


class LaurentPoly:
    """A finite Laurent polynomial with exact rational coefficients.

    Stored as packed keys mapped to integer numerators over one positive
    denominator, in lowest terms (see the module docstring); zero
    coefficients are never stored.  Terms go in as ``Monomial`` keys and
    come out as ``Monomial``/``Fraction`` pairs.  Instances are immutable;
    all arithmetic returns new values, so they may be freely shared between
    threads.
    """

    __slots__ = ("_terms", "_den", "_bound")

    def __init__(self, terms=()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        keyed = []
        bound = 0
        for mono, coeff in items:
            key, exp_bound = _pack(mono if isinstance(mono, Monomial) else Monomial(mono))
            keyed.append((key, _coerce_coeff(coeff)))
            bound = max(bound, exp_bound)
        den = math.lcm(*(c.denominator for _, c in keyed))
        data = _accumulate({}, ((key, c.numerator * (den // c.denominator)) for key, c in keyed))
        self._terms, self._den = _lowest(data, den)
        self._bound = bound

    @classmethod
    def _wrap(cls, data: dict[int, int], den: int = 1, bound: int = 0) -> "LaurentPoly":
        # ``data`` holds nonzero numerators; ``bound`` bounds its exponents.
        out = cls.__new__(cls)
        out._terms, out._den = _lowest(data, den)
        out._bound = bound
        return out

    def __reduce__(self):
        # Slots differ between processes, so a copy is rebuilt from monomials.
        return LaurentPoly, (self.items(),)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls.constant(1)

    @classmethod
    def constant(cls, value) -> "LaurentPoly":
        c = _coerce_coeff(value)
        return cls._wrap({0: c.numerator} if c else {}, c.denominator)

    @classmethod
    def variable(cls, var: VariableId, exp: int = 1) -> "LaurentPoly":
        return cls({Monomial.of(var, exp): 1})

    @classmethod
    def monomial(cls, mono: Monomial, coeff=1) -> "LaurentPoly":
        return cls({mono: coeff})

    @classmethod
    def sum(cls, polys: Iterable["LaurentPoly"]) -> "LaurentPoly":
        """The sum of ``polys``, over the least common denominator."""
        polys = [p for p in polys if p._terms]
        den = math.lcm(*(p._den for p in polys))
        data: dict[int, int] = {}
        for p in polys:
            scale = den // p._den
            values = p._terms.values()
            _accumulate(data, zip(p._terms, values if scale == 1 else map(scale.__mul__, values)))
        return cls._wrap(data, den, max((p._bound for p in polys), default=0))

    # -- inspection --------------------------------------------------------

    def items(self) -> list[tuple[Monomial, Fraction]]:
        """(monomial, coefficient) pairs in internal order."""
        den = self._den
        return [(_monomial(key), Fraction(num, den)) for key, num in self._terms.items()]

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms sorted in the canonical monomial order (deterministic)."""
        return sorted(self.items(), key=itemgetter(0))

    def coefficient(self, mono: Monomial) -> Fraction:
        num = self._terms.get(_lookup_key(mono))
        return _ZERO if num is None else Fraction(num, self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def variables(self) -> frozenset[VariableId]:
        slots = {slot for key in self._terms for slot, _ in _decode(key)}
        return frozenset(_VARS[slot] for slot in slots)

    def max_exponent_in(self, var: VariableId) -> int:
        """Highest exponent of ``var`` over all terms (absent vars count as 0)."""
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(_exponents(self._terms, var))

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if any variable occurs)."""
        if not self._terms:
            return _ZERO
        if len(self._terms) == 1 and 0 in self._terms:
            return Fraction(self._terms[0], self._den)
        raise ValueError(f"not a constant polynomial: {self}")

    def filter_terms(
        self, var: VariableId, low: int | None = None, high: int | None = None
    ) -> "LaurentPoly":
        """The terms whose exponent of ``var`` lies in ``low..high`` (None: unbounded)."""
        low = -_HALF if low is None else low
        high = _HALF if high is None else high
        items = self._terms.items()
        kept = {
            key: num
            for (key, num), exp in zip(items, _exponents(self._terms, var))
            if low <= exp <= high
        }
        return LaurentPoly._wrap(kept, self._den, self._bound)

    def by_exponent(self, var: VariableId) -> dict[int, "LaurentPoly"]:
        """``{g: p_g}`` with ``self`` = sum of var^g * p_g and no p_g involving ``var``."""
        unit = 1 << (_W * _slot(var))
        slices: dict[int, dict[int, int]] = {}
        for (key, num), exp in zip(self._terms.items(), _exponents(self._terms, var)):
            slices.setdefault(exp, {})[key - exp * unit] = num
        return {
            exp: LaurentPoly._wrap(data, self._den, self._bound) for exp, data in slices.items()
        }

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(other)
        return None

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return LaurentPoly.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._wrap(
            {key: -num for key, num in self._terms.items()}, self._den, self._bound
        )

    def __sub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return LaurentPoly()
        bound = _checked(self._bound + other._bound)
        if len(a) > len(b):
            a, b = b, a
        keys, nums = list(b), list(b.values())
        data: dict[int, int] = {}
        for key, num in a.items():
            _accumulate(data, zip(map(key.__add__, keys), map(num.__mul__, nums)))
        return LaurentPoly._wrap(data, self._den * other._den, bound)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for mono, coeff in self.terms():
            if mono.is_one():
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(str(mono))
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def rename_variables(poly: LaurentPoly, mapping: Mapping[VariableId, VariableId]) -> LaurentPoly:
    """Relabel variables throughout ``poly`` (colliding terms are merged)."""
    moves = {_slot(old): _slot(new) for old, new in mapping.items()}
    renamed = []
    bound = 0
    for key, num in poly._terms.items():
        exps = _accumulate({}, ((moves.get(slot, slot), exp) for slot, exp in _decode(key)))
        bound = _checked(max(bound, 0, *map(abs, exps.values())))
        renamed.append((sum(exp << (_W * slot) for slot, exp in exps.items()), num))
    return LaurentPoly._wrap(_accumulate({}, renamed), poly._den, bound)


class RationalFunction1V:
    """A ratio of univariate Laurent polynomials in the pivot ``PIVOT``.

    Coefficients of either side may involve base-kind variables.  The
    denominator must be nonzero and must have a unique highest-degree term
    in the pivot whose coefficient is a nonzero rational times a single
    base monomial, so the descending expansion is well defined.
    """

    __slots__ = ("numerator", "denominator", "_lead_mono", "_lead_coeff", "_lead_exp")

    def __init__(self, numerator, denominator) -> None:
        if not isinstance(numerator, LaurentPoly):
            numerator = LaurentPoly.constant(numerator)
        if not isinstance(denominator, LaurentPoly):
            denominator = LaurentPoly.constant(denominator)
        if denominator.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        for side, poly in (("numerator", numerator), ("denominator", denominator)):
            for v in poly.variables():
                if v != PIVOT and v.kind != "base":
                    raise ValueError(
                        f"{side} must involve only {PIVOT.name!r} and base variables, found {v.name!r}"
                    )
        lead_exp = denominator.max_exponent_in(PIVOT)
        leads = [(m, c) for m, c in denominator.items() if m.exponent(PIVOT) == lead_exp]
        if len(leads) != 1:
            raise ValueError(
                f"denominator needs a unique highest-degree term in {PIVOT.name!r}"
            )
        self.numerator = numerator
        self.denominator = denominator
        self._lead_mono, self._lead_coeff = leads[0]
        self._lead_exp = lead_exp

    @property
    def leading_exponent(self) -> int | None:
        """Exponent of the leading term of the descending expansion (None if zero)."""
        if self.numerator.is_zero():
            return None
        return self.numerator.max_exponent_in(PIVOT) - self._lead_exp

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction1V):
            return NotImplemented
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __repr__(self) -> str:
        return f"RationalFunction1V(({self.numerator}) / ({self.denominator}))"


def binomial_general(alpha: int, beta: int) -> Fraction:
    """Generalized binomial coefficient: alpha*(alpha-1)*...*(alpha-beta+1)/beta!.

    alpha may be any integer; beta must be non-negative.
    """
    if beta < 0:
        raise ValueError("binomial_general requires a non-negative lower index")
    num = 1
    for t in range(beta):
        num *= alpha - t
    return Fraction(num, math.factorial(beta))


def descending_expand(f: RationalFunction1V, min_exponent: int) -> LaurentPoly:
    """Expand ``f`` as a series in descending powers of the pivot.

    Keeps exactly the terms whose exponent of the pivot is >= min_exponent;
    those coefficients are exact.
    """
    lead_inv = LaurentPoly.monomial(f._lead_mono ** -1, 1 / f._lead_coeff)
    # 1/den = lead^-1 * sum_s ratio^s with ratio = -(den - lead)/lead.  Every
    # term of ratio lowers the exponent of the pivot, so a term below
    # min_exponent never climbs back: each summand num/lead * ratio^s is
    # filtered, and the sum stops at the first empty one.
    ratio = -((f.denominator - LaurentPoly.monomial(f._lead_mono, f._lead_coeff)) * lead_inv)
    term = (f.numerator * lead_inv).filter_terms(PIVOT, min_exponent)
    summands = [term]
    while ratio and term:
        term = (term * ratio).filter_terms(PIVOT, min_exponent)
        summands.append(term)
    return LaurentPoly.sum(summands)


def shift_expand(
    q: LaurentPoly,
    pivot: VariableId,
    shift: LaurentPoly,
    degree_cap: int,
) -> LaurentPoly:
    """Expand q(pivot + shift) in non-negative powers of the shift variables.

    ``shift`` must be a linear form sum_j t_j*x_j.  Each term r*pivot^a of q
    contributes r * C(a, b) * shift^b * pivot^(a-b) for b = 0..degree_cap;
    shift^b is homogeneous of degree b in the shift variables, so every
    term kept has shift degree at most degree_cap and is exact.

    Powers of the shift are built only while a binomial can be nonzero: when
    every pivot exponent a of q is non-negative, C(a, b) = 0 for b > a, so
    the powers stop at the largest a; a negative exponent keeps degree_cap.
    """
    if degree_cap < 0:
        raise ValueError("degree_cap must be non-negative")
    shift_vars = shift.variables()
    if pivot in shift_vars:
        raise ValueError("shift must not involve the pivot variable")
    for mono, _ in shift.items():
        if len(mono) != 1 or mono[0][1] != 1:
            raise ValueError(f"shift must be a linear form, found the term {mono}")
    if shift_vars & q.variables():
        raise ValueError("q must not involve the shift variables")
    alphas = _exponents(q._terms, pivot)
    top = degree_cap
    if min(alphas, default=0) >= 0:
        top = min(max(alphas, default=0), degree_cap)
    powers = [LaurentPoly.one()]
    for _ in range(top):
        nxt = powers[-1] * shift
        if nxt.is_zero():
            break
        powers.append(nxt)
    # The pivot's exponents move by at most len(powers) - 1; no other slot is
    # shared between q and the powers.
    bound = _checked(max(q._bound + len(powers) - 1, powers[-1]._bound))
    unit = 1 << (_W * _slot(pivot))
    den = math.lcm(*(p._den for p in powers))
    scaled = [(list(p._terms), [n * (den // p._den) for n in p._terms.values()]) for p in powers]
    data: dict[int, int] = {}
    for (key, num), alpha in zip(q._terms.items(), alphas):
        stem = key - alpha * unit
        binomial = 1  # C(alpha, beta), an integer for integer alpha
        for beta, (keys, nums) in enumerate(scaled):
            if binomial:
                scale, pivot_key = num * binomial, stem + (alpha - beta) * unit
                _accumulate(data, zip(map(pivot_key.__add__, keys), map(scale.__mul__, nums)))
            binomial = binomial * (alpha - beta) // (beta + 1)
    return LaurentPoly._wrap(data, q._den * den, bound)


def geometric_expand(outer: VariableId, inner: VariableId, degree_cap: int) -> LaurentPoly:
    """Truncated expansion of 1/(outer - inner) in non-negative powers of inner."""
    if outer == inner:
        raise ValueError("geometric_expand requires two distinct variables")
    if degree_cap < 0:
        raise ValueError("degree_cap must be non-negative")
    bound = _checked(degree_cap + 1)
    up, down = 1 << (_W * _slot(inner)), 1 << (_W * _slot(outer))
    return LaurentPoly._wrap({n * up - (n + 1) * down: 1 for n in range(degree_cap + 1)}, 1, bound)


def negative_part(poly: LaurentPoly, filter_vars: Iterable[VariableId]) -> LaurentPoly:
    """Keep exactly the terms where every filter variable has a negative exponent.

    A variable absent from a monomial has exponent 0 and therefore fails the
    filter.  Variables outside ``filter_vars`` are unconstrained.
    """
    for v in frozenset(filter_vars):
        poly = poly.filter_terms(v, high=-1)
    return poly


def coefficient_of(
    poly: LaurentPoly, target: Monomial, over: Iterable[VariableId]
) -> LaurentPoly:
    """The polynomial in the remaining variables multiplying ``target``.

    ``target`` must involve only variables of ``over``; an absent monomial
    yields zero.
    """
    over_set = frozenset(over)
    for v in target.variables():
        if v not in over_set:
            raise ValueError(f"target monomial involves {v.name!r} outside the extraction set")
    want = _lookup_key(target)
    # A term matches exactly when its part over ``over`` is the target's key.
    parts = [0] * len(poly)
    for v in over_set:
        unit = 1 << (_W * _slot(v))
        parts = [part + exp * unit for part, exp in zip(parts, _exponents(poly._terms, v))]
    matches = {
        key - want: num for (key, num), part in zip(poly._terms.items(), parts) if part == want
    }
    return LaurentPoly._wrap(matches, poly._den, poly._bound)
