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
import sys
from collections.abc import Iterable, Mapping, Sequence
from operator import index, itemgetter

_KINDS = ("tower", "aux", "taut", "base")

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


def _add_product(data: dict, a: dict, b: dict, scale: int = 1) -> dict:
    """Add scale times the product of ``a`` and ``b``, keys to numerators, into ``data``.

    Each term of the smaller side is taken against the whole larger one,
    and each pair is added in place.  Every numerator of ``a`` and ``b`` is
    nonzero, and so is ``scale``, so a pair's sum is zero only on a key
    already in ``data``, which it deletes.
    """
    if len(a) > len(b):
        a, b = b, a
    get = data.get
    pairs = b.items()
    for key, num in a.items():
        num *= scale
        for other, value in pairs:
            other += key
            total = get(other, 0) + num * value
            if total:
                data[other] = total
            else:
                del data[other]
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

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not isinstance(other, Monomial):
            return NotImplemented
        return Monomial((*self, *other))

    __add__ = __rmul__ = None

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


#: The longest repr of a non-int that ``_check_int`` echoes.
_ECHO_LIMIT = 80


def _is_int(value) -> bool:
    """Whether ``value`` is an int; a ``bool`` (JSON's ``true``) is none."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_int(name: str, value: int, low: int | None = None, high: int | None = None) -> int:
    """``value`` if it is an int in ``low..high`` (None: that side is open).

    Every refusal starts with ``name``, in one of three shapes: ``expected
    an integer, got ...``, ``must be at least low, got ...`` and ``... is
    above the ceiling high``.  A ``bool`` is no int here, and nothing is
    converted, since ``int()`` would silently truncate a float.  An int
    beyond ``sys.maxsize`` in absolute value is not echoed, since it may
    have more digits than ``str`` converts; nor is a non-int whose repr
    fails for that reason, as a ``Fraction`` of such an int does, or runs
    past ``_ECHO_LIMIT`` characters: its type is named instead.
    """
    if not _is_int(value):
        try:
            shown = repr(value)
        except ValueError:  # an int past the limit of int-to-str conversion
            shown = None
        if shown is None or len(shown) > _ECHO_LIMIT:
            shown = f"a value of type {type(value).__name__}"
        raise ValueError(f"{name}: expected an integer, got {shown}")
    if low is not None and value < low:
        got = f", got {value}" if value >= -sys.maxsize else ""
        raise ValueError(f"{name}: must be at least {low}{got}")
    if high is not None and value > high:
        shown = value if value <= sys.maxsize else "the value"
        raise ValueError(f"{name}: {shown} is above the ceiling {high}")
    return value


def _fitted(var: VariableId, exp: int) -> int:
    """``exp`` if it fits a slot as the exponent of ``var``, else refuse it."""
    if abs(exp) >= _HALF:
        raise ExponentOverflowError(
            f"the exponent of {var.name} does not fit a packed monomial "
            f"(at most {_HALF - 1} in absolute value)"
        )
    return exp


def _pack(mono: Monomial) -> tuple[int, int]:
    """The key of ``mono`` and the largest absolute value of its exponents."""
    key = bound = 0
    for var, exp in mono:
        key += _fitted(var, exp) << (_W * _slot(var))
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


def _key_bound(keys: Iterable[int]) -> int:
    """The largest absolute value of an exponent in ``keys``."""
    return max([abs(exp) for key in keys if key for _, exp in _decode(key)], default=0)


def _lowest(data: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """``data / den`` in lowest terms; the zero polynomial gets denominator 1."""
    if den != 1:
        g = math.gcd(den, *data.values())
        if g != 1:
            data = {key: num // g for key, num in data.items()}
            den //= g
    return data, den


def _ratio(value) -> tuple[int, int] | None:
    """The numerator and denominator of an int, a bool or a ``Fraction``, else None.

    An int is its own numerator over 1.  A ``Fraction`` exists only once
    ``fractions`` is loaded, so it is recognized through ``sys.modules``
    and this module never imports ``fractions`` to take a coefficient.
    """
    if isinstance(value, int):
        return value.numerator, 1
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        return value.numerator, value.denominator
    return None


def _coerce_coeff(value) -> tuple[int, int]:
    """``_ratio(value)``, or refuse a coefficient that is no exact rational."""
    ratio = _ratio(value)
    if ratio is None:
        raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")
    return ratio


class LaurentPoly:
    """A finite Laurent polynomial with exact rational coefficients.

    Stored as packed keys mapped to integer numerators over one positive
    denominator, in lowest terms (see the module docstring); zero
    coefficients are never stored.  Terms go in as ``Monomial`` keys with
    int, bool or ``Fraction`` coefficients and come out as
    ``Monomial``/``Fraction`` pairs.  Only the methods that return a
    ``Fraction`` import ``fractions``, as ``import fractions``: on a loaded
    module, ``from fractions import Fraction`` in a function costs about
    1.8 us a call, more than the ``Fraction`` it builds (Python 3.11, 2-core
    Xeon).  Instances are immutable; all arithmetic returns new values, so
    they may be freely shared between threads.
    """

    __slots__ = ("_terms", "_den", "_bound")

    def __init__(self, terms=()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        keyed = []
        bound = 0
        for mono, coeff in items:
            key, exp_bound = _pack(mono if isinstance(mono, Monomial) else Monomial(mono))
            keyed.append((key, *_coerce_coeff(coeff)))
            bound = max(bound, exp_bound)
        den = math.lcm(*(d for _, _, d in keyed))
        data = _accumulate({}, ((key, n * (den // d)) for key, n, d in keyed))
        self._terms, self._den = _lowest(data, den)
        self._bound = bound

    @classmethod
    def _from_triples(cls, var: VariableId, triples) -> "LaurentPoly":
        """The sum of num/den * var^exp over the (exp, num, den) ``triples``.

        Built straight into packed keys: each den must be nonzero and each
        |exp| below 2**(W-1), as the caller has checked.
        """
        den = math.lcm(*[d for _, _, d in triples])
        shift = _W * _slot(var)
        data = _accumulate({}, [(e << shift, n * (den // d)) for e, n, d in triples])
        return cls._wrap(data, den, max([abs(e) for e, _, _ in triples], default=0))

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
        return cls._wrap({0: 1})

    @classmethod
    def constant(cls, value) -> "LaurentPoly":
        num, den = _coerce_coeff(value)
        return cls._wrap({0: num} if num else {}, den)

    @classmethod
    def variable(cls, var: VariableId, exp: int = 1) -> "LaurentPoly":
        exp = _fitted(var, index(exp))
        return cls._wrap({exp << (_W * _slot(var)): 1}, 1, abs(exp))

    @classmethod
    def monomial(cls, mono: Monomial, coeff=1) -> "LaurentPoly":
        return cls({mono: coeff})

    # -- inspection --------------------------------------------------------

    def items(self) -> list[tuple[Monomial, Fraction]]:
        """(monomial, coefficient) pairs in internal order."""
        import fractions

        den = self._den
        return [(_monomial(key), fractions.Fraction(num, den)) for key, num in self._terms.items()]

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms sorted in the canonical monomial order (deterministic)."""
        return sorted(self.items(), key=itemgetter(0))

    def _header_rows(self, header: Sequence[VariableId]) -> list[tuple[tuple[int, ...], int]]:
        """Per term, in internal order: its exponents of ``header`` and its
        numerator, over the polynomial's denominator ``_den``.

        Each column is read by slot, as ``filter_terms`` reads one.  A term
        that involves a variable outside ``header`` is refused by name.
        """
        keys = list(self._terms)
        zeros = [0] * len(keys)
        columns = {}
        rebuilt = zeros
        for var in header:
            slot = _SLOTS.get(var)
            # A variable never packed is in no key; a repeated one is read once.
            if slot is None or var in columns:
                continue
            columns[var] = column = _exponents(keys, var)
            unit = 1 << (_W * slot)
            rebuilt = [part + exp * unit for part, exp in zip(rebuilt, column)]
        for key, part in zip(keys, rebuilt):
            if key != part:
                raise ValueError(
                    f"term {_monomial(key)} involves variables outside the table header"
                )
        rows = zip(*(columns.get(var, zeros) for var in header)) if header else [()] * len(keys)
        return list(zip(rows, self._terms.values()))

    def coefficient(self, mono: Monomial) -> Fraction:
        import fractions

        return fractions.Fraction(self._terms.get(_lookup_key(mono), 0), self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def variables(self) -> frozenset[VariableId]:
        slots = {slot for key in self._terms for slot, _ in _decode(key)}
        return frozenset(_VARS[slot] for slot in slots)

    def _constant_ratio(self) -> tuple[int, int]:
        """The numerator and denominator of a constant polynomial's value, in
        lowest terms (raises if any variable occurs)."""
        if not self._terms:
            return 0, 1
        if len(self._terms) == 1 and 0 in self._terms:
            return self._terms[0], self._den
        raise ValueError(f"not a constant polynomial: {self}")

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if any variable occurs)."""
        import fractions

        return fractions.Fraction(*self._constant_ratio())

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

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other
        return None if _ratio(other) is None else LaurentPoly.constant(other)

    def __add__(self, other) -> "LaurentPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self._terms or not other._terms:
            return self if self._terms else other
        # Over the least common denominator; a zero operand adds no bound.
        den = math.lcm(self._den, other._den)
        scale = den // other._den
        data = {key: num * (den // self._den) for key, num in self._terms.items()}
        _accumulate(data, zip(other._terms, map(scale.__mul__, other._terms.values())))
        return LaurentPoly._wrap(data, den, max(self._bound, other._bound))

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
        return LaurentPoly._wrap(_add_product({}, a, b), self._den * other._den, bound)

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
    """Relabel variables throughout ``poly`` (colliding terms are merged).

    Moving exponent e from slot s to slot t adds e * (2**(W*t) - 2**(W*s))
    to a key.  Each target's new exponents are summed from the old ones and
    refused if they leave the slot, before any key is moved.
    """
    moves = {old: new for old, new in mapping.items() if old != new}
    if not moves or not poly._terms:
        return poly
    keys = list(poly._terms)
    columns = {var: _exponents(keys, var) for var in {*moves, *moves.values()}}
    # A target keeps its own exponents unless it moves away itself.
    sums = {new: [0] * len(keys) if new in moves else columns[new] for new in moves.values()}
    for old, new in moves.items():
        sums[new] = [a + b for a, b in zip(sums[new], columns[old])]
    bound = _checked(max(poly._bound, *(max(max(c), -min(c)) for c in sums.values())))
    for old, new in moves.items():
        step = (1 << (_W * _slot(new))) - (1 << (_W * _slot(old)))
        keys = [key + exp * step for key, exp in zip(keys, columns[old])]
    return LaurentPoly._wrap(_accumulate({}, zip(keys, poly._terms.values())), poly._den, bound)


class RationalFunction1V:
    """A ratio of univariate Laurent polynomials in the pivot ``PIVOT``.

    Coefficients of either side may involve base-kind variables.  The
    denominator must be nonzero and must have a unique highest-degree term
    in the pivot whose coefficient is a nonzero rational times a single
    base monomial, so the descending expansion is well defined.

    The two sides are the only copy of the series: ``descending_expand``
    reads them afresh on every call.  ``leading_exponent``, set once here,
    is the exponent of the leading term of the descending expansion: the
    numerator's top pivot exponent minus the denominator's (None for a zero
    numerator).  ``base_names``, also set here, holds the names of the base
    variables either side involves.  Neither holds a packed key, so the
    default pickling of the slots rebuilds a copy in any process, its sides
    through ``LaurentPoly.__reduce__``.
    """

    __slots__ = ("numerator", "denominator", "leading_exponent", "base_names")

    def __init__(self, numerator, denominator) -> None:
        if not isinstance(numerator, LaurentPoly):
            numerator = LaurentPoly.constant(numerator)
        if not isinstance(denominator, LaurentPoly):
            denominator = LaurentPoly.constant(denominator)
        if denominator.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        # Each side's pivot column is read once; only the rest of each key,
        # 0 for a rational coefficient, is decoded to check its variables.
        unit = _unit(PIVOT)
        base_names = set()
        columns = []
        for side, poly in (("numerator", numerator), ("denominator", denominator)):
            column = _exponents(poly._terms, PIVOT)
            columns.append(column)
            for key, exp in zip(poly._terms, column):
                for slot, _ in _decode(key - exp * unit):
                    v = _VARS[slot]
                    if v.kind != "base":
                        raise ValueError(
                            f"{side} must involve only {PIVOT.name!r} and base variables, "
                            f"found {v.name!r}"
                        )
                    base_names.add(v.name)
        num_exps, exps = columns
        lead_exp = max(exps)
        leads = [key for key, exp in zip(denominator._terms, exps) if exp == lead_exp]
        if len(leads) != 1:
            raise ValueError(
                f"denominator needs a unique highest-degree term in {PIVOT.name!r}"
            )
        self.numerator = numerator
        self.denominator = denominator
        self.base_names = frozenset(base_names)
        self.leading_exponent = max(num_exps) - lead_exp if num_exps else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction1V):
            return NotImplemented
        return self.numerator == other.numerator and self.denominator == other.denominator

    def __repr__(self) -> str:
        return f"RationalFunction1V(({self.numerator}) / ({self.denominator}))"


# -- sliced polynomials ---------------------------------------------------------
#
# A sliced polynomial is a triple (parts, den, bound): ``parts`` maps each
# exponent e of one variable to {key of the rest: numerator}, so the
# polynomial is the sum over e of var^e * parts[e] / den.  No key in a part
# holds the sliced variable, no part is empty, and ``den`` need not be in
# lowest terms with the numerators: a sliced product defers that reduction
# to ``_unsliced`` or ``LaurentPoly._wrap``.  ``bound`` bounds every exponent,
# the sliced variable's included, exactly as a ``LaurentPoly``'s does.

_Sliced = tuple[dict[int, dict[int, int]], int, int]


def _unit(var: VariableId) -> int:
    """The key of ``var`` to the first power."""
    return 1 << (_W * _slot(var))


def _sliced(poly: LaurentPoly, var: VariableId) -> _Sliced:
    """``poly`` sliced by the exponent of ``var``."""
    unit = _unit(var)
    parts: dict[int, dict[int, int]] = {}
    for (key, num), exp in zip(poly._terms.items(), _exponents(poly._terms, var)):
        parts.setdefault(exp, {})[key - exp * unit] = num
    return parts, poly._den, poly._bound


def _unsliced(sliced: _Sliced, var: VariableId) -> LaurentPoly:
    """The ``LaurentPoly`` of a polynomial sliced by ``var``, in lowest terms."""
    parts, den, bound = sliced
    unit = _unit(var)
    data = {key + exp * unit: num for exp, part in parts.items() for key, num in part.items()}
    return LaurentPoly._wrap(data, den, bound)


def _product(a: _Sliced, b: _Sliced, low: int, high: int) -> _Sliced:
    """The slices of ``a * b`` whose exponent lies in ``low..high``.

    A product slice at e is the sum of a[e1] * b[e2] over e1 + e2 = e, so a
    pair of slices whose exponents sum outside the window is never formed.
    The bound is the sum of the two bounds, refused before any key is
    formed, even if no pair lands in the window.  Its one caller,
    ``tower._level_product``, forms each level step of both routes as a
    chain of these products, whose sides may be sliced by different
    variables: a stepwise step pairs its block, sliced by c_j, with a level
    series, sliced by the pivot, then that product with its state, sliced
    by c_j, and keeps the slice at -1.  It passes no empty multiplier, and
    refuses the whole chain's bound first.
    """
    a_parts, a_den, a_bound = a
    b_parts, b_den, b_bound = b
    bound = _checked(a_bound + b_bound)
    out: dict[int, dict[int, int]] = {}
    for e1, p1 in a_parts.items():
        for e2, p2 in b_parts.items():
            exp = e1 + e2
            if low <= exp <= high:
                _add_product(out.setdefault(exp, {}), p1, p2)
    return {exp: part for exp, part in out.items() if part}, a_den * b_den, bound


def _slices_bound(parts: dict[int, dict[int, int]]) -> int:
    """The largest absolute value of an exponent in the slices ``parts``,
    the sliced variable's included."""
    return max([*map(abs, parts), _key_bound(key for part in parts.values() for key in part)])


def _descending(f: RationalFunction1V, min_exponent: int) -> _Sliced:
    """``descending_expand(f, min_exponent)`` sliced by the pivot."""
    # Long division (Knuth, TAOCP vol. 2, 4.7).  Dividing both sides by the
    # denominator's leading term L*m leaves M / (L - R), where M's numerators
    # carry the denominator's denominator and every term of R lowers the
    # pivot's exponent by at least drop = -(R's top exponent).  The bound of
    # that division, the larger side's plus m's, is refused before any key
    # is formed, and M is formed only at or above min_exponent.  From the top
    # down, slice e of q = (M + R*q) / L is (M_e + sum over r of R_r *
    # q_(e-r)) / L: each finished slice adds R_r times itself into the
    # pending slice at e + r, and nothing below min_exponent is formed.
    # Slice e takes at most s = (top - e) // drop factors of R, so |L|^(s+1)
    # * q_e is integral, and scaling M by |L|^(depth+1), depth the largest s,
    # makes each division by L exact.  The bound, M's plus depth times R's,
    # is refused before the first product.
    num, den = f.numerator, f.denominator
    num_exps, den_exps = _exponents(num._terms, PIVOT), _exponents(den._terms, PIVOT)
    lead_exp = max(den_exps)
    lead_key = next(key for key, exp in zip(den._terms, den_exps) if exp == lead_exp)
    _checked(max(num._bound, den._bound) + _key_bound([lead_key]))
    unit = _unit(PIVOT)
    m_parts: dict[int, dict[int, int]] = {}
    r_parts: dict[int, dict[int, int]] = {}
    for (key, n), exp in zip(num._terms.items(), num_exps):
        e = exp - lead_exp
        if e >= min_exponent:
            m_parts.setdefault(e, {})[key - lead_key - e * unit] = den._den * n
    for (key, n), exp in zip(den._terms.items(), den_exps):
        if key != lead_key:
            e = exp - lead_exp
            r_parts.setdefault(e, {})[key - lead_key - e * unit] = -n
    lead = den._terms[lead_key]
    top = max(m_parts, default=min_exponent)
    depth = (top - min_exponent) // -max(r_parts) if r_parts else 0
    bound = _checked(_slices_bound(m_parts) + depth * _slices_bound(r_parts))
    scale = abs(lead) ** (depth + 1)
    pending = {e: {key: scale * n for key, n in part.items()} for e, part in m_parts.items()}
    parts: dict[int, dict[int, int]] = {}
    while pending:
        e = max(pending)
        part = {key: n // lead for key, n in pending.pop(e).items()}
        if part:
            parts[e] = part
            for r, r_part in r_parts.items():
                if e + r >= min_exponent:
                    _add_product(pending.setdefault(e + r, {}), r_part, part)
    return parts, num._den * scale, bound


def _leading_power(fs: Sequence[RationalFunction1V], exponent: int) -> LaurentPoly:
    """c**exponent, c the leading coefficient of the product of ``fs``, each
    with a numerator of one term: the product over ``fs`` of the numerator's
    term over the denominator's leading term, its pivot power dropped.

    Every exponent of c, and of a partial product, is at most the sum of
    the sides' bounds, which is refused before c's key is formed; the
    power's bound, ``exponent`` times c's, is refused before the power's.
    """
    _checked(sum(f.numerator._bound + f.denominator._bound for f in fs))
    key = -sum(f.leading_exponent for f in fs) * _unit(PIVOT)
    num = den = 1
    for f in fs:
        ((top_key, top),) = f.numerator._terms.items()
        bottom = f.denominator._terms
        lead_key = max(zip(_exponents(bottom, PIVOT), bottom))[1]
        key += top_key - lead_key
        num *= top * f.denominator._den
        den *= bottom[lead_key] * f.numerator._den
    if den < 0:
        num, den = -num, -den
    bound = _checked(exponent * _key_bound([key]))
    return LaurentPoly._wrap({exponent * key: num**exponent}, den**exponent, bound)


def descending_expand(f: RationalFunction1V, min_exponent: int) -> LaurentPoly:
    """Expand ``f`` as a series in descending powers of the pivot.

    Keeps exactly the terms whose exponent of the pivot is >= min_exponent;
    those coefficients are exact.  ``min_exponent`` must be an int
    (``_check_int``).
    """
    _check_int("min_exponent", min_exponent)
    return _unsliced(_descending(f, min_exponent), PIVOT)


def _shifted(
    q: _Sliced, twists: Sequence[tuple[int, int]], low: int | None, cap: int | None = None,
    den: int = 1,
) -> _Sliced:
    """``q``, sliced by the pivot, with the pivot shifted by a linear form.

    The form is the sum of t/den * x over ``twists``, one or more (key of
    x, t) pairs of distinct variables x that ``q`` does not hold; a caller
    with a zero shift takes ``q`` as it is.  Returns the expansion of
    ``shift_expand`` to shift degree ``cap`` (None: no cap, so ``low`` must
    be given), sliced by the pivot: the term (a, b) of q's part at a lands
    in the slice a - b.  ``shift_expand``'s docstring proves where it
    stops.  Every power of the form is built from the (key, t) pairs
    straight into keys, with its numerators over den**top, top the highest
    power formed.
    """
    parts, q_den, q_bound = q
    limits = [] if cap is None else [cap]
    if min(parts, default=0) >= 0:
        limits.append(max(parts, default=0))
    if low is not None:
        limits.append(max(parts, default=low) - low)
    top = max(min(limits), 0)
    # The pivot's exponents move by at most top, and the form's variables
    # reach exponent top; no other slot is shared between q and the powers.
    bound = _checked(q_bound + top)
    powers = [{0: den**top}]
    for beta in range(1, top + 1):
        # Power beta over den**beta, scaled to the common den**top.
        nxt: dict[int, int] = {}
        for key, num in powers[-1].items():
            _accumulate(nxt, [(key + unit, num * t // den) for unit, t in twists])
        powers.append(nxt)
    out: dict[int, dict[int, int]] = {}
    for alpha, part in parts.items():
        binomial = 1  # C(alpha, beta), an integer for integer alpha
        stop = top + 1 if low is None else min(top + 1, alpha - low + 1)
        for beta in range(stop):
            if not binomial:
                break  # C(alpha, beta) = 0 from here on
            _add_product(out.setdefault(alpha - beta, {}), part, powers[beta], binomial)
            binomial = binomial * (alpha - beta) // (beta + 1)
    return {exp: part for exp, part in out.items() if part}, q_den * den**top, bound


def shift_expand(
    q: LaurentPoly,
    pivot: VariableId,
    shift: LaurentPoly,
    degree_cap: int,
    low: int | None = None,
) -> LaurentPoly:
    """Expand q(pivot + shift) in non-negative powers of the shift variables.

    ``shift`` must be a linear form sum_j t_j*x_j.  Each term r*pivot^a of q
    contributes r * C(a, b) * shift^b * pivot^(a-b) for b = 0..degree_cap;
    shift^b is homogeneous of degree b in the shift variables, so every
    term kept has shift degree at most degree_cap and is exact.

    Powers of the shift are built only while a binomial can be nonzero: when
    every pivot exponent a of q is non-negative, C(a, b) = 0 for b > a, so
    the powers stop at the largest a; a negative exponent keeps degree_cap.

    With ``low``, only the terms whose pivot exponent is at least ``low``
    are formed, and the result is the full expansion filtered to them.
    shift^b holds no pivot, so the term of (a, b) has pivot exponent exactly
    a - b: it is kept when b <= a - low.  So each term of q stops at
    b = a - low, a term with a < low contributes nothing, and the powers of
    the shift stop at the largest a minus ``low``.

    This function checks the shift's form, ``degree_cap``, a non-negative
    int, and ``low``, None or an int (``_check_int``).  A zero shift gives
    ``q`` itself, filtered to ``low`` if one is given.  Any other shift
    slices ``q`` by the pivot and expands it with ``_shifted``, which level
    products call on their twisted factors directly.
    """
    _check_int("degree_cap", degree_cap, 0)
    if low is not None:
        _check_int("low", low)
    if any(_exponents(shift._terms, pivot)):
        raise ValueError("shift must not involve the pivot variable")
    # A term of a linear form is one variable to the first power: its key is
    # a single set bit at the bottom of a slot.
    for key in shift._terms:
        if key <= 0 or key & (key - 1) or (key.bit_length() - 1) % _W:
            raise ValueError(f"shift must be a linear form, found the term {_monomial(key)}")
    if any(any(_exponents(q._terms, _VARS[(key.bit_length() - 1) // _W])) for key in shift._terms):
        raise ValueError("q must not involve the shift variables")
    if not shift._terms:
        return q.filter_terms(pivot, low)
    twists = list(shift._terms.items())
    return _unsliced(_shifted(_sliced(q, pivot), twists, low, degree_cap, shift._den), pivot)


def geometric_expand(outer: VariableId, inner: VariableId, degree_cap: int) -> LaurentPoly:
    """Truncated expansion of 1/(outer - inner) in non-negative powers of inner.

    ``degree_cap`` must be a non-negative int (``_check_int``).
    """
    if outer == inner:
        raise ValueError("geometric_expand requires two distinct variables")
    _check_int("degree_cap", degree_cap, 0)
    return _unsliced(_geometric(outer, inner, 0, degree_cap), inner)


def _geometric(outer: VariableId, inner: VariableId, low: int, high: int) -> _Sliced:
    """The terms inner^n * outer^(-n-1) of ``geometric_expand`` for n in
    ``low..high``, 0 <= ``low`` <= ``high``, sliced by ``inner``.  Its
    bound, high + 1, is refused before any key is formed."""
    bound = _checked(high + 1)
    down = _unit(outer)
    return {n: {-(n + 1) * down: 1} for n in range(low, high + 1)}, 1, bound


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
