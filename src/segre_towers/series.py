"""Exact sparse Laurent-polynomial kernel.

Everything here is immutable and exact.  Coefficients are
``fractions.Fraction``; series are finite Laurent polynomials, so every
expansion primitive takes an explicit truncation argument and documents
which part of its output is exact.  There is no floating point anywhere.
Variables and monomials are canonical tuples, hashed and compared in C.
Window exponents are mostly -1 and -2, which CPython hashes alike, so
monomials often collide; tuple equality keeps each collision cheap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index, itemgetter
from typing import Callable, Iterable, Mapping

_KINDS = ("tower", "aux", "taut", "base")

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def _coerce_coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"coefficients must be exact rationals, got {type(value).__name__}")


class LaurentPoly:
    """A finite Laurent polynomial with exact rational coefficients.

    Canonical form: zero coefficients are never stored.  Instances are
    immutable; all arithmetic returns new values, so they may be freely
    shared between threads.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()) -> None:
        items = terms.items() if isinstance(terms, (dict, Mapping)) else terms
        self._terms = _accumulate({}, ((m, _coerce_coeff(c)) for m, c in items))

    @classmethod
    def _wrap(cls, data: dict[Monomial, Fraction]) -> "LaurentPoly":
        # ``data`` must already be canonical: Fraction values, no zeros.
        out = cls.__new__(cls)
        out._terms = data
        return out

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
        return cls({Monomial(): c}) if c else cls()

    @classmethod
    def variable(cls, var: VariableId, exp: int = 1) -> "LaurentPoly":
        return cls({Monomial.of(var, exp): _ONE})

    @classmethod
    def monomial(cls, mono: Monomial, coeff=1) -> "LaurentPoly":
        return cls({mono: coeff})

    # -- inspection --------------------------------------------------------

    def items(self):
        """Raw (monomial, coefficient) view in internal order."""
        return self._terms.items()

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms sorted in the canonical monomial order (deterministic)."""
        return sorted(self._terms.items(), key=itemgetter(0))

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(mono, _ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def variables(self) -> frozenset[VariableId]:
        out: set[VariableId] = set()
        for mono in self._terms:
            out.update(mono.variables())
        return frozenset(out)

    def max_exponent_in(self, var: VariableId) -> int:
        """Highest exponent of ``var`` over all terms (absent vars count as 0)."""
        if not self._terms:
            raise ValueError("zero polynomial has no exponents")
        return max(m.exponent(var) for m in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if any variable occurs)."""
        if not self._terms:
            return _ZERO
        if len(self._terms) == 1:
            mono, coeff = next(iter(self._terms.items()))
            if mono.is_one():
                return coeff
        raise ValueError(f"not a constant polynomial: {self}")

    def filter_terms(self, keep: Callable[[Monomial], bool]) -> "LaurentPoly":
        return LaurentPoly._wrap({m: c for m, c in self._terms.items() if keep(m)})

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
        return LaurentPoly._wrap(_accumulate(dict(self._terms), other._terms.items()))

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._wrap({m: -c for m, c in self._terms.items()})

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
        if not self._terms or not other._terms:
            return LaurentPoly()
        a, b = self._terms, other._terms
        if len(a) < len(b):
            a, b = b, a
        return LaurentPoly._wrap(
            _accumulate(
                {},
                ((m1 * m2, c1 * c2) for m1, c1 in a.items() for m2, c2 in b.items()),
            )
        )

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

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
    return LaurentPoly((mono.rename(mapping), coeff) for mono, coeff in poly.items())


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

    def keep(m: Monomial) -> bool:
        return m.exponent(PIVOT) >= min_exponent

    term = (f.numerator * lead_inv).filter_terms(keep)
    data = dict(term.items())
    while ratio and term:
        term = (term * ratio).filter_terms(keep)
        _accumulate(data, term.items())
    return LaurentPoly._wrap(data)


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
    alphas = [mono.exponent(pivot) for mono, _ in q.items()]
    top = degree_cap
    if min(alphas, default=0) >= 0:
        top = min(max(alphas, default=0), degree_cap)
    powers = [LaurentPoly.one()]
    for _ in range(top):
        nxt = powers[-1] * shift
        if nxt.is_zero():
            break
        powers.append(nxt)
    data: dict[Monomial, Fraction] = {}
    for mono, coeff in q.items():
        alpha = mono.exponent(pivot)
        rest = mono.without({pivot})
        for beta in range(len(powers)):
            b = binomial_general(alpha, beta)
            if not b:
                continue
            scale = coeff * b
            stem = rest * Monomial.of(pivot, alpha - beta) if alpha != beta else rest
            _accumulate(
                data, ((stem * smono, scale * scoeff) for smono, scoeff in powers[beta].items())
            )
    return LaurentPoly._wrap(data)


def geometric_expand(outer: VariableId, inner: VariableId, degree_cap: int) -> LaurentPoly:
    """Truncated expansion of 1/(outer - inner) in non-negative powers of inner."""
    if outer == inner:
        raise ValueError("geometric_expand requires two distinct variables")
    if degree_cap < 0:
        raise ValueError("degree_cap must be non-negative")
    return LaurentPoly(
        (Monomial(((inner, n), (outer, -n - 1))), _ONE) for n in range(degree_cap + 1)
    )


def negative_part(poly: LaurentPoly, filter_vars: Iterable[VariableId]) -> LaurentPoly:
    """Keep exactly the terms where every filter variable has a negative exponent.

    A variable absent from a monomial has exponent 0 and therefore fails the
    filter.  Variables outside ``filter_vars`` are unconstrained.
    """
    fv = tuple(filter_vars)
    if not fv:
        return poly
    return poly.filter_terms(lambda m: all(m.exponent(v) < 0 for v in fv))


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
    # Entries are sorted, so a term matches exactly when its entries over
    # ``over`` are the target's entries, in the same order.
    matches = (
        (mono.without(over_set), coeff)
        for mono, coeff in poly.items()
        if tuple(entry for entry in mono if entry[0] in over_set) == target
    )
    return LaurentPoly._wrap(_accumulate({}, matches))
