"""Complete-flag-variety tower, its integrals, and a localization oracle.

The variety of complete flags in a (k+1)-dimensional space is realized as a
k-level tower of projective bundles over a point; integrals of monomials in
the line-bundle classes c_1..c_k are then coefficients of a Vandermonde
product, each a permutation sign or 0.  A torus-fixed-point sum is a third,
fully independent way to evaluate them.  Its denominator at an ordering w is
sign(w) V(t), V(t) the Vandermonde determinant of the weights, so the sum is
the bialternant det(t_j^e_p) / V(t) with e = (0, a_k, ..., a_1) (Macdonald,
*Symmetric Functions and Hall Polynomials*, I.3).  The sum equals the
integral at any distinct weights, so they are drawn as integers: fraction-free
(Bareiss) elimination takes each numerator determinant over the integers,
and one ``Fraction`` per trial divides it by V(t).  The weights and V(t)
depend only on (k, trials, seed).  A caller that sums many tuples passes a
memo, a dict it keeps for one sweep: it holds each key's weights, drawn
once per memo, with each trial's reduced rows from the key's previous call.
The rows are taken in the order (0, a_1, ..., a_k), and a call reduces only
those after the first exponent where it differs from that call.
``verify`` keeps one memo per run, and its lexicographic tuples share long
prefixes, so it pays for the weights once per k and for at most 2.3 rows
per tuple on average at k = 4..6, against k + 1 for a fresh determinant.
A call without a memo draws its weights and reduces every row.

The three integrals return ``Fraction`` values, and only the functions that
build one import ``fractions``, so importing this module does not load it.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence

from .series import PIVOT, LaurentPoly, RationalFunction1V, _check_int
from .tower import (
    TowerFactor,
    TowerLevel,
    TowerSpec,
    _check_exponents,
    pushforward_monomial,
    tower_variable,
)

LOCALIZATION_SEED = 20260811


class LocalizationDisagreement(RuntimeError):
    """Raised when independent fixed-point trials fail to agree exactly."""


def flag_tower(k: int) -> TowerSpec:
    """The k-level projective-bundle tower of the complete flag variety.

    Level i carries one factor 1/u^(k+1) with zero twists and, for each
    lower level j, a factor u with twist -1 in slot j, so the single-step
    Segre series is (u - c_1)...(u - c_{i-1}) / u^(k+1).
    """
    _check_int("k", k, 1, sys.maxsize)
    point = RationalFunction1V(1, LaurentPoly.variable(PIVOT, k + 1))
    linear = RationalFunction1V(LaurentPoly.variable(PIVOT), 1)
    levels = []
    for i in range(1, k + 1):
        zeros = (0,) * (i - 1)
        factors = [TowerFactor(zeros, point)]
        for j in range(1, i):
            factors.append(TowerFactor(zeros[: j - 1] + (-1,) + zeros[j:], linear))
        levels.append(TowerLevel(tuple(factors)))
    return TowerSpec(tuple(levels))


#: The tests' reference for ``vandermonde_integral``; no program path calls
#: it.  The benchmark tracer (``benchmarks/spans.py``) patches it by name.
def vandermonde_product(k: int) -> LaurentPoly:
    """Exact expansion of the product of (u_j - u_i) over all i < j."""
    result = LaurentPoly.one()
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            result = result * (
                LaurentPoly.variable(tower_variable(j))
                - LaurentPoly.variable(tower_variable(i))
            )
    return result


def vandermonde_integral(k: int, exponents: Sequence[int]) -> Fraction:
    """Coefficient of prod u_i^(k - a_i) in the Vandermonde product, unexpanded.

    The product is det(u_i^(j-1)), so by Leibniz that is the sign of
    b_i = k - a_i as an arrangement of 0..k-1, (-1)^(k - its cycles), or 0
    if b is not one (Macdonald, *Symmetric Functions and Hall Polynomials*, I.3).
    """
    import fractions

    exps = _check_exponents("exponents", exponents, _check_int("k", k, 1, sys.maxsize))
    arrangement = [k - a for a in exps]
    if sorted(arrangement) != list(range(k)):
        return fractions.Fraction(0)
    unseen = set(range(k))
    parity = k
    while unseen:
        i = unseen.pop()
        parity -= 1  # one more cycle, walked from i back to i
        while (i := arrangement[i]) in unseen:
            unseen.remove(i)
    return fractions.Fraction((-1) ** parity)


def flag_integral(k: int, exponents: Sequence[int]) -> Fraction:
    """Integral of c_1^a_1 ... c_k^a_k over the flag variety, via the tower."""
    exps = _check_exponents("exponents", exponents, _check_int("k", k, 1, sys.maxsize))
    return _flag_pushforward(k, exps).constant_value()


def _flag_pushforward(k: int, exps: Sequence[int]) -> LaurentPoly:
    """``flag_integral(k, exps)`` as the constant polynomial the tower's
    push gives, before its value is read as a ``Fraction``.  ``flag_tower``
    and ``pushforward_monomial`` check ``k`` and ``exps``."""
    return pushforward_monomial(flag_tower(k), exps)


def localization_integral(
    k: int,
    exponents: Sequence[int],
    trials: int = 3,
    seed: int = LOCALIZATION_SEED,
    *,
    memo: dict | None = None,
) -> Fraction:
    """The same flag integral by torus-fixed-point summation.

    Each trial draws distinct random integer weights t_0..t_k, after the
    previous trial's, from ``random.Random(seed)``; the sum over orderings w
    of prod_i t_w(k+1-i)^a_i / prod_{p<q} (t_w(q) - t_w(p)) has
    denominators sign(w) V(t), V(t) = prod_{p<q} (t_q - t_p) = det(t_j^p),
    so it equals det(t_j^e_p) / V(t) with e = (0, a_k, ..., a_1).  All trials
    must agree exactly; disagreement raises ``LocalizationDisagreement``.

    The determinant is taken with its rows in the order (0, a_1, ..., a_k),
    which reverses the last k rows of e and so multiplies it by
    (-1)^(k(k-1)/2).  ``memo`` is the caller's dict for one sweep: it maps
    (k, trials, seed) to each trial's V(t) and elimination path (see
    ``_eliminate``) from the key's previous call, so the weights are drawn
    once per memo and key, whatever the seed's type, and a call reduces only
    the rows after the first exponent where it differs from that call.
    Without a memo every call draws its weights and reduces every row.
    ``random`` is imported only here, when weights are drawn, so importing
    this module does not load it.

    Exponents of total degree above the dimension k(k+1)/2 are refused: there
    the sum is a non-constant polynomial in the weights, not an integral.
    """
    import fractions

    exps = _check_exponents("exponents", exponents, _check_int("k", k, 1, sys.maxsize))
    _check_int("trials", trials, 1, sys.maxsize)
    dim = k * (k + 1) // 2
    if sum(exps) > dim:
        raise ValueError(f"exponents: total degree must be at most the flag dimension {dim}")
    powers = (0,) + exps
    sign = -1 if k * (k - 1) // 2 % 2 else 1
    key = (k, trials, seed)
    kept = None if memo is None else memo.get(key)
    if kept is None:
        import random

        rng = random.Random(seed)
        kept = []
        for _ in range(trials):
            ts = tuple(_draw_distinct(rng, k + 1))
            vandermonde = math.prod(tq - tp for p, tp in enumerate(ts) for tq in ts[p + 1 :])
            kept.append((vandermonde, (ts, ())))
    values, paths = [], []
    for vandermonde, path in kept:
        path = _eliminate(path, powers)
        paths.append((vandermonde, path))
        values.append(fractions.Fraction(sign * _determinant(path), vandermonde))
    if memo is not None:
        memo[key] = paths
    if values.count(values[0]) != len(values):
        raise LocalizationDisagreement(
            f"fixed-point trials disagree for k={k}, exponents={exps}: {values}"
        )
    return values[0]


def _eliminate(path: tuple, powers: Sequence[int]) -> tuple:
    """The path of the rows t_j^e, e in ``powers``, keeping the steps of
    ``path`` up to the first row where the powers differ.

    ``path`` is ``(weights, steps)``: the integer weights t_j and one step
    ``(e, row, pivot, sign)`` per reduced row.  Row i starts as the integers
    t_j^e_i.  It is reduced left-looking, against each earlier row s in
    turn, with c_s the pivot column of row s, d_s = row_s[c_s] its pivot and
    d_(-1) = 1:

        row <- (row * d_s - row[c_s] * row_s) // d_(s-1).

    Its pivot column c_i is then its first nonzero entry outside
    c_0..c_(i-1): pivots are chosen by column, never by swapping rows.
    ``sign`` is the previous row's times -1 for each column it passes over.

    Why a kept prefix is exact: these are Bareiss's fraction-free steps
    (Bareiss, Math. Comp. 22, 1968) on the matrix with its columns in the
    order c_0, c_1, ..., since a step updates each column from its own
    entries and the pivot column's alone.  By Sylvester's identity, after
    the reductions against rows 0..s, entry j of row i is the minor on rows
    0..s, i and columns c_0..c_s, j.  So every division is exact, and, at
    given weights, each row, pivot and sign depends on the powers of rows
    0..i alone: a kept step is the step the same rows give from an empty
    path, whatever rows followed it in the call that made it.  The last
    row's pivot is the determinant with its columns permuted to
    c_0..c_(n-1), and ``sign`` is that permutation's sign, since each column
    c_i passes over is a later, smaller one: one inversion.  A reduced row i
    with no nonzero entry has every minor bordering the nonzero d_(i-1)
    zero, so rows 0..i are dependent at these weights and every determinant
    with these first rows is 0: the path stops there, with pivot None.
    """
    ts, steps = path
    keep = 0
    for step, power in zip(steps, powers):
        if step[0] != power:
            break
        keep += 1
    steps = list(steps[:keep])
    if steps and steps[-1][2] is None:
        return (ts, tuple(steps))
    used = {step[2] for step in steps}
    sign = steps[-1][3] if steps else 1
    for e in powers[keep:]:
        row = [t**e for t in ts]
        prev = 1
        for _, head, c, _ in steps:
            lead, pivot = row[c], head[c]
            row = [(x * pivot - lead * y) // prev for x, y in zip(row, head)]
            prev = pivot
        pivot = None
        for j, x in enumerate(row):
            if j not in used:
                if x:
                    pivot = j
                    break
                sign = -sign
        steps.append((e, tuple(row), pivot, sign))
        if pivot is None:
            break
        used.add(pivot)
    return (ts, tuple(steps))


def _determinant(path: tuple) -> int:
    """det(t_j^e_p), an int, for a path of all n rows: its last pivot times
    its sign, or 0 where the path stopped at a dependent row."""
    _, row, pivot, sign = path[1][-1]
    return 0 if pivot is None else sign * row[pivot]


def _draw_distinct(rng: random.Random, count: int) -> list[int]:
    """``count`` distinct integers, each drawn uniformly from [-10^6, 10^6];
    a value already drawn is drawn again."""
    out: list[int] = []
    while len(out) < count:
        t = rng.randint(-(10**6), 10**6)
        if t not in out:
            out.append(t)
    return out
