"""Certified comparisons against irrational constants.

Condition checkers need verdicts like ``6*e*p*Delta^2 <= 1`` where p is an
exact rational. Floating-point evaluation could flip a verdict near the
boundary, so the irrational side is bracketed by an interval with exact
rational endpoints, and the final comparison is done in exact rational
arithmetic. e and sqrt(e) are bracketed by partial sums of e's series in
integers, other constants by mpmath's interval arithmetic with outward
rounding (imported on first use). Precision is refined until the interval
separates from the rational threshold; for rational thresholds and
irrational constants this always terminates.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .errors import BudgetError

_PRECISIONS = (80, 160, 320, 640, 1280)
# 256! * 256 > 2**1280: the series for e ends no coarser than the intervals.
_MAX_E_TERMS = 256


def _raw_to_fraction(raw) -> Fraction:
    sign, man, exp, _bc = raw
    f = Fraction(int(man)) * Fraction(2) ** int(exp)
    return -f if sign else f


def interval_bounds(make_interval: Callable, prec: int = 80) -> tuple[Fraction, Fraction]:
    """Exact rational endpoints of ``make_interval(iv)`` at the given precision."""
    from mpmath import iv

    old = iv.prec
    try:
        iv.prec = prec
        x = make_interval(iv)
        lo_raw, hi_raw = x._mpi_
        return _raw_to_fraction(lo_raw), _raw_to_fraction(hi_raw)
    finally:
        iv.prec = old


def certified_leq(make_interval: Callable, rhs: Fraction) -> bool:
    """Decide ``expr <= rhs`` with a certified verdict.

    ``make_interval(iv)`` must build an interval enclosing expr using the
    supplied interval context.
    """
    rhs = Fraction(rhs)
    for prec in _PRECISIONS:
        lo, hi = interval_bounds(make_interval, prec)
        if hi <= rhs:
            return True
        if lo > rhs:
            return False
    raise BudgetError(
        "could not separate expression from threshold %s at %d bits; "
        "the two sides may be equal" % (rhs, _PRECISIONS[-1])
    )


def e_bounds(prec: int = 80) -> tuple[Fraction, Fraction]:
    """Rational lo < e < hi."""
    return interval_bounds(lambda c: c.e, prec)


def sqrt_e_bounds(prec: int = 80) -> tuple[Fraction, Fraction]:
    """Rational lo < sqrt(e) < hi."""
    return interval_bounds(lambda c: c.sqrt(c.e), prec)


def e_leq(bound: Fraction) -> bool:
    """Certified verdict of ``e <= bound``, from S_n < e < S_n + 1/(n! n) for
    S_n = sum_{k <= n} 1/k!, with n doubled until the bracket separates."""
    p, q = Fraction(bound).as_integer_ratio()
    num = fact = 1  # S_n = num / fact, with fact = n!
    for n in range(1, _MAX_E_TERMS + 1):
        num, fact = num * n + 1, fact * n
        if n & (n - 1) == 0:  # n = 1, 2, 4, ...
            if num * q >= p * fact:  # bound <= S_n < e
                return False
            if (num * n + 1) * q <= p * fact * n:  # e < S_n + 1/(n! n) <= bound
                return True
    raise BudgetError(
        "could not separate e from threshold %s with %d terms" % (bound, _MAX_E_TERMS)
    )


def sqrt_e_leq(bound: Fraction) -> bool:
    """Certified verdict of ``sqrt(e) <= bound``."""
    bound = Fraction(bound)
    return bound > 0 and e_leq(bound * bound)


def two_pow_3e_leq(bound: Fraction) -> bool:
    """Certified verdict of ``2**(3e) <= bound``."""
    return certified_leq(lambda c: c.mpf(2) ** (3 * c.e), bound)


def e_mult_leq_two_pow_half(mult: Fraction, k: int) -> bool:
    """Certified verdict of ``mult * e <= 2**(k/2)`` for integer k >= 0."""
    mult = Fraction(mult)
    if mult <= 0:
        return True
    # mult*e <= 2^(k/2)  <=>  e <= 2^(k/2)/mult; bracket the right side too.
    num, den = mult.numerator, mult.denominator

    def expr(c):
        return c.mpf(num) / c.mpf(den) * c.e / (c.mpf(2) ** (c.mpf(k) / 2))

    return certified_leq(expr, Fraction(1))
