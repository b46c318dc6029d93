"""Certified comparisons against constants built from e.

Condition checkers need verdicts like ``6*e*p*Delta^2 <= 1`` where p is an
exact rational. Floating-point evaluation could flip a verdict near the
boundary, so every verdict here comes from one bracket of e in integers:
S_n < e < S_n + 1/(n! n) for the partial sums S_n = sum_{k <= n} 1/k!.
Each verdict is a monotone test ``leq(P, Q)`` of whether f(P/Q) lies at
or below the threshold, put to both ends of the bracket; n doubles until
one end decides, or ``BudgetError`` says the two sides could not be told
apart within the budget.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable

from .errors import BudgetError

# The bracket of e is at most 1/(256! 256) < 2**-1700 wide.
_MAX_E_TERMS = 256
# The largest integer two_pow_3e_leq may build, in bits.
_MAX_BITS = 1 << 20


def _decide(leq: Callable[[int, int], bool], what: str) -> bool:
    """f(e) <= threshold, for f increasing and ``leq(P, Q)`` deciding
    f(P/Q) <= threshold; ``what`` names f(e)."""
    num = fact = 1  # S_n = num / fact, with fact = n!
    for n in range(1, _MAX_E_TERMS + 1):
        num, fact = num * n + 1, fact * n
        if n & (n - 1) == 0:  # n = 1, 2, 4, ...
            if not leq(num, fact):  # threshold < f(S_n) < f(e)
                return False
            if leq(num * n + 1, fact * n):  # f(e) < f(S_n + 1/(n! n)) <= threshold
                return True
    # The threshold is left out: it may be too long to print.
    raise BudgetError(
        "could not separate %s from the threshold with %d terms of the series of e"
        % (what, _MAX_E_TERMS)
    )


def e_leq(bound: Fraction) -> bool:
    """Certified verdict of ``e <= bound``."""
    p, q = Fraction(bound).as_integer_ratio()
    return _decide(lambda P, Q: P * q <= p * Q, "e")


def sqrt_e_leq(bound: Fraction) -> bool:
    """Certified verdict of ``sqrt(e) <= bound``."""
    bound = Fraction(bound)
    return bound > 0 and e_leq(bound * bound)


def two_pow_3e_leq(bound: Fraction) -> bool:
    """Certified verdict of ``2**(3e) <= bound``.

    2**(3P/Q) <= p/q is decided as 2**(3P) * q**Q <= p**Q, with no integer
    over ``_MAX_BITS`` bits. 2**(3e) is 285.0054...: a threshold above 285.3
    or below 279.1 is decided by n = 4, and n = 8 decides False below
    285.0035 when p and q are under 2**17, so every integer is decided. Any
    other threshold, or p or q of more than about 30,000 bits, raises
    ``BudgetError``.
    """
    p, q = Fraction(bound).as_integer_ratio()
    if p <= 0:
        return False

    def leq(P, Q):
        g = gcd(P, Q)
        P, Q = P // g, Q // g
        size = 3 * P + Q * max(p, q).bit_length()
        if size > _MAX_BITS:
            raise BudgetError(
                "could not separate 2^(3e) from the threshold: the next step "
                "builds %d-bit integers, over the budget of %d" % (size, _MAX_BITS)
            )
        return q ** Q << 3 * P <= p ** Q

    return _decide(leq, "2^(3e)")


def e_mult_leq_two_pow_half(mult: Fraction, k: int) -> bool:
    """Certified verdict of ``mult * e <= 2**(k/2)`` for integer k >= 0."""
    m, d = Fraction(mult).as_integer_ratio()
    if m <= 0:
        return True

    def leq(P, Q):
        # (m P / (d Q))**2 <= 2**k, without building 2**k when sizes decide.
        a, b = (m * P) ** 2, (d * Q) ** 2
        shift = a.bit_length() - b.bit_length()
        if k > shift:  # a < 2**(b.bit_length() - 1 + k) <= b * 2**k
            return True
        if k < shift:  # a >= 2**(b.bit_length() + k) > b * 2**k
            return False
        return a <= b << k

    return _decide(leq, "mult*e")
