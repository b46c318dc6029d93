"""Seed derivation, table sampling, and certified irrational comparisons."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from prsampling.certified import (
    e_leq,
    e_mult_leq_two_pow_half,
    sqrt_e_leq,
    two_pow_3e_leq,
)
from prsampling.errors import BudgetError
from prsampling.rng import (
    cumulative_table,
    derive_seed,
    draw_index,
    make_rng,
    mix64,
)


class TestMix:
    def test_mix64_is_deterministic_and_64bit(self):
        assert mix64(0) == mix64(0)
        for x in (0, 1, 2, 2 ** 63, 2 ** 64 - 1):
            assert 0 <= mix64(x) < 2 ** 64

    def test_derive_seed_separates_consecutive_indices(self):
        seeds = {derive_seed(0, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_derive_seed_separates_bases(self):
        assert derive_seed(1, 0) != derive_seed(2, 0)

    def test_derive_seed_order_independent(self):
        # Run i's seed does not depend on how many other runs exist.
        one = derive_seed(99, 7)
        assert derive_seed(99, 7) == one


class TestTables:
    def test_cumulative_table_shape(self):
        t = cumulative_table((Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)))
        assert t == (0.25, 0.5)

    def test_draw_index_consumes_one_variate(self):
        rng = make_rng(5)
        before = rng.random()
        rng = make_rng(5)
        idx = draw_index(rng, (0.25, 0.5))
        # The same stream position: one variate was consumed.
        assert idx == (0 if before < 0.25 else 1 if before < 0.5 else 2)

    def test_draw_index_degenerate_weight_one(self):
        rng = make_rng(0)
        t = cumulative_table((Fraction(1),))
        assert all(draw_index(rng, t) == 0 for _ in range(100))

    def test_draw_index_frequencies(self):
        rng = make_rng(123)
        t = cumulative_table((Fraction(1, 4), Fraction(3, 4)))
        n = 40_000
        ones = sum(draw_index(rng, t) for _ in range(n))
        assert abs(ones / n - 0.75) < 0.01


# 50-digit references, far more precise than any float64 path.
E_REF = Fraction("27182818284590452353602874713526624977572470937000") / 10 ** 49
SQRT_E_REF = Fraction("16487212707001281468486507878141635716537761007101") / 10 ** 49
# Each reference is within REF_ERR of its constant.
REF_ERR = Fraction(1, 10 ** 49)


def _e_terms():
    """e = [2; 1, 2, 1, 1, 4, 1, 1, 6, ...]."""
    yield 2
    for i in itertools.count(1):
        yield 2 * (i + 1) // 3 if i % 3 == 2 else 1


def _sqrt_e_terms():
    """sqrt(e) = [1; 1, 1, 1, 5, 1, 1, 9, ...]."""
    yield 1
    for i in itertools.count(1):
        yield 4 * (i // 3) + 1 if i % 3 == 1 else 1


def _convergent_brackets(terms):
    """(lo, hi) from consecutive convergents, which lie on either side of
    the constant, ever closer."""
    h0, k0, h1, k1 = 1, 0, next(terms), 1
    for a in terms:
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        x, y = Fraction(h0, k0), Fraction(h1, k1)
        yield min(x, y), max(x, y)


class TestCertified:
    @pytest.mark.parametrize(
        "terms,ref", [(_e_terms, E_REF), (_sqrt_e_terms, SQRT_E_REF)], ids=["e", "sqrt_e"]
    )
    def test_convergents_bracket_reference(self, terms, ref):
        for lo, hi in itertools.islice(_convergent_brackets(terms()), 40):
            assert lo - REF_ERR < ref < hi + REF_ERR
        assert hi - lo < Fraction(1, 10 ** 30)

    def test_e_leq_verdicts(self):
        assert e_leq(Fraction(27183, 10000)) is True
        assert e_leq(Fraction(27182, 10000)) is False
        assert e_leq(Fraction(3)) is True
        assert e_leq(Fraction(2)) is False

    def test_sqrt_e_leq_verdicts(self):
        assert sqrt_e_leq(Fraction(16488, 10000)) is True
        assert sqrt_e_leq(Fraction(16487, 10000)) is False
        assert sqrt_e_leq(Fraction(0)) is False
        assert sqrt_e_leq(Fraction(-2)) is False

    @pytest.mark.parametrize(
        "leq,terms,ref",
        [(e_leq, _e_terms, E_REF), (sqrt_e_leq, _sqrt_e_terms, SQRT_E_REF)],
        ids=["e", "sqrt_e"],
    )
    def test_series_bracket_agrees_with_intervals(self, leq, terms, ref):
        # Thresholds within 10^-1 .. 10^-45 of the constant, on both sides,
        # against continued-fraction convergents refined until they decide.
        brackets = list(itertools.islice(_convergent_brackets(terms()), 120))
        rng = random.Random(7)
        for _ in range(1500):
            den = rng.randrange(1, 10 ** rng.randint(1, 45))
            b = Fraction(round(ref * den) + rng.randint(-3, 3), den)
            lo, hi = next((lo, hi) for lo, hi in brackets if not lo <= b <= hi)
            assert leq(b) is (b > hi)

    def test_series_bracket_budget(self):
        # Closer to e than 256 terms of its series can tell.
        near = sum(Fraction(1, math.factorial(k)) for k in range(300))
        with pytest.raises(BudgetError, match="could not separate e"):
            e_leq(near)

    def test_series_bracket_budget_long_threshold(self):
        # S_1699 has over 4,300 digits; the message must not print it.
        num = fact = 1
        for n in range(1, 1700):
            num, fact = num * n + 1, fact * n
        with pytest.raises(BudgetError, match="could not separate e"):
            e_leq(Fraction(num, fact))

    def test_two_pow_3e_verdicts(self):
        # 2^(3e) = 285.005...; certified on both sides.
        assert two_pow_3e_leq(Fraction(286)) is True
        assert two_pow_3e_leq(Fraction(285)) is False
        ref = 2 ** (3 * math.e)
        assert 285 < ref < 286

    def test_two_pow_3e_on_integers(self):
        assert [b for b in range(1, 5001) if two_pow_3e_leq(Fraction(b)) is not (b >= 286)] == []
        assert two_pow_3e_leq(Fraction(0)) is False
        assert two_pow_3e_leq(Fraction(10) ** 1000) is True

    @pytest.mark.parametrize(
        "bound",
        [Fraction(2850054, 10000), Fraction(285 * 10 ** 5000 + 3, 10 ** 5000)],
        ids=["near", "5000-digit"],
    )
    def test_two_pow_3e_budget(self, bound):
        # Within 10^-5 of 2^(3e): the powers that decide it would pass the
        # budget. The message leaves out a threshold too long to print.
        with pytest.raises(BudgetError, match=r"could not separate 2\^\(3e\)"):
            two_pow_3e_leq(bound)

    def test_e_mult_leq_two_pow_half(self):
        # 6e = 16.30...; 2^(8/2) = 16 < 6e <= 2^(9/2) = 22.6...
        assert e_mult_leq_two_pow_half(Fraction(6), 9) is True
        assert e_mult_leq_two_pow_half(Fraction(6), 8) is False
        assert e_mult_leq_two_pow_half(Fraction(0), 0) is True

    def test_e_mult_leq_two_pow_half_agrees_with_reference(self):
        # (6d e)^2 <= 2^k, wherever the 50-digit reference decides it.
        lo, hi = E_REF - REF_ERR, E_REF + REF_ERR
        decided = 0
        for d in range(1, 100):
            for k in range(100):
                if (6 * d * hi) ** 2 <= 2 ** k:
                    assert e_mult_leq_two_pow_half(Fraction(6 * d), k) is True
                elif (6 * d * lo) ** 2 > 2 ** k:
                    assert e_mult_leq_two_pow_half(Fraction(6 * d), k) is False
                else:
                    continue
                decided += 1
        assert decided == 99 * 100

    def test_e_mult_leq_two_pow_half_huge_exponent(self):
        # Decided from bit lengths; 2^k itself would not fit in memory.
        assert e_mult_leq_two_pow_half(Fraction(18), 10 ** 12) is True
        assert e_mult_leq_two_pow_half(Fraction(2) ** 10 ** 6, 10 ** 6) is False
