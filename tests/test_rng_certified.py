"""Seed derivation, table sampling, and certified irrational comparisons."""

import math
import random
from fractions import Fraction

import pytest

from prsampling.certified import (
    certified_leq,
    e_bounds,
    e_leq,
    e_mult_leq_two_pow_half,
    interval_bounds,
    sqrt_e_bounds,
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


class TestCertified:
    def test_e_bounds_bracket_reference(self):
        lo, hi = e_bounds(80)
        assert lo < E_REF < hi
        assert hi - lo < Fraction(1, 10 ** 20)

    def test_bounds_nest_with_precision(self):
        lo1, hi1 = e_bounds(80)
        lo2, hi2 = e_bounds(320)
        assert lo1 <= lo2 < hi2 <= hi1

    def test_sqrt_e_bounds(self):
        lo, hi = sqrt_e_bounds(160)
        assert lo < SQRT_E_REF < hi

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
        "leq,bounds,ref",
        [(e_leq, e_bounds, E_REF), (sqrt_e_leq, sqrt_e_bounds, SQRT_E_REF)],
        ids=["e", "sqrt_e"],
    )
    def test_series_bracket_agrees_with_intervals(self, leq, bounds, ref):
        # Thresholds within 10^-1 .. 10^-45 of the constant, on both sides.
        lo, hi = bounds(320)
        rng = random.Random(7)
        for _ in range(1500):
            den = rng.randrange(1, 10 ** rng.randint(1, 45))
            b = Fraction(round(ref * den) + rng.randint(-3, 3), den)
            assert b < lo or b > hi
            assert leq(b) is (b > hi)

    def test_series_bracket_budget(self):
        # Closer to e than 256 terms of its series can tell.
        near = sum(Fraction(1, math.factorial(k)) for k in range(300))
        with pytest.raises(BudgetError, match="could not separate e"):
            e_leq(near)

    def test_two_pow_3e_verdicts(self):
        # 2^(3e) = 285.8...; certified on both sides.
        assert two_pow_3e_leq(Fraction(286)) is True
        assert two_pow_3e_leq(Fraction(285)) is False
        ref = 2 ** (3 * math.e)
        assert 285 < ref < 286

    def test_e_mult_leq_two_pow_half(self):
        # 6e = 16.30...; 2^(8/2) = 16 < 6e <= 2^(9/2) = 22.6...
        assert e_mult_leq_two_pow_half(Fraction(6), 9) is True
        assert e_mult_leq_two_pow_half(Fraction(6), 8) is False
        assert e_mult_leq_two_pow_half(Fraction(0), 0) is True

    def test_certified_leq_interval_endpoints_are_exact(self):
        lo, hi = interval_bounds(lambda c: c.e, 80)
        assert isinstance(lo, Fraction) and isinstance(hi, Fraction)

    def test_certified_leq_general_expression(self):
        # sqrt(2) <= 3/2 true; <= 7/5 false (sqrt 2 = 1.4142...).
        assert certified_leq(lambda c: c.sqrt(2), Fraction(3, 2)) is True
        assert certified_leq(lambda c: c.sqrt(2), Fraction(7, 5)) is False
