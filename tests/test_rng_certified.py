"""Seed derivation, table sampling, and certified irrational comparisons."""

import itertools
import math
import random
from bisect import bisect_right
from fractions import Fraction

import pytest

from conftest import WordStream, words_for
from prsampling.certified import (
    e_leq,
    e_mult_leq_two_pow_half,
    sqrt_e_leq,
    two_pow_3e_leq,
)
from prsampling.errors import BudgetError
from prsampling.rng import (
    byte_table,
    byte_tables,
    cumulative_table,
    derive_seed,
    draw_index,
    draw_indices,
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
        # A first weight of 1/d does not make the weights uniform.
        assert cumulative_table((Fraction(1, 3), Fraction(1, 6), Fraction(1, 2))) == (1 / 3, 0.5)

    def test_uniform_tables_equal_the_prefix_sums(self):
        # k / d and float(the exact prefix sum k/d) are both correctly rounded.
        for d in [*range(1, 301), 2 ** 10, 2 ** 16, 2 ** 18]:
            weights = (Fraction(1, d),) * d
            sums = tuple(float(s) for s in itertools.accumulate(weights[:-1]))
            assert cumulative_table(weights) == sums, d
            assert cumulative_table(list(weights)) == sums, d

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


# Tables for the bulk draw: two-valued ones whose threshold is on a byte
# edge (1/2), inside a byte (10/11), and beside edges; several thresholds in
# one byte, zero weights (thresholds at 0 and 1), and 300 values, more than
# a byte can index.
BULK_TABLES = {
    "half": (0.5,),
    "ten-elevenths": (10 / 11,),
    "thirds": (1 / 3, 2 / 3),
    "byte-edges": (0.25, 0.5, 0.75),
    "beside-edges": (3 / 256 - 2 ** -40, 3 / 256 + 2 ** -40, 200 / 256, 255 / 256 + 2 ** -45),
    "one-byte": (0.1, 0.1 + 2 ** -30, 0.1 + 2 ** -20, 0.1 + 2 ** -12),
    "below-an-edge": (1 / 256 - 2 ** -60, 2 / 256 - 2 ** -57),
    "zero-weights": cumulative_table((Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0))),
    "three-hundred": cumulative_table((Fraction(1, 300),) * 300),
}


@pytest.mark.stream
class TestBulkDraw:
    """``draw_indices`` draws ``bisect_right(table, random())`` for each
    table in turn, and leaves the generator where that many ``random()``
    calls would."""

    def assert_like_draw_index(self, tables, seeds=range(6)):
        lookup = byte_tables(tables)
        for seed in seeds:
            rng, one_by_one = make_rng(seed), make_rng(seed)
            assert draw_indices(rng, tables, lookup) == [draw_index(one_by_one, t) for t in tables]
            assert rng.getstate() == one_by_one.getstate()

    @pytest.mark.parametrize("name", sorted(BULK_TABLES))
    def test_each_table_shared(self, name):
        table = BULK_TABLES[name]
        for n in (0, 1, 2, 257, 3000):
            self.assert_like_draw_index((table,) * n)

    @pytest.mark.parametrize("name", sorted(BULK_TABLES))
    def test_one_table_for_n_variables(self, name):
        """The table alone with ``n`` draws what its n-tuple draws, with
        the bytes lookup or, for 255 values and more, without."""
        table = BULK_TABLES[name]
        lookup = byte_tables((table,))
        for n in (0, 1, 2, 257, 3000):
            for seed in range(4):
                rng, per_variable = make_rng(seed), make_rng(seed)
                tables = (table,) * n
                want = draw_indices(per_variable, tables, byte_tables(tables))
                assert draw_indices(rng, table, lookup, n) == want
                assert rng.getstate() == per_variable.getstate()

    def test_shared_small_tables_use_bytes(self):
        assert type(byte_tables((BULK_TABLES["thirds"],) * 4)) is bytes
        assert type(byte_tables((BULK_TABLES["three-hundred"],) * 4)) is tuple
        assert type(byte_tables((BULK_TABLES["half"], BULK_TABLES["thirds"]))) is tuple

    def test_mixed_per_variable_tables(self):
        rng = random.Random(5)
        names = sorted(BULK_TABLES)
        for n in (0, 1, 2, 50, 2000):
            tables = tuple(BULK_TABLES[rng.choice(names)] for _ in range(n))
            self.assert_like_draw_index(tables)

    def test_byte_table_marks_exactly_the_split_bytes(self):
        for table in BULK_TABLES.values():
            looked = byte_table(table)
            for b, got in enumerate(looked):
                lo, hi = bisect_right(table, b / 256), bisect_right(table, (b + 1) / 256 - 2 ** -53)
                assert got == (lo if lo == hi else -1)
        assert byte_table(BULK_TABLES["half"]) == (0,) * 128 + (1,) * 128
        assert byte_table(BULK_TABLES["ten-elevenths"]).count(-1) == 1

    @pytest.mark.parametrize("name", sorted(BULK_TABLES))
    def test_variates_at_and_beside_each_threshold(self, name):
        """k = ceil(c * 2^53) is the least 53-bit variate numerator drawing
        past threshold c; k - 1, k and k + 1 for every threshold, and the
        ends, drawn through stand-in words, against ``random()``."""
        table = BULK_TABLES[name]
        numerators = {0, 2 ** 53 - 1}
        for c in table:
            k = math.ceil(Fraction(c) * 2 ** 53)
            numerators |= {m for m in (k - 1, k, k + 1) if 0 <= m < 2 ** 53}
        numerators = sorted(numerators)
        words = [w for j, m in enumerate(numerators) for w in words_for(m, 977 * j)]
        for tables in ((table,) * len(numerators), (table, BULK_TABLES["half"]) * len(numerators)):
            tables = tables[: len(numerators)]
            bulk, one_by_one = WordStream(words), WordStream(words)
            got = draw_indices(bulk, tables, byte_tables(tables))
            assert got == [draw_index(one_by_one, t) for t in tables]
            assert got == [bisect_right(t, m / 2 ** 53) for t, m in zip(tables, numerators)]
            assert bulk.used == one_by_one.used == 2 * len(numerators)


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
