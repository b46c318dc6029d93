"""Deterministic randomness helpers.

Every randomized routine in this package takes an explicit integer seed.
Batch runners derive one seed per run with ``derive_seed(base, index)`` so
that runs are independent, reproducible, and order-independent: run ``i``
gets the same stream no matter how many other runs execute or in what
order.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fractions import Fraction
from operator import getitem

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a fixed bijective 64-bit scrambler."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def derive_seed(base_seed: int, run_index: int) -> int:
    """Per-run seed: mix the base seed with the run index.

    Distinct (base, index) pairs map to well-separated seeds even when
    bases or indices are small consecutive integers.
    """
    return mix64((base_seed & _MASK64) + _GOLDEN * (run_index + 1))


def make_rng(seed: int) -> random.Random:
    """A fresh Mersenne-Twister generator for one run."""
    return random.Random(seed)


def cumulative_table(weights) -> tuple[float, ...]:
    """Double-precision cumulative thresholds for a weight vector.

    ``weights`` are exact rationals summing to 1; the returned table has
    one threshold per domain value except the last, for use with
    ``draw_index``. The uniform weights on d values, one ``Fraction(1, d)``
    d times, give k / d at k = 1 to d - 1: ``int / int`` rounds the exact
    quotient once, as ``float`` does each prefix sum, so the floats are the
    same, without d ``Fraction`` additions.
    """
    d = len(weights)
    first = weights[0] if d else None
    if type(first) is Fraction and first.numerator == 1 and first.denominator == d:
        if weights.count(first) == d:
            return tuple([k / d for k in range(1, d)])
    acc = 0
    out = []
    for w in weights[:-1]:
        acc += w
        out.append(float(acc))
    return tuple(out)


def draw_index(rng: random.Random, cum: tuple[float, ...]) -> int:
    """Draw a domain-value index from one uniform variate.

    Consumes exactly one ``rng.random()`` call, which keeps independently
    written samplers aligned when they share a stream. The generic round,
    ``sink_popping`` and ``cycle_popping`` apply this rule inline, in one
    loop per round over the variables to redraw (for a two-valued table
    ``(t,)`` it is ``1 if u >= t else 0``). :func:`draw_indices` applies it
    to a whole list at once, from the same variates: the product draw of
    ``sample_product``, and every draw of ``hardcore_sample``, whose
    redraws do nothing per vertex but store the value.
    """
    return bisect_right(cum, rng.random())


_SPLIT = 255  # a byte that a threshold splits, in a shared byte table


def byte_table(cum: tuple[float, ...], split: int = -1) -> tuple[int, ...]:
    """For each value B of a uniform's top byte, the index ``draw_index``
    gives every variate with that top byte, from B/256 up to
    (B+1)/256 - 2^-53, or ``split`` where a threshold of ``cum`` parts them
    and the byte alone does not decide."""
    out = []
    for b in range(256):
        lo, hi = bisect_right(cum, b / 256), bisect_right(cum, (b + 1) / 256 - 2 ** -53)
        out.append(lo if lo == hi else split)
    return tuple(out)


def byte_tables(tables) -> bytes | tuple[tuple[int, ...], ...]:
    """What :func:`draw_indices` reads for these per-variable tables: where
    every variable shares one table of at most 255 values, its
    :func:`byte_table` as ``bytes`` with 255 at the split bytes; otherwise
    each variable's table, one tuple per distinct table, with -1 there."""
    shared = {id(t): t for t in tables}
    if len(shared) == 1:
        (t,) = shared.values()
        if len(t) < _SPLIT:
            return bytes(byte_table(t, _SPLIT))
    by_id = {k: byte_table(t) for k, t in shared.items()}
    return tuple([by_id[id(t)] for t in tables])


def draw_indices(rng: random.Random, tables, lookup, n: int | None = None) -> list[int]:
    """``[draw_index(rng, t) for t in tables]`` from one ``getrandbits``
    call; ``lookup`` is ``byte_tables(tables)``. Where n variables share one
    table, ``tables`` may be that table alone, with ``n`` given and
    ``lookup`` its ``byte_tables((table,))``: the same draw, with no n-tuple
    of the table built unless its lookup is not ``bytes``.

    ``random()`` is (w0 >> 5 · 2^26 + w1 >> 6) / 2^53 for the next two
    32-bit Mersenne-Twister words w0 and w1, and ``getrandbits(64 · n)``
    takes the same 2n words in the same order, the first as its least
    significant 32 bits; so the generator ends where n ``random()`` calls
    leave it. Each value is looked up by the top byte of its w0; where a
    threshold splits that byte, the variate is rebuilt from both words,
    exactly as ``random()`` builds it, and bisected.
    """
    shared = n is not None  # tables is the one table of every variable
    if not shared:
        n = len(tables)
    elif type(lookup) is not bytes:
        return draw_indices(rng, (tables,) * n, lookup * n)
    raw = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
    tops = raw[3::8]  # w0 is little-endian, so its top byte is the fourth
    if type(lookup) is bytes:
        drawn = tops.translate(lookup)
        sigma, find, mark = list(drawn), drawn.find, _SPLIT
        count = drawn.count(mark)
    else:
        sigma = list(map(getitem, lookup, tops))
        find, mark = sigma.index, -1
        count = sigma.count(mark)
    i = -1
    for _ in range(count):
        i = find(mark, i + 1)
        w = int.from_bytes(raw[8 * i : 8 * i + 8], "little")
        u = ((w & 0xFFFFFFFF) >> 5 << 26 | w >> 38) / 2 ** 53
        sigma[i] = bisect_right(tables if shared else tables[i], u)
    return sigma
