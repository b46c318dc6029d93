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
    ``draw_index``.
    """
    acc = 0
    out = []
    for w in weights[:-1]:
        acc += w
        out.append(float(acc))
    return tuple(out)


def draw_index(rng: random.Random, cum: tuple[float, ...]) -> int:
    """Draw a domain-value index from one uniform variate.

    Consumes exactly one ``rng.random()`` call, which keeps independently
    written samplers aligned when they share a stream. The samplers apply
    this rule inline, in one loop per round over the variables to redraw;
    for a two-valued table ``(t,)`` it is ``1 if u >= t else 0``.
    """
    return bisect_right(cum, rng.random())
