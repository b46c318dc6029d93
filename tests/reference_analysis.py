"""The exact analysis as it was computed in ``Fraction`` at every step.

``QEvaluator`` is the memoized q-recursion over bitmask subsets, and
``event_probability``, ``event_probabilities``, ``r_matrix``,
``check_asymmetric_lll`` and ``gprs_condition_values`` are the weight sums,
the LLL check and the efficiency conditions, each kept verbatim (apart from
names) from before ``prsampling`` did this arithmetic in integers. They are
an independent reference for ``tests/test_shearer.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from prsampling import certified

from prsampling.errors import BudgetError
from prsampling.model import DependencyGraph, EventSpec, Instance
from prsampling.shearer import MAX_MEMO_ENTRIES, GprsCheck, _check_inputs, as_probability


class QEvaluator:
    """Memoized q(S) for one graph and probability vector; S is a bitmask."""

    def __init__(self, graph: DependencyGraph, p: Sequence[Fraction]):
        _check_inputs(graph, p)
        self.m = graph.num_events
        self.full = (1 << self.m) - 1
        self.closed = [
            sum(1 << j for j in graph.closed_neighborhood(i)) for i in range(self.m)
        ]
        self.p = [Fraction(pi) for pi in p]
        self.memo: dict[int, Fraction] = {0: Fraction(1)}

    def q(self, mask: int) -> Fraction:
        memo = self.memo
        got = memo.get(mask)
        if got is not None:
            return got
        if len(memo) > MAX_MEMO_ENTRIES:
            raise BudgetError(
                "q-value recursion exceeded %d subproblems" % MAX_MEMO_ENTRIES
            )
        v = (mask & -mask).bit_length() - 1  # min(S)
        val = self.q(mask & ~(1 << v)) - self.p[v] * self.q(mask & ~self.closed[v])
        memo[mask] = val
        return val

    def q_of(self, ids) -> Fraction:
        """q_I = p^I * q(V - N+[I]) for an independent event set I."""
        rest = self.full
        pi = Fraction(1)
        for i in ids:
            rest &= ~self.closed[i]
            pi *= self.p[i]
        return pi * self.q(rest)

    def singletons(self) -> list[Fraction]:
        return [self.q_of((i,)) for i in range(self.m)]

    def holds(self) -> bool:
        """q > 0 on every suffix set {k, ..., m-1}; see ``shearer_holds``."""
        self.q(self.full)
        return all(self.memo[self.full >> k << k] > 0 for k in range(self.m))


def event_probability(instance: Instance, event: EventSpec) -> Fraction:
    """Exact probability that the event occurs under the product measure."""
    total = Fraction(0)
    for t in event.violating:
        w = Fraction(1)
        for v, val in zip(event.vbl, t):
            w *= instance.variables[v].weights[val]
        total += w
    return total


def event_probabilities(instance: Instance) -> list[Fraction]:
    return [event_probability(instance, e) for e in instance.events]


def r_matrix(
    instance: Instance, graph: DependencyGraph | None = None
) -> dict[tuple[int, int], Fraction]:
    """For each ordered dependent pair (i, j): the probability that a fresh
    draw of the shared variables leaves event j still able to occur."""
    if graph is None:
        graph = instance.dependency_graph
    out: dict[tuple[int, int], Fraction] = {}
    for i in range(graph.num_events):
        for j in graph.adjacency[i]:
            ei, ej = instance.events[i], instance.events[j]
            shared = tuple(sorted(set(ei.vbl) & set(ej.vbl)))
            pos_j = [ej.vbl.index(v) for v in shared]
            proj = {tuple(t[p] for p in pos_j) for t in ej.violating}
            total = Fraction(0)
            for t in proj:
                w = Fraction(1)
                for v, val in zip(shared, t):
                    w *= instance.variables[v].weights[val]
                total += w
            out[(i, j)] = total
    return out


def check_asymmetric_lll(
    graph: DependencyGraph, p: Sequence[Fraction], x: Sequence[Fraction]
) -> bool:
    """Classic sufficient condition: p_i <= x_i * prod_{j ~ i} (1 - x_j)."""
    _check_inputs(graph, p)
    if len(x) != graph.num_events:
        raise ValueError("x vector has %d entries for %d events" % (len(x), graph.num_events))
    for i, xi in enumerate(x):
        if not 0 < xi < 1:
            raise ValueError("x[%d] = %s must lie strictly inside (0, 1)" % (i, xi))
    for i in range(graph.num_events):
        bound = Fraction(x[i])
        for j in graph.adjacency[i]:
            bound *= 1 - Fraction(x[j])
        if Fraction(p[i]) > bound:
            return False
    return True


def gprs_condition_values(
    p: Fraction, r: Fraction, delta: int, c1: int = 6, c2: int = 3
) -> GprsCheck:
    """The efficiency conditions for given p, r and max degree."""
    p, r = as_probability(p), as_probability(r, "r")
    if delta < 0:
        raise ValueError("delta = %d is negative" % delta)
    k1 = c1 * p * delta * delta
    k2 = c2 * r * delta
    applicable = delta >= 2
    cond1 = cond2 = None
    if applicable:
        cond1 = True if k1 == 0 else certified.e_leq(1 / k1)
        cond2 = True if k2 == 0 else certified.e_leq(1 / k2)
    return GprsCheck(
        p=p,
        r=r,
        delta=delta,
        c1=c1,
        c2=c2,
        applicable=applicable,
        cond1=cond1,
        cond2=cond2,
        product1=float(k1) * math.e,
        product2=float(k2) * math.e,
    )
