"""Exact dependency-graph analysis: q-values, run-length formulas, criteria.

Everything here works on a dependency graph plus a vector of exact rational
event probabilities. The central quantity is

    q_I = sum over independent supersets J of I of (-1)^{|J|-|I|} * prod p_j,

computed exactly. ``q_empty`` is the alternating independent-set sum; on
extremal instances it equals the probability that no event occurs, and
``sum_i q_i / q_empty`` is the exact expected number of resampled events.

Computation uses the vertex-elimination recursion

    q(S) = q(S - {v}) - p_v * q(S - N+[v]),   v = min(S),

with memoization over bitmask subsets, which evaluates the same alternating
sum without enumerating all independent sets. It runs in integers: with
every p_v = a_v / D over one common denominator D, the memo holds
D^|S| * q(S) (see ``_QEvaluator``), and each returned value is one
``Fraction``. The Shearer verdict is read off the chain of suffix sets that
recursion memoizes on its way to q_empty. Every q_i comes from that same
memo: q_empty is multilinear in the p's, and differentiating the
independent-set sum term by term gives

    q_i = p_i * q(V - N+[i]) = -p_i * d q_empty / d p_i,

so one reverse sweep over the memo (reverse-mode differentiation of the
recursion) yields all of them, with no recursion per event.
Enumeration (with pruning and explicit budgets) is used only by
``all_q_values`` and ``truncated_log_partials``, which need every
independent set. Hard guards: at most 30 events per analysis, and at most
``MAX_MEMO_ENTRIES`` memoized subsets.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from fractions import Fraction

from . import certified
from .errors import BudgetError, PrsError
from .model import DependencyGraph, Instance, event_probabilities, r_max
from .records import FrozenRecord, fields_json

MAX_ANALYSIS_EVENTS = 30
MAX_MEMO_ENTRIES = 2 ** 21
MAX_ENUMERATED_SETS = 2 ** 20
MAX_SEQUENCE_EVENTS = 6
GPRS_C1, GPRS_C2 = 6, 3  # the general sampler's efficiency constants


class ShearerError(PrsError):
    """The requested quantity is undefined because the q-criterion fails."""


def _fractions(values) -> list[Fraction]:
    """The values as Fractions, converting only those that are not."""
    return [v if type(v) is Fraction else Fraction(v) for v in values]


def _check_inputs(graph: DependencyGraph, p: Sequence[Fraction]) -> list[Fraction]:
    """Check the event count and p's length and range; return p as Fractions."""
    if graph.num_events > MAX_ANALYSIS_EVENTS:
        raise BudgetError(
            "analysis supports at most %d events, got %d"
            % (MAX_ANALYSIS_EVENTS, graph.num_events)
        )
    if len(p) != graph.num_events:
        raise ValueError(
            "probability vector has %d entries for %d events"
            % (len(p), graph.num_events)
        )
    p = _fractions(p)
    for i, pi in enumerate(p):
        if not 0 <= pi.numerator <= pi.denominator:
            raise ValueError("p[%d] = %s is not a probability" % (i, pi))
    return p


class _QEvaluator:
    """Memoized q(S) for one graph and probability vector; S is a bitmask.

    The arithmetic is in integers. Every p_v is written as a_v / D over the
    least common denominator D of the vector, and the memo holds
    Q(S) = D^|S| * q(S). Multiplying the elimination recursion through by
    D^|S| gives

        Q(S) = D * Q(S - v) - a_v * D^(|S & N+[v]| - 1) * Q(S - N+[v]),

    because |S| - |S - N+[v]| = |S & N+[v]|, which counts v itself. Integer
    products need no gcd, while every ``Fraction`` operation reduces by one;
    a result becomes a ``Fraction`` only when it is returned. D^|S| > 0, so
    Q(S) and q(S) have the same sign, which is all ``holds`` reads.

    The q_i come from the memo of Q(V), by q_i = -p_i * d q_empty / d p_i
    (see the module docstring). With D fixed, that is
    q_i = a_i * (-dQ(V)/da_i) / D^m, and ``numerators`` finds every
    a_i * (-dQ(V)/da_i) in one reverse sweep: it pushes the adjoint
    dQ(V)/dQ(S) from each subset S to the two subsets S's line of the
    recursion reads, and collects at v = min(S) what a_v contributes
    there. That is valid in reverse insertion order of the memo, because
    ``scaled`` stores a subset only after the two it reads: every subset
    is swept after all the subsets that read it, so its adjoint is
    complete when it is swept.
    """

    def __init__(self, graph: DependencyGraph, p: Sequence[Fraction]):
        self.p = p = _check_inputs(graph, p)
        self.m = graph.num_events
        self.full = (1 << self.m) - 1
        self.closed = []  # N+[i] as a bitmask
        for i in range(self.m):
            mask = 1 << i
            for j in graph.adjacency[i]:
                mask |= 1 << j
            self.closed.append(mask)
        self.den = math.lcm(*[pi.denominator for pi in p])
        self.a = [pi.numerator * (self.den // pi.denominator) for pi in p]
        self.powers = [self.den ** k for k in range(self.m + 1)]
        self.memo: dict[int, int] = {0: 1}
        self._numerators: list[int] | None = None

    def scaled(self, mask: int) -> int:
        """Q(S) = D^|S| * q(S)."""
        memo = self.memo
        got = memo.get(mask)
        if got is not None:
            return got
        if len(memo) > MAX_MEMO_ENTRIES:
            raise BudgetError(
                "q-value recursion exceeded %d subproblems" % MAX_MEMO_ENTRIES
            )
        v = (mask & -mask).bit_length() - 1  # min(S)
        near = mask & self.closed[v]  # S & N+[v]
        val = self.den * self.scaled(mask & ~(1 << v))
        val -= self.a[v] * self.powers[near.bit_count() - 1] * self.scaled(mask & ~near)
        memo[mask] = val
        return val

    def q_of(self, ids) -> Fraction:
        """q_I = p^I * q(V - N+[I]) for an independent event set I."""
        rest = self.full
        num = 1
        for i in ids:
            rest &= ~self.closed[i]
            num *= self.a[i]
        return Fraction(num * self.scaled(rest), self.den ** (len(ids) + rest.bit_count()))

    def numerators(self) -> list[int]:
        """[a_i * (-dQ(V)/da_i)] = [D^m * q_i] for every event i, by one
        reverse sweep over the memo of Q(V); each adjoint is dropped once
        it has been pushed on."""
        if self._numerators is None:
            memo, closed, a, powers, den = self.memo, self.closed, self.a, self.powers, self.den
            self.scaled(self.full)
            nums = [0] * self.m
            adjoint = {self.full: 1}  # dQ(V)/dQ(S), for the subsets still to sweep
            for mask in reversed(memo):
                w = adjoint.pop(mask, 0)
                if not (w and mask):
                    continue
                v = (mask & -mask).bit_length() - 1
                near = mask & closed[v]
                rest, low = mask ^ (1 << v), mask ^ near
                w_low = a[v] * powers[near.bit_count() - 1] * w
                nums[v] += w_low * memo[low]
                adjoint[rest] = adjoint.get(rest, 0) + den * w
                adjoint[low] = adjoint.get(low, 0) - w_low
            self._numerators = nums
        return self._numerators

    def singletons(self) -> list[Fraction]:
        top = self.powers[self.m]
        return [Fraction(num, top) for num in self.numerators()]

    def expected(self) -> tuple[list[Fraction], Fraction]:
        """[q_i / q_empty] for every event i, and their sum; needs q_empty > 0.

        q_i / q_empty = a_i * (-dQ(V)/da_i) / Q(V), so each ratio and the
        sum are one ``Fraction`` each.
        """
        top, nums = self.scaled(self.full), self.numerators()
        return [Fraction(num, top) for num in nums], Fraction(sum(nums), top)

    def holds(self) -> bool:
        """q > 0 on every suffix set {k, ..., m-1}; see ``shearer_holds``."""
        self.scaled(self.full)
        return all(self.memo[self.full >> k << k] > 0 for k in range(self.m))


def is_independent(graph: DependencyGraph, ids) -> bool:
    """Is the given event set independent in the dependency graph?"""
    ids = set(ids)
    return all(not (set(graph.adjacency[i]) & ids) for i in ids)


def independent_sets(graph: DependencyGraph) -> Iterator[frozenset[int]]:
    """All independent sets, DFS over ascending ids, at most
    ``MAX_ENUMERATED_SETS`` of them."""
    m = graph.num_events
    adjacency = [set(a) for a in graph.adjacency]
    count = 0

    def rec(start: int, chosen: list[int], blocked: set[int]):
        nonlocal count
        count += 1
        if count > MAX_ENUMERATED_SETS:
            raise BudgetError(
                "independent-set enumeration exceeded budget of %d sets" % MAX_ENUMERATED_SETS
            )
        yield frozenset(chosen)
        for v in range(start, m):
            if v in blocked:
                continue
            chosen.append(v)
            yield from rec(v + 1, chosen, blocked | adjacency[v])
            chosen.pop()

    yield from rec(0, [], set())


def q_empty(graph: DependencyGraph, p: Sequence[Fraction]) -> Fraction:
    """The alternating independent-set sum q_empty (exact)."""
    return _QEvaluator(graph, p).q_of(())


def q_singletons(graph: DependencyGraph, p: Sequence[Fraction]) -> list[Fraction]:
    """[q_{i}] for every event i (exact)."""
    return _QEvaluator(graph, p).singletons()


def all_q_values(graph: DependencyGraph, p: Sequence[Fraction]) -> dict[frozenset[int], Fraction]:
    """q_I for every independent set I, with the normalization check.

    The values partition unity: sum_I q_I == 1 is asserted before returning.
    """
    ev = _QEvaluator(graph, p)
    out = {ids: ev.q_of(ids) for ids in independent_sets(graph)}
    total = sum(out.values())
    if total != 1:
        raise AssertionError("q-values sum to %s, expected 1" % total)
    return out


def shearer_holds(graph: DependencyGraph, p: Sequence[Fraction]) -> bool:
    """Exact criterion: is p inside Shearer's region for this graph?

    Shearer (1985) and Scott-Sokal (2005): p is inside iff q(U) > 0 for every
    event set U, q(U) being the alternating independent-set sum on the
    subgraph induced by U. One maximal chain of sets is enough, and computing
    q(V) memoizes the suffix chain W_k = {k, ..., m-1}. Suppose q(U) > 0 for
    every U inside W_{k+1}, and W_k = W_{k+1} + {v}. Every U inside W_k that
    contains v has

        q(U) = q(U - v) * (1 - p_v * q(U - N+[v]) / q(U - v)),

    and inside the region the ratio q(U - N+[v]) / q(U - v) can only grow
    with U (Shearer's monotonicity), so q(W_k) > 0 gives q(U) > 0. Induction
    along the chain gives q(U) > 0 for every U.
    """
    return _QEvaluator(graph, p).holds()


def expected_resamples(graph: DependencyGraph, p: Sequence[Fraction]) -> Fraction:
    """Exact expected total number of resampled events, sum_i q_i / q_empty."""
    return sum(expected_resamples_per_event(graph, p), Fraction(0))


def expected_resamples_per_event(
    graph: DependencyGraph, p: Sequence[Fraction]
) -> list[Fraction]:
    """Exact expected resamples of each event, q_i / q_empty."""
    ev = _QEvaluator(graph, p)
    if not ev.holds():
        raise ShearerError(
            "q-criterion fails for this graph and probability vector; "
            "expected run length is undefined"
        )
    return ev.expected()[0]


def check_asymmetric_lll(
    graph: DependencyGraph, p: Sequence[Fraction], x: Sequence[Fraction]
) -> bool:
    """Classic sufficient condition: p_i <= x_i * prod_{j ~ i} (1 - x_j)."""
    p = _check_inputs(graph, p)
    if len(x) != graph.num_events:
        raise ValueError("x vector has %d entries for %d events" % (len(x), graph.num_events))
    x = _fractions(x)
    for i, xi in enumerate(x):
        if not 0 < xi.numerator < xi.denominator:
            raise ValueError("x[%d] = %s must lie strictly inside (0, 1)" % (i, xi))
    return _lll_holds(graph, p, x)


def _lll_holds(graph: DependencyGraph, p: list[Fraction], x: list[Fraction]) -> bool:
    """``check_asymmetric_lll`` on inputs it has checked, as Fractions."""
    # Cross-multiplied: p_i * den <= num, where num / den is the bound.
    for i, (pi, xi) in enumerate(zip(p, x)):
        num, den = xi.numerator, xi.denominator
        for j in set(graph.adjacency[i]):
            num *= x[j].denominator - x[j].numerator
            den *= x[j].denominator
        if pi.numerator * den > num * pi.denominator:
            return False
    return True


def symmetric_pc(d: int) -> Fraction:
    """Critical symmetric threshold (d-1)^(d-1) / d^d for max degree d >= 2."""
    if d < 2:
        raise ValueError("symmetric threshold needs max degree d >= 2, got %d" % d)
    return Fraction((d - 1) ** (d - 1), d ** d)


def as_probability(value, name: str = "p") -> Fraction:
    """``value`` as an exact ``Fraction``; ``ValueError`` unless it is in [0, 1]."""
    value = Fraction(value)
    if not 0 <= value <= 1:
        raise ValueError("%s = %s is not a probability" % (name, value))
    return value


def linear_coefficient(d: int, p: Fraction) -> Fraction:
    """Exact coefficient p / (p_c(d) - p); requires slack p < p_c(d).

    ``ValueError`` if p is not a probability.
    """
    p = as_probability(p)
    pc = symmetric_pc(d)
    if p >= pc:
        raise ShearerError(
            "no slack: p = %s is not below the critical threshold %s" % (p, pc)
        )
    return p / (pc - p)


class GprsCheck(FrozenRecord):
    """Verdict of the two general-sampler efficiency conditions.

    cond1: c1 * e * p * delta^2 <= 1, cond2: c2 * e * r * delta <= 1, with
    c1 = ``GPRS_C1`` and c2 = ``GPRS_C2``, decided by certified comparison.
    ``applicable`` is False for max degree below 2, where the guarantee has
    nothing to say.
    """

    _fields = (
        "p", "r", "delta", "c1", "c2", "applicable", "cond1", "cond2", "product1", "product2"
    )

    @property
    def ok(self) -> bool | None:
        if not self.applicable:
            return None
        return bool(self.cond1 and self.cond2)

    def to_json(self) -> dict:
        out = fields_json(self)
        out["constants"] = [out.pop("c1"), out.pop("c2")]
        out["ok"] = self.ok
        return out


def gprs_condition_values(p: Fraction, r: Fraction, delta: int) -> GprsCheck:
    """Evaluate the efficiency conditions for given p, r and max degree.

    ``ValueError`` if p or r is not a probability, or if delta is negative
    or not an int (a bool is not taken for one).
    """
    p, r = as_probability(p), as_probability(r, "r")
    if type(delta) is bool or not isinstance(delta, int):
        raise ValueError("delta = %r is not an integer" % (delta,))
    if delta < 0:
        raise ValueError("delta = %d is negative" % delta)
    k1 = Fraction(GPRS_C1 * delta * delta * p.numerator, p.denominator)
    k2 = Fraction(GPRS_C2 * delta * r.numerator, r.denominator)
    applicable = delta >= 2
    cond1 = cond2 = None
    if applicable:
        cond1 = not k1 or certified.e_leq(Fraction(k1.denominator, k1.numerator))
        cond2 = not k2 or certified.e_leq(Fraction(k2.denominator, k2.numerator))
    return GprsCheck(
        p=p,
        r=r,
        delta=delta,
        c1=GPRS_C1,
        c2=GPRS_C2,
        applicable=applicable,
        cond1=cond1,
        cond2=cond2,
        product1=float(k1) * math.e,
        product2=float(k2) * math.e,
    )


def check_gprs_conditions(instance: Instance, p_max: Fraction | None = None) -> GprsCheck:
    """Efficiency conditions with p, r, delta measured from the instance.

    ``p_max`` is the largest event probability; it is computed when not given.
    """
    graph = instance.dependency_graph
    if p_max is None:
        p_max = max(event_probabilities(instance), default=Fraction(0))
    r = r_max(instance, graph)
    return gprs_condition_values(p_max, r, graph.max_degree)


def truncated_log_partials(
    graph: DependencyGraph, p: Sequence[Fraction], max_len: int
) -> list[Fraction]:
    """Partial sums of the independent-set-sequence series, lengths 0..max_len.

    Sequences are nonempty independent sets S_1, ..., S_l with each S_{t+1}
    inside the closed neighborhood of S_t, weighted by prod_t prod_{i in S_t}
    p_i; the empty sequence contributes 1. The series increases to
    1 / q_empty when the q-criterion holds.
    """
    _check_inputs(graph, p)
    if graph.num_events > MAX_SEQUENCE_EVENTS:
        raise BudgetError(
            "sequence enumeration supports at most %d events, got %d"
            % (MAX_SEQUENCE_EVENTS, graph.num_events)
        )
    sets = [s for s in independent_sets(graph) if s]
    weight, closed_union = {}, {}
    for s in sets:
        weight[s] = math.prod((Fraction(p[i]) for i in s), start=Fraction(1))
        closed_union[s] = frozenset().union(*map(graph.closed_neighborhood, s))
    partials = [Fraction(1)]
    layer = dict(weight)
    for _ in range(max_len):
        partials.append(partials[-1] + sum(layer.values(), Fraction(0)))
        nxt = {}
        for s, val in layer.items():
            if val == 0:
                continue
            allowed = closed_union[s]
            for t in sets:
                if t <= allowed:
                    nxt[t] = nxt.get(t, Fraction(0)) + val * weight[t]
        layer = nxt
    return partials


class ShearerReport(FrozenRecord):
    """Full exact analysis of an instance."""

    _fields = (
        "num_events", "max_degree", "p", "extremal", "q_empty", "q_singletons", "shearer_ok",
        "expected_total", "expected_per_event", "lll_ok", "p_max", "symmetric_pc",
        "linear_coefficient", "gprs",
    )

    to_json = fields_json


def analyze_instance(instance: Instance) -> ShearerReport:
    """Compute the standard analysis bundle for one instance.

    ``lll_ok`` uses the customary uniform choice x_i = 1/(max_degree + 1)
    when there are dependencies; isolated-event instances pass iff every
    p_i < 1.
    """
    graph = instance.dependency_graph
    delta = graph.max_degree
    ev = _QEvaluator(graph, event_probabilities(instance))
    qe = ev.q_of(())
    qs = tuple(ev.singletons())
    ok = ev.holds()
    expected_total = expected_per = None
    if ok:
        per, expected_total = ev.expected()
        expected_per = tuple(per)
    if delta >= 1:
        lll_ok = _lll_holds(graph, ev.p, [Fraction(1, delta + 1)] * ev.m)
    else:
        lll_ok = all(a < ev.den for a in ev.a)
    p_max = Fraction(max(ev.a, default=0), ev.den)
    pc = symmetric_pc(delta) if delta >= 2 else None
    coeff = None
    if pc is not None and p_max < pc:
        coeff = linear_coefficient(delta, p_max)
    return ShearerReport(
        num_events=graph.num_events,
        max_degree=delta,
        p=tuple(ev.p),
        extremal=instance.extremal,
        q_empty=qe,
        q_singletons=qs,
        shearer_ok=ok,
        expected_total=expected_total,
        expected_per_event=expected_per,
        lll_ok=lll_ok,
        p_max=p_max,
        symmetric_pc=pc,
        linear_coefficient=coeff,
        gprs=check_gprs_conditions(instance, p_max=p_max),
    )
