"""Constraint instances over independent finite variables.

An :class:`Instance` is a finite product distribution together with a set
of "bad events". Each variable has a finite domain with exact rational
weights; each event names the variables it depends on and lists the
violating joint values explicitly. Two events are dependent when they
share a variable; a valid assignment is one under which no event occurs.

All probability computations in this module are exact (``Fraction``).
Sampling draws each variable from a double-precision cumulative table
built from the exact weights.

An instance compiles what the samplers need on first use and keeps it: the
variable-to-events index, each event's occurrence test (an ``itemgetter``
over its variables and the set that value is looked up in), the dependency
graph, the sampling tables and the extremality verdict. :func:`occurs`
stays the reference definition the compiled tests must agree with.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import BudgetError
from .rng import cumulative_table, draw_index  # noqa: F401 (bench/tracing.py counts draw_index)

# Hard caps; exceeding one raises BudgetError rather than degrading.
MAX_EVENT_VARS = 24
MAX_PAIR_STATES = 2 ** 24


@dataclass(frozen=True, slots=True)
class VariableSpec:
    """One variable: a finite domain with exact rational weights summing to 1."""

    id: int
    domain_size: int
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("variable id must be nonnegative, got %d" % self.id)
        if self.domain_size < 1:
            raise ValueError("variable %d: domain_size must be >= 1" % self.id)
        if len(self.weights) != self.domain_size:
            raise ValueError(
                "variable %d: %d weights for domain of size %d"
                % (self.id, len(self.weights), self.domain_size)
            )
        for w in self.weights:
            if not isinstance(w, Fraction):
                raise ValueError("variable %d: weights must be Fractions" % self.id)
            if w < 0:
                raise ValueError("variable %d: negative weight %s" % (self.id, w))
        if sum(self.weights) != 1:
            raise ValueError(
                "variable %d: weights sum to %s, not 1" % (self.id, sum(self.weights))
            )


def uniform_variable(vid: int, domain_size: int) -> VariableSpec:
    """A variable with the uniform distribution on ``domain_size`` values."""
    w = Fraction(1, domain_size)
    return VariableSpec(vid, domain_size, (w,) * domain_size)


@dataclass(frozen=True, slots=True)
class EventSpec:
    """One bad event: an explicit set of violating joint values.

    ``vbl`` lists the variables the event depends on, strictly ascending;
    each violating tuple gives one value per variable in that order.
    """

    id: int
    vbl: tuple[int, ...]
    violating: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.id < 0:
            raise ValueError("event id must be nonnegative, got %d" % self.id)
        if not self.vbl:
            raise ValueError("event %d depends on no variables" % self.id)
        if list(self.vbl) != sorted(set(self.vbl)):
            raise ValueError(
                "event %d: vbl must be strictly ascending, got %r" % (self.id, self.vbl)
            )
        if len(self.vbl) > MAX_EVENT_VARS:
            raise BudgetError(
                "event %d depends on %d variables; cap is %d"
                % (self.id, len(self.vbl), MAX_EVENT_VARS)
            )
        for t in self.violating:
            if len(t) != len(self.vbl):
                raise ValueError(
                    "event %d: violating tuple %r has arity %d, expected %d"
                    % (self.id, t, len(t), len(self.vbl))
                )


def make_event(eid: int, variables: Sequence[int], tuples: Iterable[Sequence[int]]) -> EventSpec:
    """Build an event from variables in any order, permuting tuples to match."""
    order = sorted(range(len(variables)), key=lambda k: variables[k])
    vbl = tuple(variables[k] for k in order)
    # A tuple of the wrong arity is passed on as given, for EventSpec to reject.
    violating = frozenset(
        tuple(t[k] for k in order) if len(t) == len(order) else tuple(t) for t in tuples
    )
    return EventSpec(eid, vbl, violating)


@dataclass(frozen=True)
class Instance:
    """A product distribution plus bad events over its variables.

    What the samplers derive from an instance (the variable-to-events index,
    the compiled occurrence tests, the dependency graph, the sampling tables
    and the extremality verdict) is built on first use and kept for every
    later call on the same object; the instance is immutable, so none of it
    can go stale. The cached values take no part in ``==`` or ``hash``.
    """

    variables: tuple[VariableSpec, ...]
    events: tuple[EventSpec, ...]

    def __post_init__(self):
        for k, v in enumerate(self.variables):
            if v.id != k:
                raise ValueError(
                    "variable ids must be dense and ascending: position %d has id %d"
                    % (k, v.id)
                )
        for k, e in enumerate(self.events):
            if e.id != k:
                raise ValueError(
                    "event ids must be dense and ascending: position %d has id %d"
                    % (k, e.id)
                )
            for v in e.vbl:
                if not 0 <= v < len(self.variables):
                    raise ValueError(
                        "event %d references unknown variable %d" % (e.id, v)
                    )
            for t in e.violating:
                for v, val in zip(e.vbl, t):
                    if not 0 <= val < self.variables[v].domain_size:
                        raise ValueError(
                            "event %d: value %d out of range for variable %d"
                            % (e.id, val, v)
                        )

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_events(self) -> int:
        return len(self.events)

    @cached_property
    def var_events(self) -> tuple[tuple[int, ...], ...]:
        """For each variable, the ids of the events depending on it, ascending."""
        index: list[list[int]] = [[] for _ in self.variables]
        for e in self.events:
            for v in e.vbl:
                index[v].append(e.id)
        return tuple(map(tuple, index))

    @cached_property
    def occurrence_tests(self) -> tuple[tuple[itemgetter, ...], tuple[frozenset, ...]]:
        """Parallel ``(keys, violating)``: event i occurs under a total
        assignment sigma iff ``keys[i](sigma) in violating[i]``.

        ``keys[i]`` is ``itemgetter(*vbl)``, which returns a scalar for a
        one-variable event, so that event's set holds scalars; every other
        event's set is its own ``violating``, not a copy.
        """
        keys = tuple(itemgetter(*e.vbl) for e in self.events)
        violating = tuple(
            e.violating if len(e.vbl) > 1 else frozenset(t for (t,) in e.violating)
            for e in self.events
        )
        return keys, violating

    @cached_property
    def dependency_graph(self) -> DependencyGraph:
        """:func:`build_dependency_graph` of this instance."""
        return build_dependency_graph(self)

    @cached_property
    def sampling_tables(self) -> tuple[tuple[float, ...], ...]:
        """:func:`cumulative_tables` of this instance."""
        return cumulative_tables(self)

    @cached_property
    def extremal(self) -> bool:
        """:func:`is_extremal` with its default state cap."""
        return is_extremal(self)


@dataclass(frozen=True)
class DependencyGraph:
    """Events as vertices; an edge joins events sharing a variable."""

    num_events: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def dependent_pairs(self) -> list[tuple[int, int]]:
        """All unordered dependent pairs (i, j) with i < j."""
        return [(i, j) for i in range(self.num_events) for j in self.adjacency[i] if i < j]

    def closed_neighborhood(self, i: int) -> frozenset[int]:
        return frozenset(self.adjacency[i]) | {i}


def build_dependency_graph(instance: Instance) -> DependencyGraph:
    """Pairwise shared-variable dependency graph of the instance's events."""
    neigh: list[set[int]] = [set() for _ in instance.events]
    for ids in instance.var_events:
        for i in ids:
            for j in ids:
                if i != j:
                    neigh[i].add(j)
    return DependencyGraph(
        len(instance.events), tuple(tuple(sorted(s)) for s in neigh)
    )


def occurs(event: EventSpec, assignment) -> bool:
    """Does the event occur under an assignment covering all of vbl(event)?

    ``assignment`` may be a list/tuple indexed by variable id or a dict.
    """
    try:
        key = tuple(assignment[v] for v in event.vbl)
    except (KeyError, IndexError):
        raise ValueError(
            "assignment does not cover all variables of event %d" % event.id
        ) from None
    return key in event.violating


def compatible(event: EventSpec, partial: Mapping[int, int]) -> bool:
    """Can the event still occur given the partially fixed variables?

    True iff some violating tuple agrees with ``partial`` on every vbl(event)
    variable that ``partial`` assigns. With nothing relevant assigned this is
    just "the event can occur at all"; with all of vbl(event) assigned it
    coincides with :func:`occurs`.
    """
    fixed = [(pos, partial[v]) for pos, v in enumerate(event.vbl) if v in partial]
    return any(all(t[pos] == val for pos, val in fixed) for t in event.violating)


def occurring_events(instance: Instance, assignment) -> list[int]:
    """Ids of all events occurring under a total assignment, ascending."""
    return [e.id for e in instance.events if occurs(e, assignment)]


def _pair_conflicts(ei: EventSpec, ej: EventSpec, shared: tuple[int, ...]) -> bool:
    """Can ei and ej occur simultaneously? (They share the given variables.)"""
    pos_i = [ei.vbl.index(v) for v in shared]
    pos_j = [ej.vbl.index(v) for v in shared]
    proj_j = {tuple(t[p] for p in pos_j) for t in ej.violating}
    return any(tuple(t[p] for p in pos_i) in proj_j for t in ei.violating)


def is_extremal(
    instance: Instance,
    graph: DependencyGraph | None = None,
    max_pair_states: int = MAX_PAIR_STATES,
) -> bool:
    """Are all dependent event pairs disjoint?

    On an extremal instance the occurring events always form an independent
    set of the dependency graph. Each pair check is exact; the joint state
    space of each dependent pair is capped to keep certification honest.
    """
    if graph is None:
        graph = instance.dependency_graph
    for i, j in graph.dependent_pairs():
        ei, ej = instance.events[i], instance.events[j]
        union = sorted(set(ei.vbl) | set(ej.vbl))
        states = 1
        for v in union:
            states *= instance.variables[v].domain_size
        if states > max_pair_states:
            raise BudgetError(
                "extremality check for events (%d, %d) needs %d joint states; "
                "cap is %d, too large to certify" % (i, j, states, max_pair_states)
            )
        shared = tuple(sorted(set(ei.vbl) & set(ej.vbl)))
        if _pair_conflicts(ei, ej, shared):
            return False
    return True


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


def r_max(instance: Instance, graph: DependencyGraph | None = None) -> Fraction:
    """The largest r_ij over dependent ordered pairs; 0 with no dependent pair."""
    values = r_matrix(instance, graph).values()
    return max(values, default=Fraction(0))


def cumulative_tables(instance: Instance) -> tuple[tuple[float, ...], ...]:
    """Per-variable cumulative sampling tables.

    Variables with equal weight vectors share one table object. Samplers
    read them through ``Instance.sampling_tables``, built once per instance.
    """
    shared: dict[tuple[Fraction, ...], tuple[float, ...]] = {}
    for v in instance.variables:
        if v.weights not in shared:
            shared[v.weights] = cumulative_table(v.weights)
    return tuple(shared[v.weights] for v in instance.variables)


def sample_product(instance: Instance, rng, tables=None) -> list[int]:
    """Draw a total assignment from the product distribution, one variate per variable."""
    if tables is None:
        tables = instance.sampling_tables
    random = rng.random
    return [bisect_right(t, random()) for t in tables]


def joint_state_count(instance: Instance) -> int:
    n = 1
    for v in instance.variables:
        n *= v.domain_size
    return n


def enumerate_assignments(instance: Instance, cap: int = MAX_PAIR_STATES):
    """Yield every total assignment (as a tuple), guarded by a state cap."""
    states = joint_state_count(instance)
    if states > cap:
        raise BudgetError(
            "instance has %d joint states; enumeration cap is %d" % (states, cap)
        )
    return product(*(range(v.domain_size) for v in instance.variables))


def assignment_probability(instance: Instance, assignment: Sequence[int]) -> Fraction:
    """Exact product-measure probability of one total assignment."""
    w = Fraction(1)
    for v, val in zip(instance.variables, assignment):
        w *= v.weights[val]
    return w


# --- JSON instance format ------------------------------------------------
#
# {"variables": [{"id": 0, "domain": 2, "weights": ["1/2", "1/2"]}, ...],
#  "events":    [{"id": 0, "vars": [0, 1], "violating": [[0, 0]]}, ...]}
#
# "weights" is optional (uniform when absent) and must contain exact
# rational strings like "1/3"; decimal notation is rejected.

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/0*[1-9]\d*)?$", re.ASCII)  # no zero denominator


def parse_rational(s, where: str = "value") -> Fraction:
    """Parse an exact rational string 'a/b' (or integer 'a')."""
    if not isinstance(s, str) or not _RATIONAL_RE.match(s.strip()):
        raise ValueError(
            "%s: expected an exact rational string like '1/3', got %r" % (where, s)
        )
    return Fraction(s.strip())


def _is_int(x) -> bool:
    """A JSON integer: ``true`` and ``false`` are not, although Python says so."""
    return isinstance(x, int) and not isinstance(x, bool)


def instance_from_json(obj) -> Instance:
    """Build an Instance from the JSON object format, validating shapes.

    Malformed input raises ValueError naming where it is, such as
    ``events[2].violating[0]``.
    """
    if not isinstance(obj, dict) or "variables" not in obj or "events" not in obj:
        raise ValueError("instance JSON must contain 'variables' and 'events'")
    for key in ("variables", "events"):
        if not isinstance(obj[key], list):
            raise ValueError("'%s' must be a list, got %s" % (key, type(obj[key]).__name__))
    variables = []
    for k, raw in enumerate(obj["variables"]):
        where = "variables[%d]" % k
        if not isinstance(raw, dict) or "id" not in raw or "domain" not in raw:
            raise ValueError("%s must have 'id' and 'domain'" % where)
        vid, dom = raw["id"], raw["domain"]
        if not _is_int(vid) or not _is_int(dom):
            raise ValueError("%s: 'id' and 'domain' must be integers" % where)
        if dom < 1:
            raise ValueError("%s: 'domain' must be at least 1, got %d" % (where, dom))
        if "weights" in raw:
            ws = raw["weights"]
            if not isinstance(ws, list) or len(ws) != dom:
                raise ValueError("%s: 'weights' must list %d entries" % (where, dom))
            weights = tuple(
                parse_rational(w, "%s.weights[%d]" % (where, i)) for i, w in enumerate(ws)
            )
            variables.append(VariableSpec(vid, dom, weights))
        else:
            variables.append(uniform_variable(vid, dom))
    events = []
    for k, raw in enumerate(obj["events"]):
        where = "events[%d]" % k
        if not isinstance(raw, dict) or not {"id", "vars", "violating"} <= set(raw):
            raise ValueError("%s must have 'id', 'vars' and 'violating'" % where)
        eid, vbl, tuples = raw["id"], raw["vars"], raw["violating"]
        if not _is_int(eid):
            raise ValueError("%s: 'id' must be an integer, got %r" % (where, eid))
        if not isinstance(vbl, list) or not all(map(_is_int, vbl)):
            raise ValueError("%s: 'vars' must be a list of integers" % where)
        if len(set(vbl)) != len(vbl):
            raise ValueError("%s: 'vars' repeats a variable: %r" % (where, vbl))
        if not isinstance(tuples, list):
            raise ValueError("%s: 'violating' must be a list of integer lists" % where)
        for i, t in enumerate(tuples):
            if not isinstance(t, list) or not all(map(_is_int, t)):
                raise ValueError("%s.violating[%d] must be a list of integers" % (where, i))
            if len(t) != len(vbl):
                raise ValueError(
                    "%s.violating[%d] has %d values for %d vars" % (where, i, len(t), len(vbl))
                )
        events.append(make_event(eid, vbl, tuples))
    return Instance(tuple(variables), tuple(events))


def instance_to_json(instance: Instance) -> dict:
    """Serialize an Instance to the JSON object format (weights as 'a/b')."""
    return {
        "variables": [
            {
                "id": v.id,
                "domain": v.domain_size,
                "weights": [str(w) for w in v.weights],
            }
            for v in instance.variables
        ],
        "events": [
            {
                "id": e.id,
                "vars": list(e.vbl),
                "violating": sorted(list(t) for t in e.violating),
            }
            for e in instance.events
        ],
    }


def load_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as ex:
            raise ValueError("%s: invalid JSON: %s" % (path, ex)) from None
    return instance_from_json(obj)


def save_instance(instance: Instance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_json(instance), fh, indent=2, sort_keys=True)
        fh.write("\n")
