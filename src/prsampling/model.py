"""Constraint instances over independent finite variables.

An :class:`Instance` is a finite product distribution together with a set
of "bad events". Each variable has a finite domain with exact rational
weights; each event names the variables it depends on and lists the
violating joint values explicitly. Two events are dependent when they
share a variable; a valid assignment is one under which no event occurs.

Each check runs once, at the layer that owns it. The public constructors
check everything, on every call: ``VariableSpec`` its id, arity and
weights, ``EventSpec`` its id, ascending vbl, width cap ``MAX_EVENT_VARS``
and tuple arities, ``Instance`` its dense ids and that every vbl and value
is in range. The builders whose input is checked already (the encoders of
``graph_apps``, ``cnf.cnf_to_instance`` and :func:`instance_from_json`,
whose docstrings say what each relies on) skip those checks through the
private helpers ``_variable``, ``_shared_variables``, ``_event``,
``_events`` and ``_instance``; the two plural ones fill each field of all
their specs in one pass (``_records``). They check each weight vector they
parse or compute through one ``VariableSpec``, however many variables
share it (uniform weights, on at most ``MAX_UNIFORM_DOMAIN`` values, are
valid as made), and every event against the width cap, which no input
layer bounds (``_events`` once, by its widest event). Each vector is scaled
to integers once per computation, not once per variable that shares it.
The parsers below do the same: ``graphs.parse_edge_list`` makes its
``Graph`` unchecked when its one-pass read of a canonical edge list has
made ``Graph``'s checks, and ``cnf.parse_dimacs`` its ``CnfFormula`` from
the clauses it has checked.

The caps are module constants, read when a function runs; exceeding one
raises ``BudgetError`` rather than degrading.

All probability computations in this module are exact. Weight sums run in
integers, each variable's weights scaled to their least common denominator,
and return one ``Fraction`` per event, or the largest r_ij (:func:`r_max`). Sampling draws each
variable from a double-precision cumulative table built from the exact
weights.

An instance compiles what the samplers need on first use and keeps it: the
variable-to-events index, each event's occurrence test (an ``itemgetter``
over its variables and the set that value is looked up in), the watch
index, the value rows of the resampling-set selector, the sampling tables
with their byte tables for a whole product draw, and the extremality
verdict; the dependency graph is kept too, for the analyses. :func:`occurs`
stays the reference definition the compiled tests must agree with.

The watch index lets a sampler find the events occurring under a fresh
draw without testing every event: each event is watched at one variable,
and only the events watched at a variable's drawn value need a test. It is
built only where the counts say it pays (:func:`build_watch_index`), and
decides which events get tested, never how.
"""

from __future__ import annotations

import json
import math
import re
from collections import defaultdict, deque
from collections.abc import Iterable, Mapping, Sequence
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import accumulate, chain, count, groupby, product, repeat
from operator import attrgetter, itemgetter, lt

from .errors import BudgetError
from .records import FrozenRecord, _unchecked
from .rng import byte_tables, cumulative_table, draw_indices
from .rng import draw_index  # noqa: F401 (bench/tracing.py counts calls through this name)

MAX_EVENT_VARS = 24
MAX_PAIR_STATES = 2 ** 24  # joint states of an event pair, or of an enumerated instance
MAX_UNIFORM_DOMAIN = 2 ** 22
SHARED_UNIFORM_DOMAIN = 256  # uniform weights up to this many values are made once


class VariableSpec(FrozenRecord):
    """One variable: a finite domain with exact rational weights summing to 1."""

    __slots__ = _fields = ("id", "domain_size", "weights")

    def __init__(self, id: int, domain_size: int, weights: tuple[Fraction, ...]):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "domain_size", domain_size)
        object.__setattr__(self, "weights", weights)
        if id < 0:
            raise ValueError("variable id must be nonnegative, got %d" % id)
        if domain_size < 1:
            raise ValueError("variable %d: domain_size must be >= 1" % id)
        if len(weights) != domain_size:
            raise ValueError(
                "variable %d: %d weights for domain of size %d" % (id, len(weights), domain_size)
            )
        for w in weights:
            if not isinstance(w, Fraction):
                raise ValueError("variable %d: weights must be Fractions" % id)
            if w < 0:
                raise ValueError("variable %d: negative weight %s" % (id, w))
        if sum(weights) != 1:
            raise ValueError("variable %d: weights sum to %s, not 1" % (id, sum(weights)))


def _uniform_weights(domain_size: int) -> tuple[Fraction, ...]:
    """The uniform weights on ``domain_size`` values; none below one value,
    for ``VariableSpec`` to reject. Every call for a domain of at most
    ``SHARED_UNIFORM_DOMAIN`` values returns one tuple, which variables and
    their sampling tables then share; a larger domain gets a new tuple,
    which no cache keeps alive after its instance."""
    if domain_size > MAX_UNIFORM_DOMAIN:
        raise BudgetError(
            "uniform domain of %d values; cap is %d" % (domain_size, MAX_UNIFORM_DOMAIN)
        )
    if domain_size <= SHARED_UNIFORM_DOMAIN:
        return _shared_uniform_weights(domain_size) if domain_size > 0 else ()
    return (Fraction(1, domain_size),) * domain_size


@lru_cache(maxsize=None, typed=True)
def _shared_uniform_weights(domain_size: int) -> tuple[Fraction, ...]:
    return (Fraction(1, domain_size),) * domain_size


def uniform_variable(vid: int, domain_size: int) -> VariableSpec:
    """A variable with the uniform distribution on ``domain_size`` values."""
    return VariableSpec(vid, domain_size, _uniform_weights(domain_size))


class EventSpec(FrozenRecord):
    """One bad event: an explicit set of violating joint values.

    ``vbl`` lists the variables the event depends on, strictly ascending;
    each violating tuple gives one value per variable in that order.
    """

    __slots__ = _fields = ("id", "vbl", "violating")

    def __init__(self, id: int, vbl: tuple[int, ...], violating: frozenset[tuple[int, ...]]):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "vbl", vbl)
        object.__setattr__(self, "violating", violating)
        if id < 0:
            raise ValueError("event id must be nonnegative, got %d" % id)
        if not vbl:
            raise ValueError("event %d depends on no variables" % id)
        if not all(map(lt, vbl, vbl[1:])):
            raise ValueError("event %d: vbl must be strictly ascending, got %r" % (id, vbl))
        if len(vbl) > MAX_EVENT_VARS:
            raise BudgetError(
                "event %d depends on %d variables; cap is %d" % (id, len(vbl), MAX_EVENT_VARS)
            )
        for t in violating:
            if len(t) != len(vbl):
                raise ValueError(
                    "event %d: violating tuple %r has arity %d, expected %d"
                    % (id, t, len(t), len(vbl))
                )


def make_event(eid: int, variables: Sequence[int], tuples: Iterable[Sequence[int]]) -> EventSpec:
    """Build an event from variables in any order, permuting tuples to match."""
    return EventSpec(eid, *_ascending(variables, tuples))


def _ascending(variables: Sequence[int], tuples) -> tuple[tuple[int, ...], frozenset]:
    """``vbl`` and ``violating`` of an event on ``variables`` in any order."""
    if all(map(lt, variables, variables[1:])):
        return tuple(variables), frozenset(map(tuple, tuples))
    order = sorted(range(len(variables)), key=lambda k: variables[k])
    vbl = tuple(variables[k] for k in order)
    # A tuple of the wrong arity is passed on as given, for EventSpec to reject.
    violating = frozenset(
        tuple(t[k] for k in order) if len(t) == len(order) else tuple(t) for t in tuples
    )
    return vbl, violating


class Instance(FrozenRecord):
    """A product distribution plus bad events over its variables.

    What the samplers and analyses derive from an instance (the
    variable-to-events index, the compiled occurrence tests, the watch
    index, the selector's value rows, the dependency graph, the sampling
    tables, their byte tables and the extremality verdict) is built on
    first use and kept for every later call on the same object; the
    instance is immutable, so none of it can go stale. The cached values
    take no part in ``==`` or ``hash``. No sampler builds the dependency
    graph; the analyses and the verification suites do.
    """

    _fields = ("variables", "events")

    def __init__(self, variables: tuple[VariableSpec, ...], events: tuple[EventSpec, ...]):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "events", events)
        for k, v in enumerate(variables):
            if v.id != k:
                raise ValueError(
                    "variable ids must be dense and ascending: position %d has id %d"
                    % (k, v.id)
                )
        domains = [v.domain_size for v in variables]
        for k, e in enumerate(events):
            if e.id != k:
                raise ValueError(
                    "event ids must be dense and ascending: position %d has id %d"
                    % (k, e.id)
                )
            # vbl ascends, so its two ends bound all of it.
            if e.vbl[0] < 0 or e.vbl[-1] >= len(domains):
                v = next(v for v in e.vbl if not 0 <= v < len(domains))
                raise ValueError("event %d references unknown variable %d" % (e.id, v))
            for t in e.violating:
                for v, val in zip(e.vbl, t):
                    if not 0 <= val < domains[v]:
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
    def watch_index(self) -> tuple | None:
        """:func:`build_watch_index` of this instance."""
        return build_watch_index(self)

    @cached_property
    def value_rows(self) -> tuple:
        """:func:`build_value_rows` of this instance."""
        return build_value_rows(self)

    @cached_property
    def dependency_graph(self) -> DependencyGraph:
        """:func:`build_dependency_graph` of this instance."""
        return build_dependency_graph(self)

    @cached_property
    def sampling_tables(self) -> tuple[tuple[float, ...], ...]:
        """:func:`cumulative_tables` of this instance."""
        return cumulative_tables(self)

    @cached_property
    def byte_tables(self) -> bytes | tuple:
        """:func:`prsampling.rng.byte_tables` of the sampling tables."""
        return byte_tables(self.sampling_tables)

    @cached_property
    def extremal(self) -> bool:
        """:func:`is_extremal` of this instance."""
        return is_extremal(self)

    @cached_property
    def certified_extremal(self) -> bool:
        """:attr:`extremal`, or False where its check is over the cap: a
        BudgetError is not cached by :attr:`extremal`, so it would rerun."""
        try:
            return self.extremal
        except BudgetError:
            return False


# --- specs from checked values ---------------------------------------------
#
# For the builders of the module docstring: each sets the fields through
# the slot setters. Copies and pickles of what they make go through the
# checked constructors.

_new = object.__new__
_VARIABLE_SETTERS = tuple(VariableSpec.__dict__[f].__set__ for f in VariableSpec._fields)
_EVENT_SETTERS = tuple(EventSpec.__dict__[f].__set__ for f in EventSpec._fields)


def _records(cls, count: int, *columns) -> tuple:
    """``count`` records of the slotted class ``cls``, unchecked, field k
    of record i from ``columns[k][i]``: one pass of a slot setter per
    field, not a Python call per record."""
    records = tuple(map(_new, repeat(cls, count)))
    for name, column in zip(cls._fields, columns):
        deque(map(cls.__dict__[name].__set__, records, column), maxlen=0)
    return records


def _variable(vid: int, domain_size: int, weights: tuple[Fraction, ...]) -> VariableSpec:
    """A VariableSpec, unchecked: the caller guarantees ``vid >= 0`` and a
    checked ``weights`` of ``domain_size`` entries."""
    v = _new(VariableSpec)
    set_id, set_domain, set_weights = _VARIABLE_SETTERS
    set_id(v, vid)
    set_domain(v, domain_size)
    set_weights(v, weights)
    return v


def _shared_variables(count: int, domain_size: int, weights) -> tuple[VariableSpec, ...]:
    """Variables 0 to count - 1 on one weight vector, which the first one,
    a checked VariableSpec, checks."""
    if not count:
        return ()
    VariableSpec(0, domain_size, weights)
    return _records(VariableSpec, count, range(count), repeat(domain_size), repeat(weights))


def _event(eid: int, vbl: tuple[int, ...], violating: frozenset) -> EventSpec:
    """An EventSpec checked for the width cap only: the caller guarantees
    ``eid >= 0``, a strictly ascending ``vbl`` and violating tuples of its
    arity."""
    if len(vbl) > MAX_EVENT_VARS:
        return EventSpec(eid, vbl, violating)  # which raises the BudgetError
    e = _new(EventSpec)
    set_id, set_vbl, set_violating = _EVENT_SETTERS
    set_id(e, eid)
    set_vbl(e, vbl)
    set_violating(e, violating)
    return e


def _events(vbls: Sequence[tuple[int, ...]], violating: Iterable[frozenset]) -> tuple:
    """Events 0 to len(vbls) - 1, event i on ``vbls[i]`` with the i-th
    violating set, checked for the width cap only, as by :func:`_event`,
    which raises the same ``BudgetError`` for the first event over it."""
    if max(map(len, vbls), default=0) > MAX_EVENT_VARS:
        return tuple(map(_event, count(), vbls, violating))
    return _records(EventSpec, len(vbls), range(len(vbls)), vbls, violating)


def _instance(variables: tuple[VariableSpec, ...], events: tuple[EventSpec, ...]) -> Instance:
    """An Instance, unchecked: the caller guarantees dense variable and
    event ids, every vbl in range and every violating value in its
    variable's domain."""
    return _unchecked(Instance, variables, events)


class DependencyGraph(FrozenRecord):
    """Events as vertices; an edge joins events sharing a variable.

    A neighbour that an adjacency list names more than once is one
    neighbour, in ``max_degree`` as in every analysis of ``shearer``.
    """

    _fields = ("num_events", "adjacency")

    @property
    def max_degree(self) -> int:
        longest = max(self.adjacency, key=len, default=())
        if len(set(longest)) == len(longest):
            return len(longest)  # no list has more distinct neighbours
        return max(map(len, map(set, self.adjacency)))

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


def build_watch_index(instance: Instance) -> tuple | None:
    """Triples ``(x, row, by_truth)``, ascending in x: ``row[v]`` lists,
    ascending, the events watched at variable v that some violating tuple
    lets take value x there. None where testing every event is cheaper.

    Each event is watched at its variable whose violating values weigh
    least (the first on ties), so an event can occur under sigma only if it
    is listed under ``sigma[v]`` at its watched variable. Finding the
    listed events costs one pass over the variables per watched value, plus
    a test per listed event; the index is built only when that is expected
    to be fewer steps than the events, which needs more events than
    variables. The weights are the sampling tables' floats: the watched
    variable sets the cost of a scan, never its result. ``by_truth`` says
    that every variable is binary and x is 1, so that the variables valued
    x are those whose value is true, found without comparing.
    """
    n, events = instance.num_variables, instance.events
    if n >= len(events):
        return None
    tables = instance.sampling_tables
    table_ids = list(map(id, tables))
    probs = {  # table id -> the probability of each value
        k: [b - a for a, b in zip((0.0, *t), (*t, 1.0))]
        for k, t in dict(zip(table_ids, tables)).items()
    }
    # Events with equal violating sets over equally weighted variables are
    # watched alike; with one weight vector the violating set alone decides.
    if len(probs) == 1:
        (p,) = probs.values()
        groups = list(map(attrgetter("violating"), events))
        chosen = {g: _watch(g, repeat(p)) for g in dict.fromkeys(groups)}
    else:
        groups = [(e.violating, tuple(map(table_ids.__getitem__, e.vbl))) for e in events]
        chosen = {g: _watch(g[0], map(probs.__getitem__, g[1])) for g in dict.fromkeys(groups)}
    watches = list(map(chosen.__getitem__, groups))
    values = set().union(*(vals for _, vals, _ in chosen.values()))
    if len(values) * n + sum(map(itemgetter(2), watches)) >= len(events):
        return None
    watched = [e.vbl[k] for e, (k, _, _) in zip(events, watches)]
    var_events = instance.var_events
    binary = {v.domain_size for v in instance.variables} == {2}
    index = []
    # Rows are cut from one sorted list, not appended to a list per
    # variable: n lists would add n objects for the cyclic collector to
    # walk, which cost a one-draw run a full collection.
    for x in sorted(values):
        listed = sorted(
            [e.id for e, (_, vals, _) in zip(events, watches) if x in vals],
            key=watched.__getitem__,
        )
        row = [()] * n
        for v, ids in groupby(listed, watched.__getitem__):
            ids = tuple(ids)
            # A variable watching all its events under x lists them by the
            # var_events tuple it already has, not by a copy.
            row[v] = var_events[v] if len(ids) == len(var_events[v]) else ids
        index.append((x, tuple(row), binary and x == 1))
    return tuple(index)


_NO_COLUMNS = (frozenset(),) * MAX_EVENT_VARS  # an empty violating set's columns


def build_value_rows(instance: Instance) -> tuple:
    """``(base, live, dead)`` for the resampling-set selector.

    Variable v fixed at value x has the key ``k = base[v] + x``: ``live[k]``
    lists, ascending, the events on v that some violating tuple lets take x
    there, and ``dead[k]`` the rest of ``var_events[v]``, which cannot occur
    while v keeps x. A row holding all of ``var_events[v]`` is that tuple,
    not a copy, and the rows take one key per domain value, so their size
    is the sum of the domain sizes.
    """
    events, var_events = instance.events, instance.var_events
    domains = [v.domain_size for v in instance.variables]
    base = tuple(accumulate(domains, initial=0))
    violating = list(map(attrgetter("violating"), events))
    # The values each position of a violating set takes; a set with no
    # tuple takes none, at every position.
    columns = {
        vio: tuple(map(frozenset, zip(*vio))) if vio else _NO_COLUMNS
        for vio in set(violating)
    }
    shared = set(chain.from_iterable(columns.values()))
    if len(shared) == 1:
        # Every event takes the same values at each of its variables (the
        # hard-core encoding, for one), so every row is all or nothing.
        (values,) = shared
        pattern = {d: [x in values for x in range(d)] for d in set(domains)}
        keyed = [(ve, taken) for ve, d in zip(var_events, domains) for taken in pattern[d]]
        live = [ve if taken else () for ve, taken in keyed]
        dead = [() if taken else ve for ve, taken in keyed]
    else:
        live = [()] * base[-1]
        dead = list(chain.from_iterable(map(repeat, var_events, domains)))
        listed = defaultdict(list)  # key -> the events live there
        vbls = map(attrgetter("vbl"), events)
        for i, vbl, cols in zip(count(), vbls, map(columns.__getitem__, violating)):
            for v, values in zip(vbl, cols):
                b = base[v]
                for x in values:
                    listed[b + x].append(i)
        for k, ids in listed.items():
            every = dead[k]  # var_events of k's variable
            if len(ids) == len(every):
                live[k], dead[k] = every, ()
            else:
                taken = set(ids)
                live[k], dead[k] = tuple(ids), tuple([i for i in every if i not in taken])
    return base, tuple(live), tuple(dead)


def _watch(violating, probs) -> tuple[int, frozenset[int], float]:
    """``(k, values, weight)`` for the position k of the event's variables
    whose values in its violating tuples weigh least, the first on ties;
    ``probs`` gives each position's probabilities. An event with no
    violating tuple takes no value, so no index lists it."""
    best = (0, frozenset(), 0.0)
    for k, (p, column) in enumerate(zip(probs, zip(*violating))):
        values = frozenset(column)
        weight = sum(map(p.__getitem__, values))
        if k == 0 or weight < best[2]:
            best = k, values, weight
    return best


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


def _project(event: EventSpec, shared) -> tuple[list[int], set[tuple[int, ...]]]:
    """The variables of ``event`` in ``shared``, ascending, and its violating tuples on them."""
    pos = [k for k, v in enumerate(event.vbl) if v in shared]
    return [event.vbl[k] for k in pos], {tuple([t[k] for k in pos]) for t in event.violating}


def is_extremal(instance: Instance) -> bool:
    """Are all dependent event pairs disjoint?

    On an extremal instance the occurring events always form an independent
    set of the dependency graph. Each pair check is exact; the joint state
    space of each dependent pair is capped at ``MAX_PAIR_STATES`` to keep
    certification honest: as in a scan of the pairs in ascending order, the
    first pair over the cap raises unless a conflicting pair precedes it.
    Only pairs requiring a common value of a shared variable can conflict;
    if they share no other variable they do, else they are projected onto
    their shared variables.
    """
    events, variables, cap = instance.events, instance.variables, MAX_PAIR_STATES

    def states(i, j):
        union = set(events[i].vbl) | set(events[j].vbl)
        return math.prod(variables[v].domain_size for v in union)

    over = None  # the first dependent pair over the cap
    # Two bounds that spare the scan: a pair has at most twice the variables
    # of the widest event, and no more than the instance has.
    widest = max((len(e.vbl) for e in events), default=0)
    if (
        max((v.domain_size for v in variables), default=1) ** (2 * widest) > cap
        and joint_state_count(instance) > cap
    ):
        dependent = {(i, j) for ids in instance.var_events for i in ids for j in ids if i < j}
        over = min((p for p in dependent if states(*p) > cap), default=None)
    requiring: dict[tuple[int, int], list[int]] = {}  # (variable, value) -> event ids
    tried = set()
    for j, e in enumerate(events):
        for v, column in zip(e.vbl, zip(*e.violating)):
            for val in set(column):
                for i in requiring.setdefault((v, val), []):
                    if (i, j) not in tried and (over is None or (i, j) < over):
                        tried.add((i, j))
                        s = set(events[i].vbl).intersection(e.vbl)
                        if len(s) == 1 or _project(e, s)[1] & _project(events[i], s)[1]:
                            return False
                requiring[v, val].append(j)
    if over is not None:
        raise BudgetError(
            "extremality check for events (%d, %d) needs %d joint states; "
            "cap is %d, too large to certify" % (*over, states(*over), cap)
        )
    return True


def _scale(weights: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """The weights as integers over their least common denominator."""
    den = math.lcm(*[w.denominator for w in weights])
    return tuple([w.numerator * den // w.denominator for w in weights]), den


def _scaled_rows(variables: Sequence[VariableSpec]) -> list[tuple[tuple[int, ...], int]]:
    """Each variable's :func:`_scale` row; each distinct weight vector object
    is scaled once, and the variables that share it share its row."""
    weights = [v.weights for v in variables]
    rows = {id(ws): ws for ws in weights}
    rows = {k: _scale(ws) for k, ws in rows.items()}
    return [rows[id(ws)] for ws in weights]


def _weight_sum(scaled, vbl: Sequence[int], tuples) -> tuple[int, int]:
    """Exact product-measure weight of the value tuples over ``vbl``, as an
    unreduced ``(numerator, denominator)`` pair of integers; ``scaled[v]``
    is variable v's row of :func:`_scale`."""
    rows = [scaled[v] for v in vbl]
    num = 0
    for t in tuples:
        w = 1
        for (nums, _), val in zip(rows, t):
            w *= nums[val]
        num += w
    den = 1
    for _, d in rows:
        den *= d
    return num, den


def event_probability(instance: Instance, event: EventSpec) -> Fraction:
    """Exact probability that the event occurs under the product measure."""
    scaled = {v: _scale(instance.variables[v].weights) for v in event.vbl}
    return Fraction(*_weight_sum(scaled, event.vbl, event.violating))


def event_probabilities(instance: Instance) -> list[Fraction]:
    scaled = _scaled_rows(instance.variables)
    return [Fraction(*_weight_sum(scaled, e.vbl, e.violating)) for e in instance.events]


def r_max(instance: Instance, graph: DependencyGraph | None = None) -> Fraction:
    """The largest r_ij over dependent ordered pairs; 0 with no dependent pair.

    r_ij depends only on j and on S, the variables j shares with i: it is the
    weight of the values on S that extend to a violating tuple of j. It only
    shrinks as S grows: a value on a larger set that extends restricts on S
    to one that does. So r_ij <= w_jv for v in S, where w_jv, j weighed alone
    at v, is the weight of the values j's violating tuples take there. This
    bounds a search, in order: weigh each event alone at its shared
    variables; skip it if no w_jv beats the best so far; fold into the best
    the variables some neighbour shares alone; then weigh a larger shared set
    only if each of its w_jv still beats the best. ``graph`` is the
    instance's dependency graph; sums are compared as integer cross-products.
    """
    graph, var_events = graph or instance.dependency_graph, instance.var_events
    events, scaled, best_num, best_den = instance.events, _scaled_rows(instance.variables), 0, 1
    for event, adjacent in zip(events, graph.adjacency):
        over = {}  # v -> w_jv, for the shared variables whose w_jv beats the best
        for v, column in zip(event.vbl, zip(*event.violating)):
            if len(var_events[v]) > 1:
                nums, den = scaled[v]
                num = sum(map(nums.__getitem__, set(column)))
                if num * best_den > best_num * den:
                    over[v] = num, den
        if not over:
            continue
        vj = frozenset(event.vbl)
        for s in sorted({vj.intersection(events[i].vbl) for i in adjacent}, key=len):
            if over.keys() >= s:  # singles come first, and are weighed already
                num, den = over[min(s)] if len(s) == 1 else _weight_sum(scaled, *_project(event, s))
                if num * best_den > best_num * den:
                    best_num, best_den = num, den
                    over = {v: w for v, w in over.items() if w[0] * best_den > best_num * w[1]}
    return Fraction(best_num, best_den)


def cumulative_tables(instance: Instance) -> tuple[tuple[float, ...], ...]:
    """Per-variable cumulative sampling tables.

    Variables with equal tables share one table object. Samplers read them
    through ``Instance.sampling_tables``, built once per instance. Each
    weight vector object is tabled once, and no ``Fraction`` is hashed: the
    floats of its table say which table it shares.
    """
    shared: dict[tuple[float, ...], tuple[float, ...]] = {}
    by_object: dict[int, tuple[float, ...]] = {}  # id(weights) -> table
    for v in instance.variables:
        if id(v.weights) not in by_object:
            table = cumulative_table(v.weights)
            by_object[id(v.weights)] = shared.setdefault(table, table)
    return tuple(by_object[id(v.weights)] for v in instance.variables)


def sample_product(instance: Instance, rng) -> list[int]:
    """Draw a total assignment from the product distribution: the value
    ``draw_index`` gives each variable in ascending id order, one variate
    each, taken in one bulk draw (:func:`prsampling.rng.draw_indices`)."""
    return draw_indices(rng, instance.sampling_tables, instance.byte_tables)


def joint_state_count(instance: Instance) -> int:
    n = 1
    for v in instance.variables:
        n *= v.domain_size
    return n


def enumerate_assignments(instance: Instance):
    """Yield every total assignment (as a tuple), for at most
    ``MAX_PAIR_STATES`` joint states."""
    states = joint_state_count(instance)
    if states > MAX_PAIR_STATES:
        raise BudgetError(
            "instance has %d joint states; enumeration cap is %d" % (states, MAX_PAIR_STATES)
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


def _typed_variables(raws: list) -> bool:
    """Is every variable a dict with integer 'id' and 'domain'? One type pass, as for events."""
    try:
        ints = chain.from_iterable(map(itemgetter("id", "domain"), raws))
        return {*map(type, raws)} <= {dict} and {*map(type, ints)} <= {int}
    except KeyError:
        return False


def _typed_events(raws: list) -> bool:
    """Is every event a dict whose 'id' is an integer, whose 'vars' is a
    list of integers and whose 'violating' is a list of integer lists? One
    pass over the types of all of them, where a check per entry calls
    ``_is_int`` once per integer. False also for ``int`` subclasses, which
    the checks per entry then tell from ``bool``."""
    if not {*map(type, raws)} <= {dict}:
        return False
    try:
        ids, vbls, tuples = zip(*map(itemgetter("id", "vars", "violating"), raws))
    except (KeyError, ValueError):  # a key missing, or no events
        return False
    if not {*map(type, chain(vbls, tuples))} <= {list}:
        return False
    rows = list(chain.from_iterable(tuples))
    ints = chain(ids, chain.from_iterable(vbls), chain.from_iterable(rows))
    return {*map(type, rows)} <= {list} and {*map(type, ints)} <= {int}


def instance_from_json(obj) -> Instance:
    """Build an Instance from the JSON object format, validating shapes.

    Malformed input raises ValueError naming where it is, such as
    ``events[2].violating[0]``. The loader checks the shapes and types
    itself, and each new weight vector through one ``VariableSpec``. An
    event whose id, vars and tuples pass one test per entry is made without
    ``EventSpec``'s checks, any other through ``make_event``, which raises
    what it did before; ``Instance`` still checks the ids and ranges.
    """
    if not isinstance(obj, dict) or "variables" not in obj or "events" not in obj:
        raise ValueError("instance JSON must contain 'variables' and 'events'")
    for key in ("variables", "events"):
        if not isinstance(obj[key], list):
            raise ValueError("'%s' must be a list, got %s" % (key, type(obj[key]).__name__))
    variables = []
    # Weight strings -> the weights, once a checked VariableSpec has taken them.
    checked: dict[tuple, tuple[Fraction, ...]] = {}
    uniform: dict[int, tuple[Fraction, ...]] = {}  # domain -> its uniform weights
    typed = _typed_variables(obj["variables"])  # if so, only the values are left to check
    for k, raw in enumerate(obj["variables"]):
        if not (typed or isinstance(raw, dict) and "id" in raw and "domain" in raw):
            raise ValueError("variables[%d] must have 'id' and 'domain'" % k)
        vid, dom = raw["id"], raw["domain"]
        if not (typed or _is_int(vid) and _is_int(dom)):
            raise ValueError("variables[%d]: 'id' and 'domain' must be integers" % k)
        if dom < 1:
            raise ValueError("variables[%d]: 'domain' must be at least 1, got %d" % (k, dom))
        if "weights" not in raw:
            weights = uniform.get(dom)
            if weights is None:  # valid as made, and shared by this instance
                weights = uniform[dom] = _uniform_weights(dom)
        else:
            ws = raw["weights"]
            if not isinstance(ws, list) or len(ws) != dom:
                raise ValueError("variables[%d]: 'weights' must list %d entries" % (k, dom))
            try:
                weights = checked[tuple(ws)]
            except (KeyError, TypeError):  # TypeError: a list or dict among them
                weights = tuple(
                    parse_rational(w, "variables[%d].weights[%d]" % (k, i))
                    for i, w in enumerate(ws)
                )
                variables.append(VariableSpec(vid, dom, weights))  # which checks them
                checked[tuple(ws)] = weights
                continue
        # The weights are valid and dom long, so only the id is left to check.
        make = _variable if vid >= 0 else VariableSpec
        variables.append(make(vid, dom, weights))
    events = []
    # Violating lists -> one frozenset per distinct list, and its tuples' lengths.
    shared: dict[tuple, tuple[frozenset, set[int]]] = {}
    typed = _typed_events(obj["events"])  # if so, only repeats and arities are left to check
    for k, raw in enumerate(obj["events"]):
        if typed:
            # An entry with a nonnegative id, strictly ascending vars within
            # the width cap and tuples of their arity passes every check of
            # make_event and EventSpec; any other takes the checked path.
            eid, vbl, tuples = raw["id"], raw["vars"], raw["violating"]
            key = tuple(map(tuple, tuples))
            entry = shared.get(key)
            if entry is None:
                entry = shared[key] = frozenset(key), {*map(len, key)}
            violating, arities = entry
            if (
                eid >= 0
                and 0 < len(vbl) <= MAX_EVENT_VARS
                and arities <= {len(vbl)}
                and all(map(lt, vbl, vbl[1:]))
            ):
                events.append(_event(eid, tuple(vbl), violating))
                continue
        if not (typed or isinstance(raw, dict) and raw.keys() >= {"id", "vars", "violating"}):
            raise ValueError("events[%d] must have 'id', 'vars' and 'violating'" % k)
        eid, vbl, tuples = raw["id"], raw["vars"], raw["violating"]
        if not (typed or _is_int(eid)):
            raise ValueError("events[%d]: 'id' must be an integer, got %r" % (k, eid))
        if not (typed or isinstance(vbl, list) and all(map(_is_int, vbl))):
            raise ValueError("events[%d]: 'vars' must be a list of integers" % k)
        if len(set(vbl)) != len(vbl):
            raise ValueError("events[%d]: 'vars' repeats a variable: %r" % (k, vbl))
        if not (typed or isinstance(tuples, list)):
            raise ValueError("events[%d]: 'violating' must be a list of integer lists" % k)
        for i, t in enumerate(tuples):
            if not (typed or isinstance(t, list) and all(map(_is_int, t))):
                raise ValueError("events[%d].violating[%d] must be a list of integers" % (k, i))
            if len(t) != len(vbl):
                raise ValueError(
                    "events[%d].violating[%d] has %d values for %d vars" % (k, i, len(t), len(vbl))
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
