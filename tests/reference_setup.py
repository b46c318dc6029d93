"""Set-up code as it was before it learnt to skip repeated work.

Each function below is the former implementation, kept verbatim (apart
from its name) as an independent reference for
``tests/test_setup_reference.py``:

* ``is_extremal_pairwise`` checks every dependent pair of the dependency
  graph in ascending order, applying the state cap to each, with the
  pair test ``_pair_conflicts``;
* ``parse_edge_list`` parses labels token by token and relabels always;
* ``make_event`` permutes every event's tuples, sorted or not;
* ``uniform_variable`` builds a fresh weight tuple per variable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from prsampling.errors import BudgetError
from prsampling.graphs import Graph, decimal_int
from prsampling.model import (
    MAX_PAIR_STATES,
    DependencyGraph,
    EventSpec,
    Instance,
    VariableSpec,
)


def _pair_conflicts(ei: EventSpec, ej: EventSpec, shared: tuple[int, ...]) -> bool:
    """Can ei and ej occur simultaneously? (They share the given variables.)"""
    pos_i = [ei.vbl.index(v) for v in shared]
    pos_j = [ej.vbl.index(v) for v in shared]
    proj_j = {tuple(t[p] for p in pos_j) for t in ej.violating}
    return any(tuple(t[p] for p in pos_i) in proj_j for t in ei.violating)


def is_extremal_pairwise(
    instance: Instance,
    graph: DependencyGraph | None = None,
    max_pair_states: int = MAX_PAIR_STATES,
) -> bool:
    """Are all dependent event pairs disjoint?"""
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


def parse_edge_list(text: str) -> tuple[Graph, list[int]]:
    """Parse 'u v' lines ('#' starts a comment) into a Graph."""
    pairs = []
    labels = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(
                "line %d: expected 'u v', got %r" % (lineno, raw.rstrip())
            )
        try:
            u, v = decimal_int(parts[0]), decimal_int(parts[1])
        except ValueError:
            raise ValueError(
                "line %d: vertex labels must be integers, got %r" % (lineno, raw.rstrip())
            ) from None
        if u < 0 or v < 0:
            raise ValueError("line %d: vertex labels must be nonnegative" % lineno)
        if u == v:
            raise ValueError("line %d: self-loop %d-%d not allowed" % (lineno, u, v))
        pairs.append((u, v))
        labels.update((u, v))
    ordered = sorted(labels)
    dense = {lab: i for i, lab in enumerate(ordered)}
    edges = set()
    for u, v in pairs:
        e = (min(dense[u], dense[v]), max(dense[u], dense[v]))
        if e in edges:
            raise ValueError("duplicate edge %d-%d" % (u, v))
        edges.add(e)
    return Graph(len(ordered), tuple(sorted(edges))), ordered


def make_event(eid: int, variables: Sequence[int], tuples: Iterable[Sequence[int]]) -> EventSpec:
    """Build an event from variables in any order, permuting tuples to match."""
    order = sorted(range(len(variables)), key=lambda k: variables[k])
    vbl = tuple(variables[k] for k in order)
    # A tuple of the wrong arity is passed on as given, for EventSpec to reject.
    violating = frozenset(
        tuple(t[k] for k in order) if len(t) == len(order) else tuple(t) for t in tuples
    )
    return EventSpec(eid, vbl, violating)


def uniform_variable(vid: int, domain_size: int) -> VariableSpec:
    """A variable with the uniform distribution on ``domain_size`` values."""
    w = Fraction(1, domain_size)
    return VariableSpec(vid, domain_size, (w,) * domain_size)
