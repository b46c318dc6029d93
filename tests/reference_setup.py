"""Set-up code as it was before it learnt to skip repeated work.

Each function below is the former implementation, kept verbatim (apart
from names) as an independent reference for
``tests/test_setup_reference.py``:

* ``is_extremal_pairwise`` checks every dependent pair of the dependency
  graph in ascending order, applying the state cap to each, with the
  pair test ``_pair_conflicts``;
* ``parse_edge_list`` parses labels token by token and relabels always;
* ``make_event`` permutes every event's tuples, sorted or not;
* ``uniform_variable`` builds a fresh weight tuple per variable;
* ``encode_sink_free``, ``encode_spanning_tree``, ``encode_hardcore``,
  ``cnf_to_instance`` and ``instance_from_json`` build every spec and the
  instance through the checked constructors, each check run again on
  values their input layer has already checked;
* ``instance_to_json`` writes an instance from its ``variables`` and
  ``events`` records.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Iterable, Sequence

from prsampling import model
from prsampling.cnf import CnfFormula
from prsampling.errors import BudgetError
from prsampling.graph_apps import _BOTH_OCCUPIED, _exact, spanning_tree_variables
from prsampling.graphs import Graph, decimal_int, simple_cycles
from prsampling.model import (
    MAX_PAIR_STATES,
    DependencyGraph,
    EventSpec,
    Instance,
    VariableSpec,
    parse_rational,
)
from reference_helpers import dependent_pairs


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
    for i, j in dependent_pairs(graph):
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


def encode_sink_free(graph: Graph) -> Instance:
    """Constraint instance: edge variables, one sink event per vertex."""
    variables = tuple(model.uniform_variable(eid, 2) for eid in range(graph.num_edges))
    events = []
    for v in range(graph.num_vertices):
        inc = graph.incident_edges[v]
        if not inc:
            continue
        tup = tuple(0 if v == graph.edges[eid][1] else 1 for eid in inc)
        events.append(model.make_event(len(events), inc, [tup]))
    return Instance(variables, tuple(events))


def encode_spanning_tree(graph: Graph, root: int) -> Instance:
    """Constraint instance for rooted spanning trees."""
    if not graph.is_connected():
        raise ValueError("spanning-tree encoding requires a connected graph")
    vertices = spanning_tree_variables(graph, root)
    var_of = {v: k for k, v in enumerate(vertices)}
    variables = tuple(
        model.uniform_variable(var_of[v], len(graph.adjacency[v])) for v in vertices
    )
    events = []

    def nbr_index(v: int, u: int) -> int:
        return graph.adjacency[v].index(u)

    for u, v in graph.edges:
        if u == root or v == root:
            continue
        events.append(
            model.make_event(
                len(events),
                (var_of[u], var_of[v]),
                [(nbr_index(u, v), nbr_index(v, u))],
            )
        )
    for cyc in simple_cycles(graph):
        if root in cyc:
            continue
        forward = tuple(
            nbr_index(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))
        )
        backward = tuple(
            nbr_index(cyc[i], cyc[(i - 1) % len(cyc)]) for i in range(len(cyc))
        )
        events.append(
            model.make_event(len(events), [var_of[v] for v in cyc], [forward, backward])
        )
    return Instance(variables, tuple(events))


def encode_hardcore(graph: Graph, lam) -> Instance:
    """Constraint instance: vertex occupation variables, one event per edge."""
    lam = _exact(lam)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    w = (1 / (1 + lam), lam / (1 + lam))
    variables = tuple(
        VariableSpec(v, 2, w) for v in range(graph.num_vertices)
    )
    events = tuple(
        EventSpec(eid, edge, _BOTH_OCCUPIED) for eid, edge in enumerate(graph.edges)
    )
    return Instance(variables, events)


def cnf_to_instance(formula: CnfFormula) -> Instance:
    """Compile to a constraint instance over uniform binary variables."""
    variables = tuple(model.uniform_variable(v, 2) for v in range(formula.num_vars))
    events = tuple(
        model.make_event(
            ci,
            [abs(lit) - 1 for lit in clause],
            [tuple(0 if lit > 0 else 1 for lit in clause)],
        )
        for ci, clause in enumerate(formula.clauses)
    )
    return Instance(variables, events)


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
    list of integers and whose 'violating' is a list of integer lists?"""
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
    """Build an Instance from the JSON object format, validating shapes."""
    if not isinstance(obj, dict) or "variables" not in obj or "events" not in obj:
        raise ValueError("instance JSON must contain 'variables' and 'events'")
    for key in ("variables", "events"):
        if not isinstance(obj[key], list):
            raise ValueError("'%s' must be a list, got %s" % (key, type(obj[key]).__name__))
    variables = []
    parsed: dict[tuple, tuple[Fraction, ...]] = {}  # weight strings -> weights
    typed = _typed_variables(obj["variables"])  # if so, only the values are left to check
    for k, raw in enumerate(obj["variables"]):
        if not (typed or isinstance(raw, dict) and "id" in raw and "domain" in raw):
            raise ValueError("variables[%d] must have 'id' and 'domain'" % k)
        vid, dom = raw["id"], raw["domain"]
        if not (typed or _is_int(vid) and _is_int(dom)):
            raise ValueError("variables[%d]: 'id' and 'domain' must be integers" % k)
        if dom < 1:
            raise ValueError("variables[%d]: 'domain' must be at least 1, got %d" % (k, dom))
        if "weights" in raw:
            ws = raw["weights"]
            if not isinstance(ws, list) or len(ws) != dom:
                raise ValueError("variables[%d]: 'weights' must list %d entries" % (k, dom))
            try:
                weights = parsed[tuple(ws)]
            except (KeyError, TypeError):  # TypeError: a list or dict among them
                weights = parsed[tuple(ws)] = tuple(
                    parse_rational(w, "variables[%d].weights[%d]" % (k, i))
                    for i, w in enumerate(ws)
                )
            variables.append(VariableSpec(vid, dom, weights))
        else:
            variables.append(model.uniform_variable(vid, dom))
    events = []
    shared: dict[tuple, frozenset] = {}  # violating lists -> one frozenset per distinct list
    typed = _typed_events(obj["events"])  # if so, only repeats and arities are left to check
    for k, raw in enumerate(obj["events"]):
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
        key = tuple(map(tuple, tuples))
        violating = shared.get(key)
        if violating is None:
            violating = shared[key] = frozenset(key)
        events.append(model.make_event(eid, vbl, violating))
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
