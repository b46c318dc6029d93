"""Shared instance builders and digest helpers for the test suite."""

import hashlib
import json
import random
from fractions import Fraction

from hypothesis import settings

from prsampling.graphs import make_graph
from prsampling.model import Instance, make_event, uniform_variable, VariableSpec

# Property tests draw the same examples on every run and have no per-example
# deadline, so they neither flake nor time out on a slow or loaded runner.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


def clause_instance(clauses, num_vars):
    """Uniform binary instance with one event per clause (DIMACS-style signs)."""
    variables = tuple(uniform_variable(i, 2) for i in range(num_vars))
    events = []
    for eid, clause in enumerate(clauses):
        vbl = [abs(l) - 1 for l in clause]
        tup = [0 if l > 0 else 1 for l in clause]
        events.append(make_event(eid, vbl, [tup]))
    return Instance(variables, tuple(events))


def hardcore_instance(edges, num_vertices, lam=Fraction(1)):
    """One occupied-occupied event per edge; occupation probability lam/(1+lam)."""
    occ = Fraction(lam) / (1 + Fraction(lam))
    variables = tuple(
        VariableSpec(i, 2, (1 - occ, occ)) for i in range(num_vertices)
    )
    events = tuple(
        make_event(eid, (u, v), [(1, 1)]) for eid, (u, v) in enumerate(edges)
    )
    return Instance(variables, events)


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return make_graph(10, outer + spokes + inner)


def grid_graph(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return make_graph(rows * cols, edges)


def random_cubic_graph(n, seed):
    """A connected simple 3-regular graph from the plain pairing model.

    Redraws the whole pairing until it is simple and connected. Kept apart
    from ``prsampling.graphs.random_regular_graph``, so that the graphs (and
    the frozen digests built on them) do not move when that generator does.
    """
    rng = random.Random(seed)
    points = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(points)
        pairs = [(points[k], points[k + 1]) for k in range(0, len(points), 2)]
        if all(u != v for u, v in pairs):
            g = make_graph(n, pairs)
            if g.num_edges == len(pairs) and g.is_connected():
                return g


def run_digest(sample, stats):
    """sha256 of (sample, stats.to_json(include_log=True)): one run's stream."""
    blob = json.dumps(
        [list(sample), stats.to_json(include_log=True)], separators=(",", ":")
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _one_event(**fields):
    """Two binary variables and one valid event, with ``fields`` overriding it."""
    return {
        "variables": [{"id": 0, "domain": 2}, {"id": 1, "domain": 2}],
        "events": [{"id": 0, "vars": [0], "violating": [[1]], **fields}],
    }


def _variables(*variables):
    """An instance with the given variables and no events."""
    return {"variables": list(variables), "events": []}


# Malformed instance JSON, each with the part of the error message that says
# where the problem is.
MALFORMED_INSTANCE_JSON = [
    ({"variables": 5, "events": []}, "'variables' must be a list, got int"),
    ({"variables": [], "events": 3}, "'events' must be a list, got int"),
    ({"variables": {"0": {"id": 0, "domain": 2}}, "events": []}, "'variables' must be a list"),
    (_variables({"id": 0, "domain": 0}), "variables[0]: 'domain' must be at least 1"),
    (_variables({"id": 0, "domain": True}), "variables[0]: 'id' and 'domain'"),
    (_variables({"id": 0, "domain": 2, "weights": ["1/0", "1"]}), "variables[0].weights[0]"),
    (_one_event(violating=[[1, 0]]), "events[0].violating[0] has 2 values for 1 vars"),
    (_one_event(vars=[0, 1], violating=[[1]]), "events[0].violating[0] has 1 values for 2 vars"),
    (_one_event(id="a"), "events[0]: 'id' must be an integer"),
    (_one_event(id=0.0), "events[0]: 'id' must be an integer"),
    (_one_event(vars=[-1]), "event 0 references unknown variable -1"),
    (_one_event(vars=[1, 0, 1], violating=[[0, 0, 0]]), "events[0]: 'vars' repeats a variable"),
]
