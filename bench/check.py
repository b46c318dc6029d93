"""Independent output checkers.

Each checker tests one output against the benchmark's own generated input
(edge list or clause list), never through ``prsampling.model``. A checker
returns ``None`` for a valid output and a short reason otherwise; the
reason becomes part of the run's failure accounting.
"""

from __future__ import annotations

from fractions import Fraction


def hardcore_bits(n: int, edges, sigma):
    """Hard-core occupation vector (one 0/1 per vertex): no occupied edge."""
    if len(sigma) != n or any(x not in (0, 1) for x in sigma):
        return "not a 0/1 vector over %d vertices" % n
    for u, v in edges:
        if sigma[u] and sigma[v]:
            return "occupied edge %d-%d" % (u, v)
    return None


def hardcore_set(n: int, edges, occupied):
    """Hard-core configuration given as the set of occupied vertices."""
    if any(not 0 <= v < n for v in occupied):
        return "occupied vertex out of range"
    occ = set(occupied)
    return hardcore_bits(n, edges, [1 if v in occ else 0 for v in range(n)])


def sink_free(n: int, edges, orient):
    """Orientation per edge id (0: u->v, 1: v->u): every vertex has an out-edge."""
    if len(orient) != len(edges) or any(x not in (0, 1) for x in orient):
        return "not a 0/1 vector over %d edges" % len(edges)
    has_out = [False] * n
    for (u, v), o in zip(edges, orient):
        has_out[v if o else u] = True
    if not all(has_out):
        return "vertex %d is a sink" % has_out.index(False)
    return None


def rooted_tree(adjacency, root: int, arrows):
    """Arrow map (successor per vertex, -1 at the root): a spanning in-tree."""
    n = len(adjacency)
    if len(arrows) != n or arrows[root] != -1:
        return "root %d must carry the only -1 arrow" % root
    for v in range(n):
        if v != root and arrows[v] not in adjacency[v]:
            return "arrow %d->%s is not an edge" % (v, arrows[v])
    rooted = [False] * n
    rooted[root] = True
    for s in range(n):
        path = []
        on_path = set()
        v = s
        while not rooted[v]:
            if v in on_path:
                return "cycle through vertex %d" % v
            on_path.add(v)
            path.append(v)
            v = arrows[v]
        for u in path:
            rooted[u] = True
    return None


def cnf(clauses, sigma):
    """0/1 assignment (index v-1 for DIMACS variable v): every clause satisfied."""
    for ci, clause in enumerate(clauses):
        if not any((sigma[abs(lit) - 1] == 1) == (lit > 0) for lit in clause):
            return "clause %d violated" % (ci + 1)
    return None


def simple_cycle_count(adjacency, skip: int) -> int:
    """Number of simple cycles (length >= 3) of a graph that avoid vertex ``skip``."""
    n = len(adjacency)
    walks = 0

    def extend(start, v, visited, length):
        nonlocal walks
        for u in adjacency[v]:
            if u == start and length >= 3:
                walks += 1
            elif u > start and u != skip and u not in visited:
                visited.add(u)
                extend(start, u, visited, length + 1)
                visited.remove(u)

    for s in range(n):
        if s != skip:
            extend(s, s, {s}, 1)
    return walks // 2  # each cycle is walked once in each direction


def analysis(report, num_events: int, p_event: Fraction | None, q_empty=None):
    """An analysis report: sizes, event probabilities and internal consistency.

    ``num_events`` is the event count of the encoding and ``p_event`` the
    probability every one of its events has (None when they differ), both
    worked out by the benchmark; ``q_empty``, when given, is the exact value
    the report must contain (``2^(1-n)`` for the sink-free encoding of C_n).
    """
    if report.num_events != num_events or len(report.q_singletons) != num_events:
        return "expected %d events, report has %d" % (num_events, report.num_events)
    if p_event is not None and any(p != p_event for p in report.p):
        return "event probability differs from %s" % p_event
    if q_empty is not None and report.q_empty != q_empty:
        return "q_empty %s, expected %s" % (report.q_empty, q_empty)
    if report.shearer_ok:
        if report.expected_total != sum(report.expected_per_event, Fraction(0)):
            return "expected_total differs from the sum of expected_per_event"
        if report.q_empty <= 0:
            return "Shearer verdict holds but q_empty = %s" % report.q_empty
    elif report.expected_total is not None:
        return "Shearer verdict fails but expected_total is set"
    return None
