"""Sink-popping and hard-core sampling as they were before their fast paths.

``sink_popping`` below is sink-popping as it was before the round loop
handed samplers a whole list: it keeps each edge's tail next to the
out-degrees, moves the tail of every redrawn edge, re-tests both endpoints
of each, and draws one edge per call of ``draw``; ``_round_loop`` is the
round loop it ran in then, one ``draw(v)`` call per redrawn variable.

``reference_hardcore_sample`` is hard-core sampling as it was before it
drew in bulk: one ``random()`` call per vertex, an occupation list that the
first scan walks over every occupied vertex, and the result compressed from
that list. Both are kept as independent references for
``tests/test_graph_apps.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import compress

from prsampling.errors import RoundCapError
from prsampling.graph_apps import _exact
from prsampling.graphs import Graph
from prsampling.rng import cumulative_table, make_rng
from prsampling.sampler import RunStats, SamplerConfig, resample_until_valid


def _round_loop(config: SamplerConfig, sigma, draw, find_bad, choose, num_events, note):
    stats = RunStats(event_resamples=[0] * num_events)
    if not config.record_log:
        stats.log = stats.var_log = None
    redraw = None
    while True:
        bad = find_bad(redraw)
        if not bad:
            stats.halted = True
            return sigma, stats
        if stats.rounds >= config.round_cap:
            raise RoundCapError("round cap %d reached%s" % (config.round_cap, note), stats)
        resampled, redraw = choose(bad)
        for v in redraw:
            sigma[v] = draw(v)
        stats.rounds += 1
        stats.total_resamples += len(resampled)
        for i in resampled:
            stats.event_resamples[i] += 1
        stats.variable_resamples += len(redraw)
        if stats.log is not None:
            stats.log.append(tuple(resampled))
        if stats.var_log is not None:
            stats.var_log.append(tuple(redraw))


def sink_popping(graph: Graph, config: SamplerConfig):
    """Sample a uniform sink-free orientation."""
    rng = make_rng(config.seed)
    random = rng.random
    table = cumulative_table((Fraction(1, 2), Fraction(1, 2)))
    edges, incident = graph.edges, graph.incident_edges
    orient = [bisect_right(table, random()) for _ in edges]
    tail = [edges[eid][o] for eid, o in enumerate(orient)]  # 0: u -> v, 1: v -> u
    out = [0] * graph.num_vertices

    def find_sinks(redrawn):
        if redrawn is None:
            for t in tail:
                out[t] += 1
            return [v for v in range(graph.num_vertices) if not out[v] and incident[v]]
        ends = set()
        for eid in redrawn:
            out[tail[eid]] -= 1
            edge = edges[eid]
            t = tail[eid] = edge[orient[eid]]
            out[t] += 1
            ends.update(edge)
        return [v for v in sorted(ends) if not out[v]]

    _, stats = _round_loop(
        config,
        orient,
        lambda eid: bisect_right(table, random()),
        find_sinks,
        lambda sinks: (sinks, sorted({e for v in sinks for e in incident[v]})),
        graph.num_vertices,
        "; the graph may have no sink-free orientation (tree component)",
    )
    return tuple(orient), stats


def reference_hardcore_sample(graph: Graph, lam, config: SamplerConfig):
    """Sample a hard-core configuration with exact weights lam^|occupied|.

    Each round redraws the occupation of every bad vertex (occupied with an
    occupied neighbor) and of every neighbor of a bad vertex.
    ``stats.log`` records the bad edges that triggered each round and
    ``stats.var_log`` the redrawn vertices.
    """
    lam = _exact(lam)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    rng = make_rng(config.seed)
    random = rng.random
    (t,) = cumulative_table((1 / (1 + lam), lam / (1 + lam)))
    n = graph.num_vertices
    occ = [1 if random() >= t else 0 for _ in range(n)]
    adjacency, edges, incident = graph.adjacency, graph.edges, graph.incident_edges

    def redraw(vertices):
        for v in vertices:
            occ[v] = 1 if random() >= t else 0

    def find_bad(redrawn):
        if redrawn is None:
            # Each bad edge at its lower endpoint u, so ids come out ascending
            # (``adjacency[u]`` and ``incident[u]`` are parallel).
            return [
                incident[u][k]
                for u in compress(range(n), occ)
                for k, w in enumerate(adjacency[u])
                if w > u and occ[w]
            ]
        # Only edges touching a redrawn vertex can change badness.
        pairs = (zip(adjacency[v], incident[v]) for v in redrawn if occ[v])
        return sorted({eid for pair in pairs for w, eid in pair if occ[w]})

    def choose(bad_edges):
        res_vs = set()
        for eid in bad_edges:
            for v in edges[eid]:
                res_vs.add(v)
                res_vs.update(adjacency[v])
        redraw = sorted(res_vs)
        # The resampled events, edges with both endpoints redrawn, are only
        # counted: one entry each, the upper endpoint, stands for the edge.
        return [u for v in redraw for u in adjacency[v] if u > v and u in res_vs], redraw

    _, stats = resample_until_valid(
        config,
        occ,
        redraw,
        find_bad,
        choose,
        note=" in hard-core sampling",
        logged="bad",
    )
    return frozenset(compress(range(n), occ)), stats
