"""Sink-popping as it was before the round loop handed samplers a whole list.

``sink_popping`` below keeps each edge's tail next to the out-degrees,
moves the tail of every redrawn edge, re-tests both endpoints of each, and
draws one edge per call of ``draw``; ``_round_loop`` is the round loop it
ran in then, one ``draw(v)`` call per redrawn variable. Kept as an
independent reference for ``tests/test_graph_apps.py``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from prsampling.errors import RoundCapError
from prsampling.graphs import Graph
from prsampling.rng import cumulative_table, make_rng
from prsampling.sampler import RunStats, SamplerConfig


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
