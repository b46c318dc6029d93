"""Helpers that only the tests call, kept out of the package.

``r_matrix`` is every r_ij, weighed by the package's own integer weight
sums (``r_max`` keeps only the largest, by a bounded search);
``dependent_pairs`` lists a dependency graph's edges; ``q_value`` is one
q_I from the package's q-evaluator; ``linear_bound`` and
``truncated_log_sum`` are one-line wrappers of ``linear_coefficient`` and
``truncated_log_partials``; ``res_vertices`` is the set a hard-core round
redraws, by definition.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from prsampling.graph_apps import bad_vertices
from prsampling.graphs import Graph
from prsampling.model import DependencyGraph, Instance, _project, _scaled_rows, _weight_sum
from prsampling.shearer import (
    _QEvaluator,
    is_independent,
    linear_coefficient,
    truncated_log_partials,
)


def r_matrix(
    instance: Instance, graph: DependencyGraph | None = None
) -> dict[tuple[int, int], Fraction]:
    """For each ordered dependent pair (i, j): the probability that a fresh
    draw of the shared variables leaves event j still able to occur."""
    vsets, scaled = [frozenset(e.vbl) for e in instance.events], _scaled_rows(instance.variables)
    return {
        (i, j): Fraction(*_weight_sum(scaled, *_project(instance.events[j], vsets[i])))
        for i, adjacent in enumerate((graph or instance.dependency_graph).adjacency)
        for j in adjacent
    }


def dependent_pairs(graph: DependencyGraph) -> list[tuple[int, int]]:
    """All unordered dependent pairs (i, j) with i < j."""
    return [(i, j) for i in range(graph.num_events) for j in graph.adjacency[i] if i < j]


def q_value(graph: DependencyGraph, p: Sequence[Fraction], ids) -> Fraction:
    """Exact q_I for an event set I; 0 when I is not independent.

    A dependent I yields 0 by definition. Event ids outside 0..m-1 raise
    ``ValueError``.
    """
    ev = _QEvaluator(graph, p)
    ids = frozenset(ids)
    bad = ids - frozenset(range(graph.num_events))
    if bad:
        raise ValueError("event id %d is not in 0..%d" % (min(bad), graph.num_events - 1))
    if not is_independent(graph, ids):
        return Fraction(0)
    return ev.q_of(ids)


def linear_bound(m: int, d: int, p: Fraction) -> Fraction:
    """Exact bound m * p / (p_c(d) - p) on expected total resamples."""
    return m * linear_coefficient(d, p)


def truncated_log_sum(graph: DependencyGraph, p: Sequence[Fraction], max_len: int) -> Fraction:
    """The independent-set-sequence series truncated at length ``max_len``."""
    return truncated_log_partials(graph, p, max_len)[-1]


def res_vertices(graph: Graph, occupied) -> frozenset[int]:
    """Bad vertices plus their outer boundary: the per-round redraw set."""
    bad = bad_vertices(graph, occupied)
    out = set(bad)
    for v in bad:
        out.update(graph.adjacency[v])
    return frozenset(out)
