"""The resampling-set selector as it was before ``fixed`` became a set.

``select_resampling_set`` below is the dict-based selector, kept verbatim
as an independent reference for ``tests/test_sampler.py``; ``_occurring``
is the finder it called then, which tests each event with
:func:`prsampling.model.occurs` rather than the instance's compiled tests.
"""

from __future__ import annotations

from prsampling.model import DependencyGraph, Instance, occurs


def _occurring(instance: Instance, sigma, events=None) -> list[int]:
    """The ids among ``events`` (default: all) of the events occurring under sigma."""
    ids = range(instance.num_events) if events is None else events
    return [i for i in ids if occurs(instance.events[i], sigma)]


def select_resampling_set(
    instance: Instance,
    sigma,
    graph: DependencyGraph | None = None,
    order: str = "asc",
    _bad: list[int] | None = None,
) -> list[int]:
    """The deterministic resampling set for one assignment.

    Grow R from the occurring events: repeatedly take the unmarked boundary
    of R (events adjacent to R, not yet visited), one BFS round at a time,
    and move each boundary event into R if it is still compatible with the
    current values of R's variables, otherwise mark it excluded. Within a
    round events are processed in ascending id order (``order="desc"``
    flips this; exposed only to probe order sensitivity).

    Deterministic given sigma: no randomness is consumed.
    """
    if order not in ("asc", "desc"):
        raise ValueError("order must be 'asc' or 'desc', got %r" % order)
    if graph is None:
        graph = instance.dependency_graph
    bad = _occurring(instance, sigma) if _bad is None else _bad
    in_r = set(bad)
    marked = set(bad)
    fixed: dict[int, int] = {}
    for i in bad:
        for v in instance.events[i].vbl:
            fixed[v] = sigma[v]
    frontier = bad
    while frontier:
        boundary = set()
        for i in frontier:
            boundary.update(j for j in graph.adjacency[i] if j not in marked)
        marked |= boundary
        frontier = []
        for j in sorted(boundary, reverse=(order == "desc")):
            event = instance.events[j]
            anchored = [
                (pos, fixed[v]) for pos, v in enumerate(event.vbl) if v in fixed
            ]
            if any(
                all(t[pos] == val for pos, val in anchored) for t in event.violating
            ):
                in_r.add(j)
                frontier.append(j)
                for v in event.vbl:
                    fixed.setdefault(v, sigma[v])
    return sorted(in_r)
