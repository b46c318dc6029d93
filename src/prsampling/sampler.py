"""Resampling algorithms over constraint instances.

Three samplers share one contract: draw an initial assignment from the
product distribution, then repeatedly redraw some variables until no bad
event occurs, and return the final assignment plus run statistics.

* ``moser_tardos``: redraw the variables of one uniformly chosen occurring
  event per step. Fast to terminate under the classic conditions, but the
  output is generally *not* the conditional product distribution.
* ``extremal_prs``: redraw the variables of *all* occurring events per
  round. Exact on extremal instances (dependent events pairwise disjoint).
* ``general_prs``: redraw the variables of the resampling set chosen by
  :func:`select_resampling_set` per round. Exact on every instance.

All of them, and the specialized graph samplers in
:mod:`prsampling.graph_apps`, run the one round loop
:func:`resample_until_valid` and differ only in the initial draw, the
occurrence finder, the choice of what to resample and the redraw, which
each sampler runs itself on the round's whole list of variables.

The three generic samplers read what they need from the instance, which
compiles it on the first draw and keeps it: the sampling tables, the
variable-to-events index, each event's occurrence test, the watch index,
the dependency graph and the extremality verdict. Their finder runs the
compiled tests (``keys[i](sigma) in violating[i]``), never
:func:`prsampling.model.occurs`. Before the first round it tests the events
that the watch index lists under the drawn values, where the instance has
one, and every event otherwise; after that it tests only the events that
depend on a variable redrawn in the previous round, since no other event
can have changed.

Exactness here means the output is distributed as the product distribution
conditioned on no event occurring. Fresh values are drawn lazily, variable
by variable in ascending id order, so independently written specialized
samplers can stay stream-aligned with them.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from operator import eq

from .errors import RoundCapError
from .model import DependencyGraph, Instance, sample_product
from .model import occurs  # noqa: F401 (bench/tracing.py counts calls through this name)
from .rng import draw_index, make_rng  # noqa: F401 (bench/tracing.py counts draw_index)

DEFAULT_ROUND_CAP = 10 ** 6


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs shared by all samplers; the seed fully determines a run."""

    seed: int
    round_cap: int = DEFAULT_ROUND_CAP
    record_log: bool = True
    check_extremal: bool = True


@dataclass
class RunStats:
    """What one run did.

    ``rounds`` counts resampling steps (one event for ``moser_tardos``, one
    round for the others); ``total_resamples`` counts resampled events over
    all rounds, and ``event_resamples[i]`` how often event i was resampled
    (None for ``cycle_popping`` and ``hardcore_sample``, whose events are
    cycles and edges). ``var_log`` records the redrawn variable ids per
    round, and ``log`` one tuple per round that depends on the sampler: the
    resampled event ids for the three generic samplers and ``sink_popping``
    (sink vertices), the bad edge ids for ``hardcore_sample``, and nothing
    for ``cycle_popping``, whose ``log`` is None. Both logs are None when
    ``SamplerConfig.record_log`` is off.
    """

    rounds: int = 0
    total_resamples: int = 0
    event_resamples: list[int] | None = None
    variable_resamples: int = 0
    halted: bool = False
    log: list[tuple[int, ...]] | None = field(default_factory=list)
    var_log: list[tuple[int, ...]] | None = field(default_factory=list)

    def to_json(self, include_log: bool = False) -> dict:
        out = {
            "rounds": self.rounds,
            "total_resamples": self.total_resamples,
            "per_event": self.event_resamples,
            "variable_resamples": self.variable_resamples,
            "halted": self.halted,
        }
        if include_log:
            out["log"] = None if self.log is None else [list(s) for s in self.log]
            out["var_log"] = (
                None if self.var_log is None else [list(s) for s in self.var_log]
            )
        return out


def resample_until_valid(
    config: SamplerConfig,
    sigma,
    draw,
    find_bad,
    choose,
    num_events: int | None = None,
    note: str = " without a valid assignment",
    logged: str | None = "resampled",
):
    """The partial-rejection round loop that every sampler runs.

    ``sigma`` is the initial product draw, updated in place. Each round
    ``find_bad(redrawn)`` returns the occurring bad events, where
    ``redrawn`` holds the variables redrawn in the previous round (None
    before the first), so a finder may re-check only what changed. The loop
    halts when none occur; otherwise ``choose(bad)`` returns the resampled
    events and the variables to redraw, and ``draw(redraw)`` gives each of
    them a fresh value in sigma, in the order given: one call per round,
    whose loop over the variables is the sampler's own.

    ``num_events`` sizes ``RunStats.event_resamples`` (None leaves it
    unset); ``logged`` says what ``RunStats.log`` records per round:
    ``"resampled"`` events, the ``"bad"`` ones, or nothing (None). A run
    that reaches ``config.round_cap`` rounds raises RoundCapError with
    ``note`` appended to its message and the partial stats attached.
    Returns ``(sigma, stats)``.
    """
    stats = RunStats(event_resamples=None if num_events is None else [0] * num_events)
    if logged is None:
        stats.log = None
    if not config.record_log:
        stats.log = stats.var_log = None
    redraw = None
    while True:
        bad = find_bad(redraw)
        if not bad:
            stats.halted = True
            return sigma, stats
        if stats.rounds >= config.round_cap:
            raise RoundCapError(
                "round cap %d reached%s" % (config.round_cap, note), stats
            )
        resampled, redraw = choose(bad)
        draw(redraw)
        stats.rounds += 1
        stats.total_resamples += len(resampled)
        if stats.event_resamples is not None:
            for i in resampled:
                stats.event_resamples[i] += 1
        stats.variable_resamples += len(redraw)
        if stats.log is not None:
            stats.log.append(tuple(bad if logged == "bad" else resampled))
        if stats.var_log is not None:
            stats.var_log.append(tuple(redraw))


def _occurring(instance: Instance, sigma, events=None) -> list[int]:
    """The ids among ``events`` of the events occurring under sigma, in the
    order given; with ``events=None``, all of them, ascending.

    Where the instance has a watch index, only the events it lists under
    each variable's value in sigma are tested, in one pass over sigma per
    watched value; otherwise every event is.
    """
    keys, violating = instance.occurrence_tests
    if events is None:
        index = instance.watch_index
        if index is not None:
            listed = chain.from_iterable(
                chain.from_iterable(compress(row, sigma if by_truth else map(eq, sigma, repeat(x))))
                for x, row, by_truth in index
            )
            return sorted([i for i in listed if keys[i](sigma) in violating[i]])
        events = range(len(keys))
    return [i for i in events if keys[i](sigma) in violating[i]]


def _resample_events(instance: Instance, config: SamplerConfig, choose_events):
    """Run an instance through the round loop.

    ``choose_events(sigma, bad, rng)`` picks the events to resample from the
    occurring ones, given in ascending id order; the union of their
    variables is redrawn in ascending id order. The first round finds the
    occurring events by :func:`_occurring`, through the instance's watch
    index where it has one. The occurring set is then kept across rounds:
    each round re-tests only the events that depend on a redrawn variable.
    """
    rng = make_rng(config.seed)
    random = rng.random
    tables = instance.sampling_tables
    sigma = sample_product(instance, rng, tables)
    events, var_events = instance.events, instance.var_events
    bad: set[int] = set()

    def find_bad(redrawn):
        if redrawn is None:
            touched = None
        else:
            touched = {i for v in redrawn for i in var_events[v]}
            bad.difference_update(touched)
        bad.update(_occurring(instance, sigma, touched))
        return sorted(bad)

    def choose(occurring):
        chosen = choose_events(sigma, occurring, rng)
        return chosen, sorted({v for i in chosen for v in events[i].vbl})

    def redraw(variables):
        for v in variables:
            sigma[v] = bisect_right(tables[v], random())

    return resample_until_valid(
        config,
        sigma,
        redraw,
        find_bad,
        choose,
        num_events=instance.num_events,
    )


def moser_tardos(instance: Instance, config: SamplerConfig):
    """Resample one uniformly chosen occurring event per step."""
    return _resample_events(
        instance, config, lambda sigma, bad, rng: [bad[rng.randrange(len(bad))]]
    )


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
    and move each boundary event into R if it is compatible (some violating
    tuple agrees with sigma on every variable of R that the event reads),
    otherwise mark it excluded. Within a round events go in ascending id
    order (``order="desc"`` flips this; it exists to probe order sensitivity).

    Deterministic given sigma: no randomness is consumed.
    """
    if order not in ("asc", "desc"):
        raise ValueError("order must be 'asc' or 'desc', got %r" % order)
    adjacency = (instance.dependency_graph if graph is None else graph).adjacency
    bad = _occurring(instance, sigma) if _bad is None else _bad
    events = instance.events
    in_r = set(bad)
    marked = set(bad)
    # The variables of R; each keeps its value in sigma.
    fixed = {v for i in bad for v in events[i].vbl}
    frontier = bad
    while frontier:
        boundary = set()
        for i in frontier:
            boundary.update(adjacency[i])
        boundary -= marked
        marked |= boundary
        frontier = []
        for j in sorted(boundary, reverse=(order == "desc")):
            vbl = events[j].vbl
            for t in events[j].violating:
                for v, want in zip(vbl, t):
                    if v in fixed and sigma[v] != want:
                        break
                else:
                    in_r.add(j)
                    frontier.append(j)
                    fixed.update(vbl)
                    break
    return sorted(in_r)


def extremal_prs(instance: Instance, config: SamplerConfig):
    """Resample all occurring events each round; exact on extremal instances.

    Raises ValueError for non-extremal instances unless
    ``config.check_extremal`` is False (that override exists only so tests
    can demonstrate the resulting bias). The verdict is computed once per
    instance.
    """
    if config.check_extremal and not instance.extremal:
        raise ValueError(
            "instance is not extremal; this sampler would be biased "
            "(use general_prs, or disable check_extremal to demonstrate)"
        )
    return _resample_events(instance, config, lambda sigma, bad, rng: bad)


def general_prs(instance: Instance, config: SamplerConfig):
    """Resample the selected resampling set each round; exact on every instance.

    On an extremal instance the selector returns exactly the occurring
    events, so this coincides with ``extremal_prs`` round by round under
    the same seed. The selector walks the instance's dependency graph,
    built once per instance.
    """
    return _resample_events(
        instance,
        config,
        lambda sigma, bad, rng: select_resampling_set(instance, sigma, _bad=bad),
    )


SAMPLERS = {
    "moser_tardos": moser_tardos,
    "extremal_prs": extremal_prs,
    "general_prs": general_prs,
}


def run_sampler(kind: str, instance: Instance, config: SamplerConfig):
    """Dispatch by sampler name; see ``SAMPLERS`` for the choices."""
    try:
        fn = SAMPLERS[kind]
    except KeyError:
        raise ValueError(
            "unknown sampler %r; choose from %s" % (kind, sorted(SAMPLERS))
        ) from None
    return fn(instance, config)
