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
  :func:`select_resampling_set` per round. Exact on every instance; on an
  extremal one the set is the occurring events, so it runs the extremal
  round there.

All of them, and the specialized graph samplers in
:mod:`prsampling.graph_apps`, run the one round loop
:func:`resample_until_valid` and differ only in the initial draw, the
occurrence finder, the choice of what to resample and the redraw, which
each sampler runs itself on the round's whole list of variables.

The three generic samplers read what they need from the instance, which
compiles it on the first draw and keeps it: the sampling tables and their
byte tables, the variable-to-events index, each event's occurrence test,
the watch index, the selector's value rows and the extremality verdict;
none of them builds the dependency graph. Their finder runs the compiled
tests (``keys[i](sigma) in violating[i]``), never
:func:`prsampling.model.occurs`. Before the first round it tests the events
that the watch index lists under the drawn values, where the instance has
one, and every event otherwise. After that it tests only events on a
variable redrawn in the previous round, since no other event can have
changed: for ``general_prs`` on a non-extremal instance, the events live
at those variables' new values; otherwise every event on them.

Exactness here means the output is distributed as the product distribution
conditioned on no event occurring. Fresh values are drawn variable by
variable in ascending id order, one ``random()`` variate each (the initial
draw takes all of them from one bulk call that consumes the same stream),
so independently written specialized samplers can stay stream-aligned with
them.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import chain, compress, repeat
from operator import eq

from .errors import RoundCapError
from .model import Instance, sample_product
from .records import FrozenRecord, Record, fields_json
from .model import occurs  # noqa: F401 (bench/tracing.py counts calls through this name)
from .rng import draw_index, make_rng  # noqa: F401 (bench/tracing.py counts draw_index)

DEFAULT_ROUND_CAP = 10 ** 6


class SamplerConfig(FrozenRecord):
    """Knobs shared by all samplers; the seed fully determines a run."""

    _fields = ("seed", "round_cap", "record_log", "check_extremal")
    _defaults = (DEFAULT_ROUND_CAP, True, True)


_NEW_LOG = object()  # RunStats's default log: a new empty list


class RunStats(Record):
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

    _fields = (
        "rounds", "total_resamples", "event_resamples", "variable_resamples", "halted", "log",
        "var_log",
    )

    _defaults = (0, 0, None, 0, False, _NEW_LOG, _NEW_LOG)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if self.log is _NEW_LOG:
            self.log = []
        if self.var_log is _NEW_LOG:
            self.var_log = []

    def to_json(self, include_log: bool = False) -> dict:
        out = fields_json(self)
        if not include_log:
            del out["log"], out["var_log"]
        # Renamed in place: run digests dump this dict without sorting its keys.
        return {"per_event" if k == "event_resamples" else k: v for k, v in out.items()}


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


def _with_variables(instance: Instance, chosen: list[int]):
    """``chosen`` and the union of its events' variables, ascending."""
    vbls = instance.vbls
    return chosen, sorted({v for i in chosen for v in vbls[i]})


def _resample_events(instance: Instance, config: SamplerConfig, choose_events, live_rows=False):
    """Run an instance through the round loop.

    ``choose_events(sigma, bad, rng)`` picks the events to resample from the
    occurring ones, given in ascending id order, and returns them with the
    union of their variables, ascending, which is redrawn in that order.
    The first round finds the occurring events by :func:`_occurring`,
    through the instance's watch index where it has one.

    With ``live_rows`` each later round tests only the events listed in the
    live value rows (:func:`prsampling.model.build_value_rows`) of the
    redrawn variables at their new values. That is exact when every round
    redraws the variables of all the occurring events: an event that
    occurs after the redraw then reads a redrawn variable, and is live at
    its new value. ``moser_tardos`` breaks that: it redraws one occurring
    event, and the others keep their values. ``extremal_prs`` has no value
    rows, and building them would add the compile cost that its round
    spares. Both keep the occurring set across rounds and re-test only the
    events that depend on a redrawn variable.
    """
    rng = make_rng(config.seed)
    random = rng.random
    tables = instance.sampling_tables
    sigma = sample_product(instance, rng)
    var_events = instance.var_events
    bad: set[int] = set()

    def find_bad(redrawn):
        if redrawn is None:
            touched = None
        elif live_rows:
            base, live, _ = instance.value_rows
            listed = {i for v in redrawn for i in live[base[v] + sigma[v]]}
            return sorted(_occurring(instance, sigma, listed))
        else:
            touched = {i for v in redrawn for i in var_events[v]}
            bad.difference_update(touched)
        bad.update(_occurring(instance, sigma, touched))
        return sorted(bad)

    def redraw(variables):
        for v in variables:
            sigma[v] = bisect_right(tables[v], random())

    return resample_until_valid(
        config,
        sigma,
        redraw,
        find_bad,
        lambda occurring: choose_events(sigma, occurring, rng),
        num_events=instance.num_events,
    )


def moser_tardos(instance: Instance, config: SamplerConfig):
    """Resample one uniformly chosen occurring event per step."""
    return _resample_events(
        instance,
        config,
        lambda sigma, bad, rng: _with_variables(instance, [bad[rng.randrange(len(bad))]]),
    )


def select_resampling_set(
    instance: Instance,
    sigma,
    order: str = "asc",
    _bad: list[int] | None = None,
    _variables: list[int] | None = None,
) -> list[int]:
    """The deterministic resampling set R for one assignment, ascending.

    R starts as the occurring events and grows one BFS round at a time:
    each round takes the boundary of R, the events not yet visited that
    share a variable with an event that joined R in the previous round, and
    moves each boundary event into R if it is compatible (some violating
    tuple agrees with sigma on every variable of R that the event reads),
    otherwise marks it excluded. Within a round events go in ascending id
    order (``order="desc"`` flips this; it exists to probe order
    sensitivity), and a variable fixed by an event that joins counts for
    every later event of the same round.

    The walk runs over variables, through the instance's value rows
    (:func:`prsampling.model.build_value_rows`). When a variable v becomes
    fixed at sigma[v], its dead row joins the excluded events: they cannot
    occur while v keeps its value, and R's variables only grow, so none of
    them could ever join. Its live row joins the next round's boundary. An
    event that the walk over shared events would put in the boundary shares
    with R a variable fixed in the previous round, and is either live there
    or excluded at once; so the boundaries, and R, are the same. A boundary
    event not excluded is allowed sigma's value at each fixed variable it
    reads, one variable at a time; that decides compatibility for an event
    with one violating tuple, and only one with several is tested.

    Deterministic given sigma: no randomness is consumed. ``_bad`` passes
    the occurring events where the caller has them, and ``_variables``, a
    list, receives the variables of R, ascending.
    """
    if order not in ("asc", "desc"):
        raise ValueError("order must be 'asc' or 'desc', got %r" % order)
    bad = _occurring(instance, sigma) if _bad is None else _bad
    vbls, violating = instance.vbls, instance.violating
    base, live, dead = instance.value_rows
    in_r = set(bad)
    marked = set(bad)  # R and the events excluded from it
    fixed = {v for i in bad for v in vbls[i]}  # the variables of R
    fresh = [base[v] + sigma[v] for v in fixed]  # keys of the variables fixed last
    for k in fresh:
        marked.update(dead[k])
    while fresh:
        boundary = set(chain.from_iterable(map(live.__getitem__, fresh)))
        boundary -= marked
        fresh = []
        for j in sorted(boundary, reverse=(order == "desc")):
            if j in marked:  # excluded at a variable fixed earlier this round
                continue
            marked.add(j)
            vbl, tuples = vbls[j], violating[j]
            if len(tuples) > 1 and not any(
                all(sigma[v] == x for v, x in zip(vbl, t) if v in fixed) for t in tuples
            ):
                continue
            in_r.add(j)
            for v in vbl:
                if v not in fixed:
                    fixed.add(v)
                    k = base[v] + sigma[v]
                    fresh.append(k)
                    marked.update(dead[k])
    if _variables is not None:
        _variables.extend(sorted(fixed))
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
    return _resample_events(
        instance, config, lambda sigma, bad, rng: _with_variables(instance, bad)
    )


def general_prs(instance: Instance, config: SamplerConfig):
    """Resample the selected resampling set each round; exact on every instance.

    On an extremal instance the selector would return exactly the occurring
    events, so where :attr:`prsampling.model.Instance.certified_extremal`
    holds this runs the extremal round instead: the occurring events and
    their variables, with no selector and no value rows. The samples, stats
    and logs are those of ``extremal_prs`` under the same seed. Elsewhere
    the selector walks the variables of the resampling set through the
    instance's value rows, built once per instance, and hands those
    variables back for the redraw; it is looked up by its module name each
    round, so a wrapper installed there sees every selection.
    """
    if instance.certified_extremal:
        return _resample_events(
            instance, config, lambda sigma, bad, rng: _with_variables(instance, bad)
        )

    def choose(sigma, bad, rng):
        variables: list[int] = []
        return select_resampling_set(instance, sigma, _bad=bad, _variables=variables), variables

    return _resample_events(instance, config, choose, live_rows=True)


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
