"""The benchmark's three workloads.

Each workload has a stdlib-only input step (untimed, a pure function of the
seed), a set-up step that imports prsampling, parses the generated text and
encodes it the way the CLI and a library caller do, and a fixed schedule of
ops that one pass runs in order. An op is one draw or one analysis; every
op has an independent checker and a canonical text form for the digest.

Why each workload exists (the one-line form is in BENCHMARK.json):

* ``sample-generic``: every draw through ``run_sampler`` rebuilds the
  dependency graph, the float tables and, for ``extremal_prs``, the
  extremality check; the CNF makes the selector grow Res beyond Bad. This
  is where compiling an instance once has to show, and where
  ``general_prs`` on the 20k hard-core encoding is measured.
* ``sample-popping``: the specialized samplers never build a dependency
  graph; their cost is the per-round rescan and the redraw. Incremental
  tracking, exact integer draws and opt-in logs show here; compiling an
  instance once should not.
* ``analyze``: runs only ``shearer`` and ``model``, so it is the control
  for every sampler change, and the cycles up to C22 make ``shearer_holds``
  enumerate up to 40k independent sets.
  C30, at the analysis event cap, is left out: it raises ``BudgetError``
  after 50-110 s, which a run cannot afford and which would make an op
  fail in every run.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import check
import gen

LAM = Fraction(1, 10)
P_HARDCORE = (LAM / (1 + LAM)) ** 2  # both endpoints occupied


@dataclass
class Op:
    call: Callable[[int], object]  # op index -> output
    check: Callable[[object], str | None]
    text: Callable[[object], str]  # canonical form for the digest


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable[[int], dict]
    setup: Callable[[dict, int], dict]  # (inputs, seed) -> {label: Op}
    schedule: tuple[str, ...]  # labels of one pass, in run order
    min_passes: int  # fixed op count = min_passes * len(schedule)


def _bits(sigma) -> str:
    return "".join(map(str, sigma))


def _draws(kind: str, instance, seed: int):
    """One ``run_sampler`` draw per op, configured as ``sample --count N`` does."""
    from prsampling import rng, sampler

    def call(i):
        config = sampler.SamplerConfig(seed=rng.derive_seed(seed, i), record_log=False)
        return sampler.run_sampler(kind, instance, config)[0]

    return call


# --- sample-generic --------------------------------------------------------


def generic_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    g2k = gen.random_regular_edges(2000, 3, rng)
    g20k = gen.random_regular_edges(20000, 3, rng)
    clauses = gen.random_kcnf(1000, 400, 8, rng)
    return {
        "g2k": g2k,
        "g20k": g20k,
        "clauses": clauses,
        "text": {
            "g2k": gen.edge_list_text(g2k),
            "g20k": gen.edge_list_text(g20k),
            "cnf": gen.dimacs_text(1000, clauses),
        },
    }


def generic_setup(inputs: dict, seed: int) -> dict:
    from prsampling import cnf, graph_apps, graphs

    text = inputs["text"]
    g2k, _ = graphs.parse_edge_list(text["g2k"])
    g20k, _ = graphs.parse_edge_list(text["g20k"])
    formula = cnf.parse_dimacs(text["cnf"])
    hc2k = graph_apps.encode_hardcore(g2k, LAM)
    hc20k = graph_apps.encode_hardcore(g20k, LAM)
    sf2k = graph_apps.encode_sink_free(g2k)
    cnf_instance = cnf.cnf_to_instance(formula)

    e2k, e20k, clauses = inputs["g2k"], inputs["g20k"], inputs["clauses"]

    def hc_check(n, edges):
        return lambda sigma: check.hardcore_bits(n, edges, sigma)

    ops = {}
    for kind in ("general_prs", "moser_tardos"):
        ops["hc2k/" + kind] = Op(_draws(kind, hc2k, seed), hc_check(2000, e2k), _bits)
        ops["cnf/" + kind] = Op(
            _draws(kind, cnf_instance, seed),
            lambda sigma: check.cnf(clauses, sigma),
            _bits,
        )
    ops["hc20k/general_prs"] = Op(
        _draws("general_prs", hc20k, seed), hc_check(20000, e20k), _bits
    )
    for kind in ("general_prs", "extremal_prs"):
        ops["sf2k/" + kind] = Op(
            _draws(kind, sf2k, seed),
            lambda orient: check.sink_free(2000, e2k, orient),
            _bits,
        )
    return ops


# --- sample-popping --------------------------------------------------------


def popping_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    g20k = gen.random_regular_edges(20000, 3, rng)
    # cycle_popping runs on n = 2,000: one n = 20,000 draw takes 1-8 s, so
    # the few a run can afford would make every figure of the run noise.
    g2k = gen.random_regular_edges(2000, 3, rng)
    return {
        "g20k": g20k,
        "adjacency2k": gen.adjacency_sets(2000, g2k),
        "text": {"g20k": gen.edge_list_text(g20k), "g2k": gen.edge_list_text(g2k)},
    }


def popping_setup(inputs: dict, seed: int) -> dict:
    from prsampling import graph_apps, graphs, rng, sampler

    g20k, _ = graphs.parse_edge_list(inputs["text"]["g20k"])
    g2k, _ = graphs.parse_edge_list(inputs["text"]["g2k"])
    e20k, adjacency2k = inputs["g20k"], inputs["adjacency2k"]

    def config(i):
        # Library defaults otherwise: record_log stays on.
        return sampler.SamplerConfig(seed=rng.derive_seed(seed, i))

    return {
        "hardcore_sample": Op(
            lambda i: graph_apps.hardcore_sample(g20k, LAM, config(i))[0],
            lambda occupied: check.hardcore_set(20000, e20k, occupied),
            lambda occupied: " ".join(map(str, sorted(occupied))),
        ),
        "sink_popping": Op(
            lambda i: graph_apps.sink_popping(g20k, config(i))[0],
            lambda orient: check.sink_free(20000, e20k, orient),
            _bits,
        ),
        "cycle_popping": Op(
            lambda i: graph_apps.cycle_popping(g2k, 0, config(i))[0],
            lambda arrows: check.rooted_tree(adjacency2k, 0, arrows),
            lambda arrows: " ".join(map(str, arrows)),
        ),
    }


# --- analyze ---------------------------------------------------------------

CYCLES = tuple(range(3, 16)) + (22,)
REGULAR_SMALL = (6, 8, 10)
REGULAR_LARGE = (14, 16)  # 21 and 24 events when hard-core encoded
NAMED = ("K4", "grid3x3", "petersen")
ORDINARY = tuple(
    ["sink-free/C%d" % n for n in CYCLES if n != 22]
    + ["hardcore/R%d" % n for n in REGULAR_SMALL]
    + [enc + "/" + name for name in NAMED for enc in ("hardcore", "sink-free", "spanning-tree")]
)
# One analysis of an ordinary instance takes milliseconds, so its time says
# little alone on a loaded machine; each pass runs the ordinary analyses
# eight times, around the three large ones (C22 and the 14- and 16-vertex
# graphs, 0.2-2 s each), so that the median and the tail are percentiles
# over many samples. The tail is then an analysis of C15.
ORDINARY_REPEATS = 8
# The median op falls among the analyses of about 5 ms (sink-free C9, the
# 3x3 grid and Petersen graph), whose costs sit 20% apart. Run equally often,
# their latencies interleave and the median lands in the gaps between them,
# moving by the width of a gap from run to run; the Petersen sink-free
# analysis, which has as many cheaper ordinary analyses below it as dearer
# ones above, runs five times as often, so the median falls in the middle of
# its own samples.
MEDIAN_ANCHOR = "sink-free/petersen"
ANCHOR_EXTRA = 4  # extra runs of MEDIAN_ANCHOR per round of ORDINARY


def analyze_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    graphs = {"C%d" % n: gen.cycle_edges(n) for n in CYCLES}
    for n in REGULAR_SMALL + REGULAR_LARGE:
        graphs["R%d" % n] = gen.random_regular_edges(n, 3, rng)
    graphs["K4"] = gen.complete_edges(4)
    graphs["grid3x3"] = gen.grid_edges(3, 3)
    graphs["petersen"] = gen.petersen_edges()
    # What each encoding's analysis must report, worked out here.
    expect = {}
    for name, edges in graphs.items():
        n = 1 + max(v for e in edges for v in e)
        adjacency = [sorted(a) for a in gen.adjacency_sets(n, edges)]
        degrees = {len(a) for a in adjacency}
        p_sink = Fraction(1, 2 ** min(degrees)) if len(degrees) == 1 else None
        if name.startswith("C"):
            expect["sink-free/" + name] = (n, p_sink, Fraction(1, 2 ** (n - 1)))
            continue
        expect["hardcore/" + name] = (len(edges), P_HARDCORE, None)
        if name in NAMED:
            expect["sink-free/" + name] = (n, p_sink, None)
            cycles = check.simple_cycle_count(adjacency, 0)
            expect["spanning-tree/" + name] = (sum(0 not in e for e in edges) + cycles, None, None)
    return {
        "expect": expect,
        "text": {name: gen.edge_list_text(edges) for name, edges in graphs.items()},
    }


def analyze_setup(inputs: dict, seed: int) -> dict:
    from prsampling import graph_apps, graphs, shearer

    parsed = {name: graphs.parse_edge_list(t)[0] for name, t in inputs["text"].items()}
    encoders = {
        "hardcore": lambda g: graph_apps.encode_hardcore(g, LAM),
        "sink-free": graph_apps.encode_sink_free,
        "spanning-tree": lambda g: graph_apps.encode_spanning_tree(g, 0),
    }

    def op(instance, expected):
        return Op(
            lambda i: shearer.analyze_instance(instance),
            lambda report: check.analysis(report, *expected),
            lambda report: json.dumps(report.to_json(), sort_keys=True),
        )

    ops = {}
    for label, expected in inputs["expect"].items():
        encoding, name = label.split("/")
        ops[label] = op(encoders[encoding](parsed[name]), expected)
    return ops


def _schedule(*parts) -> tuple[str, ...]:
    """Interleave (label, repeats) round-robin, so a pass mixes its ops evenly.

    Repeat counts are chosen so that the median and the tail percentile fall
    inside one op kind's latencies, not on the edge between two kinds: on
    ``sample-generic`` the median is a 2k hard-core ``general_prs`` draw and
    the tail a 20k one; on ``sample-popping`` a ``hardcore_sample`` and a
    ``sink_popping`` draw. On ``sample-generic`` the CNF ``moser_tardos``
    draws, the cheapest kind, are as many as the kinds dearer than a 2k
    ``general_prs`` draw, so the median sits in the middle of the 2k draws
    (mixed with the CNF ``general_prs`` draws, whose cost overlaps theirs)
    and not in their upper tail, where it moved by up to 30% between runs.
    """
    out = []
    for r in range(max(k for _, k in parts)):
        out.extend(label for label, k in parts if r < k)
    return tuple(out)


WORKLOADS = {
    "sample-generic": Workload(
        make_inputs=generic_inputs,
        setup=generic_setup,
        schedule=_schedule(
            ("hc2k/general_prs", 8),
            ("hc2k/moser_tardos", 1),
            ("hc20k/general_prs", 3),
            ("sf2k/general_prs", 1),
            ("sf2k/extremal_prs", 1),
            ("cnf/general_prs", 3),
            ("cnf/moser_tardos", 6),
        ),
        min_passes=6,
    ),
    "sample-popping": Workload(
        make_inputs=popping_inputs,
        setup=popping_setup,
        schedule=_schedule(
            ("hardcore_sample", 20), ("sink_popping", 5), ("cycle_popping", 4)
        ),
        min_passes=4,
    ),
    "analyze": Workload(
        make_inputs=analyze_inputs,
        setup=analyze_setup,
        schedule=(
            (ORDINARY + (MEDIAN_ANCHOR,) * ANCHOR_EXTRA) * (ORDINARY_REPEATS // 2)
            + ("hardcore/R16", "sink-free/C22")
            + (ORDINARY + (MEDIAN_ANCHOR,) * ANCHOR_EXTRA) * (ORDINARY_REPEATS // 2)
            + ("hardcore/R14",)
        ),
        min_passes=2,
    ),
}
