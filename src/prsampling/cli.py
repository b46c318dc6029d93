"""Command-line interface.

Four command families:

* ``sample``      draw combinatorial objects and print one per line,
* ``analyze``     print exact analysis reports as JSON,
* ``verify``      run a verification suite and exit 3 if it fails,
* ``experiment``  run scaling/measurement experiments, optionally to CSV.

Each subcommand is one row of ``COMMANDS``: its help, its options and the
``report(args)`` whose JSON document ``main`` prints. An option that several
subcommands share is declared once; a row changes only what it must.

Exit codes: 0 success, 1 usage/input error (including exact-computation
guards on oversized inputs), 2 round cap exceeded at runtime, 3 a
verification suite ran to completion but its verdict failed.

Every randomized command reports the seed it used; passing that seed back
via ``--seed`` reproduces the output byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import json
import random as _random
import sys

from .cnf import (
    check_extremal_condition,
    check_sharing_condition,
    cnf_stats,
    cnf_to_instance,
    format_assignment,
    parse_dimacs,
    sharing_condition_parts,
)
from .errors import BudgetError, PrsError, RoundCapError
from .graph_apps import (
    cycle_popping,
    disjoint_paths_experiment,
    encode_hardcore,
    encode_sink_free,
    encode_spanning_tree,
    hardcore_condition,
    hardcore_sample,
    ratio_bounds,
    sink_popping,
)
from .graphs import cycle_graph, parse_edge_list
from .model import (
    Instance,
    event_probabilities,
    load_instance,
    make_event,
    parse_rational,
    uniform_variable,
)
from .rng import derive_seed
from .sampler import DEFAULT_ROUND_CAP, SamplerConfig, run_sampler
from .shearer import (
    ShearerError,
    analyze_instance,
    as_probability,
    gprs_condition_values,
    linear_coefficient,
    symmetric_pc,
)
from .verify import (
    DEFAULT_P_MIN,
    DEFAULT_TV_MAX,
    cross_order_report,
    empirical_distribution_test,
    expected_resamples_test,
    first_round_test,
    negative_control_test,
    res_set_property_tests,
    round_scaling_experiment,
    truncated_sum_convergence_test,
    two_adjacent_events_instance,
    uniformity_cases,
)

_SAMPLER_NAMES = {
    "moser-tardos": "moser_tardos",
    "extremal": "extremal_prs",
    "general": "general_prs",
}

# Accepted alternate spellings of uniformity preset names.
_CASE_ALIASES = {"p5-hardcore": "hardcore-p5"}


def _int_at_least(low: int):
    """An argparse ``type``: an int no smaller than ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text) from None
        if value < low:
            raise argparse.ArgumentTypeError("must be at least %d, got %d" % (low, value))
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())[0]


def _read_cnf(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dimacs(fh.read())


def _write_csv(path, header, rows) -> None:
    """Write ``header`` and ``rows`` to the ``--csv`` file, if one was given."""
    if path:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)


def _seeded(run):
    """``run(args, seed)`` under ``--seed``, or a fresh seed, which it reports."""

    def report(args) -> dict:
        seed = args.seed if args.seed is not None else _random.SystemRandom().randrange(2 ** 63)
        out = run(args, seed)
        out["seed"] = seed
        return out

    return report


# --- sample -------------------------------------------------------------------


def _sample(read, draw, show, sampler=None):
    """A ``sample`` report: print one line per draw, return the stats trailer.
    ``sampler`` names the sampler in it; None means the ``--sampler`` choice."""

    def run(args, seed: int) -> dict:
        source = read(args)
        runs = []
        for i in range(args.count):
            config = SamplerConfig(
                seed=derive_seed(seed, i), round_cap=args.round_cap, record_log=False
            )
            out, stats = draw(args, source, config)
            runs.append(stats)
            print(show(args, source, out))
        rounds = [s.rounds for s in runs]
        resamples = [s.total_resamples for s in runs]
        return {
            "sampler": sampler or _SAMPLER_NAMES[args.sampler],
            "count": len(runs),
            "mean_rounds": sum(rounds) / len(rounds),
            "max_rounds": max(rounds),
            "mean_resamples": sum(resamples) / len(resamples),
        }

    return _seeded(run)


def _draw_generic(args, instance, config):
    if args.sampler == "extremal" and not instance.extremal:
        raise ValueError(
            "instance is not extremal; --sampler extremal would be biased "
            "(use --sampler general)"
        )
    return run_sampler(_SAMPLER_NAMES[args.sampler], instance, config)


def _show_words(args, source, out) -> str:
    return " ".join(str(v) for v in out)


# --- analyze ------------------------------------------------------------------


def _shearer(encode) -> dict:
    """The stationary report of ``encode()``, or why a guard skipped it. The
    encoders have budget guards of their own, as the analysis has."""
    try:
        return analyze_instance(encode()).to_json()
    except BudgetError as exc:
        return {"skipped": str(exc)}


def _analyze_cnf(args) -> dict:
    formula = _read_cnf(args.file)
    stats = cnf_stats(formula)
    report: dict = {"stats": stats.to_json()}
    if stats.uniform_width is not None and stats.uniform_width >= 1:
        k, d = stats.uniform_width, stats.max_var_degree
        report["extremal_condition"] = check_extremal_condition(k, d)
        if d >= 3 and stats.min_shared is not None:
            report["sharing_condition"] = {
                "parts": sharing_condition_parts(k, d, stats.min_shared),
                "holds": check_sharing_condition(k, d, stats.min_shared),
            }
    report["shearer"] = _shearer(lambda: cnf_to_instance(formula))
    return report


def _analyze_graph(args) -> dict:
    graph = _read_graph(args.file)
    report: dict = {
        "num_vertices": graph.num_vertices,
        "num_edges": len(graph.edges),
        "connected": graph.is_connected(),
        "cycle_space_dim": graph.cycle_space_dim,
        "ratio_bounds": ratio_bounds(graph),
    }

    def encode():
        if args.app == "hardcore":
            lam = parse_rational(args.lam)
            degree = max((len(a) for a in graph.adjacency), default=0)
            holds = hardcore_condition(lam, degree)
            report["hardcore"] = {"lam": str(lam), "max_degree": degree, "condition_holds": holds}
            return encode_hardcore(graph, lam)
        if args.app == "spanning-tree":
            return encode_spanning_tree(graph, args.root)
        return encode_sink_free(graph)

    report["shearer"] = _shearer(encode)
    return report


def _extremal_cnf(args) -> dict:
    holds = check_extremal_condition(args.k, args.d)
    return {"kind": "extremal-cnf", "k": args.k, "d": args.d, "holds": holds}


def _sharing(args) -> dict:
    parts = sharing_condition_parts(args.k, args.d, args.s)
    out = {"kind": "sharing", "k": args.k, "d": args.d, "s": args.s, "parts": parts}
    out["holds"] = all(parts.values())
    return out


def _hardcore(args) -> dict:
    lam = parse_rational(args.lam)
    holds = hardcore_condition(lam, args.d)
    return {"kind": "hardcore", "lam": str(lam), "d": args.d, "holds": holds}


def _symmetric(args) -> dict:
    pc = symmetric_pc(args.d)
    out = {"kind": "symmetric", "d": args.d, "p_c": str(pc)}
    if args.p is not None:
        p = as_probability(parse_rational(args.p))
        out["p"] = str(p)
        out["below_threshold"] = p < pc
        if p < pc:
            out["coefficient"] = str(linear_coefficient(args.d, p))
    return out


def _gprs(args) -> dict:
    p, r = parse_rational(args.p), parse_rational(args.r)
    return gprs_condition_values(p, r, args.delta).to_json()


# ``analyze condition --kind``: kind -> (the options it requires, report).
_CONDITIONS = {
    "extremal-cnf": (("k", "d"), _extremal_cnf),
    "sharing": (("k", "d", "s"), _sharing),
    "hardcore": (("lam", "d"), _hardcore),
    "symmetric": (("d",), _symmetric),
    "gprs": (("p", "r", "delta"), _gprs),
}


def _condition(args) -> dict:
    required, report = _CONDITIONS[args.kind]
    missing = ", ".join("--" + name for name in required if getattr(args, name) is None)
    if missing:
        raise ValueError("missing required option(s) for --kind %s: %s" % (args.kind, missing))
    return report(args)


# --- verify -------------------------------------------------------------------


def _uniformity(args, seed: int) -> dict:
    cases = uniformity_cases()
    chosen = _CASE_ALIASES.get(args.case, args.case)
    reports = []
    for name in list(cases) if chosen == "all" else [chosen]:
        case = cases[name]
        verdict = empirical_distribution_test(
            case["draw"], case["target"], args.n, seed, args.tv_max, args.p_min
        )
        reports.append({**verdict.to_json(), "case": name, "describe": case["describe"]})
    return {"n": args.n, "cases": reports, "passed": all(r["passed"] for r in reports)}


# The instances of ``verify expected-resamples`` and ``verify first-round``.
_LAW_CASES = {
    "two-events": two_adjacent_events_instance,
    "sink-c3": lambda: encode_sink_free(cycle_graph(3)),
}


def _case_law(law, args, seed: int) -> dict:
    report = law(_LAW_CASES[args.case](), n=args.n, base_seed=seed)
    report["case"] = args.case
    return report


# The instances of ``verify truncated-sum``.
_SERIES_CASES = {
    "single": lambda: Instance((uniform_variable(0, 2),), (make_event(0, (0,), [(0,)]),)),
    "two-events": two_adjacent_events_instance,
}


def _truncated_sum(args) -> dict:
    instance = _SERIES_CASES[args.case]()
    probs = event_probabilities(instance)
    report = truncated_sum_convergence_test(instance.dependency_graph, probs, max_len=args.max_len)
    report["case"] = args.case
    return report


# --- experiment ---------------------------------------------------------------


def _round_scaling(args, seed: int) -> dict:
    sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    if not sizes:
        raise ValueError("--sizes must list at least one vertex count")
    report = round_scaling_experiment(
        sizes, parse_rational(args.lam), trials=args.trials, base_seed=seed, degree=args.degree
    )
    header = ("n", "m", "trials", "mean_rounds", "se_rounds", "resamples_per_event")
    _write_csv(args.csv, header, ([row[key] for key in header] for row in report["sizes"]))
    return report


def _disjoint_paths(args, seed: int) -> dict:
    report = disjoint_paths_experiment(
        args.n, args.L, parse_rational(args.lam), args.trials, seed, args.round_cap
    )
    header = ("n", "L", "lam", "trial", "rounds", "resamples")
    _write_csv(args.csv, header, report.pop("rows"))
    return report


# --- the command table --------------------------------------------------------


def _option(*flags: str, **settings):
    """One ``add_argument`` call: its flags and its keyword settings."""
    return flags, settings


def _with(option, *flags: str, **settings):
    """A shared option with more flags or other settings for one subcommand."""
    return option[0] + flags, {**option[1], **settings}


_SEED = _option("--seed", type=int, help="base seed (reported)")
_COUNT = _option("--count", type=_positive_int, default=1, help="number of samples")
_ROUND_CAP = _option(
    "--round-cap", type=_nonnegative_int, default=DEFAULT_ROUND_CAP,
    help="abort a run after this many rounds (exit code 2)",
)
_SAMPLER = _option(
    "--sampler", choices=sorted(_SAMPLER_NAMES), default="general", help="resampling strategy"
)
_N = _option("--n", type=_positive_int, default=100_000, help="number of runs")
_TRIALS = _option("--trials", type=_positive_int, help="number of trials")
_LAM = _option("--lam", "--lambda", help="fugacity, e.g. 1/10")
_FILE = _option("--file", required=True)
_GRAPH = _option("--graph", required=True, help="edge-list file")
_ROOT = _option("--root", type=int, default=0)
_CASE = _option("--case", help="named case")
_CSV = _option("--csv")

_SAMPLE_OPTIONS = (_COUNT, _SEED, _ROUND_CAP)
_FORMAT = _option("--format", choices=("bits", "literals"), default="bits")
_LAW_CASE = _with(_CASE, default="two-events", choices=tuple(_LAW_CASES))

# (family, subcommand) -> (help, options, report). Each report looks the
# library functions up when it runs, so a test may replace one on this module.
COMMANDS = {
    ("sample", "instance"): (
        "sample a JSON instance",
        (_FILE, *_SAMPLE_OPTIONS, _SAMPLER),
        _sample(lambda args: load_instance(args.file), _draw_generic, _show_words),
    ),
    ("sample", "cnf"): (
        "sample satisfying assignments (DIMACS)",
        (_FILE, _FORMAT, *_SAMPLE_OPTIONS, _SAMPLER),
        _sample(
            lambda args: cnf_to_instance(_read_cnf(args.file)),
            _draw_generic,
            lambda args, instance, sigma: format_assignment(sigma, args.format),
        ),
    ),
    ("sample", "sink-free"): (
        "sample sink-free orientations",
        (_GRAPH, *_SAMPLE_OPTIONS),
        _sample(
            lambda args: _read_graph(args.graph),
            lambda args, graph, config: sink_popping(graph, config),
            lambda args, graph, orientation: "".join(str(b) for b in orientation),
            "sink_popping",
        ),
    ),
    ("sample", "spanning-tree"): (
        "sample rooted spanning trees",
        (_GRAPH, _ROOT, *_SAMPLE_OPTIONS),
        _sample(
            lambda args: _read_graph(args.graph),
            lambda args, graph, config: cycle_popping(graph, args.root, config),
            _show_words,
            "cycle_popping",
        ),
    ),
    ("sample", "hardcore"): (
        "sample weighted independent sets",
        (_GRAPH, _with(_LAM, required=True), *_SAMPLE_OPTIONS),
        _sample(
            lambda args: (_read_graph(args.graph), parse_rational(args.lam)),
            lambda args, graph_lam, config: hardcore_sample(*graph_lam, config),
            lambda args, graph_lam, occupied: "".join(
                "1" if v in occupied else "0" for v in range(graph_lam[0].num_vertices)
            ),
            "hardcore",
        ),
    ),
    ("analyze", "instance"): (
        "full report for a JSON instance",
        (_FILE,),
        lambda args: analyze_instance(load_instance(args.file)).to_json(),
    ),
    ("analyze", "cnf"): ("formula statistics and conditions", (_FILE,), _analyze_cnf),
    ("analyze", "graph"): (
        "graph application report",
        (
            _with(_FILE, help="edge-list file"),
            _option(
                "--app", choices=("sink-free", "spanning-tree", "hardcore"), default="sink-free"
            ),
            _ROOT,
            _with(_LAM, default="1", help="hard-core fugacity"),
        ),
        _analyze_graph,
    ),
    ("analyze", "condition"): (
        "stand-alone condition checks",
        (
            _option("--kind", required=True, choices=tuple(_CONDITIONS)),
            _option("--k", type=int, help="clause width"),
            _option("--d", type=int, help="degree"),
            _option("--s", type=int, help="minimum shared variables"),
            _with(_LAM, help="fugacity"),
            _option("--p", help="event probability bound"),
            _option("--r", help="boundary-set probability bound"),
            _option("--delta", type=int, help="dependency degree"),
        ),
        _condition,
    ),
    ("verify", "uniformity"): (
        "sampler output vs exact law",
        (
            _with(
                _CASE,
                "--preset",
                default="all",
                choices=(
                    "all", "sink-c3", "sink-c4", "tree-k4", "hardcore-p5", "p5-hardcore",
                    "cnf-chain",
                ),
                help="named sampler/oracle pair (p5-hardcore is an alias of hardcore-p5)",
            ),
            _N,
            _SEED,
            _option(
                "--tv-max", type=float, default=DEFAULT_TV_MAX,
                help="total-variation threshold override",
            ),
            _option(
                "--p-min", type=float, default=DEFAULT_P_MIN,
                help="chi-square p-value threshold override",
            ),
        ),
        _seeded(_uniformity),
    ),
    ("verify", "expected-resamples"): (
        "mean resample counts vs exact values",
        (_LAW_CASE, _N, _SEED),
        _seeded(lambda args, seed: _case_law(expected_resamples_test, args, seed)),
    ),
    ("verify", "first-round"): (
        "first-round occurring-set law vs exact values",
        (_LAW_CASE, _N, _SEED),
        _seeded(lambda args, seed: _case_law(first_round_test, args, seed)),
    ),
    ("verify", "res-set"): (
        "structural properties of the resampling-set selector",
        (_with(_TRIALS, default=10_000), _SEED),
        _seeded(lambda args, seed: res_set_property_tests(trials=args.trials, base_seed=seed)),
    ),
    ("verify", "cross-order"): (
        "selector agreement under reversed scan order",
        (_with(_TRIALS, default=2_000), _SEED),
        _seeded(lambda args, seed: cross_order_report(trials=args.trials, base_seed=seed)),
    ),
    ("verify", "truncated-sum"): (
        "truncated series vs closed form, exact arithmetic",
        (
            _with(_CASE, default="two-events", choices=tuple(_SERIES_CASES)),
            _option("--max-len", type=_positive_int, default=12),
        ),
        _truncated_sum,
    ),
    ("verify", "negative-control"): (
        "a deliberately biased sampler must fail",
        (_with(_N, default=20_000), _SEED),
        _seeded(lambda args, seed: negative_control_test(n=args.n, base_seed=seed)),
    ),
    ("experiment", "round-scaling"): (
        "rounds vs size on random regular graphs",
        (
            _option("--sizes", required=True, help="comma-separated vertex counts"),
            _option(
                "--app", choices=("hardcore",), default="hardcore",
                help="application family (only hard-core scaling is implemented)",
            ),
            _with(_LAM, default="1/10"),
            _option("--degree", type=int, default=3),
            _with(_TRIALS, default=20),
            _SEED,
            _with(_CSV, help="write per-size rows to this file"),
        ),
        _seeded(_round_scaling),
    ),
    ("experiment", "disjoint-paths"): (
        "hard-core runs on disjoint fixed-length paths",
        (
            _with(_N, required=True, default=None, help="total vertices (multiple of L)"),
            _option("--L", type=int, required=True, help="vertices per path"),
            _with(_LAM, default="1"),
            _with(_TRIALS, default=100),
            _SEED,
            _ROUND_CAP,
            _with(_CSV, help="write per-trial rows to this file"),
        ),
        _seeded(_disjoint_paths),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prsampling",
        description="Exact sampling of constrained combinatorial objects "
        "by partial rejection, with exact stationary-measure analysis.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    # family -> its subcommands; ``dest`` names the subcommand in argparse's messages.
    families = {
        family: top.add_parser(family, help=text).add_subparsers(dest=dest, required=True)
        for family, text, dest in (
            ("sample", "draw objects, one per line", "what"),
            ("analyze", "exact analysis reports (JSON)", "what"),
            ("verify", "run a verification suite", "suite"),
            ("experiment", "measurement experiments", "kind"),
        )
    }
    for (family, name), (text, options, report) in COMMANDS.items():
        sub = families[family].add_parser(name, help=text)
        for flags, settings in options:
            sub.add_argument(*flags, **settings)
        sub.set_defaults(report=report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse signals usage problems with status 2; the documented
        # contract reserves 2 for the runtime round cap, so remap to 1.
        code = exc.code if isinstance(exc.code, int) else 1
        return 1 if code == 2 else code
    try:
        report = args.report(args)
        print(json.dumps(report, indent=2, sort_keys=True))
    except RoundCapError as exc:
        print("round cap exceeded: %s" % exc, file=sys.stderr)
        return 2
    except BudgetError as exc:
        # Guard errors mean the input is too large for the requested exact
        # computation: an input problem, not a runtime cap.
        print("input exceeds an exact-computation guard: %s" % exc, file=sys.stderr)
        return 1
    except ShearerError as exc:
        print("analysis not applicable: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, OSError, KeyError, PrsError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    # A verification suite that ran to completion and failed exits 3.
    return 0 if report.get("passed", True) else 3


if __name__ == "__main__":
    sys.exit(main())
