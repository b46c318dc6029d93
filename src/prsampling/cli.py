"""Command-line interface.

Four command families:

* ``sample``      draw combinatorial objects and print one per line,
* ``analyze``     print exact analysis reports as JSON,
* ``verify``      run a verification suite and exit 3 if it fails,
* ``experiment``  run scaling/measurement experiments, optionally to CSV.

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
    encode_hardcore,
    encode_sink_free,
    encode_spanning_tree,
    hardcore_condition,
    hardcore_sample,
    ratio_bounds,
    sink_popping,
)
from .graphs import parse_edge_list
from .model import load_instance, parse_rational
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


def _seed(args) -> int:
    """The ``--seed`` given, or a fresh one; commands report it back."""
    if args.seed is not None:
        return args.seed
    return _random.SystemRandom().randrange(2 ** 63)


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


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _read_graph(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        graph, _labels = parse_edge_list(fh.read())
    return graph


def _read_cnf(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dimacs(fh.read())


def _stats_trailer(seed: int, kind: str, runs) -> dict:
    rounds = [s.rounds for s in runs]
    resamples = [s.total_resamples for s in runs]
    return {
        "seed": seed,
        "sampler": kind,
        "count": len(runs),
        "mean_rounds": sum(rounds) / len(rounds),
        "max_rounds": max(rounds),
        "mean_resamples": sum(resamples) / len(resamples),
    }


# --- sample -------------------------------------------------------------------


def _draw_generic(args, instance, config):
    return run_sampler(_SAMPLER_NAMES[args.sampler], instance, config)


# ``sample`` target -> (read input, draw one, format one, trailer name); a
# trailer name of None means the ``--sampler`` choice.
_SAMPLE_TARGETS = {
    "instance": (
        lambda args: load_instance(args.file),
        _draw_generic,
        lambda args, instance, sigma: " ".join(str(v) for v in sigma),
        None,
    ),
    "cnf": (
        lambda args: cnf_to_instance(_read_cnf(args.file)),
        _draw_generic,
        lambda args, instance, sigma: format_assignment(sigma, args.format),
        None,
    ),
    "sink-free": (
        lambda args: _read_graph(args.graph),
        lambda args, graph, config: sink_popping(graph, config),
        lambda args, graph, orientation: "".join(str(b) for b in orientation),
        "sink_popping",
    ),
    "spanning-tree": (
        lambda args: _read_graph(args.graph),
        lambda args, graph, config: cycle_popping(graph, args.root, config),
        lambda args, graph, arrows: " ".join(str(a) for a in arrows),
        "cycle_popping",
    ),
    "hardcore": (
        lambda args: (_read_graph(args.graph), parse_rational(args.lam)),
        lambda args, graph_lam, config: hardcore_sample(*graph_lam, config),
        lambda args, graph_lam, occupied: "".join(
            "1" if v in occupied else "0" for v in range(graph_lam[0].num_vertices)
        ),
        "hardcore",
    ),
}


def _cmd_sample(args) -> int:
    read, draw, fmt, name = _SAMPLE_TARGETS[args.what]
    source = read(args)
    kind = name or _SAMPLER_NAMES[args.sampler]
    seed = _seed(args)
    runs = []
    for i in range(args.count):
        config = SamplerConfig(
            seed=derive_seed(seed, i), round_cap=args.round_cap, record_log=False
        )
        out, stats = draw(args, source, config)
        runs.append(stats)
        print(fmt(args, source, out))
    _emit_json(_stats_trailer(seed, kind, runs))
    return 0


# --- analyze ------------------------------------------------------------------


def _cmd_analyze_instance(args) -> int:
    instance = load_instance(args.file)
    _emit_json(analyze_instance(instance).to_json())
    return 0


def _cmd_analyze_cnf(args) -> int:
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
    try:
        report["shearer"] = analyze_instance(cnf_to_instance(formula)).to_json()
    except BudgetError as exc:
        report["shearer"] = {"skipped": str(exc)}
    _emit_json(report)
    return 0


def _cmd_analyze_graph(args) -> int:
    graph = _read_graph(args.file)
    report: dict = {
        "num_vertices": graph.num_vertices,
        "num_edges": len(graph.edges),
        "connected": graph.is_connected(),
        "cycle_space_dim": graph.cycle_space_dim,
        "ratio_bounds": ratio_bounds(graph),
    }
    # The encoders have budget guards of their own, as the analysis has.
    try:
        if args.app == "hardcore":
            lam = parse_rational(args.lam)
            degree = max((len(a) for a in graph.adjacency), default=0)
            report["hardcore"] = {
                "lam": str(lam),
                "max_degree": degree,
                "condition_holds": hardcore_condition(lam, degree),
            }
            encoded = encode_hardcore(graph, lam)
        elif args.app == "spanning-tree":
            encoded = encode_spanning_tree(graph, args.root)
        else:
            encoded = encode_sink_free(graph)
        report["shearer"] = analyze_instance(encoded).to_json()
    except BudgetError as exc:
        report["shearer"] = {"skipped": str(exc)}
    _emit_json(report)
    return 0


def _cmd_analyze_condition(args) -> int:
    if args.kind == "extremal-cnf":
        _require(args, "k", "d")
        _emit_json(
            {
                "kind": "extremal-cnf",
                "k": args.k,
                "d": args.d,
                "holds": check_extremal_condition(args.k, args.d),
            }
        )
    elif args.kind == "sharing":
        _require(args, "k", "d", "s")
        parts = sharing_condition_parts(args.k, args.d, args.s)
        _emit_json(
            {
                "kind": "sharing",
                "k": args.k,
                "d": args.d,
                "s": args.s,
                "parts": parts,
                "holds": all(parts.values()),
            }
        )
    elif args.kind == "hardcore":
        _require(args, "lam", "d")
        lam = parse_rational(args.lam)
        _emit_json(
            {
                "kind": "hardcore",
                "lam": str(lam),
                "d": args.d,
                "holds": hardcore_condition(lam, args.d),
            }
        )
    elif args.kind == "symmetric":
        _require(args, "d")
        pc = symmetric_pc(args.d)
        out = {"kind": "symmetric", "d": args.d, "p_c": str(pc)}
        if args.p is not None:
            p = as_probability(parse_rational(args.p))
            out["p"] = str(p)
            out["below_threshold"] = p < pc
            if p < pc:
                out["coefficient"] = str(linear_coefficient(args.d, p))
        _emit_json(out)
    else:  # gprs
        _require(args, "p", "r", "delta")
        check = gprs_condition_values(
            parse_rational(args.p), parse_rational(args.r), args.delta
        )
        _emit_json(check.to_json())
    return 0


def _require(args, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(
            "missing required option(s) for --kind %s: %s"
            % (args.kind, ", ".join("--" + n for n in missing))
        )


# --- verify -------------------------------------------------------------------


def _cmd_verify_uniformity(args) -> int:
    cases = uniformity_cases()
    chosen = _CASE_ALIASES.get(args.case, args.case)
    names = list(cases) if chosen == "all" else [chosen]
    seed = _seed(args)
    all_ok = True
    reports = []
    for name in names:
        case = cases[name]
        verdict = empirical_distribution_test(
            case["draw"],
            case["target"],
            n=args.n,
            base_seed=seed,
            tv_max=args.tv_max,
            p_min=args.p_min,
        )
        all_ok = all_ok and verdict.passed
        entry = verdict.to_json()
        entry["case"] = name
        entry["describe"] = case["describe"]
        reports.append(entry)
    _emit_json({"seed": seed, "n": args.n, "cases": reports, "passed": all_ok})
    return 0 if all_ok else 3


def _cmd_verify_seeded(args) -> int:
    """A seeded suite: ``args.run(args, seed)`` builds its report. Exit 3 on
    ``"passed": false``; cross-order only reports, and has no verdict."""
    seed = _seed(args)
    report = args.run(args, seed)
    report["seed"] = seed
    _emit_json(report)
    return 0 if report.get("passed", True) else 3


def _case_law(law):
    """``verify expected-resamples`` and ``verify first-round`` on a named case."""

    def run(args, seed):
        report = law(_verify_case_instance(args.case), n=args.n, base_seed=seed)
        report["case"] = args.case
        return report

    return run


def _verify_case_instance(name: str):
    from .graphs import cycle_graph

    if name == "two-events":
        return two_adjacent_events_instance()
    if name == "sink-c3":
        return encode_sink_free(cycle_graph(3))
    raise ValueError("unknown case: %s" % name)


def _cmd_verify_truncated_sum(args) -> int:
    from .model import Instance, event_probabilities, make_event, uniform_variable

    if args.case == "single":
        instance = Instance(
            (uniform_variable(0, 2),), (make_event(0, (0,), [(0,)]),)
        )
    else:
        instance = two_adjacent_events_instance()
    report = truncated_sum_convergence_test(
        instance.dependency_graph, event_probabilities(instance), max_len=args.max_len
    )
    report["case"] = args.case
    _emit_json(report)
    return 0 if report["passed"] else 3


# --- experiment ---------------------------------------------------------------


def _cmd_experiment_round_scaling(args) -> int:
    sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    if not sizes:
        raise ValueError("--sizes must list at least one vertex count")
    seed = _seed(args)
    report = round_scaling_experiment(
        sizes,
        parse_rational(args.lam),
        trials=args.trials,
        base_seed=seed,
        degree=args.degree,
    )
    report["seed"] = seed
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["n", "m", "trials", "mean_rounds", "se_rounds", "resamples_per_event"]
            )
            for row in report["sizes"]:
                writer.writerow(
                    [
                        row["n"],
                        row["m"],
                        args.trials,
                        row["mean_rounds"],
                        row["se_rounds"],
                        row["resamples_per_event"],
                    ]
                )
    _emit_json(report)
    return 0


def _cmd_experiment_disjoint_paths(args) -> int:
    from .graph_apps import disjoint_paths_experiment

    seed = _seed(args)
    report = disjoint_paths_experiment(
        args.n,
        args.L,
        parse_rational(args.lam),
        trials=args.trials,
        base_seed=seed,
        round_cap=args.round_cap,
    )
    report["seed"] = seed
    rows = report.pop("rows")
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "L", "lam", "trial", "rounds", "resamples"])
            writer.writerows(rows)
    _emit_json(report)
    return 0


# --- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prsampling",
        description="Exact sampling of constrained combinatorial objects "
        "by partial rejection, with exact stationary-measure analysis.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    # sample
    sample = top.add_parser("sample", help="draw objects, one per line")
    sample_sub = sample.add_subparsers(dest="what", required=True)

    def _common_sample(p, sampler: bool) -> None:
        p.add_argument(
            "--count", type=_positive_int, default=1, help="number of samples"
        )
        p.add_argument("--seed", type=int, default=None, help="base seed (reported)")
        p.add_argument(
            "--round-cap",
            type=_nonnegative_int,
            default=DEFAULT_ROUND_CAP,
            help="abort a run after this many rounds (exit code 2)",
        )
        if sampler:
            p.add_argument(
                "--sampler",
                choices=sorted(_SAMPLER_NAMES),
                default="general",
                help="resampling strategy",
            )
        p.set_defaults(func=_cmd_sample)

    p = sample_sub.add_parser("instance", help="sample a JSON instance")
    p.add_argument("--file", required=True)
    _common_sample(p, sampler=True)

    p = sample_sub.add_parser("cnf", help="sample satisfying assignments (DIMACS)")
    p.add_argument("--file", required=True)
    p.add_argument("--format", choices=("bits", "literals"), default="bits")
    _common_sample(p, sampler=True)

    p = sample_sub.add_parser("sink-free", help="sample sink-free orientations")
    p.add_argument("--graph", required=True, help="edge-list file")
    _common_sample(p, sampler=False)

    p = sample_sub.add_parser("spanning-tree", help="sample rooted spanning trees")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--root", type=int, default=0)
    _common_sample(p, sampler=False)

    p = sample_sub.add_parser("hardcore", help="sample weighted independent sets")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--lam", "--lambda", required=True, help="fugacity, e.g. 1/10")
    _common_sample(p, sampler=False)

    # analyze
    analyze = top.add_parser("analyze", help="exact analysis reports (JSON)")
    analyze_sub = analyze.add_subparsers(dest="what", required=True)

    p = analyze_sub.add_parser("instance", help="full report for a JSON instance")
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_analyze_instance)

    p = analyze_sub.add_parser("cnf", help="formula statistics and conditions")
    p.add_argument("--file", required=True)
    p.set_defaults(func=_cmd_analyze_cnf)

    p = analyze_sub.add_parser("graph", help="graph application report")
    p.add_argument("--file", required=True, help="edge-list file")
    p.add_argument(
        "--app",
        choices=("sink-free", "spanning-tree", "hardcore"),
        default="sink-free",
    )
    p.add_argument("--root", type=int, default=0)
    p.add_argument("--lam", "--lambda", default="1", help="hard-core fugacity")
    p.set_defaults(func=_cmd_analyze_graph)

    p = analyze_sub.add_parser("condition", help="stand-alone condition checks")
    p.add_argument(
        "--kind",
        required=True,
        choices=("extremal-cnf", "sharing", "hardcore", "symmetric", "gprs"),
    )
    p.add_argument("--k", type=int, default=None, help="clause width")
    p.add_argument("--d", type=int, default=None, help="degree")
    p.add_argument("--s", type=int, default=None, help="minimum shared variables")
    p.add_argument("--lam", "--lambda", default=None, help="fugacity")
    p.add_argument("--p", default=None, help="event probability bound")
    p.add_argument("--r", default=None, help="boundary-set probability bound")
    p.add_argument("--delta", type=int, default=None, help="dependency degree")
    p.set_defaults(func=_cmd_analyze_condition)

    # verify
    verify = top.add_parser("verify", help="run a verification suite")
    verify_sub = verify.add_subparsers(dest="suite", required=True)

    p = verify_sub.add_parser("uniformity", help="sampler output vs exact law")
    p.add_argument(
        "--case",
        "--preset",
        dest="case",
        default="all",
        choices=(
            "all",
            "sink-c3",
            "sink-c4",
            "tree-k4",
            "hardcore-p5",
            "p5-hardcore",
            "cnf-chain",
        ),
        help="named sampler/oracle pair (p5-hardcore is an alias of hardcore-p5)",
    )
    p.add_argument("--n", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument(
        "--tv-max",
        type=float,
        default=DEFAULT_TV_MAX,
        help="total-variation threshold override",
    )
    p.add_argument(
        "--p-min",
        type=float,
        default=DEFAULT_P_MIN,
        help="chi-square p-value threshold override",
    )
    p.set_defaults(func=_cmd_verify_uniformity)

    p = verify_sub.add_parser(
        "expected-resamples", help="mean resample counts vs exact values"
    )
    p.add_argument("--case", default="two-events", choices=("two-events", "sink-c3"))
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify_seeded, run=_case_law(expected_resamples_test))

    p = verify_sub.add_parser(
        "first-round", help="first-round occurring-set law vs exact values"
    )
    p.add_argument("--case", default="two-events", choices=("two-events", "sink-c3"))
    p.add_argument("--n", type=_positive_int, default=100_000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_verify_seeded, run=_case_law(first_round_test))

    p = verify_sub.add_parser(
        "res-set", help="structural properties of the resampling-set selector"
    )
    p.add_argument("--trials", type=_positive_int, default=10_000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(
        func=_cmd_verify_seeded,
        run=lambda args, seed: res_set_property_tests(trials=args.trials, base_seed=seed),
    )

    p = verify_sub.add_parser(
        "cross-order", help="selector agreement under reversed scan order"
    )
    p.add_argument("--trials", type=_positive_int, default=2_000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(
        func=_cmd_verify_seeded,
        run=lambda args, seed: cross_order_report(trials=args.trials, base_seed=seed),
    )

    p = verify_sub.add_parser(
        "truncated-sum", help="truncated series vs closed form, exact arithmetic"
    )
    p.add_argument("--case", default="two-events", choices=("single", "two-events"))
    p.add_argument("--max-len", type=_positive_int, default=12)
    p.set_defaults(func=_cmd_verify_truncated_sum)

    p = verify_sub.add_parser(
        "negative-control", help="a deliberately biased sampler must fail"
    )
    p.add_argument("--n", type=_positive_int, default=20_000)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(
        func=_cmd_verify_seeded,
        run=lambda args, seed: negative_control_test(n=args.n, base_seed=seed),
    )

    # experiment
    experiment = top.add_parser("experiment", help="measurement experiments")
    experiment_sub = experiment.add_subparsers(dest="kind", required=True)

    p = experiment_sub.add_parser(
        "round-scaling", help="rounds vs size on random regular graphs"
    )
    p.add_argument("--sizes", required=True, help="comma-separated vertex counts")
    p.add_argument(
        "--app",
        choices=("hardcore",),
        default="hardcore",
        help="application family (only hard-core scaling is implemented)",
    )
    p.add_argument("--lam", "--lambda", default="1/10")
    p.add_argument("--degree", type=int, default=3)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--csv", default=None, help="write per-size rows to this file")
    p.set_defaults(func=_cmd_experiment_round_scaling)

    p = experiment_sub.add_parser(
        "disjoint-paths", help="hard-core runs on disjoint fixed-length paths"
    )
    p.add_argument("--n", type=_positive_int, required=True, help="total vertices (multiple of L)")
    p.add_argument("--L", type=int, required=True, help="vertices per path")
    p.add_argument("--lam", "--lambda", default="1")
    p.add_argument("--trials", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--round-cap", type=_nonnegative_int, default=DEFAULT_ROUND_CAP)
    p.add_argument("--csv", default=None, help="write per-trial rows to this file")
    p.set_defaults(func=_cmd_experiment_disjoint_paths)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse signals usage problems with status 2; the documented
        # contract reserves 2 for the runtime round cap, so remap to 1.
        code = exc.code if isinstance(exc.code, int) else 1
        return 1 if code == 2 else code
    try:
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
