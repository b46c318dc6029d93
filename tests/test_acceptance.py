"""Acceptance gate: the ten headline guarantees at their stated tolerances.

Each test prints exactly one `criterion NN ...: PASS/FAIL` line (bypassing
capture so the verdicts always reach the console) and then asserts, so a
red run still reports every criterion it reached.
"""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import pytest

from prsampling.cnf import (
    check_sharing_condition,
    cnf_stats,
    cnf_to_instance,
    hard_example,
)
from prsampling.graph_apps import (
    alpha,
    corner_matrix,
    encode_sink_free,
    endpoint_matrix,
    path_partition,
    sink_popping,
)
from prsampling.graphs import cycle_graph
from prsampling.model import (
    build_dependency_graph,
    enumerate_assignments,
    event_probabilities,
    is_extremal,
    joint_state_count,
    occurring_events,
)
from prsampling.rng import derive_seed, make_rng
from prsampling.sampler import SamplerConfig, extremal_prs
from prsampling.shearer import (
    all_q_values,
    expected_resamples,
    linear_coefficient,
    q_empty,
    symmetric_pc,
)
from prsampling.verify import (
    biased_stub,
    chain_cnf,
    empirical_distribution_test,
    enumerate_valid,
    first_round_test,
    random_extremal_instance,
    random_instance,
    random_weighted_instance,
    res_set_property_tests,
    round_scaling_experiment,
    two_adjacent_events_instance,
    uniformity_cases,
    uniformity_test,
)

F = Fraction
N_UNIFORMITY = 100_000
TV_MAX = 0.01
P_MIN = 1e-3


@pytest.fixture
def announce(capsys):
    def _announce(num: int, label: str, ok: bool) -> None:
        with capsys.disabled():
            print("criterion %02d %s: %s" % (num, label, "PASS" if ok else "FAIL"))

    return _announce


def count_by_violations(instance):
    return Counter(
        len(occurring_events(instance, list(a)))
        for a in enumerate_assignments(instance)
    )


def test_criterion_01_exact_uniformity(announce):
    """Five samplers vs enumeration oracles: TV <= 0.01 and chi2 p >= 1e-3."""
    verdicts = {}
    runtimes = {}
    for idx, (name, case) in enumerate(sorted(uniformity_cases().items())):
        start = time.monotonic()
        verdicts[name] = empirical_distribution_test(
            case["draw"],
            case["target"],
            N_UNIFORMITY,
            base_seed=derive_seed(101, idx),
            tv_max=TV_MAX,
            p_min=P_MIN,
        )
        runtimes[name] = time.monotonic() - start
    ok = all(v.passed for v in verdicts.values()) and all(
        t <= 120 for t in runtimes.values()
    )
    announce(1, "exact uniformity, 5 cases at N=%d (TV<=%.2f, p>=%g)"
             % (N_UNIFORMITY, TV_MAX, P_MIN), ok)
    for name, v in verdicts.items():
        assert v.passed, "%s: tv=%.4f p=%.2g invalid=%d" % (
            name, v.tv, v.p_value, v.invalid_outcomes,
        )
        assert runtimes[name] <= 120, "%s took %.1fs" % (name, runtimes[name])


def test_criterion_02_exact_expected_work(announce):
    """Mean resampled events match the exact q-ratio formula."""
    # Exact side first: the 3-cycle has 2 sink-free and 6 single-sink
    # orientations, so expected work is 6/2 = 3; the formula agrees.
    c3 = cycle_graph(3)
    inst = encode_sink_free(c3)
    by = count_by_violations(inst)
    assert by[0] == 2 and by[1] == 6
    assert expected_resamples(
        build_dependency_graph(inst), event_probabilities(inst)
    ) == 3

    n = 100_000
    total = 0
    for i in range(n):
        _, stats = sink_popping(
            c3, SamplerConfig(seed=derive_seed(202, i), record_log=False)
        )
        total += stats.total_resamples
    sink_mean = total / n

    two = two_adjacent_events_instance()
    assert expected_resamples(
        build_dependency_graph(two), event_probabilities(two)
    ) == 1
    total = 0
    for i in range(n):
        _, stats = extremal_prs(
            two, SamplerConfig(seed=derive_seed(203, i), record_log=False)
        )
        total += stats.total_resamples
    two_mean = total / n

    ok = abs(sink_mean - 3.0) <= 0.05 and abs(two_mean - 1.0) <= 0.02
    announce(2, "exact expected work (sinks 3.0+-0.05 -> %.3f; toy 1.00+-0.02 -> %.3f)"
             % (sink_mean, two_mean), ok)
    assert abs(sink_mean - 3.0) <= 0.05
    assert abs(two_mean - 1.0) <= 0.02


def test_criterion_03_q_machinery_exactness(announce):
    """Brute-force no-occurrence probability vs the exact alternating sums."""
    rng = make_rng(30303)
    extremal_checked = 0
    while extremal_checked < 200:
        inst = random_extremal_instance(rng)
        assert inst.num_events <= 8 and joint_state_count(inst) <= 2 ** 20
        graph = build_dependency_graph(inst)
        p = event_probabilities(inst)
        qs = all_q_values(graph, p)
        assert sum(qs.values()) == 1
        assert enumerate_valid(inst).q_empty_check == qs[frozenset()]
        extremal_checked += 1

    non_extremal_checked = 0
    while non_extremal_checked < 200:
        inst = (
            random_instance(rng)
            if non_extremal_checked % 2
            else random_weighted_instance(rng)
        )
        graph = build_dependency_graph(inst)
        if is_extremal(inst):
            continue
        assert enumerate_valid(inst).q_empty_check >= q_empty(
            graph, event_probabilities(inst)
        )
        non_extremal_checked += 1

    announce(3, "q-machinery exactness (200 extremal equalities, "
             "200 non-extremal dominations)", True)


def test_criterion_04_first_round_law(announce):
    """Occurrence-set frequencies after one product draw match q_I within 3 sigma."""
    reports = {
        "two-events": first_round_test(two_adjacent_events_instance(), 100_000, 404),
        "sink-c3": first_round_test(encode_sink_free(cycle_graph(3)), 100_000, 405),
    }
    ok = all(r["passed"] for r in reports.values())
    announce(4, "first-round occurrence law at N=100000 within 3 sigma", ok)
    for name, r in reports.items():
        assert r["passed"], (name, r["rows"], r["non_independent_draws"])


def test_criterion_05_resampling_set_lemmas(announce):
    """10^4 randomized trials of the selector's structural guarantees."""
    report = res_set_property_tests(trials=10_000, base_seed=505)
    ok = report["passed"] and not any(report["violations"].values())
    announce(5, "resampling-set lemmas (10000 trials, zero violations; "
             "extremal Res==Bad)", ok)
    assert report["violations"] == {
        "bad_subset": 0,
        "boundary_unblocked": 0,
        "stability": 0,
        "extremal_equal": 0,
    }
    assert report["extremal_trials"] > 0 and report["stability_checked"] > 0


def test_criterion_06_path_analytics(announce):
    """Exact endpoint-matrix identities on hard-core paths."""
    lams = (F(1, 2), F(1), F(2))
    for lam, k in itertools.product(lams, range(4, 13)):
        m = endpoint_matrix(k, lam)
        i_k = path_partition(k, lam)[k]
        assert m.det == (-1) ** (k - 1) * lam ** k / i_k ** 2, (k, lam)

        # Independent check: direct weighted enumeration of the k-path.
        joint = [[F(0), F(0)], [F(0), F(0)]]
        total = F(0)
        for bits in itertools.product((0, 1), repeat=k):
            if any(a and b for a, b in zip(bits, bits[1:])):
                continue
            w = lam ** sum(bits)
            joint[bits[0]][bits[-1]] += w
            total += w
        enumerated = tuple(
            tuple(cell / total for cell in row) for row in joint
        )
        assert m.w == enumerated, (k, lam)

    for lam in lams:
        (a, b), (c, d) = corner_matrix(4, lam)
        assert a * d - b * c == -(lam ** 2)
    assert alpha(2) == 0.5

    announce(6, "path analytics (det W_k identity k=4..12, enumeration match, "
             "det W'_4=-lam^2, alpha(2)=1/2)", True)


def test_criterion_07_efficiency_regime(announce):
    """Hard-core PRS on random 3-regular graphs at lam=0.1 stays linear-time."""
    start = time.monotonic()
    sizes = [128 * 2 ** i for i in range(8)]  # m spans 192..24576
    report = round_scaling_experiment(
        sizes, F(1, 10), trials=20, base_seed=707, degree=3
    )
    elapsed = time.monotonic() - start

    per_event = [row["resamples_per_event"] for row in report["sizes"]]
    ms = [row["m"] for row in report["sizes"]]
    fit = report["fit"]
    decay = report["decay"]
    p_bad = float(F(1, 10) / F(11, 10)) ** 2
    decay_limit = (4 * math.e * 9 - 1) * p_bad + 3 * decay["se"]

    ok = (
        max(per_event) <= 10
        and max(ms) >= 100 * min(ms)
        and fit["b"] >= 0
        and not fit["super_logarithmic"]
        and decay["ratio"] <= decay_limit
        and elapsed <= 600
    )
    announce(7, "efficiency regime (resamples/event<=10, log fit, "
             "decay %.3f<=%.3f, %.0fs)" % (decay["ratio"], decay_limit, elapsed), ok)
    assert max(per_event) <= 10, per_event
    assert max(ms) >= 100 * min(ms)
    assert fit["b"] >= 0, fit
    assert not fit["super_logarithmic"], fit
    assert decay["ratio"] <= decay_limit, decay
    assert elapsed <= 600


def test_criterion_08_hard_fixture(announce):
    """The extremal chain family with exponentially expensive exact sampling."""
    for m in (1, 2, 3):
        formula = hard_example(m)
        by = count_by_violations(cnf_to_instance(formula))
        assert by[0] == 1, m
        assert by[1] >= 3 ** m, (m, by[1])
        assert cnf_stats(formula).extremal, m

    inst2 = cnf_to_instance(hard_example(2))
    expected = expected_resamples(
        build_dependency_graph(inst2), event_probabilities(inst2)
    )
    assert expected > 9

    announce(8, "hard fixture (Z0=1, Z1>=3^m for m=1..3, extremal, "
             "E[T](m=2)=%s>9)" % expected, True)


def test_criterion_09_condition_checker_constants(announce):
    """Exact threshold constants and certified sharing verdicts."""
    ok = (
        symmetric_pc(3) == F(4, 27)
        and linear_coefficient(3, F(1, 8)) == F(27, 5)
        and check_sharing_condition(20, 60, 10) is True
        and check_sharing_condition(20, 63, 10) is False
        and check_sharing_condition(20, 60, 9) is False
    )
    announce(9, "condition checkers (p_c(3)=4/27, coefficient 27/5 at p=1/8, "
             "sharing verdicts)", ok)
    assert symmetric_pc(3) == F(4, 27)
    assert linear_coefficient(3, F(1, 8)) == F(27, 5)
    assert check_sharing_condition(20, 60, 10) is True
    assert check_sharing_condition(20, 63, 10) is False
    assert check_sharing_condition(20, 60, 9) is False


def test_criterion_10_negative_control(announce):
    """A provably biased sampler must fail the criterion-1 thresholds."""
    verdict = uniformity_test(
        biased_stub,
        cnf_to_instance(chain_cnf()),
        N_UNIFORMITY,
        base_seed=1010,
        tv_max=TV_MAX,
        p_min=P_MIN,
    )
    ok = not verdict.passed
    announce(10, "negative control (biased stub rejected: tv=%.3f, p=%.2g)"
             % (verdict.tv, verdict.p_value), ok)
    assert not verdict.passed
    assert verdict.tv > TV_MAX and verdict.p_value < P_MIN
