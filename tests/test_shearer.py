"""Exact q-value machinery, run-length formulas, and condition checkers."""

import math
import random
from fractions import Fraction

import pytest

import prsampling.shearer as shearer
from prsampling import verify
from prsampling.errors import BudgetError
from prsampling.model import DependencyGraph, build_dependency_graph, event_probabilities
from prsampling.shearer import (
    GprsCheck,
    ShearerError,
    all_q_values,
    analyze_instance,
    check_asymmetric_lll,
    check_gprs_conditions,
    expected_resamples,
    expected_resamples_per_event,
    gprs_condition_values,
    independent_sets,
    is_independent,
    linear_bound,
    linear_coefficient,
    q_empty,
    q_singletons,
    q_value,
    shearer_holds,
    symmetric_pc,
    truncated_log_partials,
    truncated_log_sum,
)

F = Fraction

SINGLE = DependencyGraph(1, ((),))
PAIR = DependencyGraph(2, ((1,), (0,)))
EMPTY3 = DependencyGraph(3, ((), (), ()))
PATH3 = DependencyGraph(3, ((1,), (0, 2), (1,)))
STAR13 = DependencyGraph(4, ((1, 2, 3), (0,), (0,), (0,)))
TWO_PAIRS = DependencyGraph(4, ((1,), (0,), (3,), (2,)))
CROSSED_PAIRS = DependencyGraph(4, ((3,), (2,), (1,), (0,)))
NO_EVENTS = DependencyGraph(0, ())


def enumerated_verdict(graph, p):
    """The criterion by enumeration: q_empty > 0 and q_I >= 0 for every I."""
    return q_empty(graph, p) > 0 and min(all_q_values(graph, p).values()) >= 0


class TestQValues:
    def test_single_event(self):
        assert q_empty(SINGLE, [F(1, 4)]) == F(3, 4)

    def test_two_adjacent(self):
        p = [F(1, 4), F(1, 4)]
        assert q_empty(PAIR, p) == F(1, 2)
        assert q_value(PAIR, p, {0}) == F(1, 4)
        assert q_singletons(PAIR, p) == [F(1, 4), F(1, 4)]

    def test_empty_graph_product(self):
        p = [F(1, 2), F(1, 3), F(1, 5)]
        expect = F(1, 2) * F(2, 3) * F(4, 5)
        assert q_empty(EMPTY3, p) == expect

    def test_non_independent_set_is_zero(self):
        p = [F(1, 4), F(1, 4)]
        assert not is_independent(PAIR, {0, 1})
        assert q_value(PAIR, p, {0, 1}) == 0
        assert is_independent(PAIR, {0})

    @pytest.mark.parametrize("ids", [{-1}, {3}, {0, 7}])
    def test_event_ids_out_of_range(self, ids):
        p = [F(1, 5)] * 3
        bad = min(i for i in ids if not 0 <= i < 3)
        with pytest.raises(ValueError, match="event id %d is not in 0..2" % bad):
            q_value(PATH3, p, ids)

    def test_q_empty_via_inclusion_exclusion(self):
        # Alternating sum over independent sets, computed naively.
        p = [F(1, 3), F(1, 4), F(1, 5)]
        naive = F(0)
        for ids in independent_sets(PATH3):
            w = F(1)
            for i in ids:
                w *= p[i]
            naive += (-1) ** len(ids) * w
        assert q_empty(PATH3, p) == naive

    def test_all_q_values_sum_to_one(self):
        for graph, p in [
            (PAIR, [F(1, 4), F(1, 4)]),
            (PATH3, [F(1, 6), F(1, 7), F(1, 8)]),
            (STAR13, [F(1, 9)] * 4),
            (EMPTY3, [F(1, 2), F(1, 3), F(1, 5)]),
        ]:
            qs = all_q_values(graph, p)
            assert sum(qs.values()) == 1

    def test_moebius_recovery(self):
        # prod_{i in I} p_i equals the sum of q_J over independent J >= I.
        p = [F(1, 6), F(1, 7), F(1, 8)]
        qs = all_q_values(PATH3, p)
        for ids in independent_sets(PATH3):
            pi = F(1)
            for i in ids:
                pi *= p[i]
            total = sum(q for J, q in qs.items() if ids <= J)
            assert total == pi

    def test_event_count_guard(self):
        big = DependencyGraph(31, ((),) * 31)
        with pytest.raises(BudgetError):
            q_empty(big, [F(0)] * 31)

    def test_probability_vector_validation(self):
        with pytest.raises(ValueError):
            q_empty(PAIR, [F(1, 4)])
        with pytest.raises(ValueError):
            q_empty(PAIR, [F(1, 4), F(5, 4)])

    def test_monotone_single_probability_slack(self):
        # Scaling one p_i down never decreases q_empty.
        p = [F(1, 4), F(1, 4), F(1, 4)]
        base = q_empty(PATH3, p)
        for z in (F(0), F(1, 3), F(1, 2), F(9, 10), F(1)):
            scaled = list(p)
            scaled[1] = p[1] * z
            assert q_empty(PATH3, scaled) >= base


class TestExpectedResamples:
    def test_single_event_formula(self):
        for p in (F(1, 2), F(1, 4), F(3, 7)):
            assert expected_resamples(SINGLE, [p]) == p / (1 - p)

    def test_two_adjacent(self):
        assert expected_resamples(PAIR, [F(1, 4), F(1, 4)]) == 1

    def test_sink_triangle(self):
        from prsampling.graph_apps import encode_sink_free
        from prsampling.graphs import cycle_graph

        inst = encode_sink_free(cycle_graph(3))
        g = build_dependency_graph(inst)
        p = event_probabilities(inst)
        assert q_empty(g, p) == F(1, 4)
        assert expected_resamples(g, p) == 3
        assert expected_resamples_per_event(g, p) == [1, 1, 1]

    def test_criterion_failure_raises(self):
        with pytest.raises(ShearerError):
            expected_resamples(PAIR, [F(1, 2), F(1, 2)])

    def test_shearer_holds_boundary(self):
        cases = [
            (PAIR, [F(1, 4), F(1, 4)], True),
            # q_empty = 0 on the boundary: criterion requires strict positivity.
            (PAIR, [F(1, 2), F(1, 2)], False),
            (PAIR, [F(1, 2), F(1, 3)], True),
            (PAIR, [F(1), F(0)], False),
            # q_empty = (1 - 6/5)^2 = 1/25 > 0, but each pair alone is outside.
            (TWO_PAIRS, [F(3, 5)] * 4, False),
            (TWO_PAIRS, [F(1, 2), F(1, 3), F(1, 3), F(1, 2)], True),
            # q({3}), q({2, 3}) and q({1, 2, 3}) are exactly 0 while
            # q_empty = (1 - 1/4 - 1)^2 = 1/16 > 0.
            (CROSSED_PAIRS, [F(1, 4), F(1, 4), F(1), F(1)], False),
            (NO_EVENTS, [], True),
            (SINGLE, [F(0)], True),
            (SINGLE, [F(1)], False),
            (EMPTY3, [F(1, 2), F(1), F(0)], False),
            (EMPTY3, [F(0)] * 3, True),
            (PATH3, [F(0), F(1), F(0)], False),
            (PATH3, [F(1), F(0), F(1)], False),
            (STAR13, [F(0), F(1), F(1, 2), F(1, 3)], False),
            (STAR13, [F(1, 9)] * 4, True),
        ]
        for graph, p, expect in cases:
            assert shearer_holds(graph, p) is expect, (graph, p)
            assert enumerated_verdict(graph, p) is expect, (graph, p)


class TestShearerVerdict:
    """The chain verdict against the enumeration reference."""

    def test_random_instances(self):
        rng = random.Random(3)
        generators = (
            verify.random_instance,
            verify.random_extremal_instance,
            verify.random_weighted_instance,
        )
        checked = negative = 0
        for _ in range(350):
            for generate in generators:
                instance = generate(rng)
                graph = instance.dependency_graph
                base = event_probabilities(instance)
                for scale in (F(1, 2), F(1), F(3, 2), F(2)):
                    p = [min(F(1), pi * scale) for pi in base]
                    expect = enumerated_verdict(graph, p)
                    assert shearer_holds(graph, p) is expect, (instance, p)
                    checked += 1
                    negative += not expect
        assert checked == 4 * 1050
        assert 1000 < negative < 3000  # both verdicts are well represented

    def test_sink_free_c30(self):
        from prsampling.graph_apps import encode_sink_free
        from prsampling.graphs import cycle_graph

        report = analyze_instance(encode_sink_free(cycle_graph(30)))
        assert report.q_empty == F(1, 2 ** 29)
        assert report.shearer_ok is True
        assert report.expected_total == sum(report.expected_per_event)

    @pytest.mark.parametrize(
        "call",
        [
            analyze_instance,
            lambda inst: expected_resamples_per_event(
                inst.dependency_graph, event_probabilities(inst)
            ),
        ],
        ids=["analyze_instance", "expected_resamples_per_event"],
    )
    def test_one_evaluator_per_call(self, call, monkeypatch):
        from prsampling.graph_apps import encode_sink_free
        from prsampling.graphs import cycle_graph

        built = []

        class Counted(shearer._QEvaluator):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(shearer, "_QEvaluator", Counted)
        call(encode_sink_free(cycle_graph(6)))
        assert len(built) == 1


class TestConditionCheckers:
    def test_asymmetric_isolated(self):
        g = DependencyGraph(1, ((),))
        assert check_asymmetric_lll(g, [F(1, 3)], [F(1, 3)]) is True

    def test_asymmetric_star_fails(self):
        p = [F(1, 2), F(1, 100), F(1, 100), F(1, 100)]
        x = [F(1, 4)] * 4
        # Center needs 1/2 <= (1/4)(3/4)^3 = 27/256: false.
        assert check_asymmetric_lll(STAR13, p, x) is False

    def test_asymmetric_zero_probabilities(self):
        x = [F(1, 2)] * 4
        assert check_asymmetric_lll(STAR13, [F(0)] * 4, x) is True

    def test_asymmetric_x_validation(self):
        with pytest.raises(ValueError):
            check_asymmetric_lll(PAIR, [F(0), F(0)], [F(1), F(1, 2)])

    def test_symmetric_pc(self):
        assert symmetric_pc(3) == F(4, 27)
        assert symmetric_pc(2) == F(1, 4)
        assert symmetric_pc(4) == F(27, 256)
        with pytest.raises(ValueError):
            symmetric_pc(1)

    def test_linear_coefficient(self):
        assert linear_coefficient(3, F(1, 8)) == F(27, 5)
        assert linear_coefficient(3, symmetric_pc(3) / 2) == 1
        assert linear_bound(10, 3, F(1, 8)) == 54

    def test_linear_no_slack(self):
        with pytest.raises(ShearerError, match="no slack"):
            linear_coefficient(3, F(4, 27))

    def test_gprs_sharing_regime(self):
        check = gprs_condition_values(F(1, 2 ** 20), F(1, 2 ** 10), 120)
        assert check.applicable and check.cond1 and check.cond2 and check.ok
        assert check.product1 == pytest.approx(6 * math.e * 120 ** 2 / 2 ** 20)
        assert check.product2 == pytest.approx(3 * math.e * 120 / 2 ** 10)

    def test_gprs_p_one_fails(self):
        check = gprs_condition_values(F(1), F(1), 2)
        assert check.ok is False

    def test_gprs_not_applicable_below_degree_two(self):
        check = gprs_condition_values(F(1, 4), F(1, 2), 1)
        assert check.applicable is False
        assert check.ok is None
        assert check.cond1 is None and check.cond2 is None

    def test_gprs_custom_constants(self):
        # c1*e*p*delta^2 <= 1 with p = 1/100, delta = 2: passes at c1 = 9
        # (9e/25 = 0.978...) and fails at c1 = 10 (10e/25 = 1.087...).
        assert gprs_condition_values(F(1, 100), F(0), 2, c1=9).cond1 is True
        assert gprs_condition_values(F(1, 100), F(0), 2, c1=10).cond1 is False

    def test_check_gprs_from_instance(self):
        from prsampling.verify import two_adjacent_events_instance

        check = check_gprs_conditions(two_adjacent_events_instance())
        assert isinstance(check, GprsCheck)
        assert check.p == F(1, 4)
        assert check.delta == 1
        assert check.applicable is False


class TestTruncatedSeries:
    def test_length_zero_is_one(self):
        assert truncated_log_sum(PAIR, [F(1, 4), F(1, 4)], 0) == 1

    def test_single_event_geometric(self):
        partials = truncated_log_partials(SINGLE, [F(1, 2)], 40)
        assert partials == [2 - F(1, 2 ** t) for t in range(41)]
        assert abs(partials[-1] - 2) <= F(2, 2 ** 40)

    def test_two_adjacent_geometric(self):
        partials = truncated_log_partials(PAIR, [F(1, 4), F(1, 4)], 60)
        assert partials == [2 - F(1, 2 ** t) for t in range(61)]
        assert 2 - partials[-1] < F(1, 10 ** 6)

    def test_monotone_and_bounded(self):
        p = [F(1, 5), F(1, 6), F(1, 7)]
        partials = truncated_log_partials(PATH3, p, 12)
        assert all(b >= a for a, b in zip(partials, partials[1:]))
        assert partials[-1] <= 1 / q_empty(PATH3, p)

    def test_zero_probabilities_converge_immediately(self):
        partials = truncated_log_partials(EMPTY3, [F(0)] * 3, 5)
        assert partials == [F(1)] * 6

    def test_sequence_guard(self):
        big = DependencyGraph(7, ((),) * 7)
        with pytest.raises(BudgetError):
            truncated_log_partials(big, [F(0)] * 7, 1)


class TestAnalyzeInstance:
    def test_two_adjacent_report(self):
        from prsampling.verify import two_adjacent_events_instance

        report = analyze_instance(two_adjacent_events_instance())
        assert report.extremal is True
        assert report.q_empty == F(1, 2)
        assert report.expected_total == 1
        assert report.shearer_ok is True
        assert report.lll_ok is True
        assert report.symmetric_pc is None  # max degree 1
        j = report.to_json()
        assert j["q_empty"] == "1/2"
        assert j["expected_total"] == "1"
        assert j["gprs"]["applicable"] is False

    def test_sink_triangle_report(self):
        from prsampling.graph_apps import encode_sink_free
        from prsampling.graphs import cycle_graph

        report = analyze_instance(encode_sink_free(cycle_graph(3)))
        assert report.expected_total == 3
        assert report.extremal is True
        assert report.max_degree == 2
        assert report.symmetric_pc == F(1, 4)
        # p_max = 1/4 equals p_c(2): no slack, so no linear coefficient.
        assert report.linear_coefficient is None

    def test_one_dependency_graph_per_instance(self, monkeypatch):
        import prsampling.model as model
        from prsampling.graph_apps import encode_sink_free
        from prsampling.graphs import cycle_graph

        builds = []

        def counted(instance):
            builds.append(instance)
            return build_dependency_graph(instance)

        monkeypatch.setattr(model, "build_dependency_graph", counted)
        instance = encode_sink_free(cycle_graph(5))
        first = analyze_instance(instance)
        assert analyze_instance(instance) == first
        check_gprs_conditions(instance)
        assert builds == [instance]

    def test_extremality_read_from_instance(self, monkeypatch):
        import prsampling.model as model
        from prsampling.graph_apps import encode_sink_free
        from prsampling.graphs import cycle_graph

        calls = []
        is_extremal = model.is_extremal

        def counted(*args, **kwargs):
            calls.append(args)
            return is_extremal(*args, **kwargs)

        monkeypatch.setattr(model, "is_extremal", counted)
        # A name shearer imported from model would bypass the patch above.
        monkeypatch.setattr(shearer, "is_extremal", counted, raising=False)
        instance = encode_sink_free(cycle_graph(5))
        assert instance.extremal is True
        assert len(calls) == 1
        assert analyze_instance(instance).extremal is True
        assert len(calls) == 1
