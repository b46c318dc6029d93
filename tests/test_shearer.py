"""Exact q-value machinery, run-length formulas, and condition checkers."""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

import prsampling.shearer as shearer
import reference_analysis as reference
from conftest import clause_instance, grid_graph, petersen_graph, random_cubic_graph
from prsampling import verify
from prsampling.errors import BudgetError
from prsampling.graph_apps import encode_hardcore, encode_sink_free, encode_spanning_tree
from prsampling.graphs import complete_graph, cycle_graph
from prsampling.model import (
    DependencyGraph,
    EventSpec,
    Instance,
    VariableSpec,
    build_dependency_graph,
    event_probabilities,
    event_probability,
    r_max,
    uniform_variable,
)
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
    linear_coefficient,
    q_empty,
    q_singletons,
    shearer_holds,
    symmetric_pc,
    truncated_log_partials,
)
from reference_helpers import linear_bound, q_value, r_matrix, truncated_log_sum

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

    def test_enumeration_budget(self, monkeypatch, capsys):
        from prsampling.cli import main

        # PATH3 has five independent sets, and two adjacent events three.
        monkeypatch.setattr(shearer, "MAX_ENUMERATED_SETS", 5)
        assert len(list(independent_sets(PATH3))) == 5
        monkeypatch.setattr(shearer, "MAX_ENUMERATED_SETS", 4)
        with pytest.raises(BudgetError, match="exceeded budget of 4 sets"):
            list(independent_sets(PATH3))
        with pytest.raises(BudgetError, match="exceeded budget of 4 sets"):
            all_q_values(PATH3, [F(1, 6), F(1, 7), F(1, 8)])
        monkeypatch.setattr(shearer, "MAX_ENUMERATED_SETS", 2)
        assert main(["verify", "first-round", "--case", "two-events", "--n", "5"]) == 1
        assert "exceeded budget of 2 sets" in capsys.readouterr().err

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

    @pytest.mark.parametrize("p", [F(-1, 8), F(2), F(9, 8)])
    def test_linear_rejects_non_probability(self, p):
        with pytest.raises(ValueError, match="is not a probability"):
            linear_coefficient(3, p)

    @pytest.mark.parametrize(
        "p,r,delta,message",
        [
            (F(-1, 8), F(1, 2), 3, "p = -1/8 is not a probability"),
            (F(1, 8), F(2), 3, "r = 2 is not a probability"),
            (F(1, 8), F(-1, 2), 3, "r = -1/2 is not a probability"),
            (F(1, 8), F(1, 2), -4, "delta = -4 is negative"),
            (F(1, 100), F(0), 2.0, "delta = 2.0 is not an integer"),
            (F(1, 100), F(0), True, "delta = True is not an integer"),
        ],
    )
    def test_gprs_rejects_bad_values(self, p, r, delta, message):
        with pytest.raises(ValueError, match=message):
            gprs_condition_values(p, r, delta)

    def test_gprs_accepts_the_closed_interval(self):
        assert gprs_condition_values(F(0), F(0), 0).applicable is False
        assert gprs_condition_values(F(0), F(0), 3).ok is True

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

    def test_gprs_cond1_boundary(self):
        # c1*e*p*delta^2 <= 1 at c1 = 6, delta = 2: holds at p = 1/66
        # (24e/66 = 0.988...) and fails at p = 1/65 (24e/65 = 1.004...).
        assert gprs_condition_values(F(1, 66), F(0), 2).cond1 is True
        assert gprs_condition_values(F(1, 65), F(0), 2).cond1 is False

    def test_gprs_custom_constants(self, monkeypatch):
        # c1*e*p*delta^2 <= 1 with p = 1/100, delta = 2: passes at c1 = 9
        # (9e/25 = 0.978...) and fails at c1 = 10 (10e/25 = 1.087...).
        monkeypatch.setattr(shearer, "GPRS_C1", 9)
        assert gprs_condition_values(F(1, 100), F(0), 2).cond1 is True
        monkeypatch.setattr(shearer, "GPRS_C1", 10)
        assert gprs_condition_values(F(1, 100), F(0), 2).cond1 is False

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

    def test_single_check_path(self):
        # The LLL verdict, p_max and the gprs check, each from the inputs
        # the evaluator checked once, against the public calls on p.
        for instance in random_instances(40, 9):
            report = analyze_instance(instance)
            graph = instance.dependency_graph
            p = event_probabilities(instance)
            delta, m = graph.max_degree, graph.num_events
            if delta >= 1:
                assert report.lll_ok is check_asymmetric_lll(graph, p, [F(1, delta + 1)] * m)
            else:
                assert report.lll_ok is all(pi < 1 for pi in p)
            assert report.p == tuple(p)
            assert report.p_max == max(p, default=F(0))
            expect = reference.gprs_condition_values(max(p, default=F(0)), r_max(instance), delta)
            assert report.gprs == expect, instance
            for got, want in ((report.gprs.product1, expect.product1), (report.gprs.product2, expect.product2)):
                assert got.hex() == want.hex()

    def test_caches_nothing(self):
        from functools import cached_property

        cached = {k for k, v in vars(Instance).items() if isinstance(v, cached_property)}
        columns = {"domains", "weights", "vbls", "violating"}  # stored, not cached
        for instance in (encode_sink_free(cycle_graph(7)), encode_hardcore(petersen_graph(), F(1, 10))):
            first = analyze_instance(instance)
            graph = instance.dependency_graph
            held = set(vars(instance))
            assert held - set(Instance._fields) - columns <= cached
            assert analyze_instance(instance) == first
            assert set(vars(instance)) == held
            assert set(vars(graph)) <= set(DependencyGraph._fields)

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


# Coprime and overlapping: 1/6 + 1/10 leaves 11/15, whose denominator is
# the largest but not the least common one (30).
DENOMINATORS = (2, 3, 5, 6, 7, 10, 11, 15)


def mixed_weighted(instance, rng):
    """The instance with each variable reweighted over mixed denominators.

    A variable's first weights are a/b for distinct b in ``DENOMINATORS``,
    some of them 0, and the last is what is left, so one variable mixes
    denominators and different variables mix them again.
    """
    variables = []
    for v in instance.variables:
        dens = rng.sample(DENOMINATORS, v.domain_size - 1)
        head = [Fraction(rng.randrange(b // v.domain_size + 1), b) for b in dens]
        variables.append(VariableSpec(v.id, v.domain_size, (*head, 1 - sum(head))))
    return Instance(tuple(variables), instance.events)


def random_instances(count, seed):
    """``count`` instances from each of the verdict test's generators, and
    ``count`` more from ``random_instance`` reweighted by ``mixed_weighted``."""
    rng = random.Random(seed)
    for _ in range(count):
        yield verify.random_instance(rng)
        yield verify.random_extremal_instance(rng)
        yield verify.random_weighted_instance(rng)
        yield mixed_weighted(verify.random_instance(rng), rng)


def probability_vectors(graph, base, rng):
    """p-vectors around ``base``: the verdict test's scalings, and draws
    that mix 0, 1 and coprime denominators."""
    for scale in (F(1, 2), F(1), F(3, 2), F(2)):
        yield [min(F(1), pi * scale) for pi in base]
    choices = (F(0), F(1), F(1, 2), F(1, 3), F(2, 5), F(3, 7), F(1, 11))
    yield [rng.choice(choices) for _ in range(graph.num_events)]


@pytest.mark.stream
class TestIntegerArithmetic:
    """The integer analysis against the ``Fraction`` one in
    ``tests/reference_analysis.py``."""

    def test_q_values_and_verdict(self):
        rng = random.Random(11)
        checked = negative = 0
        for instance in random_instances(150, 5):
            graph = instance.dependency_graph
            for p in probability_vectors(graph, event_probabilities(instance), rng):
                ev, ref = shearer._QEvaluator(graph, p), reference.QEvaluator(graph, p)
                assert ev.q_of(()) == ref.q_of(()), (instance, p)
                assert ev.singletons() == ref.singletons(), (instance, p)
                holds = ev.holds()
                assert holds is ref.holds(), (instance, p)
                if holds:
                    qe = ref.q_of(())
                    per, total = ev.expected()
                    assert per == [qi / qe for qi in ref.singletons()]
                    assert total == sum(per, F(0))
                checked += 1
                negative += not holds
        assert checked == 5 * 600
        assert 500 < negative < 2500  # both verdicts are well represented

    def test_weight_sums(self):
        for instance in random_instances(150, 6):
            probs = event_probabilities(instance)
            assert probs == reference.event_probabilities(instance), instance
            assert [event_probability(instance, e) for e in instance.events] == probs
            r = r_matrix(instance)
            expect = reference.r_matrix(instance)
            assert list(r.items()) == list(expect.items()), instance
            assert r_max(instance) == max(expect.values(), default=F(0))

    def test_r_max_on_generated_instances(self):
        # r_max weighs each event once per variable it shares alone and once
        # per other shared set holding none of those; the reference
        # weighs every ordered dependent pair.
        rng = random.Random(13)
        generators = (
            verify.random_instance,
            verify.random_weighted_instance,
            verify.random_extremal_instance,
        )
        for _ in range(700):
            for generate in generators:
                instance = generate(rng)
                expect = reference.r_matrix(instance)
                assert r_max(instance) == max(expect.values(), default=F(0)), instance

    @pytest.mark.parametrize(
        "name", ["K4", "grid3x3", "petersen", "R16-1", "R16-2", "R16-3"]
    )
    def test_r_on_spanning_tree_encodings(self, name):
        # Cycle events share paths, so their shared sets hold one variable
        # or several, and a set can contain another.
        instance = analysis_input("spanning-tree/" + name)
        expect = reference.r_matrix(instance)
        assert list(r_matrix(instance).items()) == list(expect.items())
        assert r_max(instance) == max(expect.values())

    def test_r_of_two_shared_variables(self):
        # The only dependent pair shares variables 1 and 2. Each of them
        # alone would let event 0 occur whatever its value (r = 1), but on
        # the pair of them event 0 takes 3 of the 4 values.
        variables = (
            uniform_variable(0, 2),
            VariableSpec(1, 2, (F(1, 3), F(2, 3))),
            VariableSpec(2, 2, (F(1, 4), F(3, 4))),
            uniform_variable(3, 2),
        )
        events = (
            EventSpec(0, (0, 1, 2), frozenset({(0, 0, 0), (1, 0, 1), (0, 1, 1)})),
            EventSpec(1, (1, 2, 3), frozenset({(1, 0, 0), (1, 0, 1)})),
        )
        instance = Instance(variables, events)
        expect = {(0, 1): F(1, 6), (1, 0): F(1, 12) + F(3, 12) + F(6, 12)}
        assert reference.r_matrix(instance) == expect
        assert r_matrix(instance) == expect
        assert r_max(instance) == F(5, 6)

    @pytest.mark.parametrize("taken,expect", [(7, F(7, 8)), (3, F(5, 6))])
    def test_shared_set_below_its_variables_alone(self, taken, expect):
        # The pair above, after two events that share variable 4: the first
        # sets the best to taken/8 before the pair is reached. Variables 1
        # and 2 each weigh 1 alone, which beats both bests, so the shared
        # set {1, 2} is weighed, and its 5/6 is taken only if it beats 7/8
        # or 3/8.
        variables = (
            uniform_variable(0, 2),
            VariableSpec(1, 2, (F(1, 3), F(2, 3))),
            VariableSpec(2, 2, (F(1, 4), F(3, 4))),
            uniform_variable(3, 2),
            uniform_variable(4, 8),
        )
        events = (
            EventSpec(0, (4,), frozenset((x,) for x in range(taken))),
            EventSpec(1, (4,), frozenset({(7,)})),
            EventSpec(2, (0, 1, 2), frozenset({(0, 0, 0), (1, 0, 1), (0, 1, 1)})),
            EventSpec(3, (1, 2, 3), frozenset({(1, 0, 0), (1, 0, 1)})),
        )
        instance = Instance(variables, events)
        assert max(reference.r_matrix(instance).values()) == expect
        assert r_max(instance) == expect

    def test_largest_r_at_the_last_event(self):
        # Only the last event, on variables 2 and 3, takes every value of
        # variable 2, which it shares alone with event 1: r_12 = 1, and
        # every other r_ij is 3/5.
        variables = tuple(VariableSpec(v, 2, (F(2, 5), F(3, 5))) for v in range(4))
        events = (
            EventSpec(0, (0, 1), frozenset({(1, 1)})),
            EventSpec(1, (1, 2), frozenset({(1, 1)})),
            EventSpec(2, (2, 3), frozenset({(0, 1), (1, 0)})),
        )
        instance = Instance(variables, events)
        r = reference.r_matrix(instance)
        assert max(r, key=r.get) == (1, 2) and r[1, 2] == 1
        assert sorted(r.values())[-2] == F(3, 5)
        assert r_max(instance) == 1

    def test_zero_weights(self):
        # Variables 0 and 2 never take value 0, and every event needs a 0
        # at each variable it shares, so every r_ij is 0 until event 3,
        # which also allows value 2 of variable 2.
        variables = (
            VariableSpec(0, 2, (F(0), F(1))),
            uniform_variable(1, 2),
            VariableSpec(2, 3, (F(0), F(1, 3), F(2, 3))),
        )
        needs_zero = (
            EventSpec(0, (0, 1), frozenset({(0, 0), (0, 1)})),
            EventSpec(1, (0, 2), frozenset({(0, 0)})),
            EventSpec(2, (2,), frozenset({(0,)})),
        )
        instance = Instance(variables, needs_zero)
        assert max(reference.r_matrix(instance).values()) == 0
        assert r_max(instance) == 0
        instance = Instance(variables, needs_zero + (EventSpec(3, (2,), frozenset({(0,), (2,)})),))
        assert r_max(instance) == max(reference.r_matrix(instance).values()) == F(2, 3)

    def test_event_without_violating_tuples(self):
        variables = tuple(uniform_variable(v, 2) for v in range(3))
        events = (
            EventSpec(0, (0, 1), frozenset()),
            EventSpec(1, (1, 2), frozenset({(0, 1)})),
        )
        instance = Instance(variables, events)
        assert reference.r_matrix(instance) == {(0, 1): F(1, 2), (1, 0): 0}
        assert r_max(instance) == F(1, 2)
        instance = Instance(variables, (events[0], EventSpec(1, (1, 2), frozenset())))
        assert r_max(instance) == 0

    def test_isolated_event(self):
        # Event 2 would weigh 1 alone at variable 3, but shares it with none.
        variables = tuple(uniform_variable(v, 2) for v in range(4))
        events = (
            EventSpec(0, (0, 1), frozenset({(0, 0)})),
            EventSpec(1, (1, 2), frozenset({(0, 0)})),
            EventSpec(2, (3,), frozenset({(0,), (1,)})),
        )
        instance = Instance(variables, events)
        assert max(reference.r_matrix(instance).values()) == F(1, 2)
        assert r_max(instance) == F(1, 2)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_r_max_on_large_encodings(self, seed):
        graph = random_cubic_graph(200, seed)
        rng = random.Random(seed)
        clauses = [
            [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, 121), 8)]
            for _ in range(80)
        ]
        for instance in (
            encode_hardcore(graph, F(1, 10)),
            encode_sink_free(graph),
            clause_instance(clauses, 120),
        ):
            assert r_max(instance) == max(reference.r_matrix(instance).values())

    def test_asymmetric_lll(self):
        rng = random.Random(12)
        xs = (F(1, 2), F(1, 3), F(2, 7), F(1, 5), F(4, 11), F(1, 13))
        for instance in random_instances(150, 7):
            graph = instance.dependency_graph
            p = event_probabilities(instance)
            for _ in range(3):
                x = [rng.choice(xs) for _ in range(graph.num_events)]
                expect = reference.check_asymmetric_lll(graph, p, x)
                assert shearer.check_asymmetric_lll(graph, p, x) is expect

    def test_no_events(self):
        instance = Instance((uniform_variable(0, 2),), ())
        assert event_probabilities(instance) == []
        assert r_matrix(instance) == {}
        assert r_max(instance) == 0
        ev = shearer._QEvaluator(NO_EVENTS, [])
        assert ev.q_of(()) == 1 and ev.singletons() == [] and ev.holds() is True
        assert ev.expected() == ([], 0)
        report = analyze_instance(instance)
        assert report.q_empty == 1 and report.expected_total == 0

    def test_memo_guard(self, monkeypatch):
        # The recursion on the sink-free cycle C_n memoizes 2n - 2 subsets.
        # The cap is tested on entering a subproblem, before the ones below
        # it are stored, so C_16 (30 subsets) still passes a cap of 16.
        def ring(n):
            return encode_sink_free(cycle_graph(n)).dependency_graph

        monkeypatch.setattr(shearer, "MAX_MEMO_ENTRIES", 16)
        assert q_empty(ring(8), [F(1, 4)] * 8) == F(1, 2 ** 7)
        with pytest.raises(BudgetError, match="exceeded 16 subproblems"):
            q_empty(ring(20), [F(1, 4)] * 20)


def analysis_input(label):
    """The instances of the frozen analysis digests, by label."""
    encoding, name = label.split("/")
    if name.startswith("C"):
        graph = cycle_graph(int(name[1:]))
    elif name.startswith("R16-"):
        graph = random_cubic_graph(16, int(name[4:]))
    else:
        graph = {"K4": complete_graph(4), "grid3x3": grid_graph(3, 3), "petersen": petersen_graph()}[name]
    if encoding == "hardcore":
        return encode_hardcore(graph, F(1, 10))
    if encoding == "spanning-tree":
        return encode_spanning_tree(graph, 0)
    return encode_sink_free(graph)


def analysis_digest(label):
    report = analyze_instance(analysis_input(label))
    return hashlib.sha256(json.dumps(report.to_json(), sort_keys=True).encode()).hexdigest()


# sha256 of each report's sorted JSON, recorded while every step of the
# analysis was still computed in Fraction; a change here is a change of a
# result. The spanning-tree encodings of the 16-vertex cubic graphs have
# 75 to 126 events, over MAX_ANALYSIS_EVENTS, so they have no report.
FROZEN_ANALYSIS_DIGESTS = {
    "sink-free/C3": "18b45fad8f7019b975275ddd9ce3031ccd395a1fbf061c8ce2847d3987b95471",
    "sink-free/C4": "c5435d44f53495719ced9f762625219a1ccce7f046f3b296a663a8864e0a7098",
    "sink-free/C5": "2fc2f739c2ffdbe6a674f769fb129ba5a7fe7cd176b37205a9663926b2697098",
    "sink-free/C6": "729174ba8ff6aaa8f1f7483feb8efa09703f4b53c8044f5c54e8207c3eaa1c4d",
    "sink-free/C7": "90921a42bb1ac8a9cd3b976b5b4b4c577e85cae8b57304bf455fb6cbc5d8e872",
    "sink-free/C8": "2a2659f7faa01b30c454e8ae857d9715582029d69d05eed8afd3c2817a5da617",
    "sink-free/C9": "af0e6d5e16326ab76e88d25697a0423950f96cbab28421802c48a2999a8013cc",
    "sink-free/C10": "8c3f77212f64bd9516245e71bf22c191ed6aff5e5867ba4f7742f5c46fa0a0f2",
    "sink-free/C11": "5029ed2ce4445464b6e8ee92fee94ccf1482a04055cf0ad4716403fc4f6a2b3f",
    "sink-free/C12": "e6cd1bab41aaddab2f870dfd8c814653386169d2b8d1aae6db3a4ef86fd60ceb",
    "sink-free/C13": "f0ddbe07b822813c6b4467271da4bb0338839128654092f5a7c205f4f56da3d5",
    "sink-free/C14": "77d5f0ee679af41ba055f1c0377b8ba30323a6b99435d2c6721d1d92c3d26f44",
    "sink-free/C15": "6f3ed661f0bb82c588ba4f1a3f4dd467bff954afedda447aa250fd1a52142d64",
    "sink-free/C16": "b58096a6e54603035850ceadc52da822281f848b7bb1aaba5a3266bd03f89650",
    "sink-free/C17": "07b4cc0e7b835c187a3cf1bb74381c9882c523900dc504af69d634442b5b1ffb",
    "sink-free/C18": "3a5d0e67221352f8413b8ef517e8cedb2b59ed0197ef9c043f4d2ed3c840d955",
    "sink-free/C19": "0b43ef26c7e8c3a0372b3b3e648e6355275eefaafaf7cfc30dc1d0d8dbf54a2d",
    "sink-free/C20": "63d83e278c1c96a26101b70041048194b6218a0b9c80aec357bc939688cddaac",
    "sink-free/C21": "747f16c48220b67b807160500998b5c3a4be0d7b5aeb64aac1fb5fd8f5e93e3a",
    "sink-free/C22": "5fbb8babd081415055c38b7ce36346e0fe97f3763ca832f6d709d4fab73b95a2",
    "sink-free/C30": "ca3072dfe8f0e15e90faeb1b735928764f1707116326b3941a42897b17b5e58e",
    "hardcore/K4": "d36dc362b4fb5f7c65b4c3fc101829f564a4497d9e5e576a7ee70f9c48f0a609",
    "sink-free/K4": "440f6a4c5be1ebd011454dcc3bceea5963fb6ff8fe6780cd1642a67ec92d341a",
    "spanning-tree/K4": "96b362ebb4b780f993b6a71a3ed38e1d4589019faccdb4189c8713858bce819b",
    "hardcore/grid3x3": "de77c06d1598eaa4dde8f20a9239a9a338d307425e63416342b7dd31b1d86f88",
    "sink-free/grid3x3": "656b9fe56fb700814881dbce262f18eb64d8dfdf93c1464473c3e1a89844eba1",
    "spanning-tree/grid3x3": "8bab4615b04a8bda3aedd7d66f2ddad76d5b6e5f20c221256ddbfc846a98ff7b",
    "hardcore/petersen": "77cca4b75b4518023f4ed521e064cb222d6ea762eac9acb8a5f28f68776bd560",
    "sink-free/petersen": "24fa098e3475655c53983e64b78f7a025145da59b219175a7531523840191433",
    "spanning-tree/petersen": "54035498799095475fbb7cca1a311d7607942589cd54fce4a6668793fdc208a1",
    "hardcore/R16-1": "7f9c4414b21f82e015ac920a1af8e3ced1ac1e6d46b505a37076f9566b9b5cc2",
    "sink-free/R16-1": "99ecc40feda4680b2c78b32f8db0a502f94b79c2c7aaa1c22f492fbd5cdc1302",
    "hardcore/R16-2": "352ed10322e617052d3dccfe5774c7b7a5668048b82f95ff84cb027207c820cf",
    "sink-free/R16-2": "454d1ba2de77343c378b80dccb62ed6a2e516d810942eb449378b7bd5ebb580b",
    "hardcore/R16-3": "06ea5f1c86073143e67a862b4e46b5c39a1b1831d958112a9e45fad92eb12861",
    "sink-free/R16-3": "1c5063d38e3e99b159aed6ff4f11e02be7ad87477be90bc0486f8cca9c45c187",
}


@pytest.mark.stream
class TestFrozenAnalysis:
    @pytest.mark.parametrize("label", sorted(FROZEN_ANALYSIS_DIGESTS))
    def test_report_unchanged(self, label):
        assert analysis_digest(label) == FROZEN_ANALYSIS_DIGESTS[label]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_cubic_spanning_tree_over_the_cap(self, seed):
        with pytest.raises(BudgetError, match="at most 30 events"):
            analysis_digest("spanning-tree/R16-%d" % seed)


def per_event_reference(graph, p):
    """The q_i, and the q_i / q_empty where q_empty > 0, as they were
    computed before the reverse sweep: each q_i by ``q_of((i,))`` on a
    fresh evaluator, and each ratio by its own recursion on
    q(V - N+[i]), also on a fresh evaluator."""
    singles = [shearer._QEvaluator(graph, p).q_of((i,)) for i in range(graph.num_events)]
    ev = shearer._QEvaluator(graph, p)
    if not ev.holds():
        return singles, None
    top = ev.scaled(ev.full)
    nums = []
    for i in range(ev.m):
        rest = ev.full & ~ev.closed[i]
        nums.append(ev.a[i] * ev.scaled(rest) * ev.powers[ev.m - 1 - rest.bit_count()])
    return singles, ([F(num, top) for num in nums], F(sum(nums), top))


def assert_sweep_matches(graph, p):
    """``singletons`` and ``expected`` equal the per-event reference, and
    the sweep adds nothing to the memo of q_empty."""
    ev = shearer._QEvaluator(graph, p)
    qe = ev.q_of(())
    entries = len(ev.memo)
    singles, expected = per_event_reference(graph, p)
    assert ev.singletons() == singles, (graph, p)
    assert qe == shearer._QEvaluator(graph, p).q_of(())
    if expected is not None:
        assert ev.expected() == expected, (graph, p)
    assert len(ev.memo) == entries, (graph, p)
    return ev


@pytest.mark.stream
class TestReverseSweep:
    """Every q_i from one reverse sweep over q_empty's memo, against one
    recursion per event."""

    @pytest.mark.parametrize("label", sorted(FROZEN_ANALYSIS_DIGESTS))
    def test_frozen_inputs(self, label):
        instance = analysis_input(label)
        assert_sweep_matches(instance.dependency_graph, event_probabilities(instance))

    def test_random_instances(self):
        rng = random.Random(13)
        checked = negative = 0
        for instance in random_instances(60, 8):
            graph = instance.dependency_graph
            for p in probability_vectors(graph, event_probabilities(instance), rng):
                ev = assert_sweep_matches(graph, p)
                checked += 1
                negative += not ev.holds()
        assert checked == 4 * 60 * 5
        assert negative > 100  # the sweep is checked where the criterion fails too

    @pytest.mark.parametrize(
        "graph,p",
        [
            (NO_EVENTS, []),
            (SINGLE, [F(1, 3)]),
            (SINGLE, [F(0)]),
            (SINGLE, [F(1)]),
            (PATH3, [F(0), F(1, 2), F(0)]),
            (PATH3, [F(1), F(0), F(1)]),
            (PATH3, [F(1, 5), F(1), F(2, 7)]),
            (EMPTY3, [F(1, 2), F(1, 3), F(1, 5)]),
            (EMPTY3, [F(1), F(0), F(1, 4)]),
            (TWO_PAIRS, [F(1, 2), F(1, 3), F(1, 3), F(1, 2)]),
            (CROSSED_PAIRS, [F(1, 4), F(1, 4), F(1), F(1)]),
            (STAR13, [F(1, 9), F(1, 2), F(0), F(1, 3)]),
        ],
        ids=[
            "no-events", "one-event", "one-event-p0", "one-event-p1", "path-p0", "path-p1",
            "path-mixed", "isolated", "isolated-p0-p1", "two-components", "crossed-components",
            "star",
        ],
    )
    def test_edge_cases(self, graph, p):
        assert_sweep_matches(graph, p)

    def test_neighbour_listed_twice(self):
        twice = DependencyGraph(3, ((1, 1), (0, 2, 0), (1, 1)))
        for p in ([F(1, 5), F(1, 4), F(1, 3)], [F(1), F(0), F(1, 2)]):
            ev = assert_sweep_matches(twice, p)
            assert ev.singletons() == q_singletons(PATH3, p)
            assert ev.holds() is shearer_holds(PATH3, p)

    def test_neighbour_listed_twice_counts_once(self):
        # At p = 1/10 and x = 1/3 the middle event passes the LLL with two
        # neighbours, 1/10 <= 1/3 * (2/3)^2, and would fail with three.
        twice = DependencyGraph(3, ((1, 1), (0, 2, 0), (1, 1)))
        assert twice.max_degree == PATH3.max_degree == 2
        for p in ([F(1, 10)] * 3, [F(1, 5), F(1, 4), F(1, 3)], [F(1, 20), F(1, 8), F(1, 20)]):
            for x in ([F(1, 3)] * 3, [F(1, 2), F(1, 3), F(1, 4)]):
                assert check_asymmetric_lll(twice, p, x) is check_asymmetric_lll(PATH3, p, x)
        assert check_asymmetric_lll(twice, [F(1, 10)] * 3, [F(1, 3)] * 3) is True

    def test_memo_counts(self):
        # The recursion on the sink-free cycle C_n memoizes 2n - 2 subsets,
        # and the q_i need no more.
        instance = encode_sink_free(cycle_graph(22))
        ev = shearer._QEvaluator(instance.dependency_graph, event_probabilities(instance))
        ev.singletons()
        ev.expected()
        assert len(ev.memo) == 2 * 22 - 2
