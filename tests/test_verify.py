"""Brute-force oracles, statistical verdicts, and randomized property checks."""

from fractions import Fraction

import pytest

from conftest import clause_instance
from prsampling import verify
from prsampling.cnf import CnfFormula, cnf_to_instance
from prsampling.errors import BudgetError
from prsampling.model import (
    DependencyGraph,
    build_dependency_graph,
    event_probabilities,
    is_extremal,
)
from prsampling.rng import make_rng
from prsampling.sampler import SamplerConfig
from prsampling.shearer import q_empty
from prsampling.verify import (
    biased_stub,
    chain_cnf,
    chi2_sf,
    cross_order_report,
    empirical_distribution_test,
    enumerate_valid,
    expected_resamples_test,
    first_round_test,
    make_handle,
    negative_control_test,
    random_extremal_instance,
    random_instance,
    random_weighted_instance,
    res_set_property_tests,
    round_scaling_experiment,
    truncated_sum_convergence_test,
    two_adjacent_events_instance,
    uniformity_cases,
    uniformity_test,
)

F = Fraction

SINGLE = DependencyGraph(1, ((),))
PAIR = DependencyGraph(2, ((1,), (0,)))


class TestEnumerateValid:
    def test_chain_cnf(self):
        oracle = enumerate_valid(cnf_to_instance(chain_cnf()))
        assert oracle.satisfiable
        assert len(oracle.valid_assignments) == 5
        assert oracle.q_empty_check == F(5, 8)
        assert sum(oracle.probabilities) == 1
        assert oracle.conditional()[(1, 0, 1)] == F(1, 5)

    def test_unsatisfiable(self):
        inst = cnf_to_instance(CnfFormula(1, ((1,), (-1,))))
        oracle = enumerate_valid(inst)
        assert not oracle.satisfiable
        assert oracle.q_empty_check == 0
        assert oracle.probabilities == ()

    def test_extremal_probability_matches_exact_formula(self):
        for inst in (
            two_adjacent_events_instance(),
            clause_instance([(1, 2), (-2, 3), (-1, -3)], 3),
        ):
            graph = build_dependency_graph(inst)
            assert is_extremal(inst)
            assert enumerate_valid(inst).q_empty_check == q_empty(
                graph, event_probabilities(inst)
            )

    def test_non_extremal_dominates_exact_formula(self):
        inst = cnf_to_instance(chain_cnf())
        graph = build_dependency_graph(inst)
        assert not is_extremal(inst)
        assert enumerate_valid(inst).q_empty_check > q_empty(
            graph, event_probabilities(inst)
        )


# (statistic, dof, scipy.stats.chi2.sf(statistic, dof)) from scipy 1.17.1,
# frozen before scipy was dropped; seven of the p-values are below 1e-30.
CHI2_SF_GRID = [
    (0.0, 1, 1.0),
    (0.5, 1, 0.47950012218695337),
    (1.0, 1, 0.31731050786291115),
    (2.0, 1, 0.15729920705028105),
    (3.7, 1, 0.054412467991601404),
    (80.0, 1, 3.744097384202887e-19),
    (400.0, 1, 5.507248237212379e-89),
    (0.0, 2, 1.0),
    (0.5, 2, 0.7788007830714049),
    (2.0, 2, 0.36787944117144245),
    (3.7, 2, 0.1572371663136276),
    (4.0, 2, 0.1353352832366127),
    (80.0, 2, 4.248354255291595e-18),
    (400.0, 2, 1.383896526736753e-87),
    (0.0, 3, 1.0),
    (0.5, 3, 0.9188914116546758),
    (3.0, 3, 0.3916251762710877),
    (3.7, 3, 0.29573403237527585),
    (6.0, 3, 0.11161022509471268),
    (80.0, 3, 3.0692774861724164e-17),
    (400.0, 3, 2.2138865931011112e-86),
    (0.0, 7, 1.0),
    (0.5, 7, 0.9994464813904249),
    (3.7, 7, 0.8136101095426413),
    (7.0, 7, 0.42887985755305486),
    (14.0, 7, 0.051181353413065414),
    (80.0, 7, 1.377501829742618e-14),
    (400.0, 7, 2.3852710811123476e-82),
    (0.0, 30, 1.0),
    (0.5, 30, 1.0),
    (3.7, 30, 0.9999999986177982),
    (30.0, 30, 0.4656537089440098),
    (60.0, 30, 0.0009206823961486636),
    (80.0, 30, 1.9756232434910563e-06),
    (400.0, 30, 2.7954938576565057e-66),
    (0.0, 99, 1.0),
    (3.7, 99, 1.0),
    (80.0, 99, 0.9191878735980901),
    (99.0, 99, 0.4810969124082639),
    (198.0, 99, 1.3802761283351001e-08),
    (400.0, 99, 8.372893780664211e-38),
    (0.0, 500, 1.0),
    (80.0, 500, 1.0),
    (400.0, 500, 0.9996379295417103),
    (500.0, 500, 0.491589373031009),
    (1000.0, 500, 1.2085183611328796e-35),
]


class TestChiSquarePValue:
    @pytest.mark.parametrize("stat,dof,expected", CHI2_SF_GRID)
    def test_matches_frozen_scipy_values(self, stat, dof, expected):
        assert chi2_sf(stat, dof) == pytest.approx(expected, rel=1e-9, abs=0)

    def test_grid_reaches_tiny_p_values(self):
        assert sum(1 for _, _, p in CHI2_SF_GRID if p < 1e-30) >= 5

    @pytest.mark.parametrize("dof", [1, 2, 3, 30])
    def test_infinite_statistic_has_p_value_zero(self, dof):
        # A draw on a zero-probability outcome makes the statistic infinite.
        assert chi2_sf(float("inf"), dof) == 0.0

    def test_verdict_uses_it(self):
        verdict = empirical_distribution_test(
            lambda seed: make_rng(seed).random() < 0.57,
            {False: F(1, 2), True: F(1, 2)},
            2_000,
            base_seed=7,
        )
        assert verdict.p_value == chi2_sf(verdict.chi2, verdict.dof)


class TestEmpiricalDistributionTest:
    def test_fair_draw_passes(self):
        verdict = empirical_distribution_test(
            lambda seed: make_rng(seed).random() < 0.5,
            {False: F(1, 2), True: F(1, 2)},
            20_000,
            base_seed=7,
        )
        assert verdict.passed and verdict.invalid_outcomes == 0

    def test_biased_draw_fails(self):
        verdict = empirical_distribution_test(
            lambda seed: make_rng(seed).random() < 0.57,
            {False: F(1, 2), True: F(1, 2)},
            20_000,
            base_seed=7,
        )
        assert not verdict.passed
        assert verdict.tv > 0.05 and verdict.p_value < 1e-3

    def test_invalid_outcome_fails_alone(self):
        verdict = empirical_distribution_test(
            lambda seed: 1 if seed % 997 else 2,
            {1: F(1)},
            2_000,
            base_seed=0,
        )
        assert verdict.invalid_outcomes > 0 and not verdict.passed

    def test_json_round(self):
        verdict = empirical_distribution_test(
            lambda seed: 0, {0: F(1)}, 100, base_seed=1
        )
        j = verdict.to_json()
        assert j["passed"] is True and j["n"] == 100 and j["tv"] == 0.0

    def test_requires_a_run(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            empirical_distribution_test(lambda seed: 0, {0: F(1)}, 0, 0)


class TestUniformityTest:
    def test_two_adjacent_events_pass(self):
        verdict = uniformity_test(
            make_handle("extremal_prs"), two_adjacent_events_instance(), 20_000, 3
        )
        assert verdict.passed and verdict.num_outcomes == 2

    def test_unsatisfiable_rejected(self):
        inst = cnf_to_instance(CnfFormula(1, ((1,), (-1,))))
        with pytest.raises(ValueError, match="no valid assignment"):
            uniformity_test(make_handle("general_prs"), inst, 10, 0)

    def test_biased_stub_fails(self):
        verdict = uniformity_test(
            biased_stub, cnf_to_instance(chain_cnf()), 20_000, 11
        )
        assert not verdict.passed and verdict.tv > 0.15

    def test_one_at_a_time_sampler_biased_off_extremal(self):
        # Documented bias: resampling one occurring event at a time skews
        # the chain-CNF solution law (exact TV 16/360 from the 5-state
        # Markov analysis), so the strict thresholds must reject it.
        verdict = uniformity_test(
            make_handle("moser_tardos"), cnf_to_instance(chain_cnf()), 20_000, 13
        )
        assert not verdict.passed
        assert 0.03 < verdict.tv < 0.06


class TestExpectedResamplesTest:
    def test_two_adjacent_events(self):
        report = expected_resamples_test(two_adjacent_events_instance(), 4_000, 5)
        assert report["passed"]
        assert report["total"]["exact"] == "1"
        assert [r["exact"] for r in report["per_event"]] == ["1/2", "1/2"]

    def test_requires_extremal(self):
        with pytest.raises(ValueError, match="extremal"):
            expected_resamples_test(cnf_to_instance(chain_cnf()), 10, 0)

    def test_requires_a_run(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            expected_resamples_test(two_adjacent_events_instance(), 0, 0)


class TestFirstRoundTest:
    def test_two_adjacent_events(self):
        report = first_round_test(two_adjacent_events_instance(), 20_000, 17)
        assert report["passed"] and report["non_independent_draws"] == 0
        by_set = {tuple(r["set"]): r["q"] for r in report["rows"]}
        assert by_set == {(): "1/2", (0,): "1/4", (1,): "1/4"}

    def test_sink_triangle(self):
        from prsampling.graph_apps import encode_sink_free
        from prsampling.graphs import cycle_graph

        report = first_round_test(encode_sink_free(cycle_graph(3)), 20_000, 19)
        assert report["passed"]
        assert [r["q"] for r in report["rows"]] == ["1/4", "1/4", "1/4", "1/4"]

    def test_requires_extremal(self):
        with pytest.raises(ValueError, match="extremal"):
            first_round_test(cnf_to_instance(chain_cnf()), 10, 0)

    def test_requires_a_run(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            first_round_test(two_adjacent_events_instance(), 0, 0)


class TestNamedFixtures:
    def test_two_adjacent_events_instance(self):
        inst = two_adjacent_events_instance()
        assert inst.num_variables == 1 and inst.num_events == 2
        assert is_extremal(inst)

    def test_chain_cnf(self):
        assert chain_cnf() == CnfFormula(3, ((1, 2), (2, 3)))

    def test_uniformity_cases_shape(self):
        cases = uniformity_cases()
        assert set(cases) == {
            "sink-c3",
            "sink-c4",
            "tree-k4",
            "hardcore-p5",
            "cnf-chain",
        }
        for name, case in cases.items():
            assert sum(case["target"].values()) == 1, name
            for i in range(3):
                assert case["draw"](1000 + i) in case["target"], name

    def test_each_case_draws_once_per_seed(self, monkeypatch):
        samplers = {
            "sink-c3": "sink_popping",
            "sink-c4": "extremal_prs",
            "tree-k4": "cycle_popping",
            "hardcore-p5": "hardcore_sample",
            "cnf-chain": "general_prs",
        }
        calls = []
        for name in samplers.values():
            def counted(*args, _name=name, _sampler=getattr(verify, name)):
                calls.append((_name, args[-1]))
                return _sampler(*args)

            monkeypatch.setattr(verify, name, counted)
        for case, sampler in samplers.items():
            calls.clear()
            uniformity_cases()[case]["draw"](7)
            assert calls == [(sampler, SamplerConfig(7, record_log=False))], case

    def test_case_support_sizes(self):
        cases = uniformity_cases()
        sizes = {k: len(v["target"]) for k, v in cases.items()}
        assert sizes == {
            "sink-c3": 2,
            "sink-c4": 2,
            "tree-k4": 16,
            "hardcore-p5": 13,
            "cnf-chain": 5,
        }


class TestNegativeControl:
    def test_stub_is_caught(self):
        # 20,000 draws, the CLI default: at 5,000 the exact sampler's total
        # variation (0.021 at this seed) is itself above the 0.01 threshold.
        report = negative_control_test(20_000, 23)
        assert report["passed"] and report["stub_failed_as_expected"]
        assert report["stub_verdict"]["tv"] > 0.15
        assert report["exact_passed"] and report["exact_verdict"]["tv"] <= 0.01

    def test_too_few_draws_fail_the_suite(self):
        report = negative_control_test(5_000, 23)
        assert report["stub_failed_as_expected"] and not report["exact_passed"]
        assert not report["passed"]


class TestGenerators:
    def test_extremal_by_construction(self):
        rng = make_rng(31)
        for _ in range(100):
            assert is_extremal(random_extremal_instance(rng))

    def test_random_instances_build(self):
        rng = make_rng(37)
        for _ in range(50):
            inst = random_instance(rng)
            assert inst.num_events >= 1
            w = random_weighted_instance(rng)
            assert all(sum(v.weights) == 1 for v in w.variables)


class TestResSetProperties:
    def test_no_violations(self):
        report = res_set_property_tests(300, 41)
        assert report["passed"]
        assert set(report["violations"].values()) == {0}
        assert report["extremal_trials"] == 100
        assert report["stability_checked"] > 0

    def test_cross_order_report_runs(self):
        report = cross_order_report(100, 43)
        assert report["trials"] == 100
        assert 0 <= report["order_dependent_cases"] <= 100


class TestRoundScaling:
    def test_report_shape_and_determinism(self):
        kwargs = dict(sizes=[32, 64], lam=F(1, 10), trials=3, base_seed=47)
        rep = round_scaling_experiment(**kwargs)
        assert [row["n"] for row in rep["sizes"]] == [32, 64]
        assert rep["decay"]["pairs"] >= 0
        assert rep == round_scaling_experiment(**kwargs)

    def test_seed_changes_results(self):
        a = round_scaling_experiment([16, 32], F(1, 10), 3, base_seed=1)
        b = round_scaling_experiment([16, 32], F(1, 10), 3, base_seed=2)
        assert a != b

    @pytest.mark.parametrize("sizes", [[10], [16, 16]])
    def test_needs_two_distinct_sizes(self, sizes):
        with pytest.raises(ValueError, match="two distinct sizes"):
            round_scaling_experiment(sizes, F(1, 10), 2, base_seed=1)

    def test_requires_a_trial(self):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            round_scaling_experiment([16, 32], F(1, 10), 0, base_seed=1)

    @pytest.mark.parametrize(
        "sizes,degree,message",
        [
            ([16, 32], 0, "degree must be >= 1"),
            ([16, 32], -2, "degree must be >= 1"),
            ([16, 9], 3, "no 3-regular graph on 9 vertices"),
            ([16, 4], 4, "no 4-regular graph on 4 vertices"),
        ],
    )
    def test_impossible_graph_rejected_before_any_is_built(
        self, monkeypatch, sizes, degree, message
    ):
        def no_graph(*args, **kwargs):
            raise AssertionError("a graph was built before the sizes were checked")

        monkeypatch.setattr(verify, "random_regular_graph", no_graph)
        with pytest.raises(ValueError, match=message):
            round_scaling_experiment(sizes, F(1, 10), 2, base_seed=1, degree=degree)


class TestTruncatedSumConvergence:
    def test_single_event_exact(self):
        report = truncated_sum_convergence_test(SINGLE, [F(1, 2)], 8)
        assert report["limit"] == "2"
        assert report["partials"][0] == "1"
        assert report["partials"][-1] == "511/256"
        assert report["monotone"] and report["passed"]
        assert report["final_gap"] == "1/256"
        assert report["tail_bound"] == "1/128"

    def test_vanishing_q_empty_guarded(self):
        with pytest.raises(BudgetError, match="q_empty"):
            truncated_sum_convergence_test(PAIR, [F(1, 2), F(1, 2)], 4)
