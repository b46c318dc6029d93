"""The three resampling algorithms and the resampling-set selector."""

from collections import Counter
from fractions import Fraction

import pytest

from conftest import clause_instance, hardcore_instance
from prsampling.errors import RoundCapError
from prsampling.model import (
    Instance,
    build_dependency_graph,
    is_extremal,
    make_event,
    occurring_events,
    uniform_variable,
)
from prsampling.rng import derive_seed
from prsampling.sampler import (
    SamplerConfig,
    extremal_prs,
    general_prs,
    moser_tardos,
    resample_until_valid,
    run_sampler,
    select_resampling_set,
)

F = Fraction


def cfg(seed, **kw):
    return SamplerConfig(seed=seed, **kw)


def unsatisfiable_instance():
    # One binary variable; the event covers the whole domain.
    return Instance(
        (uniform_variable(0, 2),),
        (make_event(0, (0,), [(0,), (1,)]),),
    )


class TestResampleUntilValid:
    """The round loop itself, on a toy system: variable v is bad while 0."""

    def run(self, draws, choose, **kw):
        sigma = [0, 1, 0]
        values = iter(draws)
        seen, drawn = [], []

        def find_bad(redrawn):
            seen.append(redrawn)
            return [v for v in range(3) if sigma[v] == 0]

        def draw(v):
            drawn.append(v)
            return next(values)

        config = SamplerConfig(
            seed=0,
            round_cap=kw.pop("round_cap", 10),
            record_log=kw.pop("record_log", True),
        )
        out, stats = resample_until_valid(config, sigma, draw, find_bad, choose, **kw)
        assert out is sigma
        return sigma, stats, seen, drawn

    def test_rounds_redraws_and_stats(self):
        sigma, stats, seen, drawn = self.run(
            [0, 1, 1], lambda bad: (bad, sorted(bad, reverse=True)), num_events=3
        )
        assert sigma == [1, 1, 1] and stats.halted
        # The finder sees the previous round's redraw; draws follow its order.
        assert seen == [None, [2, 0], [2]]
        assert drawn == [2, 0, 2]
        assert (stats.rounds, stats.total_resamples, stats.variable_resamples) == (2, 3, 3)
        assert stats.event_resamples == [1, 0, 2]
        assert stats.log == [(0, 2), (2,)]
        assert stats.var_log == [(2, 0), (2,)]

    @pytest.mark.parametrize(
        "logged,log", [("resampled", [(0, 1, 2)]), ("bad", [(0, 2)]), (None, None)]
    )
    def test_logged(self, logged, log):
        def choose(bad):  # resample event 1 as well as the bad 0 and 2
            return bad[:1] + [1] + bad[1:], [0, 1, 2]

        _, stats, _, _ = self.run([1, 1, 1], choose, logged=logged)
        assert stats.event_resamples is None and stats.total_resamples == 3
        assert stats.log == log and stats.var_log == [(0, 1, 2)]
        _, stats, _, _ = self.run([1, 1, 1], choose, logged=logged, record_log=False)
        assert stats.log is None and stats.var_log is None

    def test_round_cap(self):
        with pytest.raises(RoundCapError, match="^round cap 1 reached in a toy$") as err:
            self.run([0, 0], lambda bad: (bad, bad), round_cap=1, note=" in a toy")
        assert err.value.stats.rounds == 1 and not err.value.stats.halted
        assert err.value.stats.var_log == [(0, 2)]


class TestMoserTardos:
    def test_no_events_returns_initial_sample(self):
        inst = Instance((uniform_variable(0, 2), uniform_variable(1, 3)), ())
        sigma, stats = moser_tardos(inst, cfg(7))
        assert stats.rounds == 0 and stats.total_resamples == 0
        assert stats.halted is True
        assert len(sigma) == 2

    def test_unsatisfiable_hits_cap(self):
        with pytest.raises(RoundCapError) as err:
            moser_tardos(unsatisfiable_instance(), cfg(3, round_cap=50))
        assert err.value.stats.rounds == 50
        assert err.value.stats.halted is False

    def test_single_clause_uniform(self):
        # One event is trivially extremal, so the chain is unbiased here.
        inst = clause_instance([(1, 2)], 2)
        n = 100_000
        counts = Counter(
            tuple(moser_tardos(inst, cfg(derive_seed(11, i), record_log=False))[0])
            for i in range(n)
        )
        assert set(counts) == {(0, 1), (1, 0), (1, 1)}
        tv = 0.5 * sum(abs(counts[k] / n - 1 / 3) for k in counts)
        assert tv <= 0.01

    def test_output_always_valid(self):
        inst = clause_instance([(1, 2), (-2, 3), (1, -3)], 3)
        for i in range(200):
            sigma, stats = moser_tardos(inst, cfg(derive_seed(5, i)))
            assert occurring_events(inst, sigma) == []
            assert stats.halted

    def test_log_records_single_events(self):
        inst = clause_instance([(1, 2)], 2)
        _, stats = moser_tardos(inst, cfg(2))
        assert all(len(s) == 1 for s in stats.log)
        assert stats.total_resamples == sum(stats.event_resamples)
        assert stats.rounds == len(stats.log)


class TestSelectResamplingSet:
    def test_no_occurring_events_empty(self):
        inst = clause_instance([(1, 2)], 2)
        assert select_resampling_set(inst, [1, 1]) == []

    def test_contains_bad(self):
        inst = clause_instance([(1, 2), (2, 3)], 3)
        res = select_resampling_set(inst, [0, 0, 0])
        assert set(res) >= {0, 1}

    def test_incompatible_boundary_excluded(self):
        # (x or y) occurs; (not y or z) needs y=1 but y is pinned to 0.
        inst = clause_instance([(1, 2), (-2, 3)], 3)
        assert select_resampling_set(inst, [0, 0, 1]) == [0]

    def test_compatible_boundary_included(self):
        # (x or y) occurs; (y or z) can still occur since z is free.
        inst = clause_instance([(1, 2), (2, 3)], 3)
        assert select_resampling_set(inst, [0, 0, 1]) == [0, 1]

    def test_growth_through_added_events(self):
        # c0 occurs; c1 joins via shared x1; c2 joins via x2 (pinned to 1
        # when c1 joined) even though c2 is not adjacent to any bad event.
        inst = clause_instance([(1, 2), (2, 3), (-3, 4)], 4)
        assert select_resampling_set(inst, [0, 0, 1, 1]) == [0, 1, 2]

    def test_hardcore_path_boundary(self):
        # u, v occupied, w empty: edge {uv} bad, edge {vw} can still occur.
        inst = hardcore_instance([(0, 1), (1, 2)], 3)
        assert select_resampling_set(inst, [1, 1, 0]) == [0, 1]

    def test_extremal_equals_bad(self):
        from prsampling.graph_apps import encode_sink_free
        from prsampling.graphs import cycle_graph
        from prsampling.model import enumerate_assignments

        inst = encode_sink_free(cycle_graph(3))
        assert is_extremal(inst)
        for a in enumerate_assignments(inst):
            sigma = list(a)
            assert select_resampling_set(inst, sigma) == occurring_events(
                inst, sigma
            )

    def test_deterministic_and_order_probe(self):
        inst = clause_instance([(1, 2), (2, 3), (-3, 4)], 4)
        sigma = [0, 0, 1, 1]
        a = select_resampling_set(inst, sigma)
        b = select_resampling_set(inst, sigma)
        assert a == b
        assert select_resampling_set(inst, sigma, order="desc") == a

    def test_order_validation(self):
        inst = clause_instance([(1, 2)], 2)
        with pytest.raises(ValueError):
            select_resampling_set(inst, [0, 0], order="random")


class TestExtremalPrs:
    def test_rejects_non_extremal(self):
        inst = clause_instance([(1, 2), (2, 3)], 3)
        with pytest.raises(ValueError, match="not extremal"):
            extremal_prs(inst, cfg(1))

    def test_override_runs_anyway(self):
        inst = clause_instance([(1, 2), (2, 3)], 3)
        sigma, stats = extremal_prs(inst, cfg(1, check_extremal=False))
        assert occurring_events(inst, sigma) == []

    def test_initial_sample_can_win(self):
        inst = clause_instance([(1, 2)], 2)
        rounds = [extremal_prs(inst, cfg(derive_seed(4, i)))[1].rounds for i in range(64)]
        assert 0 in rounds  # three quarters of initial draws are already valid

    def test_unsatisfiable_cap_with_stats(self):
        with pytest.raises(RoundCapError) as err:
            extremal_prs(unsatisfiable_instance(), cfg(9, round_cap=17))
        assert err.value.stats.rounds == 17

    def test_log_is_independent_set_sequence(self):
        from prsampling.shearer import is_independent
        from prsampling.verify import enumerate_valid, random_extremal_instance
        from prsampling.rng import make_rng

        rng = make_rng(99)
        checked = 0
        while checked < 40:
            inst = random_extremal_instance(rng)
            if not enumerate_valid(inst).satisfiable:
                continue  # the generator may emit (x) and (not x) together
            checked += 1
            graph = build_dependency_graph(inst)
            _, stats = extremal_prs(
                inst, cfg(derive_seed(12, rng.randrange(2 ** 32))), graph
            )
            log = stats.log
            for s in log:
                assert is_independent(graph, s)
            for s, t in zip(log, log[1:]):
                closed = set()
                for i in s:
                    closed |= graph.closed_neighborhood(i)
                assert set(t) <= closed


class TestGeneralPrs:
    def test_coincides_with_extremal_on_extremal_instance(self):
        from prsampling.graph_apps import encode_sink_free
        from prsampling.graphs import cycle_graph

        inst = encode_sink_free(cycle_graph(4))
        for i in range(100):
            seed = derive_seed(21, i)
            sig_e, st_e = extremal_prs(inst, cfg(seed))
            sig_g, st_g = general_prs(inst, cfg(seed))
            assert sig_e == sig_g
            assert st_e.log == st_g.log
            assert st_e.rounds == st_g.rounds

    def test_hardcore_single_edge_uniform(self):
        inst = hardcore_instance([(0, 1)], 2)
        n = 100_000
        counts = Counter(
            tuple(general_prs(inst, cfg(derive_seed(31, i), record_log=False))[0])
            for i in range(n)
        )
        assert set(counts) == {(0, 0), (0, 1), (1, 0)}
        tv = 0.5 * sum(abs(counts[k] / n - 1 / 3) for k in counts)
        assert tv <= 0.01

    def test_monotone_chain_support(self):
        inst = clause_instance([(1, 2), (2, 3)], 3)
        seen = {
            tuple(general_prs(inst, cfg(derive_seed(41, i)))[0]) for i in range(500)
        }
        valid = {(0, 1, 0), (0, 1, 1), (1, 1, 0), (1, 1, 1), (1, 0, 1)}
        assert seen <= valid
        assert len(seen) == 5

    def test_round_cap(self):
        with pytest.raises(RoundCapError):
            general_prs(unsatisfiable_instance(), cfg(2, round_cap=5))


class TestRunStats:
    def test_totals_consistent(self):
        inst = clause_instance([(1, 2), (-1, 3)], 3)
        _, stats = general_prs(inst, cfg(17))
        assert stats.total_resamples == sum(stats.event_resamples)
        assert stats.rounds == len(stats.log) == len(stats.var_log)

    def test_json_keys(self):
        inst = clause_instance([(1, 2)], 2)
        _, stats = general_prs(inst, cfg(3))
        j = stats.to_json()
        assert set(j) == {
            "rounds",
            "total_resamples",
            "per_event",
            "variable_resamples",
            "halted",
        }
        withlog = stats.to_json(include_log=True)
        assert "log" in withlog and "var_log" in withlog

    def test_no_log_mode(self):
        inst = clause_instance([(1, 2)], 2)
        _, stats = general_prs(inst, cfg(3, record_log=False))
        assert stats.log is None and stats.var_log is None


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["moser_tardos", "extremal_prs", "general_prs"])
    def test_same_seed_same_run(self, kind):
        inst = clause_instance([(1, 2), (-2, 3), (-1, -3)], 3)
        a_sigma, a_stats = run_sampler(kind, inst, cfg(1234))
        b_sigma, b_stats = run_sampler(kind, inst, cfg(1234))
        assert a_sigma == b_sigma
        assert a_stats == b_stats

    def test_unknown_kind(self):
        inst = clause_instance([(1, 2)], 2)
        with pytest.raises(ValueError, match="unknown sampler"):
            run_sampler("gibbs", inst, cfg(0))
