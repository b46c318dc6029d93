"""The three resampling algorithms and the resampling-set selector."""

import random
from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

import prsampling.model as model
import prsampling.sampler as sampler
from conftest import (
    clause_instance,
    grid_graph,
    hardcore_instance,
    petersen_graph,
    random_cubic_graph,
    run_digest,
)
from reference_selector import select_resampling_set as reference_selector
from prsampling.errors import BudgetError, RoundCapError
from prsampling.graph_apps import (
    cycle_popping,
    encode_hardcore,
    encode_sink_free,
    encode_spanning_tree,
    hardcore_sample,
    sink_popping,
)
from prsampling.model import (
    EventSpec,
    Instance,
    VariableSpec,
    build_dependency_graph,
    build_watch_index,
    cumulative_tables,
    enumerate_assignments,
    is_extremal,
    make_event,
    occurring_events,
    sample_product,
    uniform_variable,
)
from prsampling.rng import derive_seed, make_rng
from prsampling.sampler import (
    SamplerConfig,
    _occurring,
    extremal_prs,
    general_prs,
    moser_tardos,
    resample_until_valid,
    run_sampler,
    select_resampling_set,
)
from prsampling.shearer import analyze_instance
from prsampling.verify import (
    enumerate_valid,
    random_extremal_instance,
    random_instance,
    random_weighted_instance,
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


def reference_general_prs(instance, config):
    """General PRS by its definition, on the samplers' random stream: each
    round tests every event with ``occurs`` and resamples the set that the
    dict-based reference selector grows over the dependency graph."""
    rng = make_rng(config.seed)
    sigma = sample_product(instance, rng)
    tables = cumulative_tables(instance)
    graph = build_dependency_graph(instance)

    def draw(variables):
        for v in variables:
            sigma[v] = bisect_right(tables[v], rng.random())

    def choose(bad):
        chosen = reference_selector(instance, sigma, graph, _bad=bad)
        return chosen, sorted({v for i in chosen for v in instance.events[i].vbl})

    return resample_until_valid(
        config,
        sigma,
        draw,
        lambda redrawn: occurring_events(instance, sigma),
        choose,
        num_events=instance.num_events,
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

        def draw(redraw):  # one call per round, with the round's whole list
            for v in redraw:
                drawn.append(v)
                sigma[v] = next(values)

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


@pytest.mark.stream
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

    @staticmethod
    def assert_matches_reference(cases, order):
        """Each (instance, sigma) selects what the dict-based selector does,
        with ``_bad`` given and not, and hands back R's variables; returns
        how many selections grew R beyond the occurring events."""
        grown = 0
        for inst, sigma in cases:
            expected = reference_selector(inst, sigma, order=order)
            assert select_resampling_set(inst, sigma, order=order) == expected
            bad = occurring_events(inst, sigma)
            variables = []
            got = select_resampling_set(inst, sigma, order=order, _bad=bad, _variables=variables)
            assert got == expected
            assert variables == sorted({v for i in expected for v in inst.events[i].vbl})
            grown += len(expected) > len(bad)
        return grown

    @pytest.mark.parametrize("order", ["asc", "desc"])
    def test_equals_the_dict_based_reference(self, order):
        """Every assignment of small random instances, and product draws on
        larger non-extremal ones, select what the dict-based selector did."""
        cases = []
        families = (random_instance, random_weighted_instance, random_extremal_instance)
        for seed in range(300):
            inst = families[seed % 3](random.Random(seed))
            cases += [(inst, list(a)) for a in enumerate_assignments(inst)]
        rng = random.Random(7)
        for inst in [random_cnf_instance(60, 40, 4, s) for s in range(4)] + [
            stream_input("hardcore-200")
        ]:
            cases += [(inst, sample_product(inst, rng)) for _ in range(25)]
        # The selector grew R beyond the occurring events in many cases.
        assert self.assert_matches_reference(cases, order) > 1000

    @pytest.mark.parametrize("order", ["asc", "desc"])
    def test_spanning_tree_encodings_match_the_reference(self, order):
        """Cycle events have two violating tuples, one per direction, so
        only a test of the tuples decides whether they can join. A cycle
        that shares a vertex with an occurring cycle and agrees with every
        fixed arrow must follow those arrows all the way round, so it is
        that cycle: R stays the occurring set, which the tests of the
        tuples must find."""
        graphs = [petersen_graph(), grid_graph(3, 3), random_cubic_graph(10, 2)]
        cases = []
        rng = random.Random(11)
        for g in graphs:
            inst = encode_spanning_tree(g, 0)
            assert any(len(e.violating) == 2 and len(e.vbl) > 2 for e in inst.events)
            cases += [(inst, sample_product(inst, rng)) for _ in range(60)]
        assert self.assert_matches_reference(cases, order) == 0
        assert sum(bool(occurring_events(inst, sigma)) for inst, sigma in cases) > 150

    @pytest.mark.parametrize("order", ["asc", "desc"])
    def test_empty_sets_single_variables_and_wide_domains(self, order):
        """Events with no violating tuple, one-variable events and domains
        of three or four values, over every assignment."""
        cases = []
        for seed in range(120):
            inst = mixed_instance(random.Random(seed))
            cases += [(inst, list(a)) for a in enumerate_assignments(inst)]
        assert self.assert_matches_reference(cases, order) > 200

    def test_excluded_by_a_variable_fixed_earlier_in_the_round(self):
        """A occurs on x0. B (x0, x1, x2) and C (x0, x1) are both in the
        first boundary and both compatible with x0 alone; B joins first
        in ascending order and fixes x1 = 1, where C cannot occur, so C is
        excluded. In descending order C goes first and joins, and then B
        joins too."""
        inst = Instance(
            tuple(uniform_variable(v, 2) for v in range(3)),
            (
                make_event(0, (0,), [(0,)]),
                make_event(1, (0, 1, 2), [(0, 1, 0)]),
                make_event(2, (0, 1), [(0, 0)]),
            ),
        )
        sigma = [0, 1, 1]
        assert occurring_events(inst, sigma) == [0]
        assert select_resampling_set(inst, sigma) == [0, 1]
        assert select_resampling_set(inst, sigma, order="desc") == [0, 1, 2]
        self.assert_matches_reference([(inst, sigma)], "asc")
        self.assert_matches_reference([(inst, sigma)], "desc")


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
            _, stats = extremal_prs(inst, cfg(derive_seed(12, rng.randrange(2 ** 32))))
            log = stats.log
            for s in log:
                assert is_independent(graph, s)
            for s, t in zip(log, log[1:]):
                closed = set()
                for i in s:
                    closed |= graph.closed_neighborhood(i)
                assert set(t) <= closed


@pytest.mark.stream
class TestGeneralPrs:
    def test_coincides_with_extremal_on_extremal_instance(self):
        """On an extremal instance general_prs runs the extremal round: the
        sample and every RunStats field (rounds, total_resamples,
        event_resamples, variable_resamples, log and var_log) are those of
        extremal_prs, and, on the first seeds, of the selector's path."""
        from prsampling.graphs import cycle_graph

        for inst, seeds in (
            (encode_sink_free(cycle_graph(4)), 100),
            (stream_input("sink-200"), 10),
            (encode_spanning_tree(random_cubic_graph(16, 1), 0), 20),
        ):
            assert inst.certified_extremal
            for i in range(seeds):
                seed = derive_seed(21, i)
                sig_e, st_e = extremal_prs(inst, cfg(seed))
                sig_g, st_g = general_prs(inst, cfg(seed))
                assert sig_e == sig_g
                assert st_e == st_g
                if i < 3:
                    assert (sig_g, st_g) == reference_general_prs(inst, cfg(seed))

    def test_over_the_cap_runs_the_selector_and_checks_once(self, monkeypatch):
        """Events 0 and 1 are disjoint, but together they read 25 binary
        variables, 2^25 joint states, over the cap; so the check raises
        before it reaches the conflicting clause pair (2, 3). general_prs
        takes that as not extremal, once per instance, and runs the
        selector; extremal_prs still refuses the instance."""
        inst = Instance(
            tuple(uniform_variable(v, 2) for v in range(28)),
            (
                make_event(0, range(13), [(1,) * 13]),
                make_event(1, range(12, 25), [(0,) * 13]),
                make_event(2, (25, 26), [(0, 0)]),
                make_event(3, (26, 27), [(0, 0)]),
            ),
        )
        calls = Counter()

        def counted(*args, _fn=model.is_extremal, **kwargs):
            calls["is_extremal"] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(model, "is_extremal", counted)
        grown = 0
        for i in range(5):
            config = cfg(derive_seed(45, i))
            run = general_prs(inst, config)
            assert run == reference_general_prs(inst, config)
            grown += run != extremal_prs(inst, cfg(config.seed, check_extremal=False))
        assert calls["is_extremal"] == 1
        assert grown > 0  # the selector resampled beyond the occurring events
        with pytest.raises(BudgetError, match="too large to certify"):
            extremal_prs(inst, cfg(1))

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


def mixed_instance(rng):
    """A small random instance with domains of one to four values, events
    on one to three variables and violating sets from empty to full."""
    variables = tuple(
        VariableSpec(v, d, tuple(F(w, sum(range(1, d + 1))) for w in range(1, d + 1)))
        for v, d in enumerate(rng.choice((1, 2, 3, 4)) for _ in range(rng.randint(2, 4)))
    )
    events = []
    for i in range(rng.randint(1, 6)):
        vbl = sorted(rng.sample(range(len(variables)), rng.randint(1, min(3, len(variables)))))
        cells = list(product(*(range(variables[v].domain_size) for v in vbl)))
        events.append(make_event(i, vbl, rng.sample(cells, rng.randint(0, len(cells)))))
    return Instance(variables, tuple(events))


def random_cnf_instance(num_vars, num_clauses, k, seed):
    """A seeded random non-extremal k-CNF: k distinct variables per clause."""
    rng = random.Random(seed)
    while True:
        clauses = [
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), k))
            for _ in range(num_clauses)
        ]
        instance = clause_instance(clauses, num_vars)
        if not is_extremal(instance):
            return instance


def stream_input(name):
    """The instances of the frozen generic-sampler streams, by name."""
    if name == "cnf":
        return random_cnf_instance(200, 100, 5, 5)
    encoding, n = name.split("-")
    g = random_cubic_graph(int(n), derive_seed(int(n), 0))
    return encode_hardcore(g, F(1, 4)) if encoding == "hardcore" else encode_sink_free(g)


def generic_stream_digests(kind, name):
    """Digests of five logged runs, with five seeds, on one instance object."""
    instance = stream_input(name)
    return [
        run_digest(*run_sampler(kind, instance, cfg(derive_seed(43, i))))
        for i in range(5)
    ]


# run_digest of the runs in generic_stream_digests, recorded before the
# generic samplers compiled each instance once and re-tested only the events
# touching redrawn variables; a change here is a change of the random stream.
FROZEN_GENERIC_DIGESTS = {
    ('extremal_prs', 'sink-200'): [
        "e2e9ae52c1a28b332b813675fc02c790aa31e97110ce71d6f605f2305ca0d3e8",
        "57bb4c8ffe23ca45dc353f1ec86739a6c6bfe3754e60c78441650e3b9e2ef75d",
        "1580683c34a7893d64b3b38198352d53a58f5aff84239bc26c8bbd2049323d2d",
        "25c3812b889de4d5d5825e19b25db71c32bfb184bfdd47306b684ebe64c798fe",
        "10542b95f9714d75fab3241dbf143ab1d148d9718fbd69a0dc5d76e6896c7a9b",
    ],
    ('extremal_prs', 'sink-2000'): [
        "cce38e197fd315eb9e6afaa3ff3db6e77e3b125b9f4be2467e2a655db0fa1de8",
        "0b85e7ba18f2f1eb1f9a568685250d82faa871ae4cbae8b12b41f89df7571eb9",
        "9dd71171332d8a150b3974b36c6c623fbfc924c9067a84704f5a05f61c3ab68d",
        "3ab890920e2d1c33ff67c8f1debbd009fdee68a8a365ffeb635eb0c2cd1b4415",
        "d2909ab89178f30987d50df1e62bfae9174798ba1e61f12aff7a200c4b4b7514",
    ],
    ('general_prs', 'cnf'): [
        "3efdf211b092180dd9f73df55c6eddeb034487cc818a83ed9bf49d2014fb14ec",
        "a3212d999b06437b9f1becbfa16a0f2e2a9c37de26462290511062bcd7991c15",
        "c706d2b0dc8c25a784199795ccc5faa9cccd23c775ea0d6cabc30281870d0a45",
        "7839a66a6b30f210e75cfaba0a32ff13a237f78147317cb12829b9455930474f",
        "93a3e6f7cfcc9f8885f0a84ff1207555d51cd49be24dd8fc652f62da6b8796a8",
    ],
    ('general_prs', 'hardcore-200'): [
        "8bfc12e77abdbbd050b175a0f7ebd3181e2e0a27ac5f76804222bd1ac0d72730",
        "e38e746859c6c4c758107ef36fa718675ca26eb2d00aa3a5e5d196af42de72f6",
        "35036755a158ee733cfe85f49a4775f5a7d72cd5e627d8643b3676ec4f4b5f4a",
        "a210939d73083b14452bf4fd26cb2be03d630a0e8931405d9c99cbd9e4ee4770",
        "df59ca0f6e77e695b71d0156f19c4317d7ee76e2b09c91b7cda35a4bf409dc9d",
    ],
    ('general_prs', 'hardcore-2000'): [
        "078d9a9670c1e054b6b1e02d228612f40706d2cd62891ed20ffb4f5b59f4012e",
        "c135194a92a776a7488cc7e2dc482ebf4a6f37acce83913725881befac5a7d76",
        "d1cdc9c70cb0b5f22279e8058629fae252aec2e1f8d49dbea48ad4126d121c9e",
        "b407eca03382e6ac48662b188c6d4f41eaed386bf82bb8bfc4dbb789366f9c23",
        "772aa5fc579b3543e5253d5ede40110e348c80f60edde43e396d4d141201d1c7",
    ],
    ('general_prs', 'sink-200'): [
        "e2e9ae52c1a28b332b813675fc02c790aa31e97110ce71d6f605f2305ca0d3e8",
        "57bb4c8ffe23ca45dc353f1ec86739a6c6bfe3754e60c78441650e3b9e2ef75d",
        "1580683c34a7893d64b3b38198352d53a58f5aff84239bc26c8bbd2049323d2d",
        "25c3812b889de4d5d5825e19b25db71c32bfb184bfdd47306b684ebe64c798fe",
        "10542b95f9714d75fab3241dbf143ab1d148d9718fbd69a0dc5d76e6896c7a9b",
    ],
    ('general_prs', 'sink-2000'): [
        "cce38e197fd315eb9e6afaa3ff3db6e77e3b125b9f4be2467e2a655db0fa1de8",
        "0b85e7ba18f2f1eb1f9a568685250d82faa871ae4cbae8b12b41f89df7571eb9",
        "9dd71171332d8a150b3974b36c6c623fbfc924c9067a84704f5a05f61c3ab68d",
        "3ab890920e2d1c33ff67c8f1debbd009fdee68a8a365ffeb635eb0c2cd1b4415",
        "d2909ab89178f30987d50df1e62bfae9174798ba1e61f12aff7a200c4b4b7514",
    ],
    ('moser_tardos', 'cnf'): [
        "155e00b223a3bf6d3bab8d6e86cdf4b6a447d87800ba99bb7a883b76a21278f8",
        "8c210fab9725ea15173c2f9674b97831ff49b45d41720c9384304788e1d6549e",
        "c706d2b0dc8c25a784199795ccc5faa9cccd23c775ea0d6cabc30281870d0a45",
        "d80f398fd717791e63ccfde1e8674fdb3c8be7a7d89b277862912f166e2f8396",
        "31100e1481d9d6b0dde2dc0c3710e4752b7f5fe482d6046da5b9d0b8b3df7aab",
    ],
    ('moser_tardos', 'hardcore-200'): [
        "b53d035cd9f8a8b02ab244e7f60e643cf370dec799b4f9cda2df302d9ab3d6b6",
        "3c82e8695e80adb3997157423d4a6dc3f9e9a2d52f4860d11d1017607b417b1f",
        "bd9f8f83054af28806c67470d4e84f13278df4ff083548f897ef848f830e8495",
        "a7f543be69bdfe95beafb7c013dc6fccf5d68d88853f898c06a8fe5313857cbb",
        "2398eaea012400e41135b2f3313afe4fe7ad8fd383b72b4da4ebd3187f3b32bd",
    ],
    ('moser_tardos', 'hardcore-2000'): [
        "526032a3d78069b5321c23c432d7bd2da459630523ea15bb689505c329154d03",
        "46a7de957075b8b25e596be4be1335bb19d33eb74796a02ba5df6c5e98ef2480",
        "4517d919ef7baf4222fc14d73cb9a871db9b9540428f9170b6b093fa33b616e0",
        "cf207bfb92a6800c6d67393d1e2e0f0256ca78b3b647e254fd2030c17c8a3b4f",
        "9e9cebdb23916ecc257d5e3ef415aa0632a121daf8734edef5f3c203d7391adc",
    ],
    ('moser_tardos', 'sink-200'): [
        "692d150f3e5434601cbf389dd573bd7afb573912831436179814e606c5fe66b5",
        "f1fd6b300ae029996ff1120ea2ef6a38c7024c27cb22afb298186a3ec570dcb7",
        "61e4a9b2fb21549db5cf9975935d016bfc0c09e37cce01f62045f20752da4dc5",
        "7a25971c8f8e36e04dc11f70ef6f19d64ead9ba5c0e1f8dd4b8ea24fc668a477",
        "8f7bcc8a15bb58a0b591560c268ce16032f09166e0f749c86415b008b8ebbf94",
    ],
    ('moser_tardos', 'sink-2000'): [
        "0edc39143cdb822a73443559095d57274f4fa21a2add67eefce31ea30c8c9666",
        "9944e754d4d68f58bd4d739b9481d576fc42bfbf2cd139e160defbc18e2adec5",
        "8998632db2ff4ce5624f97aa51e0a0b40000a3c457d0029051f80d8c56fcfae1",
        "9e0d03d0223dcdb1105c1e0320766cb5d5e48519cd4c4216e811ea006a7013d2",
        "e68db5d5e33b22f3bd73bcc2a651d9f61213867a50ab5574261aab5cc5addf4d",
    ],
}


@pytest.mark.stream
class TestFrozenStream:
    @pytest.mark.parametrize("kind,name", sorted(FROZEN_GENERIC_DIGESTS))
    def test_generic_stream_unchanged(self, kind, name):
        assert generic_stream_digests(kind, name) == FROZEN_GENERIC_DIGESTS[kind, name]


COMPILED = (
    "build_dependency_graph",
    "build_value_rows",
    "build_watch_index",
    "byte_tables",
    "cumulative_tables",
    "is_extremal",
)


@pytest.mark.stream
class TestCompileOnce:
    def count_compiles(self, monkeypatch):
        calls = Counter()
        for name in COMPILED:

            def counted(*args, _fn=getattr(model, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(model, name, counted)
        return calls

    @pytest.mark.parametrize("kind", ["moser_tardos", "extremal_prs", "general_prs"])
    def test_five_draws_compile_once(self, kind, monkeypatch):
        calls = self.count_compiles(monkeypatch)
        instance = stream_input("sink-200")  # extremal, so every sampler runs it
        for i in range(5):
            run_sampler(kind, instance, cfg(derive_seed(44, i)))
        # No sampler builds the dependency graph: the extremality check
        # groups events by variable. On this extremal instance general_prs
        # runs the extremal round, so it builds no value rows. The watch
        # index is weighed on the first draw, although this instance keeps
        # the scan.
        assert calls == Counter(
            cumulative_tables=1,
            byte_tables=1,
            build_watch_index=1,
            is_extremal=int(kind != "moser_tardos"),
        )

    @pytest.mark.parametrize("name", ["hardcore-200", "cnf"])
    def test_five_general_draws_on_a_non_extremal_input(self, name, monkeypatch):
        calls = self.count_compiles(monkeypatch)
        instance = stream_input(name)
        for i in range(5):
            run_sampler("general_prs", instance, cfg(derive_seed(44, i)))
        # The verdict is taken once, and the value rows that the selector
        # and the finder read are built once.
        assert calls == Counter(
            cumulative_tables=1,
            byte_tables=1,
            build_watch_index=1,
            build_value_rows=1,
            is_extremal=1,
        )

    def test_analysis_and_specialized_samplers_build_no_watch_index(self, monkeypatch):
        calls = Counter()

        def counted(instance):
            calls["build_watch_index"] += 1
            return build_watch_index(instance)

        monkeypatch.setattr(model, "build_watch_index", counted)
        g = random_cubic_graph(200, 3)
        analyze_instance(encode_hardcore(petersen_graph(), F(1, 10)))
        analyze_instance(encode_sink_free(petersen_graph()))
        hardcore_sample(g, F(1, 10), cfg(1))
        sink_popping(g, cfg(2))
        cycle_popping(g, 0, cfg(3))
        assert not calls


    def test_analysis_and_specialized_samplers_build_no_value_rows(self, monkeypatch):
        calls = Counter()
        for name in ("build_value_rows", "byte_tables"):

            def counted(*args, _fn=getattr(model, name), _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(model, name, counted)
        g = random_cubic_graph(200, 3)
        for instance in (
            encode_hardcore(petersen_graph(), F(1, 10)),
            encode_sink_free(petersen_graph()),
            encode_spanning_tree(grid_graph(2, 3), 0),
        ):
            analyze_instance(instance)
        hardcore_sample(g, F(1, 10), cfg(1))
        sink_popping(g, cfg(2))
        cycle_popping(g, 0, cfg(3))
        assert not calls


@pytest.mark.stream
class TestLiveRowFinder:
    """On a non-extremal instance general_prs takes each later round's Bad
    set from the live rows of the variables just redrawn. After every round
    that set must be the occurring events, found by testing every event,
    and every run must be general PRS by its definition."""

    def assert_exact(self, instances, monkeypatch, seeds=3):
        """Returns how many Bad sets came from the live rows."""
        later = 0

        def checking(config, sigma, draw, find_bad, choose, **kwargs):
            def checked(redrawn):
                nonlocal later
                bad = find_bad(redrawn)
                assert bad == occurring_events(instance, sigma)
                later += redrawn is not None
                return bad

            return resample_until_valid(config, sigma, draw, checked, choose, **kwargs)

        monkeypatch.setattr(sampler, "resample_until_valid", checking)
        for instance in instances:
            assert not instance.certified_extremal
            for s in range(seeds):
                config = cfg(derive_seed(46, s))
                assert general_prs(instance, config) == reference_general_prs(instance, config)
        return later

    @pytest.mark.parametrize("family", [random_instance, random_weighted_instance])
    def test_random_families(self, family, monkeypatch):
        instances = []
        for seed in range(400):
            inst = family(random.Random(seed))
            if not inst.certified_extremal and enumerate_valid(inst).satisfiable:
                instances.append(inst)
        assert len(instances) > 100
        assert any(v.domain_size > 2 for inst in instances for v in inst.variables)
        assert any(len(e.vbl) > 1 < len(e.violating) for inst in instances for e in inst.events)
        assert self.assert_exact(instances, monkeypatch) > 300

    def test_hardcore_and_cnf_encodings(self, monkeypatch):
        instances = [stream_input("hardcore-200"), stream_input("cnf")]
        instances += [random_cnf_instance(60, 40, 4, s) for s in range(3)]
        assert self.assert_exact(instances, monkeypatch, seeds=4) > 30


def repeated(instance, times):
    """``instance`` with its events listed ``times`` over, under fresh ids:
    more events over the same variables, so that the gate can let the index in."""
    m = instance.num_events
    return Instance(
        instance.variables,
        tuple(
            EventSpec(k * m + e.id, e.vbl, e.violating)
            for k in range(times)
            for e in instance.events
        ),
    )


@pytest.mark.stream
class TestIndexedScan:
    """``_occurring(inst, sigma)`` equals ``occurring_events(inst, sigma)``,
    ascending, whether it scans every event or the watch index's candidates."""

    def assert_exact(self, instance, sigmas):
        for sigma in sigmas:
            assert _occurring(instance, sigma) == occurring_events(instance, sigma)

    def draws(self, instance, rng, k=10):
        """k product draws, then the all-zero and the all-maximum assignments."""
        sigmas = [sample_product(instance, rng) for _ in range(k)]
        sigmas.append([0] * instance.num_variables)
        sigmas.append([v.domain_size - 1 for v in instance.variables])
        return sigmas

    @pytest.mark.parametrize(
        "family", [random_instance, random_weighted_instance, random_extremal_instance]
    )
    def test_random_families(self, family):
        sides = Counter()
        for seed in range(100):
            rng = random.Random(seed)
            base = family(rng)
            for instance in (base, repeated(base, 8)):
                self.assert_exact(instance, self.draws(instance, rng))
                sides[instance.watch_index is not None] += 1
        assert sides[True] >= 50 and sides[False] >= 50

    def test_hand_built(self):
        variables = (
            uniform_variable(0, 1),
            VariableSpec(1, 3, (F(1, 10), F(3, 5), F(3, 10))),
            uniform_variable(2, 3),
            uniform_variable(3, 2),
        )
        specs = [
            ((0,), [(0,)]),  # a one-value domain: occurs always
            ((1, 2), [(0, 0), (0, 2), (2, 1)]),  # watched at 1, under 0 and 2
            ((2, 3), []),  # occurs never
            ((0, 1, 3), [(0, 1, 1), (0, 2, 0)]),
            ((2, 3), [(0, 0), (1, 0), (2, 0), (2, 1)]),
        ]
        instance = Instance(
            variables,
            tuple(make_event(k, vbl, ts) for k, (vbl, ts) in enumerate(specs * 8)),
        )
        assert [(x, by_truth) for x, _, by_truth in instance.watch_index] == [
            (0, False),
            (1, False),
            (2, False),
        ]
        listed = {
            x: {i: v for v, ids in enumerate(row) for i in ids} for x, row, _ in instance.watch_index
        }
        assert listed[0][1] == listed[2][1] == 1 and 1 not in listed[1]
        assert all(2 not in ids for ids in listed.values())
        self.assert_exact(instance, map(list, enumerate_assignments(instance)))

    @pytest.mark.parametrize("lam,indexed", [(F(1, 3), True), (F(1), False), (F(3), False)])
    def test_weights_on_each_side_of_the_gate(self, lam, indexed):
        """K5: 10 events over 5 variables, one watched value, so the index
        pays while 5 + 10·P(occupied) < 10, that is for lam < 1."""
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        instance = hardcore_instance(edges, 5, lam)
        assert (instance.watch_index is not None) == indexed
        self.assert_exact(instance, map(list, enumerate_assignments(instance)))

    def test_gate_sides_of_the_encodings(self):
        g = random_cubic_graph(2000, 1)
        hardcore, sink_free = encode_hardcore(g, F(1, 10)), encode_sink_free(g)
        assert [(x, by_truth) for x, _, by_truth in hardcore.watch_index] == [(1, True)]
        assert sink_free.watch_index is None
        for instance in (hardcore, sink_free):
            self.assert_exact(instance, self.draws(instance, random.Random(7), k=3))
