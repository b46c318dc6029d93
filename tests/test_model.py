"""Instances, events, dependency graphs, and exact product-measure queries."""

import json
import random
import re
from fractions import Fraction
from itertools import accumulate, combinations

import pytest
from hypothesis import given, strategies as st

import prsampling.model as model
import reference_analysis as reference
from conftest import MALFORMED_INSTANCE_JSON, grid_graph, petersen_graph
from prsampling.errors import BudgetError
from prsampling.model import (
    MAX_UNIFORM_DOMAIN,
    EventSpec,
    Instance,
    VariableSpec,
    assignment_probability,
    build_dependency_graph,
    compatible,
    enumerate_assignments,
    event_probabilities,
    event_probability,
    instance_from_json,
    instance_to_json,
    is_extremal,
    load_instance,
    make_event,
    occurring_events,
    occurs,
    parse_rational,
    r_max,
    sample_product,
    save_instance,
    uniform_variable,
)
from prsampling.graph_apps import encode_hardcore, encode_spanning_tree
from prsampling.graphs import cycle_graph
from prsampling.rng import cumulative_table, derive_seed, draw_index, make_rng
from prsampling.sampler import _occurring
from prsampling.verify import random_extremal_instance, random_instance, random_weighted_instance
from reference_helpers import dependent_pairs, r_matrix

HALF = Fraction(1, 2)


def clause_instance(clauses, num_vars):
    """Uniform binary instance with one event per clause (DIMACS-style signs)."""
    variables = tuple(uniform_variable(i, 2) for i in range(num_vars))
    events = []
    for eid, clause in enumerate(clauses):
        vbl = [abs(l) - 1 for l in clause]
        tup = [0 if l > 0 else 1 for l in clause]
        events.append(make_event(eid, vbl, [tup]))
    return Instance(variables, tuple(events))


def hardcore_p3(lam=Fraction(1)):
    """Path u-v-w, occupation probability lam/(1+lam), one event per edge."""
    occ = lam / (1 + lam)
    variables = tuple(
        VariableSpec(i, 2, (1 - occ, occ)) for i in range(3)
    )
    events = (
        make_event(0, (0, 1), [(1, 1)]),
        make_event(1, (1, 2), [(1, 1)]),
    )
    return Instance(variables, events)


class TestVariableSpec:
    def test_valid(self):
        v = VariableSpec(0, 2, (HALF, HALF))
        assert v.domain_size == 2

    def test_uniform_helper(self):
        v = uniform_variable(3, 4)
        assert v.id == 3 and v.weights == (Fraction(1, 4),) * 4

    @pytest.mark.parametrize(
        "args",
        [
            (-1, 2, (HALF, HALF)),
            (0, 0, ()),
            (0, 2, (HALF,)),
            (0, 2, (HALF, 0.5)),
            (0, 2, (Fraction(3, 2), Fraction(-1, 2))),
            (0, 2, (HALF, Fraction(1, 3))),
        ],
    )
    def test_invalid(self, args):
        with pytest.raises(ValueError):
            VariableSpec(*args)

    @pytest.mark.parametrize(
        "weights,message",
        [
            ((Fraction(3, 2), Fraction(-1, 2)), "variable 1: negative weight -1/2"),
            ((HALF, 0.5), "variable 1: weights must be Fractions"),
            ((HALF, Fraction(1, 3)), "variable 1: weights sum to 5/6, not 1"),
        ],
    )
    def test_a_checked_tuple_lets_no_other_through(self, weights, message):
        checked = (HALF, HALF)
        VariableSpec(0, 2, checked)
        VariableSpec(2, 2, checked)
        with pytest.raises(ValueError, match=message):
            VariableSpec(1, 2, weights)

    def test_a_weight_list_is_checked_every_time(self):
        weights = [HALF, HALF]
        VariableSpec(0, 2, weights)
        weights[1] = Fraction(1, 3)
        with pytest.raises(ValueError, match="variable 1: weights sum to 5/6, not 1"):
            VariableSpec(1, 2, weights)

    def test_uniform_weights_shared_per_domain_size(self):
        # Sampling tables and watch rows are keyed by the weights' id, so a
        # small domain's variables must share one tuple; a large domain's
        # tuple must not outlive its instance in a cache.
        assert uniform_variable(0, 3).weights is uniform_variable(7, 3).weights
        assert uniform_variable(0, 2).weights != uniform_variable(0, 3).weights
        assert model._uniform_weights(2) is model._uniform_weights(2)
        assert model._uniform_weights(256) is model._uniform_weights(256)
        large = model._uniform_weights(2 ** 20)
        assert large is not model._uniform_weights(2 ** 20)
        assert large[0] == Fraction(1, 2 ** 20) and large.count(large[0]) == 2 ** 20

    @pytest.mark.parametrize("domain_size", [0, -1])
    def test_uniform_helper_rejects_an_empty_domain(self, domain_size):
        with pytest.raises(ValueError, match="variable 0: domain_size must be >= 1"):
            uniform_variable(0, domain_size)

    @pytest.mark.parametrize("domain_size", [MAX_UNIFORM_DOMAIN + 1, 10 ** 9, 2 ** 64])
    def test_uniform_helper_caps_the_domain(self, domain_size):
        message = "uniform domain of %d values; cap is %d" % (domain_size, MAX_UNIFORM_DOMAIN)
        with pytest.raises(BudgetError, match="^%s$" % message):
            uniform_variable(0, domain_size)

    def test_uniform_domain_cap_read_at_call_time(self, monkeypatch):
        # A size no other test uses, so that no cached weight tuple answers.
        monkeypatch.setattr(model, "MAX_UNIFORM_DOMAIN", 12345)
        assert uniform_variable(0, 12345).weights == (Fraction(1, 12345),) * 12345
        with pytest.raises(BudgetError, match="uniform domain of 12346 values; cap is 12345"):
            uniform_variable(0, 12346)


class TestEventSpec:
    def test_make_event_sorts_and_permutes(self):
        e = make_event(0, (2, 0), [(5, 1)])
        assert e.vbl == (0, 2)
        assert e.violating == frozenset({(1, 5)})

    def test_vbl_must_ascend(self):
        with pytest.raises(ValueError):
            EventSpec(0, (1, 1), frozenset({(0, 0)}))
        with pytest.raises(ValueError):
            EventSpec(0, (2, 1), frozenset({(0, 0)}))

    def test_empty_vbl_rejected(self):
        with pytest.raises(ValueError):
            EventSpec(0, (), frozenset())

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            EventSpec(0, (0, 1), frozenset({(0,)}))

    @pytest.mark.parametrize(
        "variables,tuples,bad",
        [
            ([0], [[1, 0]], r"\(1, 0\) has arity 2, expected 1"),  # not truncated
            ([2, 0], [(1, 0), (1,)], r"\(1,\) has arity 1, expected 2"),
        ],
        ids=["longer", "shorter"],
    )
    def test_make_event_checks_arity_before_permuting(self, variables, tuples, bad):
        with pytest.raises(ValueError, match="event 3: violating tuple " + bad):
            make_event(3, variables, tuples)

    def test_vbl_cap(self):
        with pytest.raises(BudgetError):
            EventSpec(0, tuple(range(25)), frozenset())


class TestInstance:
    def test_dense_ids_enforced(self):
        v = uniform_variable(1, 2)
        with pytest.raises(ValueError):
            Instance((v,), ())
        ok = uniform_variable(0, 2)
        with pytest.raises(ValueError):
            Instance((ok,), (make_event(1, (0,), [(0,)]),))

    def test_unknown_variable(self):
        with pytest.raises(ValueError):
            Instance((uniform_variable(0, 2),), (make_event(0, (5,), [(0,)]),))

    def test_value_out_of_range(self):
        with pytest.raises(ValueError):
            Instance((uniform_variable(0, 2),), (make_event(0, (0,), [(2,)]),))


class TestCompiledArtifacts:
    def test_var_events(self):
        # The fourth variable is in no clause.
        inst = clause_instance([(1, 2), (-2, 3), (1, 3)], 4)
        assert inst.var_events == ((0, 2), (0, 1), (1, 2), ())

    def test_built_once_and_equal_to_the_functions(self):
        inst = hardcore_p3(Fraction(1, 3))
        graph = inst.dependency_graph
        assert graph is inst.dependency_graph
        assert graph == build_dependency_graph(inst)
        assert inst.sampling_tables is inst.sampling_tables
        assert inst.sampling_tables == tuple(
            cumulative_table(v.weights) for v in inst.variables
        )
        assert inst.extremal is False
        assert inst.extremal == is_extremal(inst)

    def test_tables_shared_by_weight_vector(self):
        third = (Fraction(2, 3), Fraction(1, 3))
        inst = Instance(
            (
                uniform_variable(0, 2),
                VariableSpec(1, 2, third),
                uniform_variable(2, 2),
                VariableSpec(3, 2, third),
            ),
            (),
        )
        t = inst.sampling_tables
        assert t[0] is t[2] and t[1] is t[3] and t[0] != t[1]

    def test_equality_ignores_compiled_artifacts(self):
        a, b = hardcore_p3(), hardcore_p3()
        a.dependency_graph, a.sampling_tables, a.extremal, a.occurrence_tests
        assert a == b and hash(a) == hash(b)

    def test_occurrence_tests_agree_with_occurs(self):
        """Every event under every total assignment of 300 random instances."""
        arities, sizes, domains, checked = set(), set(), set(), 0
        for seed in range(300):
            make = (random_instance, random_weighted_instance)[seed % 2]
            inst = make(random.Random(seed))
            keys, violating = inst.occurrence_tests
            assert inst.occurrence_tests is inst.occurrence_tests
            assert len(keys) == len(violating) == inst.num_events
            for a in enumerate_assignments(inst):
                sigma = list(a)
                for e in inst.events:
                    assert (keys[e.id](sigma) in violating[e.id]) == occurs(e, sigma)
                    checked += 1
                assert _occurring(inst, sigma) == occurring_events(inst, sigma)
            arities.update(len(e.vbl) for e in inst.events)
            sizes.update(len(e.violating) for e in inst.events)
            domains.update(v.domain_size for v in inst.variables)
        assert arities == {1, 2, 3} and max(sizes) > 1 and 3 in domains
        assert checked > 10_000

    def test_one_variable_events_test_scalars(self):
        inst = Instance(
            (uniform_variable(0, 3), uniform_variable(1, 3)),
            (make_event(0, [1], [(0,), (2,)]), make_event(1, [0, 1], [(2, 1)])),
        )
        keys, violating = inst.occurrence_tests
        assert keys[0]([1, 2]) == 2 and violating[0] == frozenset({0, 2})
        assert keys[1]([2, 1]) == (2, 1) and violating[1] is inst.events[1].violating

    def test_specs_have_no_instance_dict(self):
        event = make_event(0, [0, 1], [(1, 1)])
        variable = uniform_variable(0, 2)
        assert not hasattr(event, "__dict__") and not hasattr(variable, "__dict__")

    def test_hardcore_events_share_one_violating_set(self):
        inst = encode_hardcore(cycle_graph(6), Fraction(1, 3))
        first = inst.events[0].violating
        assert first == frozenset({(1, 1)})
        assert all(e.violating is first for e in inst.events)
        assert all(s is first for s in inst.occurrence_tests[1])


def reference_value_rows(inst):
    """live and dead by their definition: event i is live at (v, x) when
    some violating tuple of i takes x at v."""
    live, dead = [], []
    for v, var in enumerate(inst.variables):
        for x in range(var.domain_size):
            ids = inst.var_events[v]
            taken = [
                any(t[inst.events[i].vbl.index(v)] == x for t in inst.events[i].violating)
                for i in ids
            ]
            live.append(tuple(i for i, ok in zip(ids, taken) if ok))
            dead.append(tuple(i for i, ok in zip(ids, taken) if not ok))
    return tuple(live), tuple(dead)


class TestValueRows:
    def test_rows_match_their_definition(self):
        shapes = set()
        for seed in range(300):
            make = (random_instance, random_weighted_instance, random_extremal_instance)[seed % 3]
            inst = make(random.Random(seed))
            base, live, dead = inst.value_rows
            assert inst.value_rows is inst.value_rows
            assert base == tuple(accumulate((v.domain_size for v in inst.variables), initial=0))
            assert (live, dead) == reference_value_rows(inst)
            columns = {c for e in inst.events for c in map(frozenset, zip(*e.violating))}
            shapes.add(len(columns) == 1)
        assert shapes == {True, False}  # both ways of building the rows ran

    @pytest.mark.parametrize(
        "inst",
        [
            encode_hardcore(grid_graph(3, 4), Fraction(1, 3)),
            encode_spanning_tree(petersen_graph(), 0),
            Instance(  # no violating tuple at all, and one-valued domains
                (uniform_variable(0, 1), uniform_variable(1, 3)),
                (make_event(0, [0, 1], []), make_event(1, [1], [])),
            ),
            Instance(  # a variable in no event
                (uniform_variable(0, 2), uniform_variable(1, 2)),
                (make_event(0, [1], [(1,)]),),
            ),
        ],
    )
    def test_encodings_and_edge_cases(self, inst):
        base, live, dead = inst.value_rows
        assert (live, dead) == reference_value_rows(inst)
        # One key per domain value; a row holding all of a variable's events
        # is its var_events tuple.
        assert len(live) == len(dead) == sum(v.domain_size for v in inst.variables)
        for v, every in enumerate(inst.var_events):
            for k in range(base[v], base[v + 1]):
                for row in (live[k], dead[k]):
                    assert row is every or len(row) < len(every)


class TestDependencyGraph:
    def test_disjoint_events_no_edges(self):
        inst = clause_instance([(1,), (2,)], 2)
        g = build_dependency_graph(inst)
        assert g.adjacency == ((), ())
        assert g.max_degree == 0
        assert dependent_pairs(g) == []

    def test_shared_variable_edge(self):
        # (x or y) and (not y or z): the shared variable y links them.
        inst = clause_instance([(1, 2), (-2, 3)], 3)
        g = build_dependency_graph(inst)
        assert g.adjacency == ((1,), (0,))
        assert dependent_pairs(g) == [(0, 1)]

    def test_hardcore_path_degree(self):
        g = build_dependency_graph(hardcore_p3())
        assert g.adjacency == ((1,), (0,))
        assert g.max_degree == 1

    def test_adjacency_symmetric_no_self_loop(self):
        inst = clause_instance([(1, 2), (2, 3), (1, 3)], 3)
        g = build_dependency_graph(inst)
        for i, nbrs in enumerate(g.adjacency):
            assert i not in nbrs
            for j in nbrs:
                assert i in g.adjacency[j]

    def test_closed_neighborhood(self):
        inst = clause_instance([(1, 2), (-2, 3)], 3)
        g = build_dependency_graph(inst)
        assert g.closed_neighborhood(0) == frozenset({0, 1})


class TestOccurs:
    def setup_method(self):
        self.clause = make_event(0, (0, 1), [(0, 0)])  # (x or y)

    def test_unique_falsifier(self):
        assert occurs(self.clause, [0, 0]) is True
        assert occurs(self.clause, [1, 0]) is False

    def test_dict_assignment(self):
        assert occurs(self.clause, {0: 0, 1: 0}) is True

    def test_hardcore_edge(self):
        edge = make_event(0, (0, 1), [(1, 1)])
        assert occurs(edge, [1, 1]) is True
        assert occurs(edge, [1, 0]) is False

    def test_missing_variable_rejected(self):
        with pytest.raises(ValueError):
            occurs(self.clause, {0: 0})

    def test_occurring_events_sorted(self):
        inst = clause_instance([(1, 2), (2, 3)], 3)
        assert occurring_events(inst, [0, 0, 0]) == [0, 1]
        assert occurring_events(inst, [1, 1, 1]) == []


class TestCompatible:
    def setup_method(self):
        self.clause = make_event(0, (0, 1), [(0, 0)])

    def test_partial_excludes(self):
        assert compatible(self.clause, {0: 1}) is False

    def test_partial_allows(self):
        assert compatible(self.clause, {0: 0}) is True

    def test_empty_partial_nonempty_event(self):
        assert compatible(self.clause, {}) is True

    def test_irrelevant_variables_ignored(self):
        assert compatible(self.clause, {7: 1}) is True

    def test_degenerates_to_occurs_on_total(self):
        inst = clause_instance([(1, 2), (-2, 3), (1, -3)], 3)
        for e in inst.events:
            for a in enumerate_assignments(inst):
                partial = {v: a[v] for v in e.vbl}
                assert compatible(e, partial) == occurs(e, a)

    def test_antitone_in_partial(self):
        e = make_event(0, (0, 1, 2), [(0, 0, 1), (1, 0, 0)])
        full = {0: 0, 1: 0, 2: 1}
        for r in range(len(full) + 1):
            for keys in combinations(full, r):
                sub = {k: full[k] for k in keys}
                if compatible(e, full):
                    assert compatible(e, sub)


class TestIsExtremal:
    def test_opposite_sign_sharing_is_extremal(self):
        # Every shared variable appears with opposite signs (as in edge
        # orientations: each edge once as head, once as tail).
        inst = clause_instance([(1, 2), (-2, 3), (-1, -3)], 3)
        assert is_extremal(inst) is True

    def test_monotone_chain_not_extremal(self):
        inst = clause_instance([(1, 2), (2, 3)], 3)
        assert is_extremal(inst) is False

    def test_hardcore_not_extremal(self):
        assert is_extremal(hardcore_p3()) is False

    def test_cap_raises(self, monkeypatch):
        inst = clause_instance([(1, 2), (2, 3)], 3)
        monkeypatch.setattr(model, "MAX_PAIR_STATES", 4)
        with pytest.raises(BudgetError, match="too large to certify"):
            is_extremal(inst)

    def test_extremal_occurring_sets_independent(self):
        inst = clause_instance([(1, 2), (-2, 3), (-1, -3)], 3)
        g = build_dependency_graph(inst)
        for a in enumerate_assignments(inst):
            occ = occurring_events(inst, a)
            for i, j in combinations(occ, 2):
                assert j not in g.adjacency[i]


class TestProbabilities:
    def test_clause_probability(self):
        for k in (1, 2, 3, 5):
            inst = clause_instance([tuple(range(1, k + 1))], k)
            assert event_probability(inst, inst.events[0]) == Fraction(1, 2 ** k)

    def test_hardcore_edge_probability(self):
        lam = Fraction(2, 3)
        inst = hardcore_p3(lam)
        expect = (lam / (1 + lam)) ** 2
        assert event_probabilities(inst) == [expect, expect]

    def test_empty_violating_probability_zero(self):
        inst = Instance(
            (uniform_variable(0, 2),),
            (EventSpec(0, (0,), frozenset()),),
        )
        assert event_probability(inst, inst.events[0]) == 0

    def test_independent_set_product_rule(self):
        # On an extremal instance, Pr(all of I occur) is the product of the
        # p_i for any independent set I of the dependency graph.
        from prsampling.graph_apps import encode_sink_free
        from prsampling.graphs import cycle_graph

        inst = encode_sink_free(cycle_graph(4))
        g = build_dependency_graph(inst)
        probs = event_probabilities(inst)
        assert is_extremal(inst)
        for ids in [(0,), (1,), (0, 2), (1, 3)]:
            for i, j in combinations(ids, 2):
                assert j not in g.adjacency[i]
            target = Fraction(1)
            for i in ids:
                target *= probs[i]
            hit = Fraction(0)
            for a in enumerate_assignments(inst):
                if all(occurs(inst.events[i], a) for i in ids):
                    hit += assignment_probability(inst, a)
            assert hit == target


@pytest.mark.stream
class TestRMatrix:
    def test_shared_clause_pattern(self):
        # Two width-3 clauses sharing s=2 variables with identical signs:
        # a fresh shared draw keeps the second clause falsifiable with
        # probability 2^-s.
        inst = clause_instance([(1, 2, 3), (1, 2, 4)], 4)
        r = r_matrix(inst)
        assert r[(0, 1)] == Fraction(1, 4)
        assert r[(1, 0)] == Fraction(1, 4)
        assert r_max(inst) == Fraction(1, 4)

    def test_hardcore_shared_vertex(self):
        r = r_matrix(hardcore_p3(Fraction(1)))
        assert r[(0, 1)] == HALF
        assert r[(1, 0)] == HALF

    def test_conflicting_projection_zero(self):
        # Event 1 needs variable 1 = 0 in all falsifiers; event 0 needs 1 = 1.
        inst = Instance(
            (uniform_variable(0, 2), uniform_variable(1, 2)),
            (
                make_event(0, (0, 1), [(0, 1)]),
                make_event(1, (1,), [(0,)]),
            ),
        )
        r = r_matrix(inst)
        assert r[(0, 1)] == HALF  # shared var drawn 0 with prob 1/2
        assert r[(1, 0)] == HALF

    def test_no_dependent_pairs(self):
        inst = clause_instance([(1,), (2,)], 2)
        assert r_matrix(inst) == {}
        assert r_max(inst) == 0

    @pytest.mark.parametrize("graph", [petersen_graph(), grid_graph(3, 3)], ids=["petersen", "grid3x3"])
    def test_no_shared_set_weighed_on_spanning_trees(self, graph, monkeypatch):
        # A cycle event weighs 2/3 alone at each of its variables, and the
        # first one sharing a variable alone sets the best to 2/3; no later
        # event or shared set can beat it, so none is weighed as a set.
        weighed = []
        weight_sum = model._weight_sum
        monkeypatch.setattr(model, "_weight_sum", lambda *a: weighed.append(a) or weight_sum(*a))
        inst = encode_spanning_tree(graph, 0)
        assert r_max(inst) == max(reference.r_matrix(inst).values()) == Fraction(2, 3)
        assert weighed == []

    def test_one_scaled_row_per_weight_vector(self):
        occupied = encode_hardcore(cycle_graph(5), Fraction(1, 3)).variables
        scaled = model._scaled_rows(occupied)
        assert scaled[0] == ((3, 1), 4)
        assert all(scaled[v] is scaled[0] for v in range(5))
        equal = tuple(VariableSpec(v, 2, (Fraction(3, 4), Fraction(1, 4))) for v in range(2))
        scaled = model._scaled_rows(equal)
        assert scaled[0] == scaled[1] == ((3, 1), 4)


@pytest.mark.stream
class TestSampleProduct:
    def test_deterministic_domain(self):
        inst = Instance(
            (VariableSpec(0, 3, (Fraction(0), Fraction(1), Fraction(0))),),
            (),
        )
        rng = make_rng(0)
        assert all(sample_product(inst, rng) == [1] for _ in range(50))

    def test_uniform_frequency(self):
        inst = Instance((uniform_variable(0, 2),), ())
        n = 100_000
        ones = sum(
            sample_product(inst, make_rng(derive_seed(7, i)))[0] for i in range(n)
        )
        assert abs(ones / n - 0.5) < 0.01

    def test_seed_determinism(self):
        inst = clause_instance([(1, 2, 3)], 3)
        a = sample_product(inst, make_rng(42))
        b = sample_product(inst, make_rng(42))
        assert a == b

    def test_inline_draws_follow_draw_index(self):
        # The bulk draw gives what draw_index gives, one variate per variable.
        weights = {
            1: (Fraction(1),),
            2: (Fraction(1, 3), Fraction(2, 3)),
            3: (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            5: (Fraction(1, 5),) * 5,
        }
        domains = [1, 2, 3, 5, 5, 3, 2, 1, 2, 5, 3] * 20
        inst = Instance(
            tuple(VariableSpec(v, d, weights[d]) for v, d in enumerate(domains)), ()
        )
        tables = inst.sampling_tables
        for seed in range(5):
            rng, rng2 = make_rng(seed), make_rng(seed)
            assert sample_product(inst, rng) == [draw_index(rng2, t) for t in tables]
            assert rng.getstate() == rng2.getstate()


class TestEnumeration:
    def test_enumerate_counts(self):
        inst = clause_instance([(1, 2)], 2)
        assert len(list(enumerate_assignments(inst))) == 4

    def test_enumerate_cap(self, monkeypatch):
        inst = clause_instance([(1, 2)], 2)
        monkeypatch.setattr(model, "MAX_PAIR_STATES", 3)
        with pytest.raises(BudgetError):
            enumerate_assignments(inst)

    def test_assignment_probability_sums_to_one(self):
        lam = Fraction(1, 3)
        inst = hardcore_p3(lam)
        total = sum(
            assignment_probability(inst, a) for a in enumerate_assignments(inst)
        )
        assert total == 1


class TestJson:
    def test_round_trip(self, tmp_path):
        inst = hardcore_p3(Fraction(2, 5))
        path = tmp_path / "inst.json"
        save_instance(inst, path)
        again = load_instance(path)
        assert again == inst

    def test_uniform_weights_optional(self):
        obj = {
            "variables": [{"id": 0, "domain": 3}],
            "events": [{"id": 0, "vars": [0], "violating": [[2]]}],
        }
        inst = instance_from_json(obj)
        assert inst.variables[0].weights == (Fraction(1, 3),) * 3

    @pytest.mark.parametrize("domain", [MAX_UNIFORM_DOMAIN + 1, 2 ** 64])
    def test_weightless_domain_over_the_cap(self, domain):
        obj = {"variables": [{"id": 0, "domain": domain}], "events": []}
        with pytest.raises(BudgetError, match="uniform domain of %d values" % domain):
            instance_from_json(obj)

    def test_weights_round_trip_as_strings(self):
        inst = hardcore_p3(Fraction(1, 7))
        obj = instance_to_json(inst)
        assert obj["variables"][0]["weights"] == ["7/8", "1/8"]

    def test_parse_rational(self):
        assert parse_rational("1/3") == Fraction(1, 3)
        assert parse_rational("-2") == -2
        assert parse_rational(" 5/8 ") == Fraction(5, 8)

    @pytest.mark.parametrize(
        "bad", ["0.5", "1e-3", "", "a/b", 0.5, None, "1/3/4", "1/0", "2/00", "\u0661/3"]
    )
    def test_parse_rational_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            {"variables": [], "events": [{"id": 0}]},
            {"variables": [{"id": 0}], "events": []},
            {
                "variables": [{"id": 0, "domain": 2, "weights": ["0.5", "0.5"]}],
                "events": [],
            },
            {
                "variables": [{"id": 0, "domain": 2}],
                "events": [{"id": 0, "vars": [0], "violating": [["x"]]}],
            },
            *(obj for obj, _ in MALFORMED_INSTANCE_JSON),
        ],
    )
    def test_invalid_json_objects(self, obj):
        with pytest.raises(ValueError):
            instance_from_json(obj)

    @pytest.mark.parametrize(
        "field,where",
        [
            ({"id": True}, "events[2]: 'id' must be an integer"),
            ({"vars": [True]}, "events[2]: 'vars' must be a list"),
            ({"violating": [[0], [False]]}, "events[2].violating[1] must be a list"),
            ({"violating": [0]}, "events[2].violating[0] must be a list"),
        ],
    )
    def test_bad_entry_after_good_events_is_named(self, field, where):
        """A malformed entry among well-typed events is named where it is."""
        obj = {
            "variables": [{"id": 0, "domain": 2}],
            "events": [{"id": k, "vars": [0], "violating": [[1]]} for k in range(3)],
        }
        obj["events"][2].update(field)
        with pytest.raises(ValueError, match=re.escape(where)):
            instance_from_json(obj)

    @pytest.mark.parametrize(
        "entry,where",
        [
            ({"id": 2, "domain": True}, "variables[2]: 'id' and 'domain' must be integers"),
            ({"id": 2, "domain": "2"}, "variables[2]: 'id' and 'domain' must be integers"),
            ({"id": 2.0, "domain": 2}, "variables[2]: 'id' and 'domain' must be integers"),
            ({"id": 2}, "variables[2] must have 'id' and 'domain'"),
            ([2, 2], "variables[2] must have 'id' and 'domain'"),
            ({"id": 2, "domain": 0}, "variables[2]: 'domain' must be at least 1"),
        ],
    )
    def test_bad_entry_after_good_variables_is_named(self, entry, where):
        """A malformed variable among well-typed ones is named where it is."""
        obj = {"variables": [{"id": k, "domain": 2} for k in range(3)], "events": []}
        obj["variables"][2] = entry
        with pytest.raises(ValueError, match=re.escape(where)):
            instance_from_json(obj)

    def test_true_is_not_a_variable_id(self):
        # True == 1, so without the type check it would pass as the id of
        # the variable at position 1.
        obj = {"variables": [{"id": 0, "domain": 2}, {"id": True, "domain": 2}], "events": []}
        with pytest.raises(ValueError, match=re.escape("variables[1]: 'id' and 'domain'")):
            instance_from_json(obj)

    def test_equal_violating_lists_share_one_set(self):
        inst = instance_from_json(instance_to_json(encode_hardcore(cycle_graph(6), Fraction(1, 3))))
        first = inst.events[0].violating
        assert first == frozenset({(1, 1)})
        assert all(e.violating is first for e in inst.events)

    def test_int_subclasses_are_integers(self):
        class Value(int):
            pass

        obj = {
            "variables": [{"id": 0, "domain": 2}, {"id": Value(1), "domain": Value(3)}],
            "events": [{"id": 0, "vars": [Value(0)], "violating": [[Value(1)]]}],
        }
        inst = instance_from_json(obj)
        assert inst.events[0].violating == {(1,)}
        assert inst.variables[1].domain_size == 3

    @given(st.integers(0, 2 ** 32), st.booleans())
    def test_round_trip_through_json_text(self, seed, weighted):
        make = random_weighted_instance if weighted else random_instance
        inst = make(random.Random(seed))
        text = json.dumps(instance_to_json(inst))
        assert instance_from_json(json.loads(text)) == inst

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="invalid JSON"):
            load_instance(path)
