"""The set-up layers against the implementations they replaced.

``tests/reference_setup.py`` keeps the former extremality check, edge-list
parser, ``make_event`` and ``uniform_variable``. The current ones must give
the same verdicts, graphs, instances and error messages.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference_setup as ref
from conftest import petersen_graph, random_cubic_graph
from prsampling import cnf, graph_apps
from prsampling.cnf import CnfFormula, cnf_to_instance
from prsampling.errors import BudgetError
from prsampling.graph_apps import encode_hardcore, encode_sink_free, encode_spanning_tree
from prsampling.graphs import complete_graph, cycle_graph, parse_edge_list
from prsampling.model import (
    EventSpec,
    Instance,
    MAX_PAIR_STATES,
    VariableSpec,
    instance_from_json,
    instance_to_json,
    is_extremal,
)
from prsampling.verify import (
    random_extremal_instance,
    random_instance,
    random_weighted_instance,
)


def _outcome(fn, *args, **kwargs):
    """The result of a call, or the type and text of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, BudgetError) as ex:
        return type(ex).__name__, str(ex)


PETERSEN = petersen_graph()
GRAPHS = [cycle_graph(5), complete_graph(4), PETERSEN, random_cubic_graph(12, 3)]


def _wide_clauses(width_a, width_b, shared):
    """Two clauses of the given widths sharing ``shared`` variables."""
    a = list(range(1, width_a + 1))
    b = list(range(width_a - shared + 1, width_a - shared + width_b + 1))
    return a, b


class TestIsExtremal:
    def test_random_instances_match_the_pairwise_scan(self):
        # Small caps put some pair over the cap in many instances, so the
        # order of the over-cap and conflicting pairs is exercised too.
        rng = random.Random(20261018)
        generators = (random_instance, random_extremal_instance, random_weighted_instance)
        outcomes = set()
        for k in range(2000):
            inst = generators[k % 3](rng)
            for cap in (MAX_PAIR_STATES, 16, 64):
                got = _outcome(is_extremal, inst, max_pair_states=cap)
                assert got == _outcome(ref.is_extremal_pairwise, inst, max_pair_states=cap)
                outcomes.add(got if isinstance(got, bool) else got[0])
        assert outcomes == {True, False, "BudgetError"}

    @pytest.mark.parametrize("graph", GRAPHS, ids=["C5", "K4", "petersen", "R12"])
    def test_graph_encodings_match_the_pairwise_scan(self, graph):
        encodings = [
            encode_hardcore(graph, Fraction(1, 3)),
            encode_sink_free(graph),
            encode_spanning_tree(graph, 0),
        ]
        for inst in encodings:
            for cap in (MAX_PAIR_STATES, 3 ** 8):
                got = _outcome(is_extremal, inst, max_pair_states=cap)
                assert got == _outcome(ref.is_extremal_pairwise, inst, max_pair_states=cap)

    @pytest.mark.parametrize(
        "clauses,verdict",
        [
            # A disjoint pair over 25 variables, alone, after and before a
            # conflicting pair: the first pair in ascending order decides.
            ([_wide_clauses(13, 13, 1)[0], [-1, *_wide_clauses(13, 13, 1)[1][1:]]], None),
            ([[30, 31], [31, 32], *_wide_clauses(13, 13, 1)], False),
            ([*_wide_clauses(13, 13, 1), [30, 31], [31, 32]], None),
            # Sharing two variables, with opposite signs on one of them or not.
            ([[1, 2, 3], [-1, 2, 4]], True),
            ([[1, 2, 3], [1, 2, 4]], False),
        ],
        ids=["wide-disjoint", "conflict-first", "wide-first", "two-shared-disjoint", "two-shared"],
    )
    def test_default_cap_and_multi_variable_pairs(self, clauses, verdict):
        inst = cnf_to_instance(CnfFormula(32, tuple(map(tuple, clauses))))
        got = _outcome(is_extremal, inst)
        assert got == _outcome(ref.is_extremal_pairwise, inst)
        assert got == verdict if verdict is not None else got[0] == "BudgetError"


class TestConstructions:
    @pytest.mark.parametrize("graph", GRAPHS, ids=["C5", "K4", "petersen", "R12"])
    def test_graph_encodings_equal_the_former_constructions(self, graph, monkeypatch):
        current = [
            encode_sink_free(graph),
            encode_spanning_tree(graph, 1),
            cnf_to_instance(cnf.monotone_cnf_from_graph(graph, 2)),
        ]
        for module in (graph_apps, cnf):
            monkeypatch.setattr(module, "make_event", ref.make_event)
            monkeypatch.setattr(module, "uniform_variable", ref.uniform_variable)
        former = [
            encode_sink_free(graph),
            encode_spanning_tree(graph, 1),
            cnf_to_instance(cnf.monotone_cnf_from_graph(graph, 2)),
        ]
        assert current == former

    @pytest.mark.parametrize("lam", [Fraction(1, 10), Fraction(3), 0])
    def test_hardcore_equals_fresh_weights_per_vertex(self, lam):
        graph = random_cubic_graph(12, 1)
        lam = Fraction(lam)
        former = Instance(
            tuple(
                VariableSpec(v, 2, (1 / (1 + lam), lam / (1 + lam)))
                for v in range(graph.num_vertices)
            ),
            tuple(
                EventSpec(eid, edge, frozenset({(1, 1)}))
                for eid, edge in enumerate(graph.edges)
            ),
        )
        assert encode_hardcore(graph, lam) == former

    def test_instance_from_json_equals_the_former_construction(self):
        rng = random.Random(11)
        for _ in range(300):
            obj = instance_to_json(random_weighted_instance(rng))
            obj["variables"][0].pop("weights")  # one uniform variable
            event = obj["events"][0]  # and one event with its variables reversed
            for t in [event["vars"], *event["violating"]]:
                t.reverse()
            former = Instance(
                tuple(
                    VariableSpec(v["id"], v["domain"], tuple(map(Fraction, v["weights"])))
                    if "weights" in v
                    else ref.uniform_variable(v["id"], v["domain"])
                    for v in obj["variables"]
                ),
                tuple(
                    ref.make_event(e["id"], e["vars"], e["violating"]) for e in obj["events"]
                ),
            )
            assert instance_from_json(obj) == former

    def test_equal_weight_strings_share_one_tuple(self):
        weights = ["1/3", "2/3"]
        obj = {
            "variables": [{"id": v, "domain": 2, "weights": list(weights)} for v in range(3)],
            "events": [],
        }
        first, *rest = instance_from_json(obj).variables
        assert all(v.weights is first.weights for v in rest)


# Edge-list lines: edges over a few labels, sparse or dense, repeated or
# negative, with comments, blank lines and malformed tokens mixed in.
_small = st.integers(0, 6)
_label = st.one_of(
    _small, _small, st.integers(0, 40), st.sampled_from([-1, -7, "-0", "+1", "1_0", "x", "٢"])
)
_edge = st.tuples(_label, _label, st.sampled_from(["", "  # note", "#", "\t"])).map(
    lambda t: "%s %s%s" % t
)
_line = st.one_of(_edge, _edge, _edge, st.sampled_from(["", "# comment", "   ", "1 2 3", "7"]))


class TestParseEdgeList:
    @settings(max_examples=500)
    @given(st.lists(_line, max_size=25))
    def test_matches_the_former_parser(self, lines):
        text = "\n".join(lines)
        assert _outcome(parse_edge_list, text) == _outcome(ref.parse_edge_list, text)

    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30))
    def test_valid_lists_match_the_former_parser(self, pairs):
        text = "".join("%d %d\n" % p for p in pairs)
        assert _outcome(parse_edge_list, text) == _outcome(ref.parse_edge_list, text)
