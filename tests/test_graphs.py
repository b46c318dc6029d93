"""Undirected-graph utilities: structure, parsing, and cycle enumeration."""

import pytest
from hypothesis import given, strategies as st

from prsampling.errors import BudgetError
from prsampling.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    make_graph,
    parse_edge_list,
    path_graph,
    random_regular_graph,
    simple_cycles,
    write_edge_list,
)


class TestGraphValidation:
    def test_valid(self):
        g = Graph(3, ((0, 1), (0, 2), (1, 2)))
        assert g.num_edges == 3

    @pytest.mark.parametrize(
        "edges",
        [
            ((1, 0),),  # u >= v
            ((0, 0),),  # self loop
            ((0, 3),),  # out of range
            ((0, 1), (0, 1)),  # duplicate
            ((0, 2), (0, 1)),  # unsorted
        ],
    )
    def test_invalid(self, edges):
        with pytest.raises(ValueError):
            Graph(3, edges)

    @pytest.mark.parametrize(
        "edges,msg",
        [
            (((0, 1), (0, 1)), r"duplicate edge \(0, 1\)"),
            (((0, 1), (1, 2), (0, 1)), r"duplicate edge \(0, 1\)"),
            (((0, 1), (1, 2), (0, 2)), "must be sorted"),
        ],
    )
    def test_duplicate_named_before_disorder(self, edges, msg):
        with pytest.raises(ValueError, match=msg):
            Graph(3, edges)

    def test_make_graph_normalizes(self):
        g = make_graph(3, [(2, 0), (1, 0), (2, 0)])
        assert g.edges == ((0, 1), (0, 2))

    def test_adjacency_and_incidence(self):
        g = path_graph(3)
        assert g.adjacency == ((1,), (0, 2), (1,))
        assert g.incident_edges == ((0,), (0, 1), (1,))


class TestStructure:
    def test_components(self):
        g = make_graph(5, [(0, 1), (2, 3)])
        assert g.num_components == 3
        assert not g.is_connected()

    def test_empty_graph_connected(self):
        assert make_graph(0, []).is_connected()

    @pytest.mark.parametrize(
        "g,dim,tree",
        [
            (path_graph(4), 0, True),
            (cycle_graph(5), 1, False),
            (complete_graph(4), 3, False),
            (make_graph(4, [(0, 1), (2, 3)]), 0, False),
        ],
    )
    def test_cycle_space_and_tree(self, g, dim, tree):
        assert g.cycle_space_dim == dim
        assert g.is_tree() == tree

    def test_constructors(self):
        assert path_graph(1).num_edges == 0
        assert cycle_graph(3).edges == ((0, 1), (0, 2), (1, 2))
        assert complete_graph(4).num_edges == 6
        with pytest.raises(ValueError):
            cycle_graph(2)


class TestSimpleCycles:
    def test_triangle(self):
        assert simple_cycles(cycle_graph(3)) == [(0, 1, 2)]

    def test_canonical_direction(self):
        # Start at min vertex, step toward its smaller neighbor.
        cycles = simple_cycles(cycle_graph(4))
        assert cycles == [(0, 1, 2, 3)]

    def test_k4_has_seven(self):
        cycles = simple_cycles(complete_graph(4))
        assert len(cycles) == 7
        assert sorted(len(c) for c in cycles) == [3, 3, 3, 3, 4, 4, 4]
        assert cycles[:4] == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        assert set(cycles[4:]) == {(0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3)}

    def test_tree_has_none(self):
        assert simple_cycles(path_graph(6)) == []

    def test_dimension_guard(self):
        with pytest.raises(BudgetError, match="cycle space dimension"):
            simple_cycles(complete_graph(9), max_dim=20)

    def test_count_guard(self):
        with pytest.raises(BudgetError, match="cap exceeded"):
            simple_cycles(complete_graph(6), max_cycles=10)


class TestEdgeListFormat:
    def test_parse_with_comments_and_labels(self):
        text = "# a triangle on sparse labels\n10 30\n30 20\n\n20 10  # closing edge\n"
        g, labels = parse_edge_list(text)
        assert labels == [10, 20, 30]
        assert g.edges == ((0, 1), (0, 2), (1, 2))

    @pytest.mark.parametrize(
        "bad,msg",
        [
            ("0 1 2\n", "expected 'u v'"),
            ("0 x\n", "must be integers"),
            ("0 -1\n", "nonnegative"),
            # int() accepts these; edge lists mean only ASCII decimal digits.
            ("0 1_0\n", "must be integers"),
            ("+1 2\n", "must be integers"),
            ("0 \u0662\n", "must be integers"),
            ("3 3\n", "self-loop"),
            ("0 1\n1 0\n", "duplicate edge"),
        ],
    )
    def test_parse_errors(self, bad, msg):
        with pytest.raises(ValueError, match=msg):
            parse_edge_list(bad)

    def test_round_trip(self):
        g = complete_graph(4)
        g2, labels = parse_edge_list(write_edge_list(g))
        assert g2 == g and labels == [0, 1, 2, 3]

    def test_round_trip_preserves_labels(self):
        g = cycle_graph(3)
        text = write_edge_list(g, labels=[7, 9, 11])
        g2, labels = parse_edge_list(text)
        assert g2 == g and labels == [7, 9, 11]

    @given(st.data())
    def test_round_trip_property(self, data):
        n = data.draw(st.integers(2, 12))
        vertex = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])))
        graph = make_graph(n, pairs)
        label = st.integers(0, 10 ** 12)
        labels = data.draw(st.lists(label, min_size=n, max_size=n, unique=True))
        g2, labels2 = parse_edge_list(write_edge_list(graph, labels))
        used = sorted({labels[v] for e in graph.edges for v in e})
        assert labels2 == used
        assert {frozenset((labels2[u], labels2[v])) for u, v in g2.edges} == {
            frozenset((labels[u], labels[v])) for u, v in graph.edges
        }
        if len(used) == n and labels == sorted(labels):
            assert g2 == graph

    def test_empty_text(self):
        g, labels = parse_edge_list("# nothing\n")
        assert g.num_vertices == 0 and labels == []


class TestRandomRegular:
    def test_degree_and_determinism(self):
        g = random_regular_graph(3, 16, seed=5)
        assert g.num_vertices == 16
        assert all(len(ns) == 3 for ns in g.adjacency)
        assert random_regular_graph(3, 16, seed=5) == g
        assert random_regular_graph(3, 16, seed=6) != g
