"""Undirected-graph utilities: structure, parsing, and cycle enumeration."""

import hashlib
import itertools
import json

import pytest
from hypothesis import given, strategies as st

from conftest import grid_graph, petersen_graph, random_cubic_graph
from prsampling import graphs
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

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Graph(-1, ()),
            lambda: make_graph(-3, []),
            lambda: path_graph(-2),
            lambda: complete_graph(-1),
        ],
    )
    def test_negative_vertex_count(self, build):
        with pytest.raises(ValueError, match="is negative"):
            build()

    def test_no_vertices(self):
        g = make_graph(0, [])
        assert g.num_vertices == g.num_edges == g.cycle_space_dim == 0

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


def canonical_vertex_cycles(n):
    """Every vertex sequence that is a cycle of K_n in canonical form, sorted.

    Brute force over permutations: a sequence is kept when it starts at its
    smallest vertex and its second vertex is below its last.
    """
    return [
        cyc
        for k in range(3, n + 1)
        for cyc in itertools.permutations(range(n), k)
        if cyc[0] == min(cyc) and cyc[1] < cyc[-1]
    ]


CYCLE_DIGEST_GRAPHS = {
    "K4": lambda: complete_graph(4),
    "K6": lambda: complete_graph(6),
    "K7": lambda: complete_graph(7),
    "C10": lambda: cycle_graph(10),
    "petersen": petersen_graph,
    "grid3x3": lambda: grid_graph(3, 3),
    "grid4x4": lambda: grid_graph(4, 4),
    # Two blocks with cycles, one bare edge and an isolated vertex.
    "disconnected": lambda: make_graph(
        10, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6), (3, 5), (7, 8)]
    ),
    # One 2-connected block with two pendant trees hung from it by bridges.
    "bridges": lambda: make_graph(
        12,
        [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 3), (4, 7),
         (7, 8), (7, 9), (0, 10), (10, 11), (6, 1)],
    ),
    **{
        "R%d-%d" % (n, s): (lambda n=n, s=s: random_cubic_graph(n, s))
        for n in (16, 30)
        for s in (1, 2, 3)
    },
}

# (count, sha256 of the compact JSON list) of simple_cycles on each graph,
# recorded from networkx 3.6.1's simple_cycles, which this enumeration
# replaced.
FROZEN_CYCLE_DIGESTS = {
    "K4": (7, "d4ebf88bb1f2cae58db337aa63c3336e3b6adbb091a6ae56204bcb28be07ec19"),
    "K6": (197, "a8d815946fdb9431e9b8cae40d1cd1a24bafdb23484ff7a1f849192a5de21450"),
    "K7": (1172, "a6d22dc8a94eaacac45f2ae4037d6a0f1b67d7dca4b50b66c95f69e11d69b236"),
    "C10": (1, "e1119770ad86a7185a19ce55d29b1f0ae745f42eb7eea7affbd06ce500a50c95"),
    "petersen": (57, "cb7bb2d785106a6342c14b090bc745c7164e94e64239f5ea1b547875d2243f6c"),
    "grid3x3": (13, "6a120e6eda947c50b55f7ae64450b9f6f2561af626fa264767be5a1f9d846a0d"),
    "grid4x4": (213, "5cd68b35946877905884592dfd83a2ba555ec8d77abf70e8e60f083cec747fd7"),
    "disconnected": (4, "bdc70b8679a5038bc258d03787969aa60aed5f963d5f37b429d2638dd03acd52"),
    "bridges": (6, "92c792fdca318c001eb9ab60f12b849fed7dd1baa5c663d67a75d32d39ec8893"),
    "R16-1": (312, "e5289ce85344ab1fd0b6033d12ede0d3e8b9174739ee91a48346495a7e66244d"),
    "R16-2": (284, "427383a37f10c081544bb59cdba56aed948222d30c630b3e9b0aaf19fb75e319"),
    "R16-3": (350, "77ad398b48f34b8115bf3a94dfb53653135c0d562ec342a4f44448b61703f4b1"),
    "R30-1": (19678, "c8e526ce3cfd7b34e7cfd8565a9b753fb461fafe79d5bbe72792cce4e5441a13"),
    "R30-2": (24402, "1204667fd70b4aee920a9dd2ad6d827b823bdd652005cf16588c945bd7a77ca3"),
    "R30-3": (24352, "e6be0aaa79d267c70690434ddf7501257ff796a41da76e017e45145f0325a848"),
}


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

    def test_dimension_guard(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_CYCLE_SPACE_DIM", 20)
        with pytest.raises(BudgetError, match="cycle space dimension"):
            simple_cycles(complete_graph(9))

    def test_count_guard(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_ENUMERATED_CYCLES", 10)
        with pytest.raises(BudgetError, match="cap exceeded"):
            simple_cycles(complete_graph(6))

    def test_count_guard_admits_exactly_the_cap(self, monkeypatch):
        monkeypatch.setattr(graphs, "MAX_ENUMERATED_CYCLES", 7)
        assert len(simple_cycles(complete_graph(4))) == 7
        monkeypatch.setattr(graphs, "MAX_ENUMERATED_CYCLES", 6)
        with pytest.raises(BudgetError, match="more than 6 simple cycles"):
            simple_cycles(complete_graph(4))

    def test_count_guard_on_a_large_cubic_graph(self):
        # Cycle-space dimension 20 passes the first guard; the count does not.
        graph = random_cubic_graph(38, 1)
        assert graph.cycle_space_dim == 20
        with pytest.raises(BudgetError, match="more than 100000 simple cycles"):
            simple_cycles(graph)

    @pytest.mark.parametrize("name", sorted(FROZEN_CYCLE_DIGESTS))
    def test_frozen_digests(self, name):
        count, digest = FROZEN_CYCLE_DIGESTS[name]
        cycles = simple_cycles(CYCLE_DIGEST_GRAPHS[name]())
        assert len(cycles) == count
        blob = json.dumps(cycles, separators=(",", ":")).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    @pytest.mark.parametrize("n", range(7))
    def test_every_graph_matches_brute_force(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        candidates = [
            (cyc, sum(1 << pairs.index((min(a, b), max(a, b)))
                      for a, b in zip(cyc, cyc[1:] + cyc[:1])))
            for cyc in canonical_vertex_cycles(n)
        ]
        for mask in range(1 << len(pairs)):
            graph = Graph(n, tuple(e for k, e in enumerate(pairs) if mask >> k & 1))
            expected = [cyc for cyc, need in candidates if need & mask == need]
            assert simple_cycles(graph) == expected, graph.edges


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

    @pytest.mark.parametrize(
        "d,n",
        [(1, 12), (2, 12), (2, 13), (3, 12), (3, 30), (10, 12), (10, 13), (10, 21),
         (11, 12), (12, 13), (12, 25)],
    )
    def test_simple_regular_and_deterministic(self, d, n):
        for seed in range(4):
            g = random_regular_graph(d, n, seed)
            # Graph rejects self-loops; d*n/2 edges at degree d leaves no
            # room for a merged parallel pair.
            assert g.num_vertices == n and g.num_edges == d * n // 2
            assert all(len(ns) == d for ns in g.adjacency)
            assert random_regular_graph(d, n, seed) == g
        if d < n - 1:  # K_n is the only (n-1)-regular graph
            assert random_regular_graph(d, n, 0) != g

    def test_degree_zero_is_empty(self):
        assert random_regular_graph(0, 5, 1) == Graph(5, ())

    @pytest.mark.parametrize(
        "d,n,msg", [(3, 13, "even n"), (13, 13, "0 <= d < n"), (-1, 4, "0 <= d < n")]
    )
    def test_rejects_impossible_degree(self, d, n, msg):
        with pytest.raises(ValueError, match=msg):
            random_regular_graph(d, n, 0)

    def test_matches_networkx_graphs(self):
        # sha256 of the edge lists of these 225 graphs, recorded from
        # networkx 3.6.1's random_regular_graph, the repeated-pairing
        # algorithm this generator ports. At these degrees the two agree
        # seed for seed (networkx gives up a pairing more often at larger
        # degrees, where some seeds draw a different graph).
        cases = [
            (d, n, s)
            for d in (1, 2, 3, 4, 5)
            for n in range(d + 1, 25)
            if n * d % 2 == 0
            for s in range(3)
        ]
        blob = json.dumps(
            [random_regular_graph(d, n, s).edges for d, n, s in cases],
            separators=(",", ":"),
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == (
            "f50768344d30208b38b9cd58f60c172b5072133365dfe1bfa2d9e8f2f6d2dd71"
        )
