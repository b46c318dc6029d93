"""Simple undirected graphs: the substrate for the sampling applications."""

from __future__ import annotations

import random
from functools import cached_property
from itertools import chain
from operator import eq

from .errors import BudgetError
from .records import FrozenRecord

MAX_CYCLE_SPACE_DIM = 20
MAX_ENUMERATED_CYCLES = 10 ** 5


class Graph(FrozenRecord):
    """An undirected simple graph with dense 0-based vertex ids.

    Edges are stored as (u, v) with u < v, sorted lexicographically; the
    position of an edge in ``edges`` is its edge id.
    """

    _fields = ("num_vertices", "edges")

    def __init__(self, num_vertices: int, edges: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edges", edges)
        if num_vertices < 0:
            raise ValueError("num_vertices = %d is negative" % num_vertices)
        prev = None
        for k, e in enumerate(edges):
            u, v = e
            if not (0 <= u < v < num_vertices):
                raise ValueError(
                    "edge %r invalid for %d vertices (need 0 <= u < v)"
                    % (e, num_vertices)
                )
            # Strictly ascending edges are sorted and distinct.
            if prev is not None and e <= prev:
                if e in edges[:k]:
                    raise ValueError("duplicate edge %r" % (e,))
                raise ValueError("edges must be sorted lexicographically")
            prev = e

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor lists."""
        neigh = [[] for _ in range(self.num_vertices)]
        for u, v in self.edges:
            neigh[u].append(v)
            neigh[v].append(u)
        return tuple(tuple(sorted(ns)) for ns in neigh)

    @cached_property
    def incident_edges(self) -> tuple[tuple[int, ...], ...]:
        """Sorted incident edge ids per vertex."""
        inc = [[] for _ in range(self.num_vertices)]
        for eid, (u, v) in enumerate(self.edges):
            inc[u].append(eid)
            inc[v].append(eid)
        return tuple(tuple(ids) for ids in inc)

    @cached_property
    def num_components(self) -> int:
        seen = [False] * self.num_vertices
        count = 0
        for s in range(self.num_vertices):
            if seen[s]:
                continue
            count += 1
            stack = [s]
            seen[s] = True
            while stack:
                v = stack.pop()
                for u in self.adjacency[v]:
                    if not seen[u]:
                        seen[u] = True
                        stack.append(u)
        return count

    @property
    def cycle_space_dim(self) -> int:
        """|E| - |V| + (number of components): 2**this counts cycle-space elements."""
        return self.num_edges - self.num_vertices + self.num_components

    def is_connected(self) -> bool:
        return self.num_vertices == 0 or self.num_components == 1

    def is_tree(self) -> bool:
        return self.is_connected() and self.num_edges == self.num_vertices - 1


def make_graph(num_vertices: int, edges) -> Graph:
    """Normalize edges ((u, v) in any order/sequence) into a Graph."""
    norm = sorted({(min(u, v), max(u, v)) for u, v in edges})
    return Graph(num_vertices, tuple(norm))


def path_graph(k: int) -> Graph:
    return make_graph(k, [(i, i + 1) for i in range(k - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle graph needs at least 3 vertices")
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return make_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_regular_graph(d: int, n: int, seed: int) -> Graph:
    """A random simple d-regular graph on n vertices (Steger and Wormald 1999).

    Shuffles d stubs per vertex into pairs, keeps each pair that makes a new
    simple edge and re-pairs the stubs of the rest, starting over when no
    two of those stubs could still make one. Asymptotically uniform for
    d = O(n^(1/3 - eps)) (Kim and Vu 2003). Unlike the plain pairing model,
    it does not wait for a whole pairing to come out simple, which at large
    d almost never happens.
    """
    if not 0 <= d < n:
        raise ValueError("a %d-regular graph on %d vertices needs 0 <= d < n" % (d, n))
    if n * d % 2:
        raise ValueError("a %d-regular graph on %d vertices needs an even n * d" % (d, n))
    rng = random.Random(seed)
    while (edges := _pair_stubs(d, n, rng)) is None:
        pass
    return make_graph(n, edges)


def _pair_stubs(d: int, n: int, rng: random.Random) -> set[tuple[int, int]] | None:
    """One attempt of ``random_regular_graph``: its edges, or None when stuck."""
    edges = set()
    stubs = list(range(n)) * d
    while stubs:
        rng.shuffle(stubs)
        unpaired = {}  # vertex -> stubs left over, in order of first miss
        it = iter(stubs)
        for u, v in zip(it, it):
            if u > v:
                u, v = v, u
            if u != v and (u, v) not in edges:
                edges.add((u, v))
            else:
                unpaired[u] = unpaired.get(u, 0) + 1
                unpaired[v] = unpaired.get(v, 0) + 1
        if unpaired and all(
            (u, v) in edges for u in unpaired for v in unpaired if u < v
        ):
            return None
        stubs = [v for v, k in unpaired.items() for _ in range(k)]
    return edges


def simple_cycles(graph: Graph) -> list[tuple[int, ...]]:
    """All simple cycles (length >= 3), canonicalized and sorted.

    Each cycle is returned in traversal order starting at its smallest
    vertex, continuing toward that vertex's smaller cycle-neighbor.
    Guarded by the caps ``MAX_CYCLE_SPACE_DIM`` on the cycle-space
    dimension and ``MAX_ENUMERATED_CYCLES`` on the cycles.

    From each vertex s, a backtracking walk enters only vertices above s and
    records a cycle each time it can close at s; of the two directions of a
    cycle it keeps the one whose second vertex is below its last.
    """
    if graph.cycle_space_dim > MAX_CYCLE_SPACE_DIM:
        raise BudgetError(
            "cycle space dimension %d exceeds cap %d; too many cycles to enumerate"
            % (graph.cycle_space_dim, MAX_CYCLE_SPACE_DIM)
        )
    adj = graph.adjacency
    on_path = [False] * graph.num_vertices
    out = []
    for s in range(graph.num_vertices):
        path = [s]
        stack = [iter(adj[s])]
        while stack:
            for v in stack[-1]:
                if v == s:
                    if len(path) > 2 and path[1] < path[-1]:
                        if len(out) >= MAX_ENUMERATED_CYCLES:
                            raise BudgetError(
                                "more than %d simple cycles; enumeration cap exceeded"
                                % MAX_ENUMERATED_CYCLES
                            )
                        out.append(tuple(path))
                elif v > s and not on_path[v]:
                    on_path[v] = True
                    path.append(v)
                    stack.append(iter(adj[v]))
                    break
            else:
                stack.pop()
                on_path[path.pop()] = False
    out.sort(key=lambda c: (len(c), c))
    return out


def decimal_int(token: str) -> int:
    """int(token), but only for ASCII digits with an optional leading '-'."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError("not a decimal integer: %r" % token)
    return int(token)


def parse_edge_list(text: str) -> tuple[Graph, list[int]]:
    """Parse 'u v' lines ('#' starts a comment) into a Graph.

    Vertex labels are arbitrary nonnegative decimal integers and are
    compacted to dense ids; the returned list maps dense id -> original label.
    """
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(
                "line %d: expected 'u v', got %r" % (lineno, raw.rstrip())
            )
        u, v = parts
        if u.isdigit() and v.isdigit() and u.isascii() and v.isascii():
            u, v = int(u), int(v)
        else:
            try:
                u, v = decimal_int(u), decimal_int(v)
            except ValueError:
                raise ValueError(
                    "line %d: vertex labels must be integers, got %r" % (lineno, raw.rstrip())
                ) from None
            if u < 0 or v < 0:
                raise ValueError("line %d: vertex labels must be nonnegative" % lineno)
        if u == v:
            raise ValueError("line %d: self-loop %d-%d not allowed" % (lineno, u, v))
        pairs.append((u, v))
    edges = sorted((u, v) if u < v else (v, u) for u, v in pairs)
    if any(map(eq, edges, edges[1:])):
        seen = set()
        for u, v in pairs:
            if (min(u, v), max(u, v)) in seen:
                raise ValueError("duplicate edge %d-%d" % (u, v))
            seen.add((min(u, v), max(u, v)))
    labels = sorted(set(chain.from_iterable(edges)))
    if labels and labels[-1] != len(labels) - 1:
        dense = {lab: i for i, lab in enumerate(labels)}
        edges = [(dense[u], dense[v]) for u, v in edges]
    return Graph(len(labels), tuple(edges)), labels


def write_edge_list(graph: Graph, labels: list[int] | None = None) -> str:
    """Inverse of parse_edge_list (identity labels by default)."""
    if labels is None:
        labels = list(range(graph.num_vertices))
    return "".join("%d %d\n" % (labels[u], labels[v]) for u, v in graph.edges)
