"""Graph applications: sink-free orientations, spanning trees, hard-core.

Each application has a specialized sampler written directly against the
graph, plus an encoder producing the equivalent constraint instance so the
specialized and generic samplers can be cross-checked. The specialized
samplers draw fresh values lazily, in ascending vertex/edge id order, with
the same one-uniform-per-draw rule as the generic samplers
(``rng.draw_index``), so both sides of the cross-check consume an identical
randomness stream. ``hardcore_sample`` takes its initial draw and each
round's redraw from one ``rng.draw_indices`` call, as ``sample_product``
does. ``sink_popping`` (``1 if random() >= t else 0`` for the table
``(t,)``, which is ``bisect_right((t,), u)`` for every u) and
``cycle_popping`` (``bisect_right(table, random())``) draw one variate per
value in a loop of their own: each visits every redrawn value in Python
anyway, to move out-degrees or look up a neighbor, and the bulk draw
measured no faster there.

Conventions
-----------
* Orientations: one value per edge (u, v) with u < v; 0 points u -> v,
  1 points v -> u.
* Arrow maps: ``arrows[v]`` is the successor of vertex v, with -1 at the
  root. A valid arrow map is one with no directed cycle, i.e. a spanning
  in-tree rooted at ``root``.
* Hard-core configurations: a set of occupied vertices; valid means no two
  occupied vertices are adjacent. Each vertex is independently occupied
  with probability lam/(1+lam), so valid configurations are weighted by
  lam^|occupied|.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, repeat
from math import sqrt
from operator import getitem

from .certified import sqrt_e_leq
from .graphs import Graph, make_graph, simple_cycles
from .model import (
    Instance,
    VariableSpec,
    _ascending,
    _events,
    _instance,
    _records,
    _shared_variables,
    _uniform_weights,
)
from .records import FrozenRecord, fields_json
from .rng import byte_tables, cumulative_table, derive_seed, draw_indices, make_rng
from .rng import draw_index  # noqa: F401 (bench/tracing.py counts calls through this name)
from .sampler import SamplerConfig, resample_until_valid


def _exact(lam) -> Fraction:
    if isinstance(lam, float):
        raise TypeError(
            "lam must be exact (int, Fraction or 'a/b' string), got float %r" % lam
        )
    return Fraction(lam)


# --- sink-free orientations ----------------------------------------------


def sink_popping(graph: Graph, config: SamplerConfig):
    """Sample a uniform sink-free orientation.

    Each round re-orients every edge adjacent to a sink. Out-degrees are
    kept across rounds: the first round counts them and reports every
    non-isolated vertex of out-degree 0. Every edge redrawn in a round
    pointed into a sink, so only an edge that now points away from its sink
    moves an out-degree (the sink gains one, the other endpoint loses one),
    and the next round's sinks are the old sinks left at out-degree 0 and
    the other endpoints whose out-degree has just reached 0. On graphs
    where some component is a tree no sink-free orientation exists and the
    round cap is eventually hit.
    """
    rng = make_rng(config.seed)
    random = rng.random
    (t,) = cumulative_table((Fraction(1, 2), Fraction(1, 2)))
    n, edges, incident = graph.num_vertices, graph.edges, graph.incident_edges
    orient = [1 if random() >= t else 0 for _ in edges]  # 0: u -> v, 1: v -> u
    out = [0] * n
    for tail in map(getitem, edges, orient):
        out[tail] += 1
    sinks = [v for v in range(n) if not out[v] and incident[v]]
    emptied = []  # vertices whose out-degree reached 0 in the last redraw

    def redraw(eids):
        for eid in eids:
            o = 1 if random() >= t else 0
            if o != orient[eid]:
                orient[eid] = o
                edge = edges[eid]
                out[edge[o]] += 1
                u = edge[1 - o]
                out[u] -= 1
                if not out[u]:
                    emptied.append(u)

    def find_sinks(redrawn):
        nonlocal sinks
        if redrawn is not None:
            sinks = sorted([v for v in sinks if not out[v]] + emptied)
            emptied.clear()
        return sinks

    _, stats = resample_until_valid(
        config,
        orient,
        redraw,
        find_sinks,
        lambda bad: (bad, sorted(chain.from_iterable(map(incident.__getitem__, bad)))),
        num_events=n,
        note="; the graph may have no sink-free orientation (tree component)",
    )
    return tuple(orient), stats


def encode_sink_free(graph: Graph) -> Instance:
    """Constraint instance: edge variables, one sink event per vertex.

    ``Graph`` has checked what the spec and instance checks would (each
    vertex's incident edge ids ascend and are in range), so only the width
    cap is checked. Events with equal violating tuples share one set.
    """
    variables = _shared_variables(graph.num_edges, 2, _uniform_weights(2))
    heads = [v for _, v in graph.edges]
    vbls, tuples = [], []
    for v, inc in enumerate(graph.incident_edges):
        if inc:
            vbls.append(inc)
            tuples.append(tuple([0 if heads[eid] == v else 1 for eid in inc]))
    shared = {t: frozenset((t,)) for t in set(tuples)}  # the one set that equal tuples share
    return _instance(variables, _events(vbls, map(shared.__getitem__, tuples)))


# --- spanning trees via cycle popping ------------------------------------


def is_arrow_tree(graph: Graph, root: int, arrows) -> bool:
    """Do the arrows form a spanning in-tree rooted at ``root``?"""
    for v in range(graph.num_vertices):
        if v == root:
            if arrows[v] != -1:
                return False
        elif arrows[v] not in graph.adjacency[v]:
            return False
    state = [0] * graph.num_vertices  # 1 on the current walk, 2 reaches the root
    for s in range(graph.num_vertices):
        path = []
        v = s
        while v != root and state[v] != 2:
            if state[v] == 1:
                return False
            state[v] = 1
            path.append(v)
            v = arrows[v]
        for u in path:
            state[u] = 2
    return True


def _check_root(graph: Graph, root: int) -> None:
    if not 0 <= root < graph.num_vertices:
        raise ValueError("root %d out of range" % root)


def cycle_popping(graph: Graph, root: int, config: SamplerConfig):
    """Sample a uniform spanning in-tree rooted at ``root``.

    Every non-root vertex draws a uniform neighbor arrow; each round pops
    (redraws) all vertices currently lying on directed cycles. Only cycle
    vertices are redrawn, so a vertex whose arrows lead to the root keeps
    leading there and stays marked. The first round walks from every
    vertex; later rounds walk only from the vertices just redrawn, since
    any new cycle passes through one, and each walk stops at a marked
    vertex or at one already walked this round.
    """
    if not graph.is_connected():
        raise ValueError("cycle popping requires a connected graph")
    _check_root(graph, root)
    rng = make_rng(config.seed)
    random = rng.random
    n = graph.num_vertices
    adjacency = graph.adjacency
    # One uniform table per degree, not per vertex, looked up once per vertex.
    tables = {
        d: cumulative_table((Fraction(1, d),) * d)
        for d in {len(adjacency[v]) for v in range(n) if v != root}
    }
    table_of = [None if v == root else tables[len(adjacency[v])] for v in range(n)]

    def redraw(vertices):
        for v in vertices:
            arrows[v] = adjacency[v][bisect_right(table_of[v], random())]

    arrows = [-1] * n
    redraw([v for v in range(n) if v != root])
    rooted = [v == root for v in range(n)]
    walk_of = [0] * n  # the last walk that visited each vertex
    walks = 0

    def find_cycles(redrawn):
        nonlocal walks
        first = walks + 1  # walks of this round are numbered from here
        cycles = []
        for s in range(n) if redrawn is None else redrawn:
            walks += 1
            path = []
            v = s
            while not rooted[v] and walk_of[v] < first:
                walk_of[v] = walks
                path.append(v)
                v = arrows[v]
            if rooted[v]:
                for u in path:
                    rooted[u] = True
            elif walk_of[v] == walks:
                cycles.append(path[path.index(v):])
        return cycles

    _, stats = resample_until_valid(
        config,
        arrows,
        redraw,
        find_cycles,
        lambda cycles: (cycles, sorted(v for cyc in cycles for v in cyc)),
        note=" in cycle popping",
        logged=None,
    )
    return tuple(arrows), stats


def spanning_tree_variables(graph: Graph, root: int) -> tuple[int, ...]:
    """Dense variable order of the spanning-tree encoding: non-root vertices."""
    _check_root(graph, root)
    return tuple(v for v in range(graph.num_vertices) if v != root)


def encode_spanning_tree(graph: Graph, root: int) -> Instance:
    """Constraint instance for rooted spanning trees.

    One variable per non-root vertex (uniform over its sorted neighbors);
    one event per directed-cycle support: adjacent non-root pairs (the
    two-vertex mutual arrows) and longer simple cycles avoiding the root,
    each with its two traversal directions as violating tuples.

    ``Graph`` and ``simple_cycles`` give distinct vertices in range, every
    non-root vertex of a connected graph has a neighbor, and each value is
    a neighbor's position, so of the spec and instance checks only the
    width cap runs, for cycles longer than it.
    """
    if not graph.is_connected():
        raise ValueError("spanning-tree encoding requires a connected graph")
    vertices = spanning_tree_variables(graph, root)
    var_of = {v: k for k, v in enumerate(vertices)}
    degrees = [len(graph.adjacency[v]) for v in vertices]
    variables = _records(
        VariableSpec, len(vertices), range(len(vertices)), degrees, map(_uniform_weights, degrees)
    )
    vbls, violating = [], []

    def nbr_index(v: int, u: int) -> int:
        return graph.adjacency[v].index(u)

    for u, v in graph.edges:
        if u == root or v == root:
            continue
        # var_of ascends with the vertex, so u < v gives an ascending vbl.
        vbls.append((var_of[u], var_of[v]))
        violating.append(frozenset({(nbr_index(u, v), nbr_index(v, u))}))
    for cyc in simple_cycles(graph):
        if root in cyc:
            continue
        forward = tuple(
            nbr_index(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))
        )
        backward = tuple(
            nbr_index(cyc[i], cyc[(i - 1) % len(cyc)]) for i in range(len(cyc))
        )
        vbl, vio = _ascending([var_of[v] for v in cyc], [forward, backward])
        vbls.append(vbl)
        violating.append(vio)
    return _instance(variables, _events(vbls, violating))


def assignment_to_arrows(graph: Graph, root: int, assignment) -> tuple[int, ...]:
    """Decode a spanning-tree-encoding assignment into an arrow map."""
    arrows = [-1] * graph.num_vertices
    for k, v in enumerate(spanning_tree_variables(graph, root)):
        arrows[v] = graph.adjacency[v][assignment[k]]
    return tuple(arrows)


# --- hard-core model -------------------------------------------------------


def bad_vertices(graph: Graph, occupied) -> frozenset[int]:
    """Vertices in occupied components of size >= 2 (endpoints of occupied edges)."""
    occ = set(occupied)
    out = set()
    for u, v in graph.edges:
        if u in occ and v in occ:
            out.add(u)
            out.add(v)
    return frozenset(out)


@lru_cache(maxsize=16)
def _occupation_draw(lam: Fraction) -> tuple[tuple[float, ...], bytes]:
    """The sampling table of a vertex's occupation at ``lam``, and its
    ``byte_tables`` lookup, made once per ``lam``."""
    table = cumulative_table((1 / (1 + lam), lam / (1 + lam)))
    return table, byte_tables((table,))


def hardcore_sample(graph: Graph, lam, config: SamplerConfig):
    """Sample a hard-core configuration with exact weights lam^|occupied|.

    Each round redraws the occupation of every bad vertex (occupied with an
    occupied neighbor) and of every neighbor of a bad vertex.
    ``stats.log`` records the bad edges that triggered each round and
    ``stats.var_log`` the redrawn vertices.

    Each draw is one ``draw_indices`` call; the set of occupied vertices is
    kept across rounds and updated at the redrawn vertices only.
    """
    lam = _exact(lam)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    rng = make_rng(config.seed)
    table, lookup = _occupation_draw(lam)
    n = graph.num_vertices
    first = list(compress(range(n), draw_indices(rng, table, lookup, n)))
    occupied = set(first)
    adjacency, edges, incident = graph.adjacency, graph.edges, graph.incident_edges

    def redraw(vertices):
        occupied.difference_update(vertices)
        occupied.update(compress(vertices, draw_indices(rng, table, lookup, len(vertices))))

    def find_bad(redrawn):
        if redrawn is None:
            # Each bad edge at its lower endpoint u, so ids come out ascending
            # (``adjacency[u]`` and ``incident[u]`` are parallel).
            isdisjoint = occupied.isdisjoint
            return [
                eid
                for u in first
                if not isdisjoint(adjacency[u])
                for w, eid in zip(adjacency[u], incident[u])
                if w > u and w in occupied
            ]
        # Only edges touching a redrawn vertex can change badness.
        pairs = (zip(adjacency[v], incident[v]) for v in occupied.intersection(redrawn))
        return sorted({eid for pair in pairs for w, eid in pair if w in occupied})

    def choose(bad_edges):
        ends = set(chain.from_iterable(map(edges.__getitem__, bad_edges)))
        res_vs = ends.union(*map(adjacency.__getitem__, ends))
        redraw = sorted(res_vs)
        # The resampled events, edges with both endpoints redrawn, are only
        # counted: one entry each, the upper endpoint, stands for the edge.
        return [u for v in redraw for u in adjacency[v] if u > v and u in res_vs], redraw

    _, stats = resample_until_valid(
        config,
        occupied,
        redraw,
        find_bad,
        choose,
        note=" in hard-core sampling",
        logged="bad",
    )
    return frozenset(occupied), stats


# The violating set that every hard-core edge event shares: both ends occupied.
_BOTH_OCCUPIED = frozenset({(1, 1)})


def encode_hardcore(graph: Graph, lam) -> Instance:
    """Constraint instance: vertex occupation variables, one event per edge.

    ``Graph`` has checked that each edge (u, v) has 0 <= u < v < n, so only
    the first variable runs its checks, on the weights all of them share.
    """
    lam = _exact(lam)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    w = (1 / (1 + lam), lam / (1 + lam))
    variables = _shared_variables(graph.num_vertices, 2, w)
    return _instance(variables, _events(graph.edges, repeat(_BOTH_OCCUPIED)))


def hardcore_condition(lam, d: int) -> bool:
    """Certified check of lam <= 1 / (2*sqrt(e)*d - 1) for max degree d >= 1."""
    lam = _exact(lam)
    if d < 1:
        raise ValueError("max degree d must be >= 1, got %d" % d)
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    if lam == 0:
        return True
    # lam*(2*sqrt(e)*d - 1) <= 1  <=>  sqrt(e) <= (1 + lam) / (2*lam*d)
    return sqrt_e_leq((1 + lam) / (2 * lam * d))


# --- counting-ratio bounds -------------------------------------------------


def ratio_bounds(graph: Graph) -> dict:
    """Worst-case one-defect-to-valid counting ratios for the two samplers.

    Sink-free orientations: at most n(n-1) single-sink orientations per
    sink-free one (connected non-tree graphs). Rooted spanning trees: at
    most m*n single-cycle arrow maps per tree (connected graphs).
    """
    n, m = graph.num_vertices, graph.num_edges
    connected = graph.is_connected()
    return {
        "sink_free": {
            "bound": n * (n - 1),
            "applicable": connected and not graph.is_tree(),
        },
        "spanning_tree": {"bound": m * n, "applicable": connected},
    }


# --- exact path analytics --------------------------------------------------


def path_partition(k: int, lam) -> list[Fraction]:
    """Partition values I_0..I_k of hard-core paths: I_j sums lam^|S| over
    independent subsets of a j-vertex path (I_0 = 1, I_1 = lam + 1)."""
    lam = _exact(lam)
    if k < 0:
        raise ValueError("k must be nonnegative")
    vals = [Fraction(1), lam + 1]
    while len(vals) <= k:
        vals.append(vals[-1] + lam * vals[-2])
    return vals[: k + 1]


class PathEndpointMatrix(FrozenRecord):
    """Joint endpoint-occupation distribution of a hard-core k-path."""

    _fields = ("k", "lam", "w")

    @property
    def det(self) -> Fraction:
        return self.w[0][0] * self.w[1][1] - self.w[0][1] * self.w[1][0]

    def to_json(self) -> dict:
        return {**fields_json(self), "det": str(self.det)}


def endpoint_matrix(k: int, lam) -> PathEndpointMatrix:
    """Exact endpoint matrix W_k = [[I_{k-2}, lam*I_{k-3}], [lam*I_{k-3},
    lam^2*I_{k-4}]] / I_k for k >= 4."""
    lam = _exact(lam)
    if k < 4:
        raise ValueError("endpoint matrix needs path length k >= 4, got %d" % k)
    i = path_partition(k, lam)
    denominator = i[k]
    w00 = i[k - 2] / denominator
    w01 = lam * i[k - 3] / denominator
    w11 = lam * lam * i[k - 4] / denominator
    return PathEndpointMatrix(k, lam, ((w00, w01), (w01, w11)))


def corner_matrix(k: int, lam) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Unnormalized corner matrix [[I_{k-2}, I_{k-3}], [I_{k-3}, I_{k-4}]]."""
    lam = _exact(lam)
    if k < 4:
        raise ValueError("corner matrix needs k >= 4, got %d" % k)
    i = path_partition(k, lam)
    return ((i[k - 2], i[k - 3]), (i[k - 3], i[k - 4]))


def alpha(lam) -> float:
    """Asymptotic endpoint-occupation rate 2*lam / (2*lam + sqrt(4*lam+1) + 1)."""
    lam = float(Fraction(lam)) if not isinstance(lam, float) else lam
    if lam < 0:
        raise ValueError("lam must be nonnegative")
    return 2 * lam / (2 * lam + sqrt(4 * lam + 1) + 1)


# --- disjoint-paths experiment ---------------------------------------------


def disjoint_paths_graph(n: int, L: int) -> Graph:
    """n/L vertex-disjoint paths of L vertices each, numbered consecutively."""
    if L < 1 or n % L != 0:
        raise ValueError("need L >= 1 dividing n, got n=%d L=%d" % (n, L))
    if n < L:
        raise ValueError("need n >= L, got n=%d L=%d" % (n, L))
    edges = []
    for start in range(0, n, L):
        edges.extend((v, v + 1) for v in range(start, start + L - 1))
    return make_graph(n, edges)


def disjoint_paths_experiment(
    n: int, L: int, lam, trials: int, base_seed: int, round_cap: int = 10 ** 6
) -> dict:
    """Sample hard-core configurations on disjoint L-paths.

    Aggregates per-trial rounds/resamples and the empirical joint endpoint
    occupation per path, and includes the exact endpoint matrix for
    comparison when L >= 4. Returns a JSON-ready report with CSV-ready rows
    (n, L, lam, trial, rounds, resamples).
    """
    lam = _exact(lam)
    if trials < 1:
        raise ValueError("trials must be >= 1, got %d" % trials)
    graph = disjoint_paths_graph(n, L)
    counts = [[0, 0], [0, 0]]
    rows = []
    total_rounds = 0
    for t in range(trials):
        cfg = SamplerConfig(
            seed=derive_seed(base_seed, t), round_cap=round_cap, record_log=False
        )
        occupied, stats = hardcore_sample(graph, lam, cfg)
        for start in range(0, n, L):
            counts[1 if start in occupied else 0][
                1 if start + L - 1 in occupied else 0
            ] += 1
        rows.append((n, L, str(lam), t, stats.rounds, stats.total_resamples))
        total_rounds += stats.rounds
    paths = trials * (n // L)
    report = {
        "n": n,
        "L": L,
        "lam": str(lam),
        "trials": trials,
        "base_seed": base_seed,
        "mean_rounds": total_rounds / trials,
        "endpoint_freq": [[c / paths for c in row] for row in counts],
        "rows": rows,
    }
    if L >= 4:
        exact = endpoint_matrix(L, lam)
        report["endpoint_exact"] = [[float(x) for x in row] for row in exact.w]
    return report
