"""Seeded, stdlib-only input generator for the benchmark.

Every input is a pure function of the workload seed and is written as the
text formats the ``prsampling`` CLI reads (edge lists and DIMACS), so that
parsing is part of the measured set-up. The generator deliberately does not
use ``prsampling.graphs.random_regular_graph``: that wraps networkx, and the
inputs must not change when the package's dependencies do.
"""

from __future__ import annotations

import random


def random_regular_edges(n: int, d: int, rng: random.Random) -> list[tuple[int, int]]:
    """A connected simple d-regular graph on n vertices, as sorted (u, v), u < v.

    Configuration (pairing) model with rejection: shuffle n*d points, pair
    them up, and start again on a loop, a repeated edge or a disconnected
    result. Accepted graphs are uniform among simple d-regular graphs,
    conditioned on being connected.
    """
    if n * d % 2 or d >= n:
        raise ValueError("no simple %d-regular graph on %d vertices" % (d, n))
    points = [v for v in range(n) for _ in range(d)]
    while True:
        rng.shuffle(points)
        edges = set()
        for k in range(0, len(points), 2):
            u, v = points[k], points[k + 1]
            e = (u, v) if u < v else (v, u)
            if u == v or e in edges:
                break
            edges.add(e)
        else:
            edges = sorted(edges)
            if is_connected(n, edges):
                return edges


def is_connected(n: int, edges) -> bool:
    adjacency = adjacency_sets(n, edges)
    seen = {0}
    stack = [0]
    while stack:
        for u in adjacency[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == n


def adjacency_sets(n: int, edges) -> list[set[int]]:
    adjacency = [set() for _ in range(n)]
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return sorted(edges)


def petersen_edges() -> list[tuple[int, int]]:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return sorted((min(u, v), max(u, v)) for u, v in outer + inner + spokes)


def random_kcnf(
    num_vars: int, num_clauses: int, k: int, rng: random.Random
) -> list[tuple[int, ...]]:
    """A random non-extremal k-CNF: k distinct variables per clause, random signs.

    Rejects the (vanishingly rare) draw in which every pair of clauses
    sharing a variable disagrees in sign somewhere, so that ``extremal_prs``
    does not apply and ``general_prs`` has to grow Res beyond Bad.
    """
    variables = range(1, num_vars + 1)
    while True:
        clauses = [
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(variables, k))
            for _ in range(num_clauses)
        ]
        if not cnf_is_extremal(clauses):
            return clauses


def cnf_is_extremal(clauses) -> bool:
    """Does every pair of clauses sharing a variable disagree in some sign?"""
    by_var: dict[int, list[int]] = {}
    for ci, clause in enumerate(clauses):
        for lit in clause:
            by_var.setdefault(abs(lit), []).append(ci)
    signs = [{abs(lit): lit > 0 for lit in clause} for clause in clauses]
    for ids in by_var.values():
        for a in ids:
            for b in ids:
                if a < b:
                    shared = signs[a].keys() & signs[b].keys()
                    if all(signs[a][v] == signs[b][v] for v in shared):
                        return False
    return True


def edge_list_text(edges) -> str:
    return "".join("%d %d\n" % e for e in edges)


def dimacs_text(num_vars: int, clauses) -> str:
    lines = ["p cnf %d %d" % (num_vars, len(clauses))]
    lines.extend(" ".join(map(str, clause)) + " 0" for clause in clauses)
    return "\n".join(lines) + "\n"
