"""Small named graphs and seeded random graphs for solver validation.

These are solver test fixtures (complete graphs, paths, cycles, grids,
random trees, the Petersen graph as the set-Kneser graph K(5,2), and
Erdos-Renyi samples), not part of the finite-geometry constructions.
verify.corpus picks the sizes and seeds of the corpus that the exact
solvers are checked on.
"""

from __future__ import annotations

import random
from itertools import combinations

from .graph import Graph


def complete_graph(m: int) -> Graph:
    return Graph.from_edges(m, combinations(range(m), 2))


def path_graph(m: int) -> Graph:
    return Graph.from_edges(m, ((i, i + 1) for i in range(m - 1)))


def cycle_graph(m: int) -> Graph:
    edges = [(i, (i + 1) % m) for i in range(m)]
    return Graph.from_edges(m, edges)


def grid_graph(rows: int, cols: int) -> Graph:
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return Graph.from_edges(rows * cols, edges)


def random_tree(m: int, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v) for v in range(1, m)]
    return Graph.from_edges(m, edges)


def petersen_graph() -> Graph:
    """Set-Kneser graph K(5,2): 2-subsets of {0..4}, adjacent iff disjoint."""
    vertices = list(combinations(range(5), 2))
    index = {s: i for i, s in enumerate(vertices)}
    edges = [
        (index[a], index[b])
        for a, b in combinations(vertices, 2)
        if not set(a) & set(b)
    ]
    return Graph.from_edges(len(vertices), edges)


def random_graph(m: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [e for e in combinations(range(m), 2) if rng.random() < p]
    return Graph.from_edges(m, edges)

