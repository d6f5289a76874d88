"""Exact maximum-clique search on packed-bit adjacency rows.

Branch and bound with a greedy-coloring upper bound (candidates are colored
sequentially; a clique cannot exceed the number of color classes), branching
on the highest-bound candidates first.  This is the package's one clique
engine: it gives the clique lower bound for the treewidth solver and,
applied to the complement graph, the exact maximum-independent-set solver,
whose result is the same CliqueResult.

Budgets are node counts plus wall clock; when exceeded the best clique found
so far is returned explicitly flagged as inexact, never silently.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class CliqueResult:
    size: int
    members: int  # vertex bitmask
    exact: bool
    nodes: int
    elapsed: float


class _Budget(Exception):
    pass


def max_clique(rows: list[int], node_budget: int | None = None,
               time_budget: float | None = None) -> CliqueResult:
    """Maximum clique of the graph given by neighbor bitmasks."""
    n = len(rows)
    start = time.monotonic()
    deadline = start + time_budget if time_budget is not None else None
    state = {"nodes": 0, "best": 0, "members": 0}

    # greedy seed: highest-degree-first gives an initial lower bound
    order = sorted(range(n), key=lambda v: -rows[v].bit_count())
    seed = 0
    cand = (1 << n) - 1
    for v in order:
        if (cand >> v) & 1:
            seed |= 1 << v
            cand &= rows[v]
    state["best"] = seed.bit_count()
    state["members"] = seed

    def color_order(cand: int) -> list[tuple[int, int]]:
        """Greedy coloring; returns (vertex, color) in coloring order."""
        out = []
        color = 0
        rest = cand  # walked inline: avail shrinks by ~rows[v] at every step
        while rest:
            color += 1
            avail = rest
            while avail:
                low = avail & -avail
                v = low.bit_length() - 1
                out.append((v, color))
                rest ^= low
                avail = (avail ^ low) & ~rows[v]
        return out

    def expand(cand: int, clique: int, size: int):
        state["nodes"] += 1
        if node_budget is not None and state["nodes"] > node_budget:
            raise _Budget
        if deadline is not None and state["nodes"] % 256 == 0 and time.monotonic() > deadline:
            raise _Budget
        colored = color_order(cand)
        for v, bound in reversed(colored):
            if size + bound <= state["best"]:
                return
            new_clique = clique | (1 << v)
            new_cand = cand & rows[v]
            if new_cand:
                expand(new_cand, new_clique, size + 1)
            elif size + 1 > state["best"]:
                state["best"] = size + 1
                state["members"] = new_clique
            cand ^= 1 << v

    exact = True
    if n:
        try:
            expand((1 << n) - 1, 0, 0)
        except _Budget:
            exact = False
    return CliqueResult(state["best"], state["members"], exact,
                        state["nodes"], time.monotonic() - start)

