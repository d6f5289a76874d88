"""Exact maximum-clique search on packed-bit adjacency rows.

Branch and bound with a greedy-coloring upper bound (candidates are colored
sequentially; a clique cannot exceed the number of color classes), branching
on the highest-bound candidates first.  This is the package's one clique
engine: it gives the clique lower bound for the treewidth solver and,
applied to the complement graph, the exact maximum-independent-set solver,
whose result is the same CliqueResult.

Budget bounds this search and twsolve's in nodes and wall clock; when it
runs out, the best clique found so far is returned flagged as inexact.
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


class BudgetExhausted(Exception):
    """A search used up its node or time budget."""


class Budget:
    """At most node_budget search nodes and time_budget seconds from `start`
    (None: no bound); memo_hits and forced tally the treewidth search."""

    def __init__(self, node_budget: int | None = None, time_budget: float | None = None):
        self.start = time.monotonic()
        self.node_budget = float("inf") if node_budget is None else node_budget
        self.deadline = self.start + (float("inf") if time_budget is None else time_budget)
        self.nodes = self.memo_hits = self.forced = 0

    def tick(self) -> None:
        """Admit one more node; the clock is read before the 1st, 129th, ..."""
        if self.nodes >= self.node_budget or (
                self.nodes % 128 == 0 and time.monotonic() >= self.deadline):
            raise BudgetExhausted
        self.nodes += 1


def max_clique(rows: list[int], node_budget: int | None = None,
               time_budget: float | None = None) -> CliqueResult:
    """Maximum clique of the graph given by neighbor bitmasks."""
    n = len(rows)
    budget = Budget(node_budget, time_budget)

    # greedy seed: highest-degree-first gives an initial lower bound
    order = sorted(range(n), key=lambda v: -rows[v].bit_count())
    seed = 0
    cand = (1 << n) - 1
    for v in order:
        if (cand >> v) & 1:
            seed |= 1 << v
            cand &= rows[v]
    best, members = seed.bit_count(), seed

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
        nonlocal best, members
        budget.tick()
        colored = color_order(cand)
        for v, bound in reversed(colored):
            if size + bound <= best:
                return
            new_clique = clique | (1 << v)
            new_cand = cand & rows[v]
            if new_cand:
                expand(new_cand, new_clique, size + 1)
            elif size + 1 > best:
                best, members = size + 1, new_clique
            cand ^= 1 << v

    exact = True
    if n:
        try:
            expand((1 << n) - 1, 0, 0)
        except BudgetExhausted:
            exact = False
    return CliqueResult(best, members, exact, budget.nodes, time.monotonic() - budget.start)

