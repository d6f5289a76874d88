"""Exact treewidth and balanced-separator search at desk scale.

Treewidth is computed by branch and bound over elimination orderings
(Gogate & Dechter, UAI 2004), deciding width levels top-down.  The min-fill
heuristic gives the first upper bound; minor-min-width and the exact clique
number (omega - 1 <= tw) give the static lower bound.  Each level asks a
depth-first search whether some ordering stays within upper-1: a success
lowers the upper bound to the width of the ordering found, and the first
refutation proves the upper bound exact.  All levels share one memo of
refuted alive-sets, which is sound because a set refuted at width L is
refuted at every width below L.  The search never branches on the vertices
of one clique, which it eliminates last: by the clique-last lemma
(Bodlaender, Fomin, Koster, Kratsch & Thilikos, "On exact algorithms for
treewidth", 2012; proof at _decide_width) some optimal ordering ends with
any given clique, so every refutation stays exact.  At each node a
candidate whose child is in the memo is skipped first; among the rest, a
simplicial or almost-simplicial vertex of small enough degree is eliminated
without branching (the safe reduction of Bodlaender & Koster, "Safe
separators for treewidth", 2006).  For graphs known to be vertex-transitive
the root eliminates vertex 0 only, and N(0), a clique below the root, is
the clique kept.

balanced_separator_search exhaustively looks for a vertex set X of bounded
size whose removal splits the graph into parts A and B with no A-B edge and
|V-X|/3 <= |A|, |B| <= 2|V-X|/3, the balance of Robertson & Seymour (Graph
Minors II, 1986); it certifies non-existence within the cap.  The parts are
grouped greedily, largest component first, which is exact for this balance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import accumulate, combinations
from math import comb

from .cliques import Budget, BudgetExhausted, max_clique
from .errors import MalformedTreeError, TooLargeError
from .graph import Graph, bits
from .td import TreeDecomposition, width

VERTEX_CAP = 64
CLIQUE_NODE_BUDGET = 2_000_000
SEPARATOR_CANDIDATES = 10**6

EXACT = "exact"
UPPER_BOUND_ONLY = "upper_bound_only"

FOUND = "found"      # a width level with an ordering that stays within it
REFUTED = "refuted"  # a width level proven out of reach


@dataclass
class SolveResult:
    value: int
    status: str  # EXACT or UPPER_BOUND_ONLY
    lower: int
    upper: int
    order: list[int] | None
    decomposition: TreeDecomposition | None
    nodes: int
    memo_hits: int  # candidates skipped because their child was refuted
    forced: int     # nodes cut to one child by the (almost-)simplicial rule
    kept: int       # size of the clique the search never branches on
    elapsed: float
    # one (width, FOUND or REFUTED, nodes) per decided level, in order
    levels: list[tuple[int, str, int]] = field(default_factory=list)


def min_fill_order(g: Graph) -> tuple[int, list[int]]:
    """Min-fill elimination heuristic; returns (width, ordering)."""
    n = g.n_vertices
    rows = list(g.rows)
    alive = (1 << n) - 1
    order = []
    w = -1 if n == 0 else 0
    while alive:
        best_v, best_fill = -1, None
        for v in bits(alive):
            nb = rows[v] & alive
            fill = sum((nb & ~rows[u] & ~(1 << u)).bit_count() for u in bits(nb))
            if best_fill is None or fill < best_fill:
                best_v, best_fill = v, fill
                if fill == 0:
                    break
        v = best_v
        nb = rows[v] & alive
        w = max(w, nb.bit_count())
        for u in bits(nb):
            rows[u] |= nb & ~(1 << u)
        order.append(v)
        alive ^= 1 << v
    return w, order


def minor_min_width(g: Graph) -> int:
    """Minor-min-width lower bound: repeatedly contract a minimum-degree
    vertex into its least-connected neighbor, tracking the max min-degree."""
    n = g.n_vertices
    rows = list(g.rows)
    alive = (1 << n) - 1
    mmw = 0
    while alive.bit_count() >= 2:
        v, dv = -1, None
        for u in bits(alive):
            d = (rows[u] & alive).bit_count()
            if dv is None or d < dv:
                v, dv = u, d
        mmw = max(mmw, dv)
        nv = rows[v] & alive
        if not nv:
            alive ^= 1 << v
            continue
        u, common = -1, None
        for w2 in bits(nv):
            c = (rows[w2] & nv).bit_count()
            if common is None or c < common:
                u, common = w2, c
        # contract v into u
        rows[u] = (rows[u] | nv) & ~(1 << u) & ~(1 << v)
        for w2 in bits(nv):
            if w2 != u:
                rows[w2] = (rows[w2] | (1 << u)) & ~(1 << v)
        alive ^= 1 << v
    return mmw


def clique_lower_bound(g: Graph, time_budget: float | None = None) -> int:
    """Exact maximum clique size (omega - 1 <= tw).  If CLIQUE_NODE_BUDGET or
    the time budget runs out the best clique found is still a valid bound
    and is returned."""
    return max_clique(g.rows, node_budget=CLIQUE_NODE_BUDGET, time_budget=time_budget).size


def decomposition_from_order(g: Graph, order: list[int]) -> TreeDecomposition:
    """Tree decomposition induced by an elimination ordering: bag(v) is v
    plus its (fill-in) neighborhood at elimination time, attached to the bag
    of the earliest-eliminated other member."""
    n = g.n_vertices
    if n == 0:
        return TreeDecomposition(0, [0], [])
    if sorted(order) != list(range(n)):
        raise MalformedTreeError(f"elimination order is not a permutation of 0..{n - 1}")
    rows = list(g.rows)
    alive = (1 << n) - 1
    pos = {v: i for i, v in enumerate(order)}
    bags = []
    for v in order:
        nb = rows[v] & alive & ~(1 << v)
        bags.append((1 << v) | nb)
        for u in bits(nb):
            rows[u] |= nb & ~(1 << u)
        alive ^= 1 << v
    edges = []
    for i, v in enumerate(order):
        rest = bags[i] & ~(1 << v)
        if rest:
            parent = min(bits(rest), key=pos.__getitem__)
            edges.append((i, pos[parent]))
        elif i + 1 < n:
            edges.append((i, i + 1))
    return TreeDecomposition(n, bags, edges)


def _clique_but_one(rows: list[int], nb: int) -> bool:
    """Is nb a clique in rows once at most one of its vertices is left out?

    Let u be the first vertex of nb that misses another vertex of nb.  The
    vertex w left out must be u or, when u misses exactly one, that one:
    any other w leaves u and a vertex it misses in the set.  Vertices of nb
    before u miss nothing, so only those after u are checked against nb - w.
    """
    # the search's hot path walks sparse masks inline: O(popcount) per
    # walk, where bits() costs O(bit_length) (2.2x slower on G(28,0.3))
    mm = nb
    while mm:
        low = mm & -mm
        mm ^= low
        miss = nb & ~rows[low.bit_length() - 1] & ~low
        if miss:
            break
    else:
        return True
    for w in (low, miss) if miss & (miss - 1) == 0 else (low,):
        clique = nb & ~w
        rest = mm & ~w
        while rest:
            low = rest & -rest
            rest ^= low
            if clique & ~rows[low.bit_length() - 1] & ~low:
                break
        else:
            return True
    return False


def _decide_width(rows0: list[int], target: int, failed: set[int], roots: list[int],
                  budget: Budget, keep: int) -> list[int] | None:
    """An ordering whose elimination degrees are all <= target, or None if refuted.

    `failed` holds the alive-sets refuted so far and gains every one refuted
    here; a set refuted at some width is refuted at every smaller one, so
    callers that decide widths in descending order may share it.  The root
    branches only on the vertices in `roots`, which lie outside the mask
    `keep`; no node below it branches on a vertex of `keep`, and the leaf
    (at most target + 1 vertices alive) appends whatever is still alive,
    `keep` last, so an ordering found ends with `keep`.  Each node ticks
    `budget`, which also tallies memo hits and forced nodes.

    `keep` must be a clique of every graph below the root.  The clique-last
    lemma (Bodlaender, Fomin, Koster, Kratsch & Thilikos, "On exact
    algorithms for treewidth", 2012) makes every refutation exact under this
    restriction: for any clique W of H, some ordering of width tw(H) ends
    with W.  A minimal triangulation H' of H with clique number tw(H) + 1 is
    chordal; if it is not complete it has two non-adjacent simplicial
    vertices (Dirac), and at most one of them lies in the clique W.
    Eliminating the other, v, costs deg(v) <= tw(H), keeps W a clique, and
    leaves a subgraph of the chordal H' - v; repeat.  So an alive-set is
    refuted under `keep` only if it is refuted outright, and the memo stays
    sound whatever clique the caller keeps.

    A candidate v (deg(v) <= target) whose child alive - v is in `failed` is
    skipped first, as a memo hit, before any test of its neighbourhood.
    Among the others, a v whose neighbourhood N(v) is a clique (simplicial),
    or is a clique once one vertex w is left out (almost simplicial;
    Bodlaender & Koster, "Safe separators for treewidth", 2006), is
    eliminated without branching; _clique_but_one finds w.  Eliminating v
    adds only the edges from w to N(v) - w, so the graph left is the one
    that contracting vw gives: a minor of the current graph, whose
    treewidth is no larger.  Hence the current graph has width <= target
    iff the graph left does, since v costs deg(v) <= target.  Skipping such
    a v on a memo hit is sound too: its child is refuted, so the node is.

    The vertices the search may branch on travel down twice: as an
    ascending list `free`, which the scan walks, and inside the mask
    `alive`, which also holds `keep`, cuts neighbourhoods and keys the memo.
    """
    order: list[int] = []

    def dfs(rows: list[int], alive: int, free: list[int], scan: list[int]) -> bool:
        if alive.bit_count() <= target + 1:
            order.extend(free + bits(alive & keep))
            return True
        budget.tick()
        cands = []
        for v in scan:
            nb = rows[v] & alive
            if nb.bit_count() <= target:
                if alive & ~(1 << v) in failed:
                    budget.memo_hits += 1
                elif _clique_but_one(rows, nb):
                    budget.forced += 1
                    cands = [(v, nb)]
                    break
                else:
                    cands.append((v, nb))
        for v, nb in cands:
            new_rows = rows.copy()
            mm = nb
            while mm:
                lo2 = mm & -mm
                mm ^= lo2
                new_rows[lo2.bit_length() - 1] |= nb & ~lo2
            child = free.copy()
            child.remove(v)
            order.append(v)
            if dfs(new_rows, alive & ~(1 << v), child, child):
                return True
            order.pop()
        failed.add(alive)
        return False

    free = [v for v in range(len(rows0)) if not keep >> v & 1]
    return order if dfs(rows0, (1 << len(rows0)) - 1, free, roots) else None


def treewidth_exact(g: Graph, node_budget: int | None = None,
                    time_budget: float | None = None,
                    vertex_transitive: bool = False) -> SolveResult:
    """Exact treewidth for graphs of at most VERTEX_CAP vertices.

    Starts from the min-fill upper bound and the static lower bound
    max(minor-min-width, omega - 1), then decides widths top-down: it asks
    for an ordering of width upper-1; a success lowers `upper` to the width
    of the ordering found and asks again, and the first refutation proves
    lower = upper.  One refutation memo serves every level, since a set
    refuted at width L is refuted below L too.  `levels` records each
    decision as (width, "found" or "refuted", nodes); `memo_hits` counts
    candidates skipped because their child was already refuted, a check
    made before the (almost-)simplicial test, and `forced` the nodes that
    this rule cut to one child among the candidates left.

    The search never branches on the clique `keep`, whose size is `kept`:
    the members of one max_clique call, whose result is a clique even when
    its budget cuts it short, so any such result is sound.  The static
    bound's omega still comes from clique_lower_bound, a second, separate
    clique search that the benchmark's tracer wraps to read omega.

    vertex_transitive=True lets the root eliminate only vertex 0: some
    automorphism maps the first vertex of an optimal ordering to 0.  The
    clique kept is then N(0), which that elimination makes a clique.  Pass
    it only for graphs known to be vertex-transitive, such as K_q(n,k,t)
    built from its parameters (GL(n,q) is transitive on k-subspaces and
    keeps intersection dimensions); on other graphs the result may be wrong.

    node_budget and time_budget make one cliques.Budget for all levels.  A
    run that spends it returns UPPER_BOUND_ONLY with the best ordering
    found; its `lower` is only the static bound, since no level below the
    upper bound has been refuted yet.
    """
    n = g.n_vertices
    if n > VERTEX_CAP:
        raise TooLargeError(f"{n} vertices exceeds solver cap {VERTEX_CAP}")
    budget = Budget(node_budget, time_budget)
    if n == 0:
        return SolveResult(-1, EXACT, -1, -1, [], TreeDecomposition(0, [0], []),
                           0, 0, 0, 0, time.monotonic() - budget.start)

    upper, best_order = min_fill_order(g)
    # omega - 1 <= minor-min-width: a clique search cut short leaves `lower` as is
    omega = clique_lower_bound(g, time_budget=budget.deadline - time.monotonic())
    lower = max(minor_min_width(g), omega - 1, 0)
    if vertex_transitive:
        keep, roots = g.rows[0], [0]
    else:
        keep = max_clique(g.rows, node_budget=CLIQUE_NODE_BUDGET,
                          time_budget=budget.deadline - time.monotonic()).members
        roots = [v for v in range(n) if not keep >> v & 1]

    failed: set[int] = set()
    levels: list[tuple[int, str, int]] = []
    status = EXACT
    try:
        while lower < upper:
            before = budget.nodes
            attempt = _decide_width(g.rows, upper - 1, failed, roots, budget, keep)
            levels.append((upper - 1, REFUTED if attempt is None else FOUND, budget.nodes - before))
            if attempt is None:
                lower = upper
            else:
                upper, best_order = width(decomposition_from_order(g, attempt)), attempt
    except BudgetExhausted:
        status = UPPER_BOUND_ONLY

    elapsed = time.monotonic() - budget.start
    decomposition = decomposition_from_order(g, best_order)
    return SolveResult(upper, status, lower, upper, best_order, decomposition,
                       budget.nodes, budget.memo_hits, budget.forced, keep.bit_count(),
                       elapsed, levels)


# -- balanced separators ------------------------------------------------------


@dataclass
class SeparatorWitness:
    separator: int  # vertex bitmask X
    side_a: int     # union of components assigned to A
    side_b: int     # the remaining components


def _components(rows: list[int], alive: int) -> list[int]:
    # hot in balanced_separator_search; the inline walk is O(popcount) per
    # frontier where bits() is O(bit_length) (2.3x slower on the 5x6 grid)
    comps = []
    rest = alive
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                nxt |= rows[v] & alive & ~comp
            comp |= nxt
            frontier = nxt
        comps.append(comp)
        rest &= ~comp
    return comps


def balanced_separator_search(g: Graph, size_cap: int):
    """Smallest vertex set X with |X| <= size_cap such that V - X splits
    into parts A, B (unions of components, no A-B edge) with

        lo = ceil(r/3)  <=  |A|, |B|  <=  hi = floor(2r/3),   r = |V - X|.

    Exhaustive over all candidate sets in deterministic order; returns a
    SeparatorWitness or None when none exists within the cap, or raises
    TooLargeError first if there are more than SEPARATOR_CANDIDATES sets.

    For each X, A takes the components of G - X largest first until
    |A| >= lo; a balanced split exists iff then |A| <= hi (lo + hi = r, so
    |B| = r - |A| is in range too).  This is exact: if the largest
    component c1 has at least lo vertices, A = c1, and when c1 > hi every
    union containing c1 is above hi while every union without it has at
    most r - c1 < lo vertices.  If c1 < lo, the sum is at most lo - 1
    before its last step and that step adds at most lo - 1, so it stops at
    most at 2lo - 2 <= hi.
    """
    n = g.n_vertices
    counts = accumulate(comb(n, size) for size in range(min(size_cap, n) + 1))
    if any(count > SEPARATOR_CANDIDATES for count in counts):
        raise TooLargeError(f"separator search over more than {SEPARATOR_CANDIDATES} sets")
    full = (1 << n) - 1
    for size in range(min(size_cap, n) + 1):
        for combo in combinations(range(n), size):
            x_mask = 0
            for v in combo:
                x_mask |= 1 << v
            rest = full & ~x_mask
            r = rest.bit_count()
            lo, hi = -(-r // 3), 2 * r // 3
            side_a = 0
            for c in sorted(_components(g.rows, rest), key=int.bit_count, reverse=True):
                if side_a.bit_count() >= lo:
                    break
                side_a |= c
            if side_a.bit_count() <= hi:
                return SeparatorWitness(x_mask, side_a, rest & ~side_a)
    return None
