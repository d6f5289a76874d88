import random
import time
from itertools import combinations

import pytest

from bruteforce import (
    balanced_separator_brute,
    elimination_width,
    max_clique_brute,
    tw_by_orderings,
    tw_by_subset_dp,
)
from qkneser import twsolve
from qkneser.cliques import Budget, max_clique
from qkneser.errors import MalformedTreeError, TooLargeError
from qkneser.families import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    petersen_graph,
    random_graph,
    random_tree,
)
from qkneser.graph import Graph, build_cograssmann, build_qkneser
from qkneser.qcount import Params
from qkneser.td import validate, width
from qkneser.twsolve import (
    EXACT,
    FOUND,
    REFUTED,
    UPPER_BOUND_ONLY,
    SeparatorWitness,
    _clique_but_one,
    balanced_separator_search,
    clique_lower_bound,
    decomposition_from_order,
    min_fill_order,
    minor_min_width,
    treewidth_exact,
)
from qkneser.verify import _separator_ok


# ---------------------------------------------------------------------------
# known values
# ---------------------------------------------------------------------------

def test_complete_graphs():
    for m in range(1, 9):
        r = treewidth_exact(complete_graph(m))
        assert r.status == EXACT and r.value == m - 1


def test_paths_and_trees():
    for g in (path_graph(4), path_graph(12), random_tree(15, 3), random_tree(20, 4)):
        r = treewidth_exact(g)
        assert r.status == EXACT and r.value == 1


def test_cycles():
    for m in (4, 6, 9):
        assert treewidth_exact(cycle_graph(m)).value == 2


def test_grid_3x3():
    assert treewidth_exact(grid_graph(3, 3)).value == 3


def test_petersen():
    r = treewidth_exact(petersen_graph())
    assert r.status == EXACT and r.value == 4


def test_empty_and_trivial():
    assert treewidth_exact(Graph.from_edges(0, [])).value == -1
    assert treewidth_exact(Graph.from_edges(1, [])).value == 0
    assert treewidth_exact(Graph.from_edges(4, [])).value == 0


# ---------------------------------------------------------------------------
# oracle agreement
# ---------------------------------------------------------------------------

def test_subset_dp_matches_literal_orderings_on_tiny_graphs():
    for seed in range(10):
        g = random_graph(6, 0.45, seed)
        assert tw_by_subset_dp(g) == tw_by_orderings(g)


def test_solver_matches_subset_dp_on_random_graphs():
    for seed in range(15):
        g = random_graph(5 + seed % 5, 0.2 + 0.06 * (seed % 7), 1000 + seed)
        r = treewidth_exact(g)
        assert r.status == EXACT
        assert r.value == tw_by_subset_dp(g), f"seed {seed}"


def _static_lower(g):
    return max(minor_min_width(g), clique_lower_bound(g) - 1, 0)


def _check_levels(g, r):
    """Levels descend strictly, every level but the last is a success, their
    nodes add up to the total, and an exact value above the static lower
    bound is settled by refuting value-1."""
    widths = [w for w, _, _ in r.levels]
    assert widths == sorted(set(widths), reverse=True)
    assert all(verdict in (FOUND, REFUTED) and nodes >= 0 for _, verdict, nodes in r.levels)
    assert all(verdict == FOUND for _, verdict, _ in r.levels[:-1])
    assert sum(nodes for _, _, nodes in r.levels) == r.nodes
    if r.status == EXACT and r.value > _static_lower(g):
        assert r.levels[-1][:2] == (r.value - 1, REFUTED)


def test_descending_solver_matches_subset_dp_on_110_random_graphs():
    for seed in range(110):
        g = random_graph(4 + seed % 9, 0.15 + 0.07 * (seed % 10), 7000 + seed)
        r = treewidth_exact(g)
        assert r.status == EXACT
        assert r.value == tw_by_subset_dp(g), f"seed {seed}"
        assert width(r.decomposition) == r.value
        _check_levels(g, r)


def test_levels_descend_through_successes_to_one_refutation():
    multi = 0
    for m in (16, 18, 20, 22):
        for seed in range(12):
            g = random_graph(m, 0.3 + 0.05 * (seed % 4), 100 * m + seed)
            r = treewidth_exact(g)
            assert r.status == EXACT
            assert width(r.decomposition) == r.value
            _check_levels(g, r)
            multi += len(r.levels) >= 2
    # several of these graphs improve on min-fill before the refutation
    assert multi >= 5


def test_vertex_transitive_root_gives_the_same_value():
    # the co-Grassmann graph at (4,2) over GF(2) is K_2(4,2,1) itself
    kq = build_qkneser(Params(4, 2, 1, 2))
    assert build_cograssmann(4, 2, 2).rows == kq.rows
    for g in (cycle_graph(5), cycle_graph(8), complete_graph(6), petersen_graph(), kq):
        plain = treewidth_exact(g)
        pruned = treewidth_exact(g, vertex_transitive=True)
        assert pruned.status == plain.status == EXACT
        assert pruned.value == plain.value
        assert validate(g, pruned.decomposition).valid
        assert width(pruned.decomposition) == pruned.value
        _check_levels(g, pruned)
    # the last pair is K_2(4,2,1)
    assert pruned.value == 27 and pruned.levels == [(26, REFUTED, pruned.nodes)]
    assert pruned.nodes <= 3000 < plain.nodes


# ---------------------------------------------------------------------------
# the (almost-)simplicial rule and the refutation memo
# ---------------------------------------------------------------------------

def _is_clique(rows, mask):
    return all(not (mask & ~rows[v] & ~(1 << v))
               for v in range(len(rows)) if mask >> v & 1)


def test_clique_but_one_matches_brute_force():
    for seed in range(300):
        n = 1 + seed % 9
        g = random_graph(n, (seed % 9 + 1) / 10, 9000 + seed)
        nb = random.Random(seed).getrandbits(n)
        expect = _is_clique(g.rows, nb) or any(
            _is_clique(g.rows, nb & ~(1 << w)) for w in range(n) if nb >> w & 1)
        assert _clique_but_one(g.rows, nb) == expect, seed


class _OnceOnlyMemo(set):
    """A refutation memo that fails when a refuted set is searched again."""

    def add(self, key):
        assert key not in self, "a refuted alive-set was searched again"
        super().add(key)


def _chorded_cycle(m, chords, seed):
    rng = random.Random(seed)
    pairs = [(u, v) for u, v in combinations(range(m), 2) if 1 < v - u < m - 1]
    edges = [(i, (i + 1) % m) for i in range(m)] + rng.sample(pairs, chords)
    return Graph.from_edges(m, edges)


def _sparse_corpus():
    """Graphs where almost-simplicial vertices are common: sparse G(m, p),
    trees and cycles with chords, each with whether it is vertex-transitive.
    G(m, 0.4) branches more, so the memo gets hits."""
    for m in range(6, 14):
        for p in (0.1, 0.2, 0.4):
            for seed in range(3):
                yield random_graph(m, p, 100 * m + int(10 * p) + seed), False
        yield random_tree(m, 40 + m), False
        for chords in (1, 2, 3):
            yield _chorded_cycle(m, chords, 10 * m + chords), False
        yield cycle_graph(m), True


def test_almost_simplicial_rule_and_memo_match_subset_dp():
    # most of these graphs are settled by the static bounds, so each one is
    # also decided directly at tw (found) and tw - 1 (refuted), sharing one
    # memo as treewidth_exact does
    stats = Budget()
    for g, transitive in _sparse_corpus():
        n = g.n_vertices
        tw = tw_by_subset_dp(g)
        for vt in {False, transitive}:
            r = treewidth_exact(g, vertex_transitive=vt)
            assert r.status == EXACT and r.value == tw, (g.rows, vt)
            assert validate(g, r.decomposition).valid
            _check_levels(g, r)
            memo = _OnceOnlyMemo()
            roots = [0] if vt else list(range(n))
            for target in (tw, tw - 1):
                order = twsolve._decide_width(g.rows, target, memo, roots, stats, keep=0)
                assert (order is not None) == (target == tw), (g.rows, vt, target)
                if order is not None:
                    assert sorted(order) == list(range(n))
                    assert elimination_width(g, order) <= target
    # the corpus exercises both the rule and the memo
    assert stats.forced > 0 and stats.memo_hits > 0


def _cliques_to_keep(g, rng):
    """Cliques W of g: empty, one vertex, one edge, a greedy maximal clique
    from a random start and a maximum clique."""
    n = g.n_vertices
    out = [0, 1 << rng.randrange(n)]
    edges = [(u, v) for u, v in combinations(range(n), 2) if g.rows[u] >> v & 1]
    if edges:
        u, v = rng.choice(edges)
        out.append(1 << u | 1 << v)
    maximal, cand = 0, (1 << n) - 1
    for v in rng.sample(range(n), n):
        if cand >> v & 1:
            maximal |= 1 << v
            cand &= g.rows[v]
    maximum = max_clique(g.rows).members
    assert maximum.bit_count() == max_clique_brute(g)
    return out + [maximal, maximum]


def test_kept_clique_comes_last_and_keeps_refutations_exact():
    # the clique-last lemma: for every clique W some ordering of width tw
    # ends with W, so a search that never branches on W finds one at tw and
    # still refutes tw - 1, sharing one memo as treewidth_exact does
    rng = random.Random(20261020)
    stats = Budget()
    kept_sizes = set()
    for seed in range(200):
        n = 1 + seed % 12
        g = random_graph(n, (seed % 9 + 1) / 10, 11000 + seed)
        tw = tw_by_subset_dp(g)
        for keep in _cliques_to_keep(g, rng):
            assert _is_clique(g.rows, keep)
            kept_sizes.add(keep.bit_count())
            memo = _OnceOnlyMemo()
            roots = [v for v in range(n) if not keep >> v & 1]
            order = twsolve._decide_width(g.rows, tw, memo, roots, stats, keep=keep)
            assert order is not None and sorted(order) == list(range(n)), (seed, keep)
            assert elimination_width(g, order) <= tw, (seed, keep)
            tail = order[n - keep.bit_count():]
            assert sum(1 << v for v in tail) == keep, (seed, keep, order)
            assert twsolve._decide_width(g.rows, tw - 1, memo, roots, stats, keep=keep) is None
    assert max(kept_sizes) >= 5 and stats.memo_hits > 0 and stats.forced > 0


def _circulant(m, steps):
    return Graph.from_edges(m, [(i, (i + s) % m) for i in range(m) for s in steps])


def test_vertex_transitive_search_matches_subset_dp_on_circulants():
    # the root eliminates vertex 0 and keeps N(0), a clique below the root
    rng = random.Random(20261021)
    for m in range(3, 14):
        for _ in range(5):
            steps = rng.sample(range(1, m // 2 + 1), rng.randint(1, max(1, m // 3)))
            g = _circulant(m, steps)
            r = treewidth_exact(g, vertex_transitive=True)
            assert r.status == EXACT and r.value == tw_by_subset_dp(g), (m, steps)
            assert r.kept == g.rows[0].bit_count()
            assert validate(g, r.decomposition).valid
            _check_levels(g, r)


def test_kept_is_a_maximum_clique_unless_vertex_transitive():
    for g in (petersen_graph(), grid_graph(3, 4), random_graph(12, 0.5, 3)):
        assert treewidth_exact(g).kept == clique_lower_bound(g)
    assert treewidth_exact(petersen_graph(), vertex_transitive=True).kept == 3
    assert treewidth_exact(Graph.from_edges(0, [])).kept == 0


def test_grids_are_refuted_within_a_small_node_budget():
    # a grid has no simplicial vertex, but every vertex of degree <= 2, a
    # corner among them, is almost simplicial; without the rule 5x6 took
    # 9.2M nodes
    for rows, cols in ((5, 5), (5, 6)):
        r = treewidth_exact(grid_graph(rows, cols), node_budget=20_000)
        assert r.status == EXACT and r.value == 5
        assert r.levels == [(4, REFUTED, r.nodes)]


def test_node_ceiling_on_the_sparse_exact_workload_graph():
    # G(28, 0.3) of the benchmark's exact workload: 7,014 nodes with the
    # kept clique and the memo checked first, 13,820 with the rule alone
    # (30,160 without it)
    r = treewidth_exact(random_graph(28, 0.3, 28300))
    assert r.status == EXACT and r.value == 14
    assert r.nodes <= 20_000
    assert r.memo_hits > 0 and r.forced > 0


def test_node_ceilings_with_the_kept_clique():
    # the search takes 7,014, 10,784 and 1,001 nodes here; with no kept
    # clique it takes 16,153, 19,688 and 2,553
    r = treewidth_exact(random_graph(28, 0.3, 28300))
    assert r.value == 14 and r.status == EXACT and r.nodes <= 8_000
    r = treewidth_exact(random_graph(36, 0.5, 36501))
    assert r.value == 25 and r.status == EXACT and r.nodes <= 12_000
    r = treewidth_exact(build_qkneser(Params(4, 2, 1, 2)), vertex_transitive=True)
    assert r.value == 27 and r.status == EXACT and r.nodes <= 1_200


# ---------------------------------------------------------------------------
# certificates and bounds
# ---------------------------------------------------------------------------

def test_certificates_are_valid_decompositions():
    for g in (petersen_graph(), grid_graph(3, 3), random_graph(9, 0.5, 7)):
        r = treewidth_exact(g)
        assert r.order is not None
        assert elimination_width(g, r.order) == r.value
        d = r.decomposition
        assert width(d) == r.value
        assert validate(g, d).valid


def test_decomposition_from_order_any_order():
    g = petersen_graph()
    order = list(range(10))
    d = decomposition_from_order(g, order)
    assert validate(g, d).valid
    assert width(d) == elimination_width(g, order)


def test_decomposition_from_order_of_the_empty_graph_is_one_empty_bag():
    g = Graph([])
    d = decomposition_from_order(g, [])
    assert (d.n_vertices, d.bags, d.edges) == (0, [0], [])
    assert validate(g, d).valid and width(d) == -1


@pytest.mark.parametrize("order", [[0, 1, 2], [0, 1, 2, 3, 3], [0, 1, 2, 3, 10]])
def test_decomposition_from_order_rejects_non_permutation(order):
    with pytest.raises(MalformedTreeError, match="not a permutation"):
        decomposition_from_order(cycle_graph(4), order)


def test_bound_helpers_bracket_treewidth():
    for seed in range(8):
        g = random_graph(9, 0.4, 50 + seed)
        tw = tw_by_subset_dp(g)
        ub, order = min_fill_order(g)
        assert elimination_width(g, order) == ub >= tw
        assert minor_min_width(g) <= tw
        assert clique_lower_bound(g) - 1 <= tw
        assert clique_lower_bound(g) == max_clique_brute(g)


def test_clique_lower_bound_examples():
    assert clique_lower_bound(complete_graph(6)) == 6
    assert clique_lower_bound(cycle_graph(5)) == 2
    from qkneser.graph import build_qkneser
    from qkneser.qcount import Params

    # maximum partial 2-spread of F_2^4: five pairwise-disjoint 2-subspaces
    assert clique_lower_bound(build_qkneser(Params(4, 2, 1, 2))) == 5


def test_clique_bound_never_exceeds_minor_min_width():
    # minor_min_width contracts a minimum-degree vertex v into a neighbour;
    # that never deletes an edge between two live vertices, so a maximum
    # clique stays a clique until its first vertex leaves, and that vertex,
    # the minimum-degree one at that step, has degree >= omega - 1.  So the
    # omega - 1 of clique_lower_bound never raises treewidth_exact's static
    # lower bound max(minor-min-width, omega - 1).
    rng = random.Random(20240803)
    graphs = [random_graph(rng.randint(1, 18), rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]), seed)
              for seed in range(300)]
    graphs += [complete_graph(m) for m in range(1, 9)] + [cycle_graph(m) for m in range(3, 9)]
    graphs += [path_graph(6), grid_graph(4, 5), random_tree(15, 7), petersen_graph(),
               build_qkneser(Params(4, 2, 1, 2))]
    for g in graphs:
        assert clique_lower_bound(g) - 1 <= minor_min_width(g)


def test_budget_zero_reports_bracket_only():
    g = petersen_graph()
    r = treewidth_exact(g, time_budget=0)
    assert r.status == UPPER_BOUND_ONLY
    assert r.lower <= 4 <= r.upper == r.value
    assert width(r.decomposition) == r.upper


def test_node_budget_mid_search_keeps_the_best_ordering_and_static_lower():
    # G(36, 0.5): the search finds width 25 in ~1.6k nodes, then needs
    # ~18k more to refute 24; a budget of 5000 stops it in that refutation
    g = random_graph(36, 0.5, 36501)
    r = treewidth_exact(g, node_budget=5000)
    assert r.status == UPPER_BOUND_ONLY
    assert r.lower == _static_lower(g) < r.upper == r.value == 25
    assert width(r.decomposition) == r.upper
    assert validate(g, r.decomposition).valid
    assert r.levels == [(25, FOUND, r.levels[0][2])]


def test_budget_admits_exactly_node_budget_nodes():
    # one Budget spans the levels: the 5000 nodes are shared between the
    # level found and the level cut short
    g = random_graph(36, 0.5, 36501)
    assert treewidth_exact(g, node_budget=5000).nodes == 5000
    # the MIS search of K_2(4,2,1) takes 35 nodes
    rows = build_qkneser(Params(4, 2, 1, 2)).complement().rows
    assert max_clique(rows).nodes == 35
    for budget in (0, 1, 34):
        r = max_clique(rows, node_budget=budget)
        assert not r.exact and r.nodes == budget


def test_vertex_cap_guard():
    with pytest.raises(TooLargeError):
        treewidth_exact(complete_graph(65))


# ---------------------------------------------------------------------------
# balanced separators
# ---------------------------------------------------------------------------

def _witness_is_valid(g, w, cap):
    full = (1 << g.n_vertices) - 1
    assert w.separator | w.side_a | w.side_b == full
    assert not (w.separator & w.side_a or w.separator & w.side_b or w.side_a & w.side_b)
    assert w.separator.bit_count() <= cap
    m = w.side_a
    while m:
        low = m & -m
        assert not g.rows[low.bit_length() - 1] & w.side_b
        m ^= low
    rest = (w.side_a | w.side_b).bit_count()
    for part in (w.side_a, w.side_b):
        assert 3 * part.bit_count() >= rest
        assert 3 * part.bit_count() <= 2 * rest


def test_separator_path_midpoint():
    g = path_graph(5)
    w = balanced_separator_search(g, 1)
    assert w is not None and w.separator == 0b00100
    _witness_is_valid(g, w, 1)


def test_separator_none_for_k5_cap3():
    assert balanced_separator_search(complete_graph(5), 3) is None


def test_separator_exists_for_petersen_within_tw_plus_one():
    g = petersen_graph()
    w = balanced_separator_search(g, 5)
    assert w is not None
    _witness_is_valid(g, w, 5)


def test_separator_trivial_full_removal():
    g = complete_graph(4)
    w = balanced_separator_search(g, 4)
    assert w is not None and w.separator.bit_count() == 4
    assert w.side_a == w.side_b == 0


def test_separator_guards():
    # the guard counts candidate sets, sum of C(n, s) for s <= cap, before
    # the first one: P_40 at cap 5 has 760,099 and is searched, at cap 6
    # 4,598,479 and is refused; K_40 at cap 12 (9.1e9) is refused at once,
    # and a graph above 40 vertices is searched when its count is small
    w = balanced_separator_search(path_graph(40), 5)
    assert w is not None and w.separator == 1 << 13
    with pytest.raises(TooLargeError):
        balanced_separator_search(path_graph(40), 6)
    start = time.perf_counter()
    with pytest.raises(TooLargeError):
        balanced_separator_search(complete_graph(40), 12)
    assert time.perf_counter() - start < 0.1
    w = balanced_separator_search(path_graph(41), 1)
    assert w is not None and w.separator == 1 << 14


def test_separator_property_on_exact_instances():
    for g in (cycle_graph(7), grid_graph(3, 3), random_graph(8, 0.5, 9)):
        r = treewidth_exact(g)
        assert r.status == EXACT
        w = balanced_separator_search(g, r.value + 1)
        assert w is not None
        _witness_is_valid(g, w, r.value + 1)


def test_suite_separators_finds_a_witness_on_every_corpus_graph(monkeypatch):
    from qkneser import verify

    rep = verify.suite_separators()
    assert rep.ok and rep.checks == 73 and rep.failures == []
    monkeypatch.setattr(twsolve, "balanced_separator_search", lambda g, cap: None)
    rep = verify.suite_separators()
    assert not rep.ok and rep.checks == 73 and len(rep.failures) == 73
    assert rep.failures[0] == "K_1: no separator of order <= tw+1 = 1"


def test_separator_search_matches_brute_force_on_seeded_random_graphs():
    # 160 graphs, every cap from 0 to n: the same X as the oracle (or None
    # with it), and a witness that satisfies the suite's own 1/3 - 2/3 check
    for seed in range(160):
        n = 1 + seed % 10
        g = random_graph(n, (seed % 7 + 1) / 8, 5000 + seed)
        for cap in range(n + 1):
            w = balanced_separator_search(g, cap)
            oracle = balanced_separator_brute(g, cap)
            assert (w is None) == (oracle is None), (seed, cap)
            if w is not None:
                assert w.separator == oracle[0], (seed, cap)
                assert _separator_ok(g, w), (seed, cap)


@pytest.mark.parametrize("x, a, b", [
    (0b00100, 0b00111, 0b11000),  # X and A overlap
    (0b00100, 0b00011, 0b10000),  # vertex 3 is in no part
    (0b00000, 0b00111, 0b11000),  # the edge 2-3 joins A and B
    (0b01000, 0b00111, 0b10000),  # |A| = 3 > 2/3 of |A| + |B| = 4
])
def test_separator_check_rejects_bad_witnesses(x, a, b):
    # P_5 = 0-1-2-3-4; X = {2}, A = {0, 1}, B = {3, 4} is the good split
    g = path_graph(5)
    assert _separator_ok(g, SeparatorWitness(0b00100, 0b00011, 0b11000))
    assert not _separator_ok(g, SeparatorWitness(x, a, b))


def test_separator_groups_components_largest_first():
    # a spider with legs of 3, 5 and 2 vertices: V is connected, so X = {0}
    # comes first, leaving sizes 3, 5, 2 (r = 10, parts must be 4..6).  In
    # vertex order the first two overshoot; largest first, A is the 5.
    g = Graph.from_edges(11, [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (6, 7),
                              (7, 8), (0, 9), (9, 10)])
    w = balanced_separator_search(g, 1)
    assert w is not None and _separator_ok(g, w)
    assert w.separator == 1 and w.side_a == 0b111110000
    assert balanced_separator_brute(g, 1)[0] == w.separator
