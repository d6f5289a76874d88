import pytest

from bruteforce import max_clique_brute, maximum_independent_sets_brute
from qkneser.ekr import (
    is_independent,
    max_independent_set_exact,
    nest_family,
    point_pencil,
    write_vertex_set,
)
from qkneser.cliques import max_clique
from qkneser.errors import DimMismatchError, OutOfRangeError
from qkneser.families import complete_graph, petersen_graph, random_graph
from qkneser.gf import make_field
from qkneser.graph import Graph, bits, build_qkneser
from qkneser.qcount import Params, alpha_formula, gauss
from qkneser.subspace import canonicalize, enumerate_subspaces
from qkneser.verify import unit_subspace


@pytest.fixture(scope="module")
def k2421():
    return build_qkneser(Params(4, 2, 1, 2))


# ---------------------------------------------------------------------------
# extremal families
# ---------------------------------------------------------------------------

def test_point_pencil_sizes(k2421):
    pencil = point_pencil(k2421, unit_subspace(2, 4, 1))
    assert pencil.bit_count() == 7 == gauss(3, 1, 2)
    assert is_independent(k2421, pencil)
    g5 = build_qkneser(Params(5, 2, 1, 2))
    pencil5 = point_pencil(g5, unit_subspace(2, 5, 1))
    assert pencil5.bit_count() == 15 == gauss(4, 1, 2)
    assert is_independent(g5, pencil5)


def test_point_pencil_any_center(k2421):
    # size and independence are invariant under the choice of t-subspace
    f2 = make_field(2)
    for t_space in enumerate_subspaces(f2, 4, 1):
        pencil = point_pencil(k2421, t_space)
        assert pencil.bit_count() == 7
        assert is_independent(k2421, pencil)


def test_point_pencil_dim_mismatch(k2421):
    with pytest.raises(DimMismatchError):
        point_pencil(k2421, unit_subspace(2, 4, 2))


def test_nest_family(k2421):
    nest = nest_family(k2421, unit_subspace(2, 4, 3))
    assert nest.bit_count() == 7 == gauss(3, 2, 2)
    assert is_independent(k2421, nest)
    g63 = build_qkneser(Params(6, 3, 2, 2))
    nest63 = nest_family(g63, unit_subspace(2, 6, 4))
    assert nest63.bit_count() == 15 == gauss(4, 3, 2)
    assert is_independent(g63, nest63)


def test_families_need_subspace_labels():
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(OutOfRangeError, match="no subspace labels"):
        point_pencil(g, unit_subspace(2, 4, 1))
    with pytest.raises(OutOfRangeError, match="no subspace labels"):
        nest_family(g, unit_subspace(2, 4, 3))


def test_nest_family_requires_n_equals_2k():
    g = build_qkneser(Params(5, 2, 1, 2))
    with pytest.raises(OutOfRangeError):
        nest_family(g, unit_subspace(2, 5, 4))


def test_nest_family_dim_mismatch(k2421):
    with pytest.raises(DimMismatchError):
        nest_family(k2421, unit_subspace(2, 4, 2))


# ---------------------------------------------------------------------------
# independence predicate
# ---------------------------------------------------------------------------

def test_is_independent_basics(k2421):
    assert is_independent(k2421, 0)
    assert is_independent(k2421, 1 << 3)
    u = 0
    v = (k2421.rows[0] & -k2421.rows[0]).bit_length() - 1
    assert not is_independent(k2421, (1 << u) | (1 << v))


@pytest.mark.parametrize("members", [1 << 35, 1 << 40 | 1, -1, -(1 << 34)])
def test_is_independent_rejects_masks_outside_the_graph(k2421, members):
    # K_2(4,2,1) has 35 vertices
    with pytest.raises(OutOfRangeError):
        is_independent(k2421, members)
    assert is_independent(k2421, 1 << 34)


# ---------------------------------------------------------------------------
# exact solver
# ---------------------------------------------------------------------------

def test_mis_matches_alpha_formula(k2421):
    r = max_independent_set_exact(k2421)
    assert r.exact and r.size == 7 == alpha_formula(Params(4, 2, 1, 2))
    assert r.members.bit_count() == 7
    assert is_independent(k2421, r.members)


def test_mis_on_complete_graph():
    r = max_independent_set_exact(complete_graph(9))
    assert r.exact and r.size == 1


def test_mis_budget_exhaustion_is_flagged(k2421):
    r = max_independent_set_exact(k2421, node_budget=0)
    assert not r.exact
    assert 1 <= r.size <= 7
    assert is_independent(k2421, r.members)


def test_rooted_mis_matches_unrooted_on_vertex_transitive_graphs(k2421):
    circulants = [Graph.from_edges(m, [(i, (i + s) % m) for i in range(m) for s in steps])
                  for m in range(3, 14) for steps in ([1], [1, m // 2], range(1, m // 3 + 1))]
    for g in circulants + [petersen_graph(), k2421, build_qkneser(Params(5, 2, 1, 2))]:
        plain = max_independent_set_exact(g)
        rooted = max_independent_set_exact(g, vertex_transitive=True)
        assert rooted.exact and rooted.size == plain.size
        assert rooted.members & 1 and rooted.members.bit_count() == rooted.size
        assert is_independent(g, rooted.members)


def test_rooted_clique_search_holds_its_root():
    # the largest clique through each root, and omega over all roots
    for seed in range(4):
        g = random_graph(14, 0.5, seed)
        omega = max_clique(g.rows).size
        sizes = []
        for v in range(14):
            r = max_clique(g.rows, root=v)
            assert r.exact and r.members >> v & 1 and r.members.bit_count() == r.size
            assert all(r.members & ~g.rows[u] == 1 << u for u in bits(r.members))
            sizes.append(r.size)
        assert max(sizes) == omega


def test_rooted_mis_is_exact_on_k2631():
    # 1,395 vertices: the unrooted search is still open after 400,000 nodes
    g = build_qkneser(Params(6, 3, 1, 2))
    r = max_independent_set_exact(g, node_budget=5_000, vertex_transitive=True)
    assert r.exact and r.size == 155 == alpha_formula(Params(6, 3, 1, 2))
    assert is_independent(g, r.members)


def test_mis_agrees_with_brute_force_clique_of_complement():
    for seed, m in ((1, 18), (2, 19), (3, 20)):
        g = random_graph(m, 0.5, seed)
        r = max_independent_set_exact(g)
        assert r.exact
        assert r.size == max_clique_brute(g.complement())


# ---------------------------------------------------------------------------
# classification of all maximum independent sets at n = 2k
# ---------------------------------------------------------------------------

def test_k2421_maximum_independent_sets_are_pencils_or_nests(k2421):
    f2 = make_field(2)
    maxima = maximum_independent_sets_brute(k2421)
    assert all(s.bit_count() == 7 for s in maxima)
    pencils = {point_pencil(k2421, t) for t in enumerate_subspaces(f2, 4, 1)}
    nests = {nest_family(k2421, w) for w in enumerate_subspaces(f2, 4, 3)}
    assert len(pencils) == 15 and len(nests) == 15
    assert not pencils & nests
    assert set(maxima) == pencils | nests
    assert len(maxima) == 30


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_write_vertex_set(tmp_path):
    path = tmp_path / "witness.txt"
    write_vertex_set(0b101001, path)
    assert path.read_text() == "1\n4\n6\n"
