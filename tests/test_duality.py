"""The one rule for n < 2k: U -> U^perp maps K_q(n,k,t) onto
K_q(n, n-k, t-(2k-n)), and the graph has no edges when t <= 2k-n.

The rule is checked on the built graphs themselves, label by label, and
then through every formula and command that goes through it."""

import pytest

from qkneser.cli import main
from qkneser.ekr import max_independent_set_exact
from qkneser.graph import build_qkneser, build_qkneser_all_t, edge_count
from qkneser.qcount import Params, alpha_formula, degree_formula, gauss, tw_value
from qkneser.verify import buildable_instances

ROWS = [Params(n, k, t, q) for q, n, k in buildable_instances() for t in range(1, k)]

# the four co-Grassmann graphs with n < 2k whose value the rule corrects:
# (vertices, delta, alpha, tw), with tw = |V| - alpha - 1
CORRECTED = {
    Params(5, 3, 2, 2): (155, 112, 15, 139),
    Params(6, 4, 3, 2): (651, 560, 31, 619),
    Params(5, 3, 2, 3): (1210, 1053, 40, 1169),
    Params(7, 5, 4, 2): (2667, 2480, 63, 2603),
}


def dual(p):
    """The image K_q(n, n-k, t-(2k-n)) of U -> U^perp, None with no edges."""
    t = p.t - (2 * p.k - p.n)
    return Params(p.n, p.n - p.k, t, p.q) if t >= 1 else None


def test_the_grid_has_139_rows_and_131_below_2k():
    assert len(ROWS) == 139
    assert sum(p.n < 2 * p.k for p in ROWS) == 131


def test_perp_maps_rows_onto_rows_of_the_dual():
    checked = edgeless = 0
    for q, n, k in buildable_instances():
        if n >= 2 * k or gauss(n, k, q) > 700:
            continue
        graphs, _ = build_qkneser_all_t(n, k, q)
        for t, g in graphs.items():
            d = dual(g.meta)
            if d is None:
                assert t <= 2 * k - n and edge_count(g) == 0
                edgeless += 1
                continue
            h = build_qkneser(d)
            index = {s: i for i, s in enumerate(h.labels)}
            image = [index[s.perp()] for s in g.labels]
            assert sorted(image) == list(range(h.n_vertices))
            for u, row in enumerate(g.rows):
                mapped = sum(1 << image[v] for v in range(g.n_vertices) if row >> v & 1)
                assert mapped == h.rows[image[u]], (g.meta, u)
            checked += 1
    # only K_2(5,3,2) and K_2(6,4,3) have edges; hyperplanes of F_q^n, for
    # one, meet in dimension n-2 = k-1 >= t
    assert (checked, edgeless) == (2, 101)


@pytest.mark.parametrize("p", ROWS, ids=lambda p: f"q{p.q}n{p.n}k{p.k}t{p.t}")
def test_formulas_agree_with_the_dual(p):
    d = dual(p)
    if d is None:
        assert (tw_value(p), alpha_formula(p), degree_formula(p)) == (0, gauss(p.n, p.k, p.q), 0)
    else:
        assert dual(d) == p
        assert tw_value(p) == tw_value(d)
        assert alpha_formula(p) == alpha_formula(d)
        assert degree_formula(p) == degree_formula(d)


def test_only_one_row_has_no_tw_value():
    assert [p for p in ROWS if tw_value(p) is None] == [Params(6, 3, 1, 2)]


@pytest.mark.parametrize("p", CORRECTED, ids=lambda p: f"q{p.q}n{p.n}k{p.k}t{p.t}")
def test_corrected_rows_through_params_and_decompose(p, tmp_path, capsys):
    vertices, delta, alpha, tw = CORRECTED[p]
    args = ["-q", str(p.q), "-n", str(p.n), "-k", str(p.k), "-t", str(p.t)]
    assert main(["params", *args]) == 0
    report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert (report["vertices"], report["delta"], report["alpha"], report["tw"]) == \
        (str(vertices), str(delta), str(alpha), str(tw))
    assert main(["decompose", *args, "--out", str(tmp_path / "d.td")]) == 0
    report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert (report["pencil_size"], report["width"], report["valid"],
            report["width_matches_formula"]) == (str(alpha), str(tw), "true", "true")


def test_alpha_of_k2_532_by_the_exact_solver():
    # isomorphic to the pinned K_2(5,2,1), so the search costs the same
    r = max_independent_set_exact(build_qkneser(Params(5, 3, 2, 2)))
    assert r.exact and r.size == 15 == alpha_formula(Params(5, 3, 2, 2))
