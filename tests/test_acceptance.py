"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 8 is expected to fail honestly: exact arithmetic refutes the
pigeonhole inequality at five q=2, t=1 hypothesis-boundary points (n=3k+1,
4 <= k <= 8); see test output for the counterexamples.
"""

import time

from bruteforce import dim_intersection, tw_by_subset_dp
from qkneser import ekr, twsolve
from qkneser.families import petersen_graph
from qkneser.gf import make_field
from qkneser.graph import build_cograssmann, build_qkneser
from qkneser.qcount import (
    Params,
    delta_alpha_below_vertex_count,
    gauss,
    gauss_bounds_hold,
    gauss_identities_hold,
    intersect_count,
    layer_exceeds_alpha,
    pigeonhole_bound_holds,
    tw_formula_applies,
    tw_formula_cograssmann,
    tw_formula_qkneser,
)
from qkneser.subspace import enumerate_subspaces
from qkneser.td import star_decomposition, validate, width
from qkneser.verify import (
    claims_params,
    corpus,
    suite_degrees,
    suite_ekr,
    unit_subspace,
)


def _report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_counting_oracle():
    start = time.monotonic()
    checked = 0
    for q in (2, 3, 4):
        field = make_field(q)
        for n in range(7):
            for k in range(n + 1):
                count = sum(1 for _ in enumerate_subspaces(field, n, k))
                assert count == gauss(n, k, q), (q, n, k)
                checked += count
    elapsed = time.monotonic() - start
    _report(1, True, f"{checked} enumerated subspaces match gauss() exactly "
                     f"in {elapsed:.1f}s")
    assert elapsed < 60


def test_criterion_02_gauss_identities_and_bounds():
    start = time.monotonic()
    checks = 0
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in range(1, 13):
            for i in range(1, m + 1):
                assert gauss_identities_hold(m, i, q), (m, i, q)
                assert gauss_bounds_hold(m, i, q), (m, i, q)
                checks += 2
    elapsed = time.monotonic() - start
    _report(2, True, f"{checks} exact identity/bound checks in {elapsed:.1f}s")
    assert elapsed < 5


def test_criterion_03_intersection_count_oracle():
    start = time.monotonic()
    # brute force against enumerated subspaces with rank-based dimensions
    for q in (2, 3):
        field = make_field(q)
        for n in range(6):
            spaces_by_dim = {
                i: list(enumerate_subspaces(field, n, i)) for i in range(n + 1)
            }
            for j in range(n + 1):
                fixed = unit_subspace(q, n, j)
                for i in range(n + 1):
                    hist = [0] * (min(i, j) + 1)
                    for y in spaces_by_dim[i]:
                        hist[dim_intersection(fixed, y)] += 1
                    for m in range(min(i, j) + 1):
                        assert hist[m] == intersect_count(n, j, i, m, q), (q, n, j, i, m)
    # partition identity at formula scale
    for q in (2, 3, 4, 5):
        for n in range(9):
            for j in range(n + 1):
                for i in range(n + 1):
                    total = sum(intersect_count(n, j, i, m, q) for m in range(i + 1))
                    assert total == gauss(n, i, q)
    elapsed = time.monotonic() - start
    _report(3, True, f"brute-force intersection histograms and partition sums "
                     f"match in {elapsed:.1f}s")
    assert elapsed < 120


def test_criterion_04_degree_formula_on_built_graphs():
    start = time.monotonic()
    rep = suite_degrees()
    elapsed = time.monotonic() - start
    _report(4, rep.ok, f"{rep.checks} degree/histogram checks across all "
                       f"buildable instances in {elapsed:.1f}s")
    assert rep.ok, rep.failures
    assert rep.checks == 178
    assert elapsed < 300


def test_criterion_05_ekr_alpha_and_families():
    start = time.monotonic()
    rep = suite_ekr()
    elapsed = time.monotonic() - start
    _report(5, rep.ok, f"{rep.checks} family/MIS checks in {elapsed:.1f}s; "
                       + "; ".join(l for l in rep.lines if "alpha" in l))
    assert rep.ok, rep.failures
    assert rep.checks == 288
    assert elapsed < 1200


def test_criterion_06_constructive_qkneser_upper_bound():
    start = time.monotonic()
    p = Params(7, 2, 1, 2)
    g = build_qkneser(p)
    assert g.n_vertices == 2667
    pencil = ekr.point_pencil(g, unit_subspace(2, 7, 1))
    assert pencil.bit_count() == 63
    d = star_decomposition(g, pencil)
    rep = validate(g, d)
    w = width(d)
    elapsed = time.monotonic() - start
    ok = rep.valid and w == 2603 == tw_formula_qkneser(p)
    _report(6, ok, f"star decomposition of the 2667-vertex graph has width {w}, "
                   f"validator passed={rep.valid}, in {elapsed:.1f}s")
    assert ok
    assert elapsed < 600


def test_criterion_07_constructive_cograssmann_upper_bound():
    start = time.monotonic()
    g = build_cograssmann(5, 2, 2)
    pencil = ekr.point_pencil(g, unit_subspace(2, 5, 1))
    d = star_decomposition(g, pencil)
    rep = validate(g, d)
    w = width(d)
    elapsed = time.monotonic() - start
    ok = rep.valid and w == 139 == tw_formula_cograssmann(5, 2, 2)
    _report(7, ok, f"width {w}, validator passed={rep.valid}, in {elapsed:.1f}s")
    assert ok
    assert elapsed < 120


def test_criterion_08_claims_sweep():
    start = time.monotonic()
    failures = []
    for p in claims_params(qmax=9, nmax=40, kmax=8):
        if not layer_exceeds_alpha(p):
            failures.append(f"layer-count inequality fails at {p}")
        if not delta_alpha_below_vertex_count(p):
            failures.append(f"Delta + alpha >= |V| at {p}")
        if tw_formula_applies(p) and not pigeonhole_bound_holds(p):
            lhs = 3 * gauss(p.k, p.t, p.q) ** 2 * gauss(p.n - p.t - 1, p.k - p.t - 1, p.q)
            rhs = gauss(p.n - p.t, p.k - p.t, p.q)
            failures.append(
                f"pigeonhole inequality fails at {p}: {lhs} > {rhs} "
                f"(exact-arithmetic counterexample to the claimed bound)"
            )
    elapsed = time.monotonic() - start
    _report(8, not failures,
            f"claims sweep over {len(claims_params())} parameter points in "
            f"{elapsed:.1f}s; {len(failures)} counterexamples")
    for f in failures:
        print("  " + f)
    assert elapsed < 60
    assert not failures, f"{len(failures)} exact-arithmetic counterexamples (see stdout)"


def test_criterion_09_solver_sanity():
    start = time.monotonic()
    graphs = corpus()
    assert len(graphs) == 73
    for name, g in graphs:
        r = twsolve.treewidth_exact(g)
        assert r.status == twsolve.EXACT, name
        if name.startswith("K_"):
            assert r.value == g.n_vertices - 1, name
        elif name.startswith(("P_", "tree")):
            assert r.value == (1 if g.n_vertices > 1 else 0), name
        elif name.startswith("C_"):
            assert r.value == 2, name
        elif name == "grid-3x3":
            assert r.value == 3
        elif name == "petersen":
            assert r.value == 4
        else:
            assert r.value == tw_by_subset_dp(g), name
    elapsed = time.monotonic() - start
    _report(9, True, f"{len(graphs)} corpus graphs solved exactly and matched "
                     f"oracles in {elapsed:.1f}s")
    assert elapsed < 300


def test_criterion_10_separator_property():
    start = time.monotonic()
    graphs = corpus()
    assert len(graphs) == 73
    for name, g in graphs:
        w = twsolve.treewidth_exact(g)
        assert w.status == twsolve.EXACT, name
        witness = twsolve.balanced_separator_search(g, w.value + 1)
        assert witness is not None, name
        x, a, b = witness.separator, witness.side_a, witness.side_b
        assert x.bit_count() <= w.value + 1, name
        rest = (a | b).bit_count()
        for part in (a, b):
            assert 3 * part.bit_count() >= rest, name
            assert 3 * part.bit_count() <= 2 * rest, name
        m = a
        while m:
            low = m & -m
            assert not g.rows[low.bit_length() - 1] & b, name
            m ^= low
    elapsed = time.monotonic() - start
    _report(10, True, f"balanced separators of order <= tw+1 found on all "
                      f"{len(graphs)} corpus graphs in {elapsed:.1f}s")
    assert elapsed < 600


def test_criterion_11_stretch_cograssmann_window():
    start = time.monotonic()
    g = build_cograssmann(4, 2, 2)
    assert g.n_vertices == 35
    window = tw_formula_cograssmann(4, 2, 2)
    r = twsolve.treewidth_exact(g, time_budget=240)
    elapsed = time.monotonic() - start
    ok = window.lower <= r.lower and r.upper <= window.upper
    detail = (f"solver bracket [{r.lower}, {r.upper}] (status {r.status}) vs "
              f"window [{window.lower}, {window.upper}] in {elapsed:.1f}s")
    if r.status == twsolve.EXACT:
        detail += f"; exact treewidth {r.value} recorded"
        assert width(r.decomposition) == r.value
        assert validate(g, r.decomposition).valid
    _report(11, ok, detail)
    assert ok


def test_petersen_cli_fixture_matches():
    # the Petersen graph used everywhere is the set-Kneser graph K(5,2)
    g = petersen_graph()
    assert g.n_vertices == 10
    assert all(g.degree(u) == 3 for u in range(10))
