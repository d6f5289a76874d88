"""Degree and EKR checks on instances above the default vertex limit, and
the largest graph the CLI admits.

The meet-layer builder makes graphs of ~11,000 vertices cheap enough for
the test suite; each is built through the library with an explicit limit.
"""

import time

import pytest

from qkneser.cli import main
from qkneser.ekr import is_independent, point_pencil
from qkneser.graph import build_qkneser
from qkneser.qcount import Params, degree_formula, gauss
from qkneser.verify import unit_subspace

LIMIT = 12000


@pytest.mark.parametrize("p", [
    Params(8, 2, 1, 2),   # 10,795 vertices
    Params(6, 2, 1, 3),   # 11,011 vertices
    Params(7, 3, 1, 2),   # 11,811 vertices
    Params(7, 3, 2, 2),
], ids=str)
def test_degrees_and_point_pencil_at_scale(p):
    g = build_qkneser(p, limit=LIMIT)
    assert g.n_vertices == gauss(p.n, p.k, p.q)
    delta = degree_formula(p)
    assert all(r.bit_count() == delta for r in g.rows)
    pencil = point_pencil(g, unit_subspace(p.q, p.n, p.t))
    assert pencil.bit_count() == gauss(p.n - p.t, p.k - p.t, p.q)
    assert is_independent(g, pencil)


def test_largest_admitted_graph_decomposes(tmp_path, capsys):
    # K_8(4,2,1) has the most vertices of any build under graph.VERTEX_LIMIT;
    # its build and star certificate take ~0.15 s on a 2-core machine
    start = time.monotonic()
    assert main(["decompose", "-q", "8", "-n", "4", "-k", "2", "-t", "1",
                 "--out", str(tmp_path / "d.td")]) == 0
    assert time.monotonic() - start < 2
    out = capsys.readouterr().out.splitlines()
    assert "vertices=4745" in out and "width_matches_formula=within_window" in out
