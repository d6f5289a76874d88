"""Degree and EKR checks on instances above the default vertex limit.

The meet-layer builder makes graphs of ~11,000 vertices cheap enough for
the test suite; each is built with an explicit limit.
"""

import pytest

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
