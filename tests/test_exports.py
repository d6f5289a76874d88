"""Golden digests of the .gr and star .td exports.

The bytes of both formats are a project invariant: any change to the
writers (or to vertex order, adjacency or the pencil) that alters a file
fails here.  The literals are the SHA-256 digests that the benchmark
checks against as well.
"""

import hashlib

import pytest

from qkneser.ekr import point_pencil
from qkneser.graph import build_qkneser, write_gr
from qkneser.qcount import Params
from qkneser.td import star_decomposition, write_td
from qkneser.verify import unit_subspace

DIGESTS = {
    "kq2_n7_k2_t1.gr": "a0ea189eac08cb572551ffee7868a1412240a4053b69214bce4982fc70e5b875",
    "kq3_n5_k2_t1.gr": "01f49e75877f28f87b860dbba5857d8964f960a586ed97797a1a13f1d441da79",
    "kq2_n6_k3_t2.gr": "6e78ad936c38d739151ebbedc35cf2c3285d3cc51d09f46973864b4d3b6d9814",
    "kq2_n7_k2_t1.td": "221725058557ce18037169f50a12b760b897b641951d532f50da79e845c802d2",
    "kq3_n5_k2_t1.td": "be7e80b7dc65a372586d044b54fe1a33a8b412b51df81e52c0680e35b67b3c53",
    "kq2_n6_k3_t2.td": "875cddc54f504df44629c30355561bcff18d8c2dc1f4064803ae3cabac02bca5",
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("q,n,k,t", [(2, 7, 2, 1), (3, 5, 2, 1), (2, 6, 3, 2)])
def test_exports_match_golden_digests(tmp_path, q, n, k, t):
    g = build_qkneser(Params(n, k, t, q))
    stem = f"kq{q}_n{n}_k{k}_t{t}"
    gr, td = tmp_path / f"{stem}.gr", tmp_path / f"{stem}.td"
    write_gr(g, gr)
    write_td(star_decomposition(g, point_pencil(g, unit_subspace(q, n, t))), td)
    assert _sha256(gr) == DIGESTS[gr.name]
    assert _sha256(td) == DIGESTS[td.name]
