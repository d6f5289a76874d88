import random
import tracemalloc
from pathlib import Path

import pytest

from bruteforce import decomposition_witnesses, uncovered_edges
from qkneser.cli import _certifies, main
from qkneser.ekr import point_pencil
from qkneser.errors import (
    MalformedFileError,
    MalformedTreeError,
    NotIndependentError,
    OutOfRangeError,
    TooLargeError,
)
from qkneser.families import cycle_graph, path_graph, random_graph
from qkneser.graph import VERTEX_LIMIT, Graph, build_qkneser, build_qkneser_all_t
from qkneser.qcount import Params, tw_value
from qkneser.td import (
    TreeDecomposition,
    read_td,
    star_decomposition,
    validate,
    width,
    write_td,
)
from qkneser.twsolve import decomposition_from_order
from qkneser.verify import buildable_instances, star_certificate, suite_td, unit_subspace

ARTIFACTS = Path(__file__).resolve().parents[1] / "artifacts"


# ---------------------------------------------------------------------------
# validator
# ---------------------------------------------------------------------------

def test_single_bag_is_valid():
    g = cycle_graph(5)
    d = TreeDecomposition(5, [0b11111], [])
    assert validate(g, d).valid
    assert width(d) == 4


def test_path_decomposition_of_path():
    g = path_graph(3)
    d = TreeDecomposition(3, [0b011, 0b110], [(0, 1)])
    report = validate(g, d)
    assert report.valid
    assert width(d) == 1


def test_uncovered_edge_witness():
    g = Graph.from_edges(3, [(0, 2)])
    d = TreeDecomposition(3, [0b011, 0b100], [(0, 1)])
    report = validate(g, d)
    assert not report.valid
    assert report.uncovered_vertex is None and report.incoherent_vertex is None
    assert report.uncovered_edge == (0, 2)


def test_uncovered_edge_is_first_of_several():
    # (1, 3) and (2, 3) are both uncovered; (0, 3) is inside the second bag
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (1, 3), (0, 3)])
    d = TreeDecomposition(4, [0b0111, 0b1001], [(0, 1)])
    assert uncovered_edges(g, d.bags) == [(1, 3), (2, 3)]
    assert validate(g, d).uncovered_edge == (1, 3)


def _random_decomposition(rng, g):
    """A random bag tree: either the valid decomposition of a random
    elimination order with random vertices dropped from its bags, or random
    bags on a random tree with shuffled bag ids and edge directions."""
    n = g.n_vertices
    if rng.random() < 0.5:
        order = list(range(n))
        rng.shuffle(order)
        d = decomposition_from_order(g, order)
        drop = rng.choice([0, 0, 1, 3])
        for _ in range(drop):
            i = rng.randrange(len(d.bags))
            d.bags[i] &= ~(1 << rng.randrange(n))
        return d
    b = rng.randint(1, 8)
    bags = [rng.getrandbits(n) for _ in range(b)]
    ids = rng.sample(range(b), b)
    edges = [(ids[i], ids[rng.randrange(i)])[::rng.choice([1, -1])] for i in range(1, b)]
    return TreeDecomposition(n, bags, edges)


def test_uncovered_edge_matches_pairwise_oracle():
    """All three witnesses of validate against the per-vertex BFS oracle."""
    rng = random.Random(20240801)
    seen_valid = seen_several = seen_incoherent = 0
    for i in range(300):
        g = random_graph(rng.randint(2, 14), rng.choice([0.2, 0.5, 0.8]), i)
        d = _random_decomposition(rng, g)
        report = validate(g, d)
        expected = decomposition_witnesses(g, d.bags, d.edges)
        assert (report.uncovered_vertex, report.uncovered_edge,
                report.incoherent_vertex) == expected
        assert report.valid == (expected == (None, None, None))
        seen_valid += report.valid
        seen_several += len(uncovered_edges(g, d.bags)) >= 2
        seen_incoherent += expected[2] is not None
    assert seen_valid >= 30 and seen_several >= 30 and seen_incoherent >= 30


def test_uncovered_vertex_witness():
    g = Graph.from_edges(3, [])
    d = TreeDecomposition(3, [0b001, 0b010], [(0, 1)])
    report = validate(g, d)
    assert not report.valid and report.uncovered_vertex == 2


def test_incoherent_vertex_witness():
    # vertex 0 appears in bags 0 and 2, absent from the middle of the path
    g = Graph.from_edges(2, [])
    d = TreeDecomposition(2, [0b01, 0b10, 0b01], [(0, 1), (1, 2)])
    report = validate(g, d)
    assert not report.valid and report.incoherent_vertex == 0


def test_malformed_trees_rejected():
    g = path_graph(3)
    for bags, edges, reason in [
        ([0b111, 0b111], [], "need 1 tree edges"),  # too few edges
        ([0b111] * 3, [(0, 1), (1, 2), (2, 0)], "need 2 tree edges"),  # too many edges
        ([], [], "no bags"),
        ([0b111, 0b111], [(1, 1)], "bad tree edge"),  # a self-loop
        ([0b111, 0b111], [(0, 2)], "bad tree edge"),  # a bag id out of range
        ([0b111, 0b111], [(-1, 0)], "bad tree edge"),  # a negative bag id
        # b - 1 edges, one of them repeated, so bag 2 is never reached
        ([0b111] * 3, [(0, 1), (1, 0)], "do not connect all bags"),
    ]:
        with pytest.raises(MalformedTreeError, match=reason):
            validate(g, TreeDecomposition(3, bags, edges))
    with pytest.raises(MalformedTreeError, match="over 5 vertices"):
        validate(g, TreeDecomposition(5, [0b11111], []))  # wrong vertex range
    with pytest.raises(MalformedTreeError, match="no bags"):
        width(TreeDecomposition(3, [], []))


def test_bag_vertex_outside_graph_rejected():
    # n_vertices agrees with the graph, but a bag holds vertex 3 of 0..2
    g = Graph.from_edges(3, [(0, 1)])
    with pytest.raises(MalformedTreeError, match="vertex 3"):
        validate(g, TreeDecomposition(3, [0b1111], []))
    with pytest.raises(MalformedTreeError):
        validate(g, TreeDecomposition(3, [0b111, 0b1 << 40], [(0, 1)]))


@pytest.mark.parametrize("bags, edges", [
    ([-1], []),  # bit_count() reads |-1|: one vertex, width 0
    ([0b111, -2], [(0, 1)]),
    ([-8, 0b111], [(1, 0)]),
])
def test_negative_bag_rejected(bags, edges):
    g = Graph.from_edges(3, [(0, 1)])  # one edge: treewidth 1
    d = TreeDecomposition(3, bags, edges)
    with pytest.raises(MalformedTreeError, match="negative"):
        validate(g, d)
    assert not _certifies(g, d, 0) and not _certifies(g, d, width(d))


# ---------------------------------------------------------------------------
# star decomposition
# ---------------------------------------------------------------------------

def test_star_on_c5():
    g = cycle_graph(5)
    independent = 0b00101  # vertices 0 and 2
    d = star_decomposition(g, independent)
    assert validate(g, d).valid
    assert width(d) == 2  # max(5-2-1, deg 2) matches tw(C5)


def test_star_rejects_dependent_sets():
    g = cycle_graph(5)
    with pytest.raises(NotIndependentError):
        star_decomposition(g, 0b00011)


@pytest.mark.parametrize("members", [1 << 5, 1 << 7 | 1, -1, -4])
def test_star_rejects_sets_outside_the_graph(members):
    with pytest.raises(OutOfRangeError):
        star_decomposition(cycle_graph(5), members)


def test_star_with_empty_set_degenerates():
    g = cycle_graph(5)
    d = star_decomposition(g, 0)
    assert len(d.bags) == 1 and width(d) == 4
    assert validate(g, d).valid


def test_star_on_qkneser_pencil():
    g = build_qkneser(Params(4, 2, 1, 2))
    pencil = point_pencil(g, unit_subspace(2, 4, 1))
    d = star_decomposition(g, pencil)
    assert validate(g, d).valid
    assert width(d) == max(35 - 7 - 1, 16) == 27
    assert len(d.bags) == 8


def test_star_width_monotone_under_smaller_independent_set():
    g = build_qkneser(Params(4, 2, 1, 2))
    pencil = point_pencil(g, unit_subspace(2, 4, 1))
    smaller = pencil & (pencil - 1)  # drop one vertex
    w_small = width(star_decomposition(g, smaller))
    assert w_small == 28 >= width(star_decomposition(g, pencil))


@pytest.mark.parametrize("params, width_, verdict", [
    (Params(5, 2, 1, 2), 139, "true"),            # complement Grassmann formula
    (Params(4, 2, 1, 2), 27, "within_window"),    # the open q=2 window [19, 27]
    # hyperplanes of F_2^4 meet in a plane, so the graph is edgeless: the
    # nest is all 15 vertices, the center bag is empty and tw = 0
    (Params(4, 3, 1, 2), 0, "true"),
])
def test_star_certificate_verdicts(params, width_, verdict):
    cert = star_certificate(build_qkneser(params))
    assert cert.report.valid
    assert (cert.width, cert.verdict) == (width_, verdict)
    assert cert.formula == tw_value(params)
    assert cert.family.bit_count() == len(cert.decomposition.bags) - 1


def test_star_certificate_on_every_buildable_row():
    verdicts = {}
    for q, n, k in buildable_instances():
        graphs, _ = build_qkneser_all_t(n, k, q)
        for t, g in graphs.items():
            cert = star_certificate(g)
            assert cert.report.valid, g.meta
            verdicts[cert.verdict] = verdicts.get(cert.verdict, 0) + 1
    # the two within_window rows are K_2(4,2,1) and K_3(4,2,1); the one
    # undefined row is K_2(6,3,1)
    assert verdicts == {"true": 136, "within_window": 2, "undefined": 1}


def test_decompose_refutes_a_formula_above_the_validated_width(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("qkneser.verify.tw_value", lambda p: 140)
    code = main(["decompose", "-q", "2", "-n", "5", "-k", "3", "-t", "2",
                 "--out", str(tmp_path / "d.td")])
    out = capsys.readouterr().out
    assert "width=139\n" in out and "valid=true\n" in out
    assert "width_matches_formula=refuted\n" in out
    assert code == 1


def test_suite_td_checks_and_lines():
    rep = suite_td()
    assert rep.ok and rep.checks == 6
    assert rep.lines == [
        "q-Kneser q=2 n=7 k=2 t=1: width 2603 = formula, validator passed (64 bags)",
        "complement Grassmann q=2 n=5 k=2: width 139 = formula, validator passed (16 bags)",
        "complement Grassmann q=2 n=5 k=3: width 139 = formula, validator passed (16 bags)",
    ]


def test_star_all_vertices_of_edgeless_graph():
    g = Graph.from_edges(3, [])
    d = star_decomposition(g, 0b111)
    assert validate(g, d).valid
    assert width(d) == 0
    assert d.bags[0] == 0  # empty center bag is allowed


# ---------------------------------------------------------------------------
# .td round-trips
# ---------------------------------------------------------------------------

def test_td_roundtrip(tmp_path):
    g = cycle_graph(5)
    d = star_decomposition(g, 0b00101)
    path = tmp_path / "c5.td"
    write_td(d, path)
    back = read_td(path)
    assert back.n_vertices == d.n_vertices
    assert back.bags == d.bags
    assert sorted(back.edges) == sorted(d.edges)
    assert validate(g, back).valid
    header = path.read_text().splitlines()[0]
    assert header == f"s td {len(d.bags)} {width(d) + 1} 5"


def test_td_roundtrip_with_empty_bag(tmp_path):
    d = TreeDecomposition(3, [0, 0b111], [(0, 1)])
    path = tmp_path / "e.td"
    write_td(d, path)
    assert read_td(path).bags == [0, 0b111]


def test_td_parse_errors(tmp_path):
    bad = tmp_path / "bad.td"
    bad.write_text("b 1 1 2\ns td 1 2 3\n")
    with pytest.raises(MalformedFileError):
        read_td(bad)
    bad.write_text("s td 2 2 3\nb 1 1 2\n")
    with pytest.raises(MalformedFileError):
        read_td(bad)  # bag 2 missing
    bad.write_text("s td 1 2 3\nb 1 1 9\n")
    with pytest.raises(MalformedFileError):
        read_td(bad)  # vertex out of range
    bad.write_text("s td x y z\n")
    with pytest.raises((MalformedFileError, ValueError)):
        read_td(bad)


@pytest.mark.parametrize("text,lineno", [
    ("s td x y z\n", 1),
    ("s td 1 2 3\nb\n", 2),
    ("s td 1 2 3\nb one 1 2\n", 2),
    ("s td 1 2 3\nb 1 1 two\n", 2),
    ("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 z\n", 4),
])
def test_td_rejects_non_integer_tokens_and_missing_bag_id(tmp_path, text, lineno):
    path = tmp_path / "bad.td"
    path.write_text(text)
    with pytest.raises(MalformedFileError, match=f"bad.td:{lineno}:"):
        read_td(path)


def test_td_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "latin1.td"
    path.write_bytes(b"c caf\xe9\ns td 1 1 1\nb 1 1\n")
    with pytest.raises(MalformedFileError, match="latin1.td: not UTF-8 text"):
        read_td(path)


def test_td_declaring_many_bags_is_rejected_without_allocating_them(tmp_path):
    path = tmp_path / "many.td"
    path.write_text("s td 1000000 1 1")
    tracemalloc.start()
    try:
        with pytest.raises(MalformedFileError, match=r"expected bag ids 1\.\.1000000"):
            read_td(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_td_declaring_too_many_vertices_is_too_large(tmp_path):
    path = tmp_path / "wide.td"
    path.write_text("s td 1 1 8000000\nb 1 8000000\n")
    with pytest.raises(TooLargeError, match=f"wide.td:1: 8000000 vertices exceed vertex limit {VERTEX_LIMIT}"):
        read_td(path)
    path.write_text(f"s td 1 1 {VERTEX_LIMIT}\nb 1 {VERTEX_LIMIT}\n")
    assert read_td(path).bags == [1 << (VERTEX_LIMIT - 1)]


def test_td_max_bag_size_must_match_the_largest_bag(tmp_path):
    path = tmp_path / "size.td"
    ten = " ".join(str(v) for v in range(1, 11))
    path.write_text(f"s td 1 2 10\nb 1 {ten}\n")
    with pytest.raises(MalformedFileError,
                       match="size.td: `s td` line declares max bag size 2, largest bag has 10"):
        read_td(path)
    path.write_text("s td 2 3 3\nb 1 1 2\nb 2 2 3\n1 2\n")
    with pytest.raises(MalformedFileError, match="max bag size 3, largest bag has 2"):
        read_td(path)
    path.write_text(f"s td 1 10 10\nb 1 {ten}\n")
    assert read_td(path).bags == [(1 << 10) - 1]
    # the empty decomposition declares 0; the shipped certificate agrees
    path.write_text("s td 0 0 0\n")
    assert read_td(path).bags == []
    assert width(read_td(ARTIFACTS / "cograssmann_q2_n4_k2.td")) == 27


def test_td_negative_counts_are_malformed(tmp_path):
    path = tmp_path / "neg.td"
    path.write_text("s td -1 0 -1\n")
    with pytest.raises(MalformedFileError, match="neg.td:1: negative count"):
        read_td(path)


# small tokens and raw bytes spliced into valid .td files; every number
# stays small, so no declared count asks for a large allocation
_TD_TOKENS = ["x", "+3", "٣", "-1", "0", "2", "49", "b", "s", "td", "c", "1.5", "", "\t", "é"]
_TD_BYTES = [b"\xff", b"\xc3", b"\x80", b"\r", b"\n", b" "]


def _mutated_td(rng: random.Random, path) -> bytes:
    g = random_graph(rng.randint(1, 12), rng.random(), seed=rng.randrange(10**6))
    write_td(decomposition_from_order(g, rng.sample(range(g.n_vertices), g.n_vertices)), path)
    lines = path.read_text().splitlines()
    for _ in range(rng.randint(0, 3)):
        at = rng.randrange(len(lines))
        tokens = lines[at].split()
        action = rng.randrange(4)
        if action == 0 and tokens:
            tokens[rng.randrange(len(tokens))] = rng.choice(_TD_TOKENS)
        elif action == 1:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(_TD_TOKENS))
        elif action == 2:
            lines.insert(at, lines[at])
            continue
        else:
            del lines[at]
            if not lines:
                break
            continue
        lines[at] = " ".join(tokens)
    data = bytearray("\n".join(lines).encode("utf-8"))
    if rng.random() < 0.2:
        at = rng.randint(0, len(data))
        data[at:at] = rng.choice(_TD_BYTES)
    return bytes(data)


def test_read_td_gives_a_decomposition_or_malformed_file_error(tmp_path):
    rng = random.Random(20261018)
    path = tmp_path / "fuzz.td"
    outcomes = {TreeDecomposition: 0, MalformedFileError: 0}
    for _ in range(500):
        path.write_bytes(_mutated_td(rng, path))
        try:
            result = read_td(path)
        except MalformedFileError:
            outcomes[MalformedFileError] += 1
        else:
            assert isinstance(result, TreeDecomposition)
            outcomes[TreeDecomposition] += 1
    assert min(outcomes.values()) >= 100
