import random
import re
import time
import tracemalloc
from itertools import groupby

import pytest

from bruteforce import (
    dim_intersection,
    intersection_dim,
    intersection_histograms,
    pairwise_meets,
    qkneser_rows_pairwise,
    read_gr_lines,
    rref_gauss_jordan,
    transpose_bits,
    vector_masks,
)
from qkneser import graph
from qkneser.cli import main
from qkneser.errors import MalformedFileError, NotPrimePowerError, OutOfRangeError, TooLargeError
from qkneser.gf import make_field
from qkneser.graph import (
    _BATCH_HINT,
    VERTEX_LIMIT,
    Graph,
    _symmetrize,
    bits,
    build_cograssmann,
    build_qkneser,
    build_qkneser_all_t,
    edge_count,
    read_gr,
    write_gr,
)
from qkneser.qcount import Params, degree_formula, gauss, intersect_count
from qkneser.subspace import enumerate_subspaces


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_qkneser_4_2_1_2():
    g = build_qkneser(Params(4, 2, 1, 2))
    assert g.n_vertices == 35
    assert {r.bit_count() for r in g.rows} == {16}  # regular of degree 16
    assert edge_count(g) == 35 * 16 // 2 == 280


def test_qkneser_5_2_1_2_equals_cograssmann():
    g = build_qkneser(Params(5, 2, 1, 2))
    assert g.n_vertices == 155 and {r.bit_count() for r in g.rows} == {112}
    h = build_cograssmann(5, 2, 2)
    assert h.rows == g.rows  # k = 2 makes t = 1 = k-1 the same graph


def test_build_peak_memory_within_two_bit_matrices():
    # the rows are one V x V bit matrix (V^2/8 bytes); the build may hold at
    # most one more beside them, so each row is formed once, in one list
    p = Params(7, 2, 1, 2)
    build_qkneser(p)  # the first build caches the field and the layout of (q, n)
    tracemalloc.start()
    try:
        g = build_qkneser(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = g.n_vertices
    assert n == 2667 and peak <= 2 * n * n // 8


def test_qkneser_empty_when_all_pairs_intersect():
    g = build_qkneser(Params(3, 2, 1, 2))
    assert g.n_vertices == 7 and edge_count(g) == 0


def test_adjacency_is_symmetric_no_loops():
    g = build_qkneser(Params(4, 2, 1, 3))
    for u in range(g.n_vertices):
        assert not (g.rows[u] >> u) & 1
        m = g.rows[u]
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            assert (g.rows[v] >> u) & 1


def test_vertex_limit_guard():
    with pytest.raises(TooLargeError):
        build_qkneser(Params(8, 2, 1, 2), limit=5000)  # 10795 vertices


def test_oversized_build_is_refused_without_counting_its_vertices():
    # [4000,2000]_2 has over a million digits; the size gate refuses it from
    # bit lengths alone, and the message does not print the count
    start = time.monotonic()
    with pytest.raises(TooLargeError, match=r"^\[4000,2000\]_2 exceeds limit 5000$"):
        build_qkneser(Params(4000, 2000, 1, 2))
    assert time.monotonic() - start < 2.0


def test_non_prime_power_rejected_at_build():
    with pytest.raises(NotPrimePowerError):
        build_qkneser(Params(4, 2, 1, 6))


# ---------------------------------------------------------------------------
# the pairwise oracle's mask-based dimensions agree with the rank-based
# dim_intersection oracle (dual route)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 3, 2), (2, 5, 3), (4, 3, 2)])
def test_masks_reproduce_rank_based_dimensions(q, n, k):
    labels = list(enumerate_subspaces(make_field(q), n, k))
    masks = vector_masks(labels)
    for u in range(len(labels)):
        for v in range(u, len(labels)):
            assert intersection_dim(masks, q, u, v) == dim_intersection(labels[u], labels[v])


# direct side (2k < n), n = 2k, dual side (2k > n), k = n-1, k = n, GF(3), GF(4)
@pytest.mark.parametrize("q,n,k", [
    (2, 5, 2), (2, 4, 2), (2, 6, 3), (2, 5, 3), (2, 6, 4),
    (2, 4, 3), (2, 5, 4), (2, 3, 3), (3, 5, 2), (3, 4, 2), (3, 5, 3),
    (3, 4, 3), (4, 4, 2), (4, 3, 2), (4, 4, 3), (4, 2, 2),
])
def test_meet_layer_builder_matches_pairwise_oracle(q, n, k):
    graphs, hists = build_qkneser_all_t(n, k, q)
    labels = list(enumerate_subspaces(make_field(q), n, k))
    dims = pairwise_meets(labels, q)
    assert hists == intersection_histograms(dims, k)
    assert sorted(graphs) == list(range(1, k))
    for t, g in graphs.items():
        expected = qkneser_rows_pairwise(dims, t)
        assert g.labels == labels
        assert g.rows == expected
        assert build_qkneser(Params(n, k, t, q)).rows == expected


def test_adjacency_matches_definition():
    # dim(U cap V) = 2k - rank of the stacked bases, by column-by-column
    # Gauss-Jordan elimination on coordinate lists
    p = Params(4, 2, 1, 2)
    g = build_qkneser(p)
    field = make_field(p.q)
    for u in range(g.n_vertices):
        for v in range(u + 1, g.n_vertices):
            stacked = [list(r) for r in g.labels[u].basis + g.labels[v].basis]
            meet = 2 * p.k - len(rref_gauss_jordan(field, stacked)[1])
            assert bool((g.rows[u] >> v) & 1) == (meet < p.t)


# ---------------------------------------------------------------------------
# batched builder and histograms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("q,n,k", [(2, 5, 2), (2, 4, 3), (3, 4, 2)])
def test_all_t_builder_matches_single_builds(q, n, k):
    graphs, hists = build_qkneser_all_t(n, k, q)
    for t, g in graphs.items():
        single = build_qkneser(Params(n, k, t, q))
        assert g.rows == single.rows
        assert g.labels == single.labels
    expected = [intersect_count(n, k, k, m, q) for m in range(k + 1)]
    assert all(h == expected for h in hists)


def test_degrees_match_formula():
    for p in (Params(4, 2, 1, 2), Params(5, 2, 1, 2), Params(5, 3, 2, 2),
              Params(4, 2, 1, 3)):
        g = build_qkneser(p)
        d = degree_formula(p)
        assert all(g.degree(u) == d for u in range(g.n_vertices))


def test_intersection_histogram_single_vertex():
    labels = list(enumerate_subspaces(make_field(2), 4, 2))
    hist = intersection_histograms(pairwise_meets(labels, 2), 2)[0]
    assert hist == [intersect_count(4, 2, 2, m, 2) for m in range(3)]
    assert sum(hist) == gauss(4, 2, 2)


# ---------------------------------------------------------------------------
# generic graphs
# ---------------------------------------------------------------------------

def test_from_edges_and_edge_iteration():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 1), (3, 3)])
    assert g.rows == [0b010, 0b101, 0b010, 0]
    assert edge_count(g) == 2
    assert [r.bit_count() for r in g.rows] == [1, 2, 1, 0]


@pytest.mark.parametrize("edge", [(-1, 0), (0, 5), (3, 0), (0, -3), (2, 3)])
def test_from_edges_rejects_endpoints_outside_the_graph(edge):
    # a negative u indexes rows from the end; a v >= n sets a bit past the graph
    with pytest.raises(OutOfRangeError):
        Graph.from_edges(3, [(0, 1), edge])


def test_rows_are_the_one_stored_size():
    assert Graph.__slots__ == ("rows", "labels", "meta", "comments")
    g = Graph([0, 0, 0])
    assert g.n_vertices == 3 and g.complement().n_vertices == 3
    with pytest.raises(AttributeError):
        g.n_vertices = 2
    # the old (n_vertices, rows) call binds nothing silently: a size that
    # disagrees with the rows cannot be built
    with pytest.raises(TypeError):
        Graph(3, [0, 0])
    with pytest.raises(TypeError):
        Graph([0, 0], None)  # labels, meta and comments are keyword-only


def test_edge_count_rejects_asymmetric_rows():
    g = Graph([0b10, 0b00])  # edge 0 -> 1 without its 1 -> 0 twin
    with pytest.raises(MalformedFileError):
        edge_count(g)


def _bits_oracle(m: int) -> list[int]:
    return [i for i in range(m.bit_length()) if m >> i & 1]


def test_bits_matches_bit_test_oracle():
    rng = random.Random(20240801)
    masks = [0] + [1 << i for i in range(3000)]
    for _ in range(200):
        width = rng.randint(1, 3000)
        density = rng.choice([0.001, 0.01, 0.5, 0.99])
        masks.append(sum(1 << i for i in range(width) if rng.random() < density))
        masks.append(rng.getrandbits(width))
    for m in masks:
        assert bits(m) == _bits_oracle(m)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8, 31, 64, 65, 100, 257])
def test_symmetrize_matches_bit_transpose_oracle(n):
    rng = random.Random(20261100 + n)
    for density in (0.0, 0.05, 0.5, 1.0):
        rows = [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]
        kept = list(rows)
        assert _symmetrize(rows) == [r | c for r, c in zip(rows, transpose_bits(rows, n))]
        assert rows == kept
        # a strictly lower triangle and its transpose have disjoint bits, so
        # the symmetrized rows give the transpose back exactly
        lower = [r & ((1 << i) - 1) for i, r in enumerate(rows)]
        sym = _symmetrize(lower)
        assert [s & ~r for s, r in zip(sym, lower)] == transpose_bits(lower, n)


def test_complement():
    g = Graph.from_edges(3, [(0, 1)])
    c = g.complement()
    assert c.rows == [0b100, 0b100, 0b011]


# ---------------------------------------------------------------------------
# .gr round-trips
# ---------------------------------------------------------------------------

def test_gr_roundtrip(tmp_path):
    g = build_qkneser(Params(4, 2, 1, 2))
    path = tmp_path / "k.gr"
    write_gr(g, path)
    back = read_gr(path)
    assert back.n_vertices == g.n_vertices
    assert back.rows == g.rows
    assert "c q=2 n=4 k=2 t=1" in back.comments
    assert any(c == "c alpha=7" for c in back.comments)


def test_gr_writer_is_deterministic(tmp_path):
    g = build_qkneser(Params(4, 2, 1, 2))
    p1, p2 = tmp_path / "a.gr", tmp_path / "b.gr"
    write_gr(g, p1)
    write_gr(build_qkneser(Params(4, 2, 1, 2)), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_gr_parse_errors(tmp_path):
    bad = tmp_path / "bad.gr"
    bad.write_text("1 2\np tw 3 1\n")
    with pytest.raises(MalformedFileError):
        read_gr(bad)
    bad.write_text("p tw 3 1\n1 4\n")
    with pytest.raises(MalformedFileError):
        read_gr(bad)
    bad.write_text("p tw 3 2\n1 2\n")
    with pytest.raises(MalformedFileError):
        read_gr(bad)  # declared edge count mismatch
    bad.write_text("c only comments\n")
    with pytest.raises(MalformedFileError):
        read_gr(bad)


def test_gr_repeated_edge_line_counts_once(tmp_path):
    path = tmp_path / "dup.gr"
    path.write_text("p tw 3 2\n1 2\n2 3\n1 2\n2 1\n")
    g = read_gr(path)
    assert g.rows == [0b010, 0b101, 0b010]


@pytest.mark.parametrize("text,lineno", [
    ("p tw 3 x\n", 1),
    ("p tw three 1\n1 2\n", 1),
    ("c ok\np tw 3 1\n1 two\n", 3),
    ("p tw 3 1\n1.0 2\n", 2),
    ("p tw -1 0\n", 1),
])
def test_gr_rejects_non_integer_and_negative_tokens(tmp_path, text, lineno):
    path = tmp_path / "bad.gr"
    path.write_text(text)
    with pytest.raises(MalformedFileError, match=f"bad.gr:{lineno}:"):
        read_gr(path)


def test_gr_rejects_non_utf8_bytes(tmp_path):
    path = tmp_path / "latin1.gr"
    path.write_bytes(b"p tw 3 1\n1 2\xff\n")
    with pytest.raises(MalformedFileError, match="latin1.gr: not UTF-8 text"):
        read_gr(path)


def test_gr_roundtrip_across_many_batches(tmp_path):
    g = build_qkneser(Params(5, 2, 1, 3))
    path = tmp_path / "k.gr"
    write_gr(g, path)
    # 637,065 edge lines, several hundred batches through the bulk route
    assert path.stat().st_size > 300 * _BATCH_HINT
    back = read_gr(path)
    assert back.n_vertices == g.n_vertices == 1210
    assert back.rows == g.rows


# ids written other ways that int() still reads as the same vertex
_ID_SPELLINGS = [
    lambda v: f"+{v}",
    lambda v: f"00{v}",
    lambda v: str(v).translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    lambda v: str(v).translate(str.maketrans("0123456789", "０１２３４５６７８９")),
]
# lines the per-line reader rejects, by the n they are written for
_BAD_LINES = [
    lambda n: f"{n} {n}",
    lambda n: f"0 {n}",
    lambda n: f"1 {n + 1}",
    lambda n: "1 two",
    lambda n: "1.0 2",
    lambda n: f"1 2 {n}",
    lambda n: "1",
    lambda n: f"-1 {n}",
    lambda n: f"p tw {n} 1",
    lambda n: "2 é",
]
_BAD_HEADERS = ["p tw 3", "p td 3 1", "p tw x 1", "p tw -1 0", "p tw 3 -2", "q tw 3 1"]


def _odd_line(rng: random.Random, u: int, v: int) -> str:
    """The edge uv with other spacing and, now and then, other id spellings."""
    ids = [rng.choice(_ID_SPELLINGS)(x) if rng.random() < 0.3 else str(x) for x in (u, v)]
    gap = rng.choice([" ", "\t", "  ", " \t "])
    return rng.choice(["", " ", "\t"]) + gap.join(ids) + rng.choice(["", " ", "\t"])


def _random_gr(rng: random.Random, big: bool) -> tuple[str, int]:
    """A .gr text and the vertex limit to read it with.  Mostly well formed:
    comments and blank lines after the header, tabs, odd spacing, other id
    spellings, repeated edges, three kinds of line end.  A quarter carry one
    defect; half of the big files (over 64 KB) carry one near their end."""
    if big:
        n = rng.randint(300, 400)
        ends = rng.choices(range(1, n + 1), k=2 * rng.randint(9000, 11000))
        pairs = [(u, v) for u, v in zip(ends[0::2], ends[1::2]) if u != v]
        body = [f"{u} {v}" for u, v in pairs]
        # a few odd lines, so that some batches go line by line
        for _ in range(rng.randint(0, 4)):
            at = rng.randrange(len(body))
            body[at] = _odd_line(rng, *pairs[at])
    else:
        n = rng.randint(0, 30)
        pairs = [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 40) * (n > 1))]
        body = []
        for u, v in pairs:
            if rng.random() < 0.05:
                body.append(rng.choice(["", "   ", "\t", f"c note {rng.randint(0, 99)}"]))
            body.append(_odd_line(rng, u, v) if rng.random() < 0.3 else f"{u} {v}")
            if rng.random() < 0.05:
                body.append(f"{v} {u}")  # a repeated edge, counted once
    m = len({(min(u, v), max(u, v)) for u, v in pairs})
    head = [f"c made by test {rng.randint(0, 9)}"] * rng.randint(0, 2) + [f"p tw {n} {m}"]
    if rng.random() < 0.05:
        head.insert(0, "")
    if big and rng.random() < 0.5:
        body.insert(len(body) - rng.randint(0, 50), rng.choice(_BAD_LINES)(n))
    elif not big and rng.random() < 0.25:
        kind = rng.random()
        if kind < 0.6:
            body.insert(rng.randint(0, len(body)), rng.choice(_BAD_LINES)(n))
        elif kind < 0.75:
            head[-1] = rng.choice(_BAD_HEADERS)
        elif kind < 0.85:
            head[-1] = f"p tw {n} {m + rng.choice([-1, 1, 5])}"
        elif kind < 0.95:
            head, body = [], ["1 2"] + head + body  # an edge line before the header
        else:
            head = []  # no header at all
    newline = rng.choice(["\n", "\r\n", "\r"])
    text = newline.join(head + body) + (newline if rng.random() < 0.8 else "")
    limit = n - 1 if n > 0 and rng.random() < 0.03 else VERTEX_LIMIT
    return text, limit


def _outcome(reader, path, limit):
    try:
        g = reader(path, limit=limit)
    except (MalformedFileError, TooLargeError) as exc:
        return type(exc), str(exc)
    return g.n_vertices, g.rows, g.comments


def test_read_gr_matches_line_oracle_on_seeded_inputs(tmp_path):
    rng = random.Random(20261018)
    path = tmp_path / "fuzz.gr"
    read_ok = failed = late_in_big = 0
    for case in range(600):
        big = case % 25 == 0
        text, limit = _random_gr(rng, big)
        path.write_bytes(text.encode("utf-8"))
        assert not big or len(text) > 64 * 1024
        got = _outcome(read_gr, path, limit)
        assert got == _outcome(read_gr_lines, path, limit), (case, text[:200])
        if isinstance(got[0], int):
            read_ok += 1
            continue
        failed += 1
        where = re.match(r".*fuzz\.gr:(\d+):", got[1])
        # big files have lines of about 8 bytes: this one sits in a later batch
        late_in_big += big and where is not None and int(where[1]) > 2 * _BATCH_HINT // 8
    assert read_ok >= 300 and failed >= 100
    assert late_in_big >= 5


# defects written over one line in the middle of a long run "u v1", "u v2",
# ...; by the run's head u, the line's own v and n
_RUN_DEFECTS = {
    "self-loop": lambda u, v, n: f"{u} {u}",
    "out of range": lambda u, v, n: f"{u} {n + 1}",
    "leading zeros": lambda u, v, n: f"{u} 00{v}",
    "tab": lambda u, v, n: f"{u}\t{v}",
    "crlf": lambda u, v, n: f"{u} {v}\r",
    "missing id": lambda u, v, n: f"{u} ",
}


def _sorted_gr(rng: random.Random, defect: str | None, behind_a_run: bool) -> tuple[str, int, int]:
    """A .gr text written the way write_gr writes, ascending "u v" lines with
    u < v, so that each vertex's later neighbours form one run of lines.  A
    few hubs among the low ids have runs longer than a batch; twenty
    vertices have runs of 60 to 300 lines; a few hundred sparse edges fill
    in, and some edges off the hubs are written as "v u".  The defect goes
    in the last hub's run: in its middle, or, behind_a_run, on its first
    line, right behind the run of a hub one id lower, so that the batch
    holding it starts with that run.  Returns the text and the character
    span [start, stop) of the run that carries the defect."""
    n = rng.randint(2700, 2900)
    edges = set()
    hubs = rng.sample(range(100), rng.randint(2, 4))
    if behind_a_run:
        hubs.append(max(hubs) + 1)
    for h in hubs:
        edges.update((min(h, v), max(h, v)) for v in range(n) if v != h and rng.random() < 0.98)
    for u in rng.sample(range(n // 2), 20):
        edges.update((u, v) for v in rng.sample(range(u + 1, n), rng.randint(60, 300)))
    for _ in range(rng.randint(200, 400)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    order = sorted(edges)
    lines = [f"{v + 1} {u + 1}" if u not in hubs and rng.random() < 0.02 else f"{u + 1} {v + 1}"
             for u, v in order]
    # the last hub's run starts after the first hub's, so past the header batch
    hub = max(hubs)
    run = [i for i, (u, _) in enumerate(order) if u == hub]
    if defect is not None:
        at = run[0] if behind_a_run else rng.choice(run[len(run) // 4:-len(run) // 4])
        lines[at] = _RUN_DEFECTS[defect](hub + 1, order[at][1] + 1, n)
    head = [f"c sorted test n={n}", f"p tw {n} {len(edges)}"]
    start = sum(len(line) + 1 for line in head + lines[:run[0]])
    return "\n".join(head + lines) + "\n", start, start + sum(len(lines[i]) + 1 for i in run)


def _bulk_calls(monkeypatch) -> list[tuple[bool, bool, str]]:
    """Wrap graph._bulk_edges: each call appends what it returned, whether
    it changed the rows, and its batch."""
    calls = []
    bulk = graph._bulk_edges

    def recorded(text, lines, id_of, rows):
        before = rows[:]
        took = bulk(text, lines, id_of, rows)
        calls.append((took, rows != before, text))
        return took

    monkeypatch.setattr(graph, "_bulk_edges", recorded)
    return calls


@pytest.mark.parametrize("defect", [None, *_RUN_DEFECTS])
def test_read_gr_matches_line_oracle_on_long_sorted_runs(tmp_path, monkeypatch, defect):
    rng = random.Random(f"long runs {defect}")
    path = tmp_path / "runs.gr"
    calls = _bulk_calls(monkeypatch)
    for behind_a_run in (False, False, False, True, True, True):
        text, start, stop = _sorted_gr(rng, defect, behind_a_run)
        assert start > _BATCH_HINT and stop - start > _BATCH_HINT
        path.write_bytes(text.encode("utf-8"))
        calls.clear()
        got = _outcome(read_gr, path, VERTEX_LIMIT)
        assert got == _outcome(read_gr_lines, path, VERTEX_LIMIT)
        if defect in ("self-loop", "out of range", "missing id"):
            assert got[0] is MalformedFileError and re.search(r"runs\.gr:\d+: ", got[1])
        else:
            assert isinstance(got[0], int)
        # behind a run, a defect that passes the batch's shape check is
        # refused after the previous hub's run, earlier in the same batch,
        # is in the rows; a defect the shape check catches is refused
        # before any edge is ORed
        refused_late = [batch for took, changed, batch in calls if not took and changed]
        if defect in ("self-loop", "out of range", "leading zeros"):
            assert not behind_a_run or (len(refused_late) == 1
                                        and text[start - 80:start + 80] in refused_late[0])
        else:
            assert refused_late == []


@pytest.mark.parametrize("tail", ["5 \n34", "5 \n", " 5\n", "5 \n 6\n", "5 6\n\n", "5  6\n"])
def test_bulk_batches_with_an_empty_id_go_line_by_line(tmp_path, tail):
    # the header batch is read line by line; the tail sits in a later batch
    text = "p tw 40 1\n" + "1 2\n" * 5000 + tail
    path = tmp_path / "empty.gr"
    path.write_text(text)
    got = _outcome(read_gr, path, VERTEX_LIMIT)
    assert got == _outcome(read_gr_lines, path, VERTEX_LIMIT)


def test_edges_under_a_zero_vertex_header_name_the_first_edge_line(tmp_path, capsys):
    # the comments end the header batch exactly, so the next batch is all
    # edge lines and reaches the bulk path with n = 0
    text = "p tw 0 1\n" + "c pad\n" * 2728 + "c xxxx\n"
    assert len(text) == _BATCH_HINT
    path = tmp_path / "zero.gr"
    path.write_text(text + "1 2\n" * 20000)
    got = _outcome(read_gr, path, VERTEX_LIMIT)
    assert got == (MalformedFileError, f"{path}:2731: edge out of range '1 2'")
    assert got == _outcome(read_gr_lines, path, VERTEX_LIMIT)
    with pytest.raises(SystemExit) as exited:
        main(["solve", "--gr", str(path), "--task", "mis"])
    assert exited.value.code == 2
    assert capsys.readouterr().err == f"qkneser: error: {got[1]}\n"


def test_exports_and_shuffled_exports_take_the_bulk_path(tmp_path, monkeypatch):
    # past the header batch, an export's batches of long runs are packed
    # run by run and a shuffled copy's short runs take one OR per edge;
    # the per-line loop would read either several times slower
    g = build_qkneser(Params(6, 2, 1, 2))
    path = tmp_path / "k.gr"
    write_gr(g, path)
    text = path.read_text()
    cut = text.index("\n", text.index("p tw")) + 1
    edges = text[cut:].splitlines(keepends=True)
    random.Random(651).shuffle(edges)
    shuffled = tmp_path / "shuffled.gr"
    shuffled.write_text(text[:cut] + "".join(edges))
    calls = _bulk_calls(monkeypatch)
    packed = {}  # per batch: few enough runs to be packed run by run
    for source in (path, shuffled):
        calls.clear()
        assert read_gr(source).rows == g.rows
        assert len(calls) >= 50 and all(took for took, _, _ in calls)
        packed[source] = [
            sum(1 for _ in groupby(us)) <= 32 * len(us) // g.n_vertices
            for us in ([line.partition(" ")[0] for line in batch.splitlines()]
                       for _, _, batch in calls)]
    # the export's last batch holds the short runs of the highest ids
    assert all(packed[path][:-1]) and not any(packed[shuffled])


def test_read_gr_peak_memory_within_four_bit_matrices(tmp_path):
    g = build_qkneser(Params(6, 2, 1, 2))
    path = tmp_path / "k.gr"
    write_gr(g, path)
    tracemalloc.start()
    try:
        back = read_gr(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = g.n_vertices
    assert n == 651 and back.rows == g.rows
    assert peak <= 4 * n * n // 8 + (1 << 20)
