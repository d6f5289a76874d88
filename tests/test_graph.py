import random
import re
import time
import tracemalloc

import pytest

from bruteforce import (
    intersection_dim,
    intersection_histograms,
    pairwise_meets,
    qkneser_rows_pairwise,
    read_gr_lines,
    transpose_bits,
    vector_masks,
)
from qkneser.errors import MalformedFileError, NotPrimePowerError, TooLargeError
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
    is_regular,
    max_degree,
    read_gr,
    write_gr,
)
from qkneser.qcount import Params, degree_formula, gauss, intersect_count
from qkneser.subspace import dim_intersection, enumerate_subspaces


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_qkneser_4_2_1_2():
    g = build_qkneser(Params(4, 2, 1, 2))
    assert g.n_vertices == 35
    assert is_regular(g) and max_degree(g) == 16
    assert edge_count(g) == 35 * 16 // 2 == 280


def test_qkneser_5_2_1_2_equals_cograssmann():
    g = build_qkneser(Params(5, 2, 1, 2))
    assert g.n_vertices == 155 and max_degree(g) == 112
    h = build_cograssmann(5, 2, 2)
    assert h.rows == g.rows  # k = 2 makes t = 1 = k-1 the same graph


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
# the pairwise oracle's mask-based dimensions agree with rank-based
# dim_intersection (dual route)
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
    p = Params(4, 2, 1, 2)
    g = build_qkneser(p)
    for u in range(g.n_vertices):
        for v in range(u + 1, g.n_vertices):
            expected = dim_intersection(g.labels[u], g.labels[v]) < p.t
            assert bool((g.rows[u] >> v) & 1) == expected


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
# generic graphs and edge iteration
# ---------------------------------------------------------------------------

def test_from_edges_and_edge_iteration():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 1)])
    assert list(g.edges()) == [(0, 1), (1, 2)]
    assert edge_count(g) == 2
    assert max_degree(g) == 2 and not is_regular(g)


def test_edge_count_rejects_asymmetric_rows():
    g = Graph(2, [0b10, 0b00])  # edge 0 -> 1 without its 1 -> 0 twin
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
    assert list(c.edges()) == [(0, 2), (1, 2)]


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
    assert list(g.edges()) == [(0, 1), (1, 2)]


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


def _sorted_gr(rng: random.Random, defect: str | None) -> tuple[str, int, int]:
    """A .gr text written the way write_gr writes, ascending "u v" lines with
    u < v, so that each vertex's later neighbours form one run of lines.  A
    few hubs among the low ids have runs longer than a batch; twenty
    vertices have runs of 60 to 300 lines; a few hundred sparse edges fill
    in, and some edges off the hubs are written as "v u".  Returns the text
    and the character span [start, stop) of the run that carries the
    defect."""
    n = rng.randint(2700, 2900)
    edges = set()
    hubs = rng.sample(range(100), rng.randint(2, 4))
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
        at = rng.choice(run[len(run) // 4:-len(run) // 4])
        lines[at] = _RUN_DEFECTS[defect](hub + 1, order[at][1] + 1, n)
    head = [f"c sorted test n={n}", f"p tw {n} {len(edges)}"]
    start = sum(len(line) + 1 for line in head + lines[:run[0]])
    return "\n".join(head + lines) + "\n", start, start + sum(len(lines[i]) + 1 for i in run)


@pytest.mark.parametrize("defect", [None, *_RUN_DEFECTS])
def test_read_gr_matches_line_oracle_on_long_sorted_runs(tmp_path, defect):
    rng = random.Random(f"long runs {defect}")
    path = tmp_path / "runs.gr"
    for _ in range(3):
        text, start, stop = _sorted_gr(rng, defect)
        assert start > _BATCH_HINT and stop - start > _BATCH_HINT
        path.write_bytes(text.encode("utf-8"))
        got = _outcome(read_gr, path, VERTEX_LIMIT)
        assert got == _outcome(read_gr_lines, path, VERTEX_LIMIT)
        if defect in ("self-loop", "out of range", "missing id"):
            assert got[0] is MalformedFileError and re.search(r"runs\.gr:\d+: ", got[1])
        else:
            assert isinstance(got[0], int)


@pytest.mark.parametrize("tail", ["5 \n34", "5 \n", " 5\n", "5 \n 6\n", "5 6\n\n", "5  6\n"])
def test_bulk_batches_with_an_empty_id_go_line_by_line(tmp_path, tail):
    # the header batch is read line by line; the tail sits in a later batch
    text = "p tw 40 1\n" + "1 2\n" * 5000 + tail
    path = tmp_path / "empty.gr"
    path.write_text(text)
    got = _outcome(read_gr, path, VERTEX_LIMIT)
    assert got == _outcome(read_gr_lines, path, VERTEX_LIMIT)


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
