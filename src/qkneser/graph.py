"""Explicit construction of generalized q-Kneser graphs.

Vertices are the k-subspaces of F_q^n in enumeration order (never re-sorted,
so exports are bit-exact across runs); u and v are adjacent iff their
intersection has dimension < t.  Adjacency is stored as packed bit rows
(Python ints), which the independent-set and treewidth solvers operate on
directly.

One function builds adjacency, _kneser_graph: u and v are non-adjacent
iff they share a t-subspace, so the non-neighbours of u are the union of
the point pencils of the t-subspaces of u, each named by its int key from
subspace.subspace_keys.  For 2k > n it reads the pencils of the
complements (Subspace.perp) at the t of qcount.dual_form.  That costs
V * [k,t]_q big-integer ORs (V * [n-k,t-2k+n]_q on the complement side)
per t instead of one intersection test per vertex pair.

_flags walks a packed row as compress selectors, one byte per bit; bits()
and the .gr, .td and .mis writers use it.  Hot loops on sparse masks step
m & -m inline, O(popcount) where _flags is O(bit_length), and say why:
cliques.color_order and twsolve's _clique_but_one, _decide_width, _components.

Includes a reader/writer for the PACE 2017 .gr format.  write_gr selects
each row's precomputed "<v>\n" strings with _flags and joins them behind
its "<u> " head, with no formatting or index list per edge.  read_gr
reads UTF-8 text in batches of _BATCH_HINT characters, each completed to
a line end.  After a header with n > 0, a batch goes to the rows in bulk
when deleting its ASCII digits leaves exactly " \n" per line, its one
split gives two ids per line, each id is a key of the
{"1": 0, ..., str(n): n - 1} dict (canonical and in range) and no line is
a self-loop.  Consecutive lines "u v1", "u v2", ... form a run
(itertools.groupby); each run is scattered into a copy of an n-byte "0"
row, packed by one int(..., 2) and ORed into row u - 1 at once.  A batch
of short runs, as in a file in random order, takes one OR per edge
instead.  Every other batch (header, comments, blank lines, other
spacing, any bad line), or one refused after some ORs, goes through the
per-line loop, the one place that accepts or rejects a line and names it
by path:lineno; tests/bruteforce.py keeps the per-line reader alone as
the oracle.  The rows hold each edge in the direction written (bit v - 1
of row u - 1); after the last line _symmetrize ORs each row with its
column, taken from one recursive bit-matrix transpose.  Graph.from_edges
builds its rows the same way.  Beyond the rows themselves (at most n^2/8
bytes), a read holds the transpose, padded to a power-of-two order N < 2n
(at most N^2/8 < 4 n^2/8 bytes), the id dict and one batch.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import reduce
from itertools import compress, groupby, islice
from operator import or_

from .errors import MalformedFileError, OutOfRangeError, TooLargeError
from .gf import make_field
from .qcount import Params, alpha_formula, degree_formula, dual_form, gauss, qkneser_tw
from .subspace import Subspace, enumerate_subspaces, subspace_keys

VERTEX_LIMIT = 5000

# read_gr reads text in batches of this many characters and the rest of a line
_BATCH_HINT = 1 << 14
# deletes the ASCII digits: a batch of "u v" edge lines leaves " \n" per line
_NO_DIGITS = str.maketrans("", "", "0123456789")
# bin() digits to compress() selectors: b"1" -> 1, every other byte -> 0
_ONE_FLAGS = bytes(c == ord("1") for c in range(256))


def _flags(mask: int) -> bytes:
    """Byte i is 1 iff bit i of the non-negative mask is set: selectors
    for itertools.compress, as long as mask.bit_length()."""
    return bin(mask)[:1:-1].encode().translate(_ONE_FLAGS)


def bits(mask: int) -> list[int]:
    """Indices of the set bits of a non-negative mask, ascending."""
    flags = _flags(mask)
    return list(compress(range(len(flags)), flags))


@contextmanager
def open_utf8(path):
    """Open a .gr/.td file as UTF-8 text; bytes that do not decode raise
    MalformedFileError naming path, wherever the reader meets them."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise MalformedFileError(f"{path}: not UTF-8 text ({exc.reason})") from None


def parse_ints(tokens, path, lineno: int) -> list[int]:
    """The tokens of line lineno of a .gr/.td file as ints; a token that is
    not an integer raises MalformedFileError naming path:lineno."""
    try:
        return list(map(int, tokens))
    except ValueError:
        raise MalformedFileError(
            f"{path}:{lineno}: non-integer token in {' '.join(tokens)!r}") from None


class Graph:
    """Simple undirected graph on the vertices 0..len(rows)-1.

    rows[u] is the neighbor bitmask of u (bit v set iff uv is an edge);
    symmetric with zero diagonal.  rows is the one stored size: n_vertices
    reads len(rows).  The keyword-only labels, when present, are the
    Subspace vertices in enumeration order; meta the Params that built it.
    """

    __slots__ = ("rows", "labels", "meta", "comments")

    def __init__(self, rows: list[int], *, labels: list[Subspace] | None = None,
                 meta: Params | None = None, comments: list[str] | None = None):
        self.rows, self.labels, self.meta = rows, labels, meta
        self.comments = [] if comments is None else comments

    @property
    def n_vertices(self) -> int:
        return len(self.rows)

    @classmethod
    def from_edges(cls, n_vertices: int, edges) -> "Graph":
        """The graph on 0..n_vertices-1 with the given (u, v) pairs as its
        edges; self-loops are dropped, an endpoint outside the range raises
        OutOfRangeError."""
        rows = [0] * n_vertices
        for u, v in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise OutOfRangeError(f"edge ({u}, {v}) leaves vertices 0..{n_vertices - 1}")
            if u != v:
                rows[u] |= 1 << v
        return cls(_symmetrize(rows))

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    def complement(self) -> "Graph":
        full = (1 << self.n_vertices) - 1
        rows = [full & ~r & ~(1 << u) for u, r in enumerate(self.rows)]
        return Graph(rows)


def edge_count(g: Graph) -> int:
    twice = sum(r.bit_count() for r in g.rows)
    if twice % 2:
        raise MalformedFileError(f"odd degree sum {twice}: adjacency rows are not symmetric")
    return twice // 2


def _kneser_graph(labels: list[Subspace], p: Params) -> Graph:
    """K_q(n,k,t) on labels, the enumerated k-subspaces of F_q^n.

    u and v meet in dimension >= t iff they share a t-subspace T, so the
    non-neighbours of u (u included) are the union of the pencils
    pencil[T] = {v : T in label_v} over the t-subspaces T of label_u, each
    T named by its key from subspace.subspace_keys.  For n < 2k the pencils
    are read on the complements, of the smaller dimension n-k, at the t of
    qcount.dual_form, since dim(U^perp cap V^perp) = dim(U cap V) + n - 2k.
    """
    d = dual_form(p)
    if d is None:  # every pair meets in dimension >= t
        return Graph([0] * len(labels), labels=labels, meta=p)
    spaces = labels if d == p else [s.perp() for s in labels]
    members = list(subspace_keys(spaces, d.t))  # members[u]: u's keys
    pencils: dict[int, int] = {}  # key -> bitmask of the spaces holding it
    for u, keys in enumerate(members):
        bit = 1 << u
        for key in keys:
            pencils[key] = pencils.get(key, 0) | bit
    full = (1 << len(labels)) - 1
    return Graph([full ^ reduce(or_, map(pencils.__getitem__, keys)) for keys in members],
                 labels=labels, meta=p)


def build_qkneser(p: Params, limit: int = VERTEX_LIMIT) -> Graph:
    """Materialize K_q(n,k,t): vertices = k-subspaces of F_q^n, edges where
    dim(intersection) < t.  Fails fast when [n,k]_q exceeds the limit."""
    return _kneser_graph(list(enumerate_subspaces(make_field(p.q), p.n, p.k, limit)), p)


def build_cograssmann(n: int, k: int, q: int) -> Graph:
    """Complement of the Grassmann graph G_q(n,k), i.e. K_q(n,k,k-1)."""
    return build_qkneser(Params(n, k, k - 1, q))


def build_qkneser_all_t(n: int, k: int, q: int) -> tuple[dict[int, Graph], list[list[int]]]:
    """All graphs K_q(n,k,t) for 1 <= t < k on one enumeration.

    Returns ({t: Graph}, histograms) where histograms[u][d] counts the
    vertices v (u itself included) with dim(label_u cap label_v) = d.
    Identical output to per-t build_qkneser calls, but the subspaces are
    enumerated once, every graph shares the labels, and the histograms are
    read off the degrees.  Fails fast when [n,k]_q exceeds VERTEX_LIMIT.
    """
    labels = list(enumerate_subspaces(make_field(q), n, k, VERTEX_LIMIT))
    nv = len(labels)
    graphs = {t: _kneser_graph(labels, Params(n, k, t, q)) for t in range(1, k)}
    hists = []
    for u in range(nv):
        # c[d] = |{v : dim(label_u cap label_v) >= d}|, which is V - deg(u)
        # in K_q(n,k,d); only u meets u in dimension k
        c = [nv] + [nv - graphs[d].degree(u) for d in range(1, k)] + [1]
        hists.append([c[d] - c[d + 1] for d in range(k)] + [1])
    return graphs, hists


# -- PACE 2017 .gr format ---------------------------------------------------


def write_gr(g: Graph, path) -> None:
    """Write the graph in PACE 2017 format: optional `c key=value` comment
    lines, header `p tw <n> <m>`, then one `u v` line per edge (1-indexed,
    ascending, no duplicates).  Byte-identical across runs."""
    lines = []
    if g.meta is not None:
        p = g.meta
        lines.append(f"c q={p.q} n={p.n} k={p.k} t={p.t}")
        lines.append(f"c vertices={gauss(p.n, p.k, p.q)}")
        lines.append(f"c delta={degree_formula(p)}")
        lines.append(f"c alpha={alpha_formula(p)}")
        if (tw := qkneser_tw(p)) is not None:
            lines.append(f"c tw={tw}")
    lines.append(f"p tw {g.n_vertices} {edge_count(g)}")
    ids = [f"{v + 1}\n" for v in range(g.n_vertices)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
        for u, row in enumerate(g.rows):
            if later := row >> (u + 1):
                head = f"{u + 1} "
                fh.write(head + head.join(compress(ids[u + 1:], _flags(later))))


def read_gr(path, limit: int = VERTEX_LIMIT) -> Graph:
    """Parse a PACE 2017 .gr file (UTF-8 text); comments are preserved on
    the Graph.  A header declaring more than limit vertices raises
    TooLargeError before any edge line is read.  A repeated edge line is
    accepted and counted once."""
    comments = []
    n = None
    declared_m = None
    # rows[u - 1] holds bit v - 1 for each line "u v" as written; one
    # transpose at the end adds the other direction
    rows: list[int] = []
    id_of: dict[str, int] = {}
    lineno = 0
    with open_utf8(path) as fh:
        while text := fh.read(_BATCH_HINT):
            if text[-1] != "\n":
                text += fh.readline()  # end the batch with a whole line
            lines = text.count("\n")
            if n is not None and _bulk_edges(text, lines, id_of, rows):
                lineno += lines
                continue
            for raw in text.removesuffix("\n").split("\n"):
                lineno += 1
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("c"):
                    comments.append(line)
                    continue
                parts = line.split()
                if parts[0] == "p":
                    if n is not None:
                        raise MalformedFileError(f"{path}:{lineno}: duplicate header")
                    if len(parts) != 4 or parts[1] != "tw":
                        raise MalformedFileError(f"{path}:{lineno}: bad header {line!r}")
                    n, declared_m = parse_ints(parts[2:], path, lineno)
                    if n < 0 or declared_m < 0:
                        raise MalformedFileError(
                            f"{path}:{lineno}: negative count in header {line!r}")
                    if n > limit:
                        raise TooLargeError(
                            f"{path}:{lineno}: {n} vertices exceed vertex limit {limit}")
                    rows = [0] * n
                    id_of = {str(i + 1): i for i in range(n)}
                    continue
                if n is None:
                    raise MalformedFileError(f"{path}:{lineno}: edge before header")
                if len(parts) != 2:
                    raise MalformedFileError(f"{path}:{lineno}: bad edge line {line!r}")
                u, v = parse_ints(parts, path, lineno)
                if not (0 < u <= n and 0 < v <= n) or u == v:
                    raise MalformedFileError(f"{path}:{lineno}: edge out of range {line!r}")
                rows[u - 1] |= 1 << (v - 1)
    if n is None:
        raise MalformedFileError(f"{path}: missing `p tw` header")
    g = Graph(_symmetrize(rows), comments=comments)
    m = edge_count(g)
    if m != declared_m:
        raise MalformedFileError(f"{path}: header declares {declared_m} edges, found {m}")
    return g


def _bulk_edges(text: str, lines: int, id_of: dict[str, int], rows: list[int]) -> bool:
    """Add a batch of plain "u v" edge lines, `lines` newlines in all, to
    rows (bit v - 1 of row u - 1) and return True; or return False when
    the batch holds anything else (a comment, a blank line, other spacing,
    an id outside 1..n or a self-loop), so that the per-line loop reads it
    and names any bad line.  Edges ORed in before a refusal are ORed again
    there, which changes nothing."""
    n = len(rows)
    if not n or text[-1] != "\n" or text.translate(_NO_DIGITS) != " \n" * lines:
        return False
    tokens = text.split()
    if len(tokens) != 2 * lines:  # some id is empty
        return False
    us = tokens[0::2]
    vs = tokens[1::2]
    # packing a run costs about as much as n/32 single-bit ORs: a batch
    # of more runs, as in a file in random order, takes one OR per edge
    most = 32 * lines // n
    runs = list(islice(((head, len(list(run))) for head, run in groupby(us)), most + 1))
    try:
        if len(runs) > most:
            for u, v in zip(map(id_of.__getitem__, us), map(id_of.__getitem__, vs)):
                if u == v:
                    return False
                rows[u] |= 1 << v
            return True
        # each run of lines "u v1", "u v2", ... is scattered into a "0"/"1"
        # row, least significant bit first, and packed by one int(..., 2)
        zero = b"0" * n
        start = 0
        for head, size in runs:
            u = id_of[head]
            row = bytearray(zero)
            for v in map(id_of.__getitem__, vs[start:start + size]):
                row[v] = 49
            start += size
            mask = int(row[::-1], 2)
            if mask >> u & 1:
                return False
            rows[u] |= mask
    except KeyError:  # outside 1..n, or not in canonical decimal form
        return False
    return True


def _symmetrize(rows: list[int]) -> list[int]:
    """rows[i] | column i of the bit matrix rows, for each i: the rows of
    the undirected graph whose arcs rows holds in either direction.

    The columns come from one transpose, the recursive block swap of
    Warren, Hacker's Delight (2nd ed., 7-3), on the rows zero-padded to a
    power of two N: in the round for each j = N/2, ..., 1, each pair of
    rows k and k + j (bit j of k clear) swaps entry c of row k with entry
    c - j of row k + j, for each column c with bit j set.  Holds at most
    N^2/8 < 4 n^2/8 bytes beside rows."""
    n = len(rows)
    size = 1 << max(n - 1, 0).bit_length()
    cols = rows + [0] * (size - n)
    j = size >> 1
    m = (1 << j) - 1  # the columns with bit j clear
    while j:
        for base in range(0, size, 2 * j):
            for k in range(base, base + j):
                t = ((cols[k] >> j) ^ cols[k + j]) & m
                cols[k] ^= t << j
                cols[k + j] ^= t
        j >>= 1
        m ^= m << j
    for i, r in enumerate(rows):
        cols[i] |= r
    del cols[n:]
    return cols
