"""Tree decompositions: data type, validator, width, star construction.

A decomposition is valid when (i) the bags cover every vertex, (ii) every
edge lies inside some bag, and (iii) for each vertex the set of bags
containing it induces a connected subtree.  The validator reports a concrete
witness for each violated condition.  It walks the bag tree once, from bag
0, and decides (iii) by the one-top lemma: call a bag a top for v when it
holds v and its parent does not (the root is a top for each of its
vertices).  Each connected piece of the bags holding v has exactly one
top, its bag nearest the root, so those bags form a subtree iff v has
exactly one top.

star_decomposition realizes the upper bound max(Delta, |V|-alpha-1): one
center bag holding everything outside an independent set I, plus one leaf
bag {v} + N(v) per v in I.  With I a maximum independent set and
Delta <= |V|-alpha-1 its width meets the treewidth formula exactly.

Includes a reader/writer for the PACE 2017 .td format.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import compress

from .ekr import is_independent
from .errors import MalformedFileError, MalformedTreeError, NotIndependentError, TooLargeError
from .graph import VERTEX_LIMIT, Graph, _flags, bits, open_utf8, parse_ints


class TreeDecomposition:
    """Bags are vertex bitmasks over the underlying graph's range; tree
    edges are 0-indexed bag-id pairs.  n_vertices is the graph's size."""

    __slots__ = ("n_vertices", "bags", "edges")

    def __init__(self, n_vertices: int, bags: list[int], edges: list[tuple[int, int]]):
        self.n_vertices, self.bags, self.edges = n_vertices, bags, edges


class ValidationReport(namedtuple("ValidationReport",
                                  "uncovered_vertex uncovered_edge incoherent_vertex")):
    """The first witness of each violated condition, None where it holds:
    a vertex in no bag, an edge in no bag, a vertex whose bags are not a
    subtree.  The decomposition is valid iff all three are None."""

    __slots__ = ()

    @property
    def valid(self) -> bool:
        return (self.uncovered_vertex is None and self.uncovered_edge is None
                and self.incoherent_vertex is None)


def width(d: TreeDecomposition) -> int:
    """max bag size - 1."""
    if not d.bags:
        raise MalformedTreeError("decomposition has no bags")
    return max(b.bit_count() for b in d.bags) - 1


def _tree_parents(d: TreeDecomposition) -> list[int | None]:
    """Walk the bag graph from bag 0 and return each bag's parent in that
    walk (None for bag 0); raise MalformedTreeError unless it is a tree."""
    b = len(d.bags)
    if b == 0:
        raise MalformedTreeError("decomposition has no bags")
    if len(d.edges) != b - 1:
        raise MalformedTreeError(f"{b} bags need {b - 1} tree edges, got {len(d.edges)}")
    adj: list[list[int]] = [[] for _ in range(b)]
    for x, y in d.edges:
        if not (0 <= x < b and 0 <= y < b) or x == y:
            raise MalformedTreeError(f"bad tree edge ({x}, {y})")
        adj[x].append(y)
        adj[y].append(x)
    parent: list[int | None] = [None] * b
    stack = [0]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y and parent[y] is None:
                parent[y] = x
                stack.append(y)
    if None in parent[1:]:
        raise MalformedTreeError("tree edges do not connect all bags")
    return parent


def validate(g: Graph, d: TreeDecomposition) -> ValidationReport:
    """Check the three decomposition conditions against g, with witnesses.

    Raises MalformedTreeError when the bag edges do not form a tree or a
    bag is negative or holds a vertex outside the graph; all other defects
    are reported, first witness in deterministic order: the lowest
    uncovered vertex, the first uncovered edge in (u, v) order, the lowest
    vertex with two or more tops (see the module docstring).
    """
    parent = _tree_parents(d)
    if d.n_vertices != g.n_vertices:
        raise MalformedTreeError(
            f"decomposition is over {d.n_vertices} vertices, graph has {g.n_vertices}"
        )

    # once: the vertices with a top, which is the union of the bags;
    # twice: those with a second top
    once = twice = 0
    for bag, up in zip(d.bags, parent):
        top = bag if up is None else bag & ~d.bags[up]
        twice |= once & top
        once |= top
    if once < 0:  # a union of ints is negative iff one of them is
        raise MalformedTreeError("a bag is a negative mask")
    if once.bit_length() > g.n_vertices:
        raise MalformedTreeError(
            f"a bag holds vertex {once.bit_length() - 1}, graph has {g.n_vertices} vertices"
        )
    missing = ((1 << g.n_vertices) - 1) & ~once
    uncovered_vertex = (missing & -missing).bit_length() - 1 if missing else None
    incoherent_vertex = (twice & -twice).bit_length() - 1 if twice else None

    # reach[u] is the union of the bags holding u; the edges uv, v > u, not
    # inside a bag with u are u's row above u minus reach[u], so the first u
    # with any, and its lowest v, give the first uncovered edge
    reach = [0] * g.n_vertices
    for bag in d.bags:
        for v in bits(bag):
            reach[v] |= bag
    uncovered_edge = None
    for u, (row, r) in enumerate(zip(g.rows, reach)):
        miss = (row & ~r) >> (u + 1)
        if miss:
            uncovered_edge = (u, u + (miss & -miss).bit_length())
            break

    return ValidationReport(uncovered_vertex, uncovered_edge, incoherent_vertex)


def star_decomposition(g: Graph, independent: int) -> TreeDecomposition:
    """Center bag V - I, one leaf bag {v} + N(v) per v in the independent
    set I, every leaf attached to the center.

    Width is max(|V| - |I| - 1, max_{v in I} deg(v)); with I empty this
    degenerates to the single full bag.  Raises NotIndependentError when I
    induces an edge, OutOfRangeError when I is not a set of g's vertices.
    """
    if not is_independent(g, independent):
        raise NotIndependentError("the given vertex set induces an edge")
    full = (1 << g.n_vertices) - 1
    bags = [full & ~independent]
    edges = []
    for v in bits(independent):
        edges.append((0, len(bags)))
        bags.append((1 << v) | g.rows[v])
    return TreeDecomposition(g.n_vertices, bags, edges)


# -- PACE 2017 .td format ---------------------------------------------------


def write_td(d: TreeDecomposition, path) -> None:
    """`s td <#bags> <max bag size> <#vertices>`, bag lines
    `b <id> <v...>`, then one `<id> <id>` line per tree edge; ids and
    vertices 1-indexed, matching the .gr export of the same graph."""
    with open(path, "w") as fh:
        max_bag = max((b.bit_count() for b in d.bags), default=0)
        fh.write(f"s td {len(d.bags)} {max_bag} {d.n_vertices}\n")
        ids = [str(v + 1) for v in range(max((b.bit_length() for b in d.bags), default=0))]
        for bid, b in enumerate(d.bags, start=1):
            fh.write(" ".join(["b", str(bid), *compress(ids, _flags(b))]) + "\n")
        fh.writelines(f"{x + 1} {y + 1}\n" for x, y in d.edges)


def read_td(path) -> TreeDecomposition:
    """Parse a PACE 2017 .td file (UTF-8 text).  A negative count in the
    `s td` line is malformed, and a declared vertex count above
    graph.VERTEX_LIMIT raises TooLargeError before any bag line is read.
    The declared max bag size must be the size of the largest bag."""
    header = None
    bags: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            if parts[0] == "s":
                if header is not None:
                    raise MalformedFileError(f"{path}:{lineno}: duplicate solution line")
                if len(parts) != 5 or parts[1] != "td":
                    raise MalformedFileError(f"{path}:{lineno}: bad solution line {line!r}")
                header = parse_ints(parts[2:], path, lineno)
                if min(header) < 0:
                    raise MalformedFileError(
                        f"{path}:{lineno}: negative count in solution line {line!r}")
                if header[2] > VERTEX_LIMIT:
                    raise TooLargeError(
                        f"{path}:{lineno}: {header[2]} vertices exceed vertex limit {VERTEX_LIMIT}")
                continue
            if header is None:
                raise MalformedFileError(f"{path}:{lineno}: data before `s td` line")
            if parts[0] == "b":
                if len(parts) < 2:
                    raise MalformedFileError(f"{path}:{lineno}: bag line without an id")
                bid, *vs = parse_ints(parts[1:], path, lineno)
                if bid in bags:
                    raise MalformedFileError(f"{path}:{lineno}: duplicate bag {bid}")
                mask = 0
                for v in vs:
                    if v < 1 or v > header[2]:
                        raise MalformedFileError(f"{path}:{lineno}: vertex {v} out of range")
                    mask |= 1 << (v - 1)
                bags[bid] = mask
                continue
            if len(parts) != 2:
                raise MalformedFileError(f"{path}:{lineno}: bad tree edge {line!r}")
            x, y = parse_ints(parts, path, lineno)
            edges.append((x - 1, y - 1))
    if header is None:
        raise MalformedFileError(f"{path}: missing `s td` line")
    n_bags, max_bag, n_vertices = header
    # bag ids are distinct, so n_bags of them in 1..n_bags are exactly those
    if len(bags) != n_bags or not all(1 <= b <= n_bags for b in bags):
        raise MalformedFileError(f"{path}: expected bag ids 1..{n_bags}")
    largest = max((b.bit_count() for b in bags.values()), default=0)
    if largest != max_bag:
        raise MalformedFileError(
            f"{path}: `s td` line declares max bag size {max_bag}, largest bag has {largest}")
    return TreeDecomposition(n_vertices, [bags[i] for i in range(1, n_bags + 1)], edges)
