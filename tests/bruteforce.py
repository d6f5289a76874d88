"""Independent brute-force oracles for the test suite.

Deliberately naive implementations (literal ordering enumeration, exhaustive
dynamic programming, unpruned clique and independent-set extension, field
addition digit by digit mod p, span deduplication, column-by-column
Gauss-Jordan elimination, null spaces built entry by entry, span sets grown
one row at a time, pairwise intersection counting, every grouping of
separator components, per-vertex breadth-first search of a bag tree, a
one-line-at-a-time .gr reader, a bit-by-bit matrix transpose, trial
division) that share no code with the solvers and bulk routes they check.
One exception: the pairwise rank dim_sum stacks two bases through the
package's row reduction, which rref_gauss_jordan checks; it is the route
that the builder's keyed pencils replaced, kept to check them.
"""

from collections import deque
from functools import lru_cache
from itertools import combinations, permutations

from qkneser.errors import AmbientMismatchError, MalformedFileError, TooLargeError
from qkneser.gf import GF
from qkneser.graph import VERTEX_LIMIT, Graph, edge_count, parse_ints
from qkneser.subspace import Subspace, _rref, canonicalize


def prime_power_by_trial_division(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e, p the smallest divisor > 1 of q, or None when q
    is not a prime power."""
    if q < 2:
        return None
    p = next(d for d in range(2, q + 1) if q % d == 0)
    e = 0
    while q % p == 0:
        q //= p
        e += 1
    return (p, e) if q == 1 else None


@lru_cache(maxsize=None)
def addition_tables(q: int) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(add, neg) of GF(q) from the definition, not from GF: with a read as
    its base-p digits (a_0 least significant, the element encoding of GF),
    add[a][b] adds the digits of a and b mod p and neg[a] negates those of
    a.  Built once per q."""
    p, e = prime_power_by_trial_division(q)
    digits = [[a // p**j % p for j in range(e)] for a in range(q)]

    def element(ds) -> int:
        return sum(d * p**j for j, d in enumerate(ds))

    add = tuple(tuple(element((x + y) % p for x, y in zip(da, db)) for db in digits)
                for da in digits)
    return add, tuple(element(-x % p for x in da) for da in digits)


def elimination_width(g: Graph, order) -> int:
    """Width of one elimination ordering: max degree at elimination time."""
    rows = list(g.rows)
    alive = (1 << g.n_vertices) - 1
    w = 0
    for v in order:
        nb = rows[v] & alive & ~(1 << v)
        w = max(w, nb.bit_count())
        m = nb
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            rows[u] |= nb & ~low
        alive ^= 1 << v
    return w


def tw_by_orderings(g: Graph) -> int:
    """Treewidth by trying literally every elimination ordering (n <= 7)."""
    n = g.n_vertices
    if n == 0:
        return -1
    return min(elimination_width(g, order) for order in permutations(range(n)))


def tw_by_subset_dp(g: Graph) -> int:
    """Treewidth by exhaustive dynamic programming over elimination
    prefixes: best[S] is the cheapest max elimination degree over orderings
    of S eliminated first; the degree of v eliminated after T is the number
    of vertices outside T reachable from v through T."""
    n = g.n_vertices
    if n == 0:
        return -1
    rows = g.rows

    def degree_after(v: int, eliminated: int) -> int:
        reach = 1 << v
        frontier = 1 << v
        nbrs = 0
        while frontier:
            new = 0
            m = frontier
            while m:
                low = m & -m
                u = low.bit_length() - 1
                m ^= low
                new |= rows[u]
            nbrs |= new
            frontier = new & eliminated & ~reach
            reach |= frontier
        return (nbrs & ~eliminated & ~(1 << v)).bit_count()

    best = {0: -1}
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            s = 0
            for v in combo:
                s |= 1 << v
            best[s] = min(
                max(best[s & ~(1 << v)], degree_after(v, s & ~(1 << v)))
                for v in combo
            )
    return best[(1 << n) - 1]


def max_clique_brute(g: Graph) -> int:
    """Maximum clique by enumerating every clique, no pruning."""
    best = 0

    def extend(size: int, cand: int) -> None:
        nonlocal best
        best = max(best, size)
        m = cand
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            extend(size + 1, cand & g.rows[v] & ~((1 << (v + 1)) - 1))

    extend(0, (1 << g.n_vertices) - 1)
    return best


def maximum_independent_sets_brute(g: Graph) -> list[int]:
    """Every maximum independent set, as sorted bitmasks: all independent
    sets are grown one vertex at a time in increasing vertex order, with
    no pruning."""
    n = g.n_vertices
    adjacent = [[(g.rows[u] >> v) & 1 for v in range(n)] for u in range(n)]
    best_size, best = 0, [0]

    def extend(members: list[int]) -> None:
        nonlocal best_size, best
        mask = sum(1 << v for v in members)
        if len(members) > best_size:
            best_size, best = len(members), [mask]
        elif members and len(members) == best_size:
            best.append(mask)
        for v in range(members[-1] + 1 if members else 0, n):
            if not any(adjacent[u][v] for u in members):
                extend(members + [v])

    extend([])
    return sorted(best)


def balanced_separator_brute(g: Graph, size_cap: int):
    """(X, A, B) for the first X in combinations order, |X| <= size_cap,
    whose remaining components can be grouped into parts A and B with
    3|A|, 3|B| >= |V - X| and 3|A|, 3|B| <= 2|V - X|, trying every subset
    of the components; None when no X within the cap has one."""
    n = g.n_vertices
    for size in range(min(size_cap, n) + 1):
        for combo in combinations(range(n), size):
            rest = [v for v in range(n) if v not in combo]
            seen: set[int] = set()
            comps = []
            for s in rest:
                if s in seen:
                    continue
                comp, queue = [s], [s]
                seen.add(s)
                while queue:
                    u = queue.pop(0)
                    for v in rest:
                        if v not in seen and (g.rows[u] >> v) & 1:
                            seen.add(v)
                            comp.append(v)
                            queue.append(v)
                comps.append(comp)
            r = len(rest)
            for pick in range(1 << len(comps)):
                a = [v for i, c in enumerate(comps) if (pick >> i) & 1 for v in c]
                b = [v for i, c in enumerate(comps) if not (pick >> i) & 1 for v in c]
                if all(r <= 3 * len(part) <= 2 * r for part in (a, b)):
                    return (sum(1 << v for v in combo), sum(1 << v for v in a),
                            sum(1 << v for v in b))
    return None


def subspaces_by_span_dedup(field: GF, n: int, k: int) -> set:
    """All k-subspaces as canonical forms of spans of k-subsets of nonzero
    vectors.  Exponential; only for tiny (q, n, k)."""
    q = field.q
    vectors = []
    for idx in range(1, q**n):
        vec, rest = [], idx
        for _ in range(n):
            vec.append(rest % q)
            rest //= q
        vectors.append(tuple(vec))
    spans = set()
    for rows in combinations(vectors, k):
        s = canonicalize(field, rows)
        if s.k == k:
            spans.add(s)
    return spans


def rref_gauss_jordan(field: GF, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """In-place Gaussian elimination to RREF; returns (nonzero rows, pivots).
    Column by column, one field call per entry (the package's elimination
    before it reduced rows through the field tables)."""
    add, neg = addition_tables(field.q)
    m, n = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        head = rows[r][c]
        if head != 1:
            s = field.inv(head)
            rows[r] = [field.mul(s, x) for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [add[x][neg[field.mul(f, y)]] for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def perp_by_null_space(field: GF, n: int, rows) -> tuple[list[list[int]], list[int]]:
    """RREF rows and pivots of the orthogonal complement of span(rows):
    the null space of their Gauss-Jordan RREF, one vector per free column
    c with 1 at c and -row_i[c] at pivot column i, reduced again; one field
    call per entry (the package's perp before it packed vectors)."""
    basis, pivots = rref_gauss_jordan(field, [list(r) for r in rows]) if rows else ([], [])
    neg = addition_tables(field.q)[1]
    null = []
    for c in range(n):
        if c not in pivots:
            vec = [0] * n
            vec[c] = 1
            for row, p in zip(basis, pivots):
                vec[p] = neg[row[c]]
            null.append(vec)
    return rref_gauss_jordan(field, null) if null else ([], [])


def span_set(field: GF, n: int, rows) -> set[tuple[int, ...]]:
    """Every vector of F_q^n in the span of rows: starting from the zero
    vector, each row adds all its multiples to every vector so far, one
    field call per entry.  q^rank vectors; only for tiny q^n."""
    add = addition_tables(field.q)[0]
    span = {(0,) * n}
    for row in rows:
        span = {tuple(add[x][field.mul(c, y)] for x, y in zip(vec, row))
                for vec in span for c in field.elements}
    return span


def dim_sum(a: Subspace, b: Subspace) -> int:
    """dim(A + B): the rank of A's and B's RREF rows stacked.  Raises
    AmbientMismatchError unless both lie in one F_q^n."""
    if a.lay is not b.lay:
        raise AmbientMismatchError(f"GF({a.field.q})^{a.n} vs GF({b.field.q})^{b.n}")
    return len(_rref(a.lay, a.rows + b.rows)[1])


def dim_intersection(a: Subspace, b: Subspace) -> int:
    """dim(A cap B) = dim A + dim B - dim(A + B)."""
    return a.k + b.k - dim_sum(a, b)


def vector_masks(labels) -> list[int]:
    """Bitmask of member vectors per subspace, from span_set of its basis;
    vector (c_0..c_{n-1}) maps to bit sum_i c_i * q^i.  |A cap B| =
    q^dim(A cap B), so popcounts of ANDed masks give intersection
    dimensions without rank computations."""
    masks = []
    for s in labels:
        q = s.field.q
        m = 0
        for vec in span_set(s.field, s.n, s.basis):
            idx = 0
            for c in reversed(vec):
                idx = idx * q + c
            m |= 1 << idx
        masks.append(m)
    return masks


def intersection_dim(masks: list[int], q: int, u: int, v: int) -> int:
    """dim of the intersection of subspaces u, v from their vector masks."""
    c = (masks[u] & masks[v]).bit_count()
    d = 0
    while q**d < c:
        d += 1
    if q**d != c:
        raise ValueError(f"{c} common vectors is not a power of {q}")
    return d


def pairwise_meets(labels, q: int) -> list[list[int]]:
    """dims[u][v] = dim(label_u cap label_v), one popcount per pair."""
    masks = vector_masks(labels)
    return [[intersection_dim(masks, q, u, v) for v in range(len(labels))]
            for u in range(len(labels))]


def qkneser_rows_pairwise(dims: list[list[int]], t: int) -> list[int]:
    """Adjacency rows of K_q(n,k,t) straight from the definition:
    u ~ v iff dim(label_u cap label_v) < t."""
    rows = []
    for du in dims:
        r = 0
        for v, d in enumerate(du):
            if d < t:
                r |= 1 << v
        rows.append(r)
    return rows


def intersection_histograms(dims: list[list[int]], k: int) -> list[list[int]]:
    """hist[u][d] = number of v (u included) with dim(label_u cap label_v) = d."""
    hists = []
    for du in dims:
        h = [0] * (k + 1)
        for d in du:
            h[d] += 1
        hists.append(h)
    return hists


def uncovered_edges(g: Graph, bags: list[int]) -> list[tuple[int, int]]:
    """Every edge (u, v), u < v, that no bag contains, in (u, v) order:
    one pair test per vertex pair, one membership test per bag."""
    n = g.n_vertices
    return [
        (u, v)
        for u in range(n) for v in range(u + 1, n)
        if (g.rows[u] >> v) & 1
        and not any((b >> u) & 1 and (b >> v) & 1 for b in bags)
    ]


def decomposition_witnesses(g: Graph, bags: list[int], edges) -> tuple:
    """The lowest uncovered vertex, the first uncovered edge and the lowest
    incoherent vertex of a bag tree, each None when there is none: a plain
    coverage check, and per vertex a breadth-first search over the tree
    edges among the bags that hold it."""
    holding = [[i for i, b in enumerate(bags) if (b >> v) & 1] for v in range(g.n_vertices)]
    uncovered = next((v for v, ids in enumerate(holding) if not ids), None)
    missed = uncovered_edges(g, bags)
    incoherent = None
    for v, ids in enumerate(holding):
        if not ids:
            continue
        seen = {ids[0]}
        queue = deque([ids[0]])
        while queue:
            x = queue.popleft()
            for a, b in edges:
                if x in (a, b):
                    y = b if a == x else a
                    if y in ids and y not in seen:
                        seen.add(y)
                        queue.append(y)
        if len(seen) != len(ids):
            incoherent = v
            break
    return uncovered, (missed[0] if missed else None), incoherent


def transpose_bits(rows: list[int], n: int) -> list[int]:
    """The n x n bit matrix rows transposed one bit at a time: bit i of
    the result's row j is bit j of rows[i]."""
    out = [0] * n
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                out[j] |= 1 << i
    return out


def read_gr_lines(path, limit: int = VERTEX_LIMIT) -> Graph:
    """The .gr reader as it was before edge lines were parsed in bulk: one
    line at a time, one edge at a time.  Same errors, same messages."""
    comments = []
    n = None
    declared_m = None
    rows: list[int] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
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
                    raise MalformedFileError(f"{path}:{lineno}: negative count in header {line!r}")
                if n > limit:
                    raise TooLargeError(
                        f"{path}:{lineno}: {n} vertices exceed vertex limit {limit}")
                rows = [0] * n
                continue
            if n is None:
                raise MalformedFileError(f"{path}:{lineno}: edge before header")
            if len(parts) != 2:
                raise MalformedFileError(f"{path}:{lineno}: bad edge line {line!r}")
            u, v = parse_ints(parts, path, lineno)
            if not (0 < u <= n and 0 < v <= n) or u == v:
                raise MalformedFileError(f"{path}:{lineno}: edge out of range {line!r}")
            rows[u - 1] |= 1 << (v - 1)
            rows[v - 1] |= 1 << (u - 1)
    if n is None:
        raise MalformedFileError(f"{path}: missing `p tw` header")
    g = Graph(rows, comments=comments)
    m = edge_count(g)
    if m != declared_m:
        raise MalformedFileError(f"{path}: header declares {declared_m} edges, found {m}")
    return g
