"""Canonical subspaces of F_q^n, their algebra and exhaustive enumeration.

A k-subspace is represented by its reduced row echelon form (RREF) basis,
which is unique, so two Subspace values are equal iff their basis matrices
are identical.  Enumeration runs over pivot-column patterns in lexicographic
order with the free entries counted in base q, which is linear in the output
size and gives the package's canonical vertex numbering.

All row reduction goes through one kernel, _reduce, which contains() runs
on each basis row and _rref (behind canonicalize and dim_sum) on each row
it adds.  Subspace.perp() and span_frames() are the rest of the subspace
algebra that graph.py needs.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from operator import getitem, index

from .errors import AmbientMismatchError, EmptyMatrixError, OutOfRangeError, TooLargeError
from .gf import GF
from .qcount import gauss_at_most

ENUMERATION_LIMIT = 10_000_000


@dataclass(frozen=True, slots=True)
class Subspace:
    """A k-dimensional subspace of F_q^n in canonical (RREF) form.

    basis rows are tuples of int-encoded field elements; pivot_cols is the
    strictly increasing tuple of pivot column indices.  Instances are
    immutable and hashable.
    """

    field: GF
    n: int
    k: int
    basis: tuple[tuple[int, ...], ...]
    pivot_cols: tuple[int, ...]

    def sort_key(self):
        """Total order matching enumeration order: pivot pattern first,
        then the basis entries row-major."""
        return (self.pivot_cols, self.basis)

    def __lt__(self, other: "Subspace") -> bool:
        return self.sort_key() < other.sort_key()

    def contains(self, other: "Subspace") -> bool:
        """True iff other is a subspace of self: each basis row of other
        reduces to zero against self's RREF rows."""
        _check_compatible(self, other)
        if other.k > self.k:
            return False
        for y in other.basis:
            if any(_reduce(self.field, self.basis, self.pivot_cols, y)):
                return False
        return True

    def vectors(self):
        """Yield every vector of the subspace (q^k coordinate tuples).

        The combination sum_j c_j * basis_j comes at position sum_j c_j q^j.
        """
        f = self.field
        add, mul = f.add_table, f.mul_table
        span = [(0,) * self.n]
        for row in self.basis:
            scaled = [tuple(map(mul[c].__getitem__, row)) for c in f.elements]
            span = [
                tuple(map(getitem, map(add.__getitem__, vec), s))
                for s in scaled
                for vec in span
            ]
        return iter(span)

    def perp(self) -> "Subspace":
        """Orthogonal complement under the standard dot product, in RREF.
        Its basis is the null space of the RREF basis: one vector per free
        column c, with 1 at c and -basis[i][c] at pivot column i."""
        f, n = self.field, self.n
        rows = []
        for c in range(n):
            if c not in self.pivot_cols:
                vec = [0] * n
                vec[c] = 1
                for row, p in zip(self.basis, self.pivot_cols):
                    vec[p] = f.neg(row[c])
                rows.append(vec)
        return canonicalize(f, rows or [[0] * n])

    def __repr__(self):
        rows = ";".join("".join(str(x) for x in r) for r in self.basis)
        return f"Subspace(q={self.field.q}, n={self.n}, [{rows}])"


def span_frames(field: GF, k: int, d: int) -> list[tuple[int, ...]]:
    """The d-subspaces T of any k-subspace U = rowspace(B), B in RREF, as
    positions in U.vectors(), in the order of enumerate_subspaces(field, k,
    d).  T = rowspace(C B) for a unique RREF d x k matrix C, and C B is then
    in RREF; its row c B sits at position sum_j c_j q^j of U.vectors()."""
    q = field.q
    return [tuple(sum(c * q**j for j, c in enumerate(row)) for row in coeffs.basis)
            for coeffs in enumerate_subspaces(field, k, d)]


def _reduce(field: GF, rows, pivots, vec):
    """vec - sum_i vec[pivots[i]] * rows[i] through the field's table rows:
    the residual of vec against RREF rows, zero iff vec lies in their span.
    Each step clears one pivot entry and leaves the others as they were."""
    add, mul, neg = field.add_table, field.mul_table, field.neg
    for row, p in zip(rows, pivots):
        c = vec[p]
        if c:
            vec = list(map(getitem, map(add.__getitem__, vec), map(mul[neg(c)].__getitem__, row)))
    return vec


def _rref(field: GF, rows, basis=(), pivots=()) -> tuple[list, list[int]]:
    """RREF rows and pivots of the span of basis (RREF, with pivots) and
    rows, one row at a time: its residual, scaled to a leading 1, clears
    its pivot column from the rows with an entry there and goes in by pivot."""
    basis, pivots = list(basis), list(pivots)
    for vec in rows:
        if len(pivots) == len(vec):  # a full-rank basis spans every vector
            break
        r = _reduce(field, basis, pivots, vec) if basis else vec
        p = next(itertools.compress(itertools.count(), r), None)
        if p is None:
            continue
        if r[p] != 1:
            r = list(map(field.mul_table[field.inv(r[p])].__getitem__, r))
        for i, row in enumerate(basis):
            if row[p]:
                basis[i] = _reduce(field, (r,), (p,), row)
        i = bisect_left(pivots, p)
        basis.insert(i, r)
        pivots.insert(i, p)
    return basis, pivots


def canonicalize(field: GF, rows) -> Subspace:
    """RREF span of the given row vectors (any spanning set, any rank).

    The result is independent of the basis choice; k = rank(rows).
    Raises EmptyMatrixError when no rows are given, AmbientMismatchError
    when they are not vectors of one F_q^n (unequal lengths, an entry
    outside 0..q-1 or not an integer, such as 1.0).
    """
    try:
        rows = [tuple(map(index, r)) for r in rows]
    except TypeError:
        raise AmbientMismatchError(f"rows are not vectors over GF({field.q})") from None
    if not rows:
        raise EmptyMatrixError("need at least one row vector")
    n = len(rows[0])
    elements = set(field.elements)
    if any(len(r) != n or not elements.issuperset(r) for r in rows):
        raise AmbientMismatchError(f"rows are not vectors of GF({field.q})^{n}")
    basis, pivots = _rref(field, rows)
    return Subspace(field, n, len(basis), tuple(map(tuple, basis)), tuple(pivots))


def _check_compatible(a: Subspace, b: Subspace) -> None:
    if (a.field is not b.field and a.field != b.field) or a.n != b.n:
        raise AmbientMismatchError(
            f"incompatible subspaces: GF({a.field.q})^{a.n} vs GF({b.field.q})^{b.n}"
        )


def dim_sum(a: Subspace, b: Subspace) -> int:
    """dim(A + B): the rank of B's rows added to A's RREF rows."""
    _check_compatible(a, b)
    return len(_rref(a.field, b.basis, a.basis, a.pivot_cols)[1])


def dim_intersection(a: Subspace, b: Subspace) -> int:
    """dim(A cap B) = dim A + dim B - dim(A + B)."""
    return a.k + b.k - dim_sum(a, b)


def enumerate_subspaces(field: GF, n: int, k: int, limit: int = ENUMERATION_LIMIT):
    """Yield every k-subspace of F_q^n exactly once, in canonical order:
    pivot-column k-sets lexicographically; within a pattern, the free
    entries run through base-q counters in row-major order.

    Fails fast with TooLargeError when qcount.gauss_at_most finds that
    [n,k]_q exceeds the limit.
    """
    if not 0 <= k <= n:
        raise OutOfRangeError(f"need 0 <= k <= n, got n={n} k={k}")
    if not gauss_at_most(n, k, field.q, limit):
        raise TooLargeError(f"[{n},{k}]_{field.q} exceeds limit {limit}")
    elements = tuple(field.elements)
    for pivots in itertools.combinations(range(n), k):
        pivot_set = set(pivots)
        free = [
            (i, c)
            for i in range(k)
            for c in range(pivots[i] + 1, n)
            if c not in pivot_set
        ]
        base = [[0] * n for _ in range(k)]
        for i, c in enumerate(pivots):
            base[i][c] = 1
        for digits in itertools.product(elements, repeat=len(free)):
            rows = [r[:] for r in base]
            for (i, c), d in zip(free, digits):
                rows[i][c] = d
            yield Subspace(field, n, k, tuple(tuple(r) for r in rows), pivots)
