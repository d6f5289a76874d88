"""Canonical subspaces of F_q^n and their exhaustive enumeration.

A k-subspace is represented by its reduced row echelon form (RREF) basis,
which is unique, so two Subspace values are equal iff their basis matrices
are identical.  Enumeration runs over pivot-column patterns in lexicographic
order with the free entries counted in base q, which is linear in the output
size and gives the package's canonical vertex numbering.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import getitem

from .errors import AmbientMismatchError, EmptyMatrixError, TooLargeError
from .gf import GF
from .qcount import gauss

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
        """True iff other is a subspace of self.

        Each basis row y of other is reduced against self's RREF rows: the
        residual y - sum_i y[pivot_i] * basis_i is zero iff y lies in self.
        """
        _check_compatible(self, other)
        if other.k > self.k:
            return False
        f = self.field
        add, mul = f.add_table, f.mul_table
        for y in other.basis:
            r = y
            for row, p in zip(self.basis, self.pivot_cols):
                c = r[p]
                if c:  # r + (-c) * row, entry by entry through the table rows
                    r = list(map(getitem, map(add.__getitem__, r),
                                 map(mul[f.neg(c)].__getitem__, row)))
            if any(r):
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

    def __repr__(self):
        rows = ";".join("".join(str(x) for x in r) for r in self.basis)
        return f"Subspace(q={self.field.q}, n={self.n}, [{rows}])"


def _rref(field: GF, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """In-place Gaussian elimination to RREF; returns (nonzero rows, pivots)."""
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
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return rows[:r], pivots


def canonicalize(field: GF, rows) -> Subspace:
    """RREF span of the given row vectors (any spanning set, any rank).

    The result is independent of the basis choice; k = rank(rows).
    Raises EmptyMatrixError when no rows are given.
    """
    rows = [list(r) for r in rows]
    if not rows:
        raise EmptyMatrixError("need at least one row vector")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise AmbientMismatchError("rows of unequal length")
    red, pivots = _rref(field, rows)
    return Subspace(field, n, len(red), tuple(tuple(r) for r in red), tuple(pivots))


def _check_compatible(a: Subspace, b: Subspace) -> None:
    if a.field != b.field or a.n != b.n:
        raise AmbientMismatchError(
            f"incompatible subspaces: GF({a.field.q})^{a.n} vs GF({b.field.q})^{b.n}"
        )


def dim_sum(a: Subspace, b: Subspace) -> int:
    """dim(A + B) = rank of the stacked bases."""
    _check_compatible(a, b)
    if a.k == 0:
        return b.k
    if b.k == 0:
        return a.k
    stacked = [list(r) for r in a.basis] + [list(r) for r in b.basis]
    red, _ = _rref(a.field, stacked)
    return len(red)


def dim_intersection(a: Subspace, b: Subspace) -> int:
    """dim(A cap B) = dim A + dim B - dim(A + B)."""
    return a.k + b.k - dim_sum(a, b)


def enumerate_subspaces(field: GF, n: int, k: int, limit: int = ENUMERATION_LIMIT):
    """Yield every k-subspace of F_q^n exactly once, in canonical order:
    pivot-column k-sets lexicographically; within a pattern, the free
    entries run through base-q counters in row-major order.

    Fails fast with TooLargeError when [n,k]_q exceeds the limit.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n} k={k}")
    total = gauss(n, k, field.q)
    if total > limit:
        raise TooLargeError(f"[{n},{k}]_{field.q} = {total} exceeds limit {limit}")
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
