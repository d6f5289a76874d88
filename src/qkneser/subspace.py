"""Canonical subspaces of F_q^n, their algebra and exhaustive enumeration.

A Subspace is its layout plus its rows: lay, the one Lanes that lanes()
keeps for (q, n), and the reduced row echelon form (RREF) basis, which is
unique.  Two values are equal iff they share the layout and the rows, and
two subspaces are compatible iff their layouts are the same object.
Enumeration runs over pivot-column patterns in lexicographic order with
the free entries counted in base q, which is linear in the output size and
gives the package's canonical vertex numbering.

Vectors are packed ints (SWAR lanes; Warren, Hacker's Delight, 2nd ed.,
ch. 2).  For q = p^e, base-p digit j of coordinate i sits in lane i*e + j,
w bits wide, so coordinate i takes bits [i*e*w, (i+1)*e*w):

* p = 2: w = 1, and a vector is the concatenation of its coordinates'
  e-bit codes.  Addition is a ^ b.
* odd p: w = p.bit_length() + 1, one guard bit per lane.  With K holding
  2^(w-1) - p and H the top bit in every lane, a + b is
  s - (((s + K) & H) >> (w-1)) * p for s = a + b: lane sums lie in
  [0, 2p-2] and never carry into the next lane, and s + K sets a lane's
  top bit exactly where its sum is >= p.  a - b is the same rule on
  s = a + P - b, P holding p in every lane.

Scaling a vector by c goes through Lanes.scale, one rule for every q:
bit b of digit j of each coordinate, moved to the coordinate's bottom bit,
is a bit plane, and c * x is the lane sum over the planes of plane * (the
code of c * 2^b * x^j), with no carries since a plane has at most one bit
per coordinate and a code fits in one.  That is e * (p-1).bit_length()
products per scaling, and no field table is read per coordinate.
Lanes(field, n) holds the constants of one layout; lanes() keeps one per
(q, n).  The packed format is known only to this module: graph.py names
the d-subspaces of each vertex, one d per call, by the int keys that
subspace_keys builds from its span.

All row reduction goes through one kernel, _reduce, which contains() runs
on each row of the other space and _rref (behind canonicalize and perp) on
each row it adds.  Subspace.basis, the rows as coordinate tuples, is a
view computed on demand for repr and callers that read coordinates.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from collections import namedtuple
from operator import index, lshift, xor

from .errors import AmbientMismatchError, EmptyMatrixError, OutOfRangeError, TooLargeError
from .gf import GF
from .qcount import gauss_at_most

ENUMERATION_LIMIT = 10_000_000


class Lanes:
    """The packing of F_q^n into ints, lanes w bits wide: cw = e*w bits
    of one coordinate, bits = n*cw those of a vector; code[a] is the lanes
    of element a inside one coordinate and value[x] the element whose code
    is x.  add, sub and scale act on whole vectors."""

    __slots__ = ("field", "n", "cw", "cmask", "bits", "code", "value", "add", "sub",
                 "bottom", "planes")

    def __init__(self, field: GF, n: int):
        p, e = field.p, field.e
        w = 1 if p == 2 else p.bit_length() + 1
        self.field, self.n = field, n
        self.cw = cw = e * w
        self.cmask = (1 << cw) - 1
        self.bits = n * cw
        self.code = [sum(d << j * w for j, d in enumerate(field.coeffs(a))) for a in field.elements]
        self.value = [0] * (1 << cw)
        for a, x in enumerate(self.code):
            self.value[x] = a
        # scale: plane (j, b) of x holds bit b of digit j of each coordinate
        # at the coordinate's bottom bit; times the code of c * 2^b * x^j it
        # is c times that part of x
        self.bottom = ((1 << self.bits) - 1) // ((1 << cw) - 1)
        parts = [(j * w + b, (2**b % p) * p**j)
                 for j in range(e) for b in range((p - 1).bit_length())]
        self.planes = [[(at, self.code[field.mul(c, g)]) for at, g in parts]
                       for c in field.elements]
        if p == 2:
            self.add = self.sub = xor
            return
        low = ((1 << self.bits) - 1) // ((1 << w) - 1)  # 1 in every lane
        k, h, pp, top = low * ((1 << (w - 1)) - p), low << (w - 1), low * p, w - 1

        def add(a: int, b: int) -> int:
            s = a + b
            return s - (((s + k) & h) >> top) * p

        def sub(a: int, b: int) -> int:
            s = a + pp - b
            return s - (((s + k) & h) >> top) * p

        self.add, self.sub = add, sub

    def __reduce__(self):  # a copy or an unpickled value is the one layout of its (q, n)
        return lanes, (self.field, self.n)

    def pack(self, vec) -> int:
        """The packed int of a coordinate sequence (elements 0..q-1)."""
        code, cw, x = self.code, self.cw, 0
        for a in reversed(vec):
            x = x << cw | code[a]
        return x

    def unpack(self, x: int) -> tuple[int, ...]:
        """The coordinate tuple of a packed vector."""
        value, cmask = self.value, self.cmask
        return tuple(value[x >> s & cmask] for s in range(0, self.bits, self.cw))

    def scale(self, x: int, c: int) -> int:
        """c * x for a field element c: the sum over the bit planes of x's
        digits, each multiplied by one code.  No product carries, since a
        plane has at most one bit per coordinate and a code fits in one."""
        if c <= 1:
            return x if c else 0
        add, bottom, r = self.add, self.bottom, 0
        for at, code in self.planes[c]:
            if plane := x >> at & bottom:
                r = add(r, plane * code)
        return r


_LANES: dict[tuple[int, int], Lanes] = {}


def lanes(field: GF, n: int) -> Lanes:
    """The Lanes of F_q^n; the modulus of GF(q) is fixed by q, so one
    layout serves every field object of that q."""
    lay = _LANES.get((field.q, n))
    if lay is None:
        lay = _LANES[field.q, n] = Lanes(field, n)
    return lay


class Subspace(namedtuple("Subspace", "lay rows pivot_cols")):
    """A k-dimensional subspace of F_q^n in canonical (RREF) form.

    lay is the layout of F_q^n, rows the k RREF rows as packed ints,
    pivot_cols the strictly increasing pivot column indices; field, n and
    k are read from them.  A named tuple: immutable and hashable, and a
    copy or an unpickled value keeps the one layout of its (q, n).
    """

    __slots__ = ()

    @property
    def field(self) -> GF:
        return self.lay.field

    @property
    def n(self) -> int:
        return self.lay.n

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """The RREF rows as coordinate tuples (computed on each access)."""
        return tuple(map(self.lay.unpack, self.rows))

    def contains(self, other: "Subspace") -> bool:
        """True iff other is a subspace of self: each row of other reduces
        to zero against self's RREF rows."""
        if self.lay is not other.lay:  # lanes() keeps one layout per (q, n)
            raise AmbientMismatchError(f"incompatible subspaces: GF({self.field.q})^{self.n} "
                                       f"vs GF({other.field.q})^{other.n}")
        for y in other.rows:
            if _reduce(self.lay, self.rows, self.pivot_cols, y):
                return False
        return True

    def vectors(self):
        """Yield every vector of the subspace as a packed int (q^k of them).

        The combination sum_j c_j * rows_j comes at position sum_j c_j q^j.
        """
        add, scale, elements = self.lay.add, self.lay.scale, self.lay.field.elements
        span = [0]
        for row in self.rows:
            span = [add(v, m) for m in [scale(row, c) for c in elements] for v in span]
        return iter(span)

    def perp(self) -> "Subspace":
        """Orthogonal complement under the standard dot product, in RREF:
        the row reduction of the null space of the RREF rows, one vector per
        free column c with 1 at c and -row_i[c] at pivot column i."""
        lay = self.lay
        cw, cmask = lay.cw, lay.cmask
        negated = [lay.sub(0, row) for row in self.rows]
        null = []
        for c in range(lay.n):
            if c not in self.pivot_cols:
                vec = 1 << c * cw
                for row, p in zip(negated, self.pivot_cols):
                    vec |= (row >> c * cw & cmask) << p * cw
                null.append(vec)
        basis, pivots = _rref(lay, null)
        return Subspace(lay, tuple(basis), tuple(pivots))

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


def subspace_keys(spaces: list[Subspace], d: int):
    """Yield, for each of spaces (k-subspaces of one F_q^n), the keys of
    its d-subspaces, in span_frames order.

    A d-subspace's key is its d packed RREF rows side by side, row j
    shifted up by j * lay.bits: keys are equal iff the subspaces are."""
    first = spaces[0]
    frames = span_frames(first.field, first.k, d)
    shifts = range(0, d * first.lay.bits, first.lay.bits)
    for s in spaces:
        row = list(s.vectors()).__getitem__
        yield [sum(map(lshift, map(row, frame), shifts)) for frame in frames]


def _reduce(lay: Lanes, rows, pivots, vec: int) -> int:
    """vec - sum_i vec[pivots[i]] * rows[i]: the residual of vec against
    RREF rows, zero iff vec lies in their span.  Each step clears one pivot
    entry and leaves the others as they were."""
    cw, cmask = lay.cw, lay.cmask
    for row, p in zip(rows, pivots):
        if x := vec >> p * cw & cmask:
            c = lay.value[x]
            vec = lay.sub(vec, row if c == 1 else lay.scale(row, c))
    return vec


def _rref(lay: Lanes, rows) -> tuple[list[int], list[int]]:
    """RREF rows and pivots of the span of rows, one row at a time: its
    residual, scaled to a leading 1, clears its pivot column from the rows
    with an entry there and goes in by pivot."""
    basis: list[int] = []
    pivots: list[int] = []
    cw, cmask = lay.cw, lay.cmask
    for vec in rows:
        if len(pivots) == lay.n:  # a full-rank basis spans every vector
            break
        r = _reduce(lay, basis, pivots, vec)
        if not r:
            continue
        p = ((r & -r).bit_length() - 1) // cw  # the first nonzero coordinate
        c = lay.value[r >> p * cw & cmask]
        if c != 1:
            r = lay.scale(r, lay.field.inv(c))
        for i, row in enumerate(basis):
            if row >> p * cw & cmask:
                basis[i] = _reduce(lay, (r,), (p,), row)
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
    lay = lanes(field, n)
    basis, pivots = _rref(lay, map(lay.pack, rows))
    return Subspace(lay, tuple(basis), tuple(pivots))


def enumerate_subspaces(field: GF, n: int, k: int, limit: int = ENUMERATION_LIMIT):
    """Yield every k-subspace of F_q^n exactly once, in canonical order:
    pivot-column k-sets lexicographically; within a pattern, the free
    entries run through base-q counters in row-major order.

    Each row takes the packed values of its pivot digit plus its free
    digits, earlier columns counting slower; the rows then run through
    their product, row 0 slowest, which is the same counter.  Fails fast
    with TooLargeError when qcount.gauss_at_most finds that [n,k]_q exceeds
    the limit.
    """
    if not 0 <= k <= n:
        raise OutOfRangeError(f"need 0 <= k <= n, got n={n} k={k}")
    if not gauss_at_most(n, k, field.q, limit):
        raise TooLargeError(f"[{n},{k}]_{field.q} exceeds limit {limit}")
    lay = lanes(field, n)
    digits = [[x << c * lay.cw for x in lay.code] for c in range(n)]
    for pivots in itertools.combinations(range(n), k):
        choices = []
        for p in pivots:
            row = [1 << p * lay.cw]
            for c in range(p + 1, n):
                if c not in pivots:
                    row = [r | d for r in row for d in digits[c]]
            choices.append(row)
        for rows in itertools.product(*choices):
            yield Subspace(lay, rows, pivots)
