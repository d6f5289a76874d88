import random

import pytest

from bruteforce import rref_gauss_jordan, span_set, subspaces_by_span_dedup
from qkneser.errors import AmbientMismatchError, EmptyMatrixError, TooLargeError
from qkneser.gf import make_field
from qkneser.qcount import gauss
from qkneser.subspace import (
    canonicalize,
    dim_intersection,
    dim_sum,
    enumerate_subspaces,
    span_frames,
)

F2 = make_field(2)
F3 = make_field(3)
F5 = make_field(5)


def unit_spans(field, n, dims):
    rows = [[1 if j == i else 0 for j in range(n)] for i in dims]
    return canonicalize(field, rows)


# ---------------------------------------------------------------------------
# canonicalize
# ---------------------------------------------------------------------------

def test_rref_row_swap():
    s = canonicalize(F2, [[0, 1], [1, 0]])
    assert s.basis == ((1, 0), (0, 1))
    assert s.pivot_cols == (0, 1)


def test_rref_elimination():
    s = canonicalize(F2, [[1, 1, 0], [1, 0, 1]])
    assert s.basis == ((1, 0, 1), (0, 1, 1))


def test_rref_scaling_over_gf5():
    s = canonicalize(F5, [[2, 4]])
    assert s.basis == ((1, 2),)


def test_rank_deficient_input_drops_rows():
    s = canonicalize(F2, [[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    assert s.k == 1 and s.basis == ((1, 1, 0),)


def test_empty_matrix_rejected():
    with pytest.raises(EmptyMatrixError):
        canonicalize(F2, [])


@pytest.mark.parametrize("q,rows", [
    (2, [[1, 2]]), (2, [[1, -1]]), (2, [[2, 1]]), (2, [[1, 0], [0, 1, 1]]),
    (9, [[0, 9, 1]]), (3, [[1, 1], [0, -3]]),
    (2, [[1.0, 0]]), (2, [[1.0, 0], [1, 1]]),  # floats equal to field elements
])
def test_rows_outside_the_field_rejected(q, rows):
    with pytest.raises(AmbientMismatchError):
        canonicalize(make_field(q), rows)


def _oracle_rows(rng, field, n: int, m: int) -> list[list[int]]:
    """m rows of F_q^n: random ones, zero rows, repeats and combinations of
    earlier rows, so that the rank is often below m."""
    rows = []
    for _ in range(m):
        kind = rng.randrange(5)
        if kind == 0:
            rows.append([0] * n)
        elif kind == 1 and rows:
            rows.append(list(rng.choice(rows)))
        elif kind == 2 and rows:
            a, b = rng.choice(rows), rng.choice(rows)
            c = rng.randrange(field.q)
            rows.append([field.add(x, field.mul(c, y)) for x, y in zip(a, b)])
        else:
            rows.append([rng.randrange(field.q) for _ in range(n)])
    return rows


def _oracle_rank(field, rows) -> int:
    return len(rref_gauss_jordan(field, [list(r) for r in rows])[0]) if rows else 0


def test_kernel_matches_gauss_jordan_and_span_oracles():
    """canonicalize, contains and dim_sum against column-by-column
    Gauss-Jordan elimination and, where q^n is tiny, against span sets."""
    rng = random.Random(1207)
    small = 0
    for _ in range(1000):
        field = make_field(rng.choice((2, 3, 4, 5, 7, 8, 9)))
        q = field.q
        n = rng.randrange(8)
        rows = _oracle_rows(rng, field, n, rng.randrange(n + 3))
        if not rows:
            with pytest.raises(EmptyMatrixError):
                canonicalize(field, rows)
            continue
        s = canonicalize(field, rows)
        basis, pivots = rref_gauss_jordan(field, [list(r) for r in rows])
        assert s.basis == tuple(map(tuple, basis))
        assert s.pivot_cols == tuple(pivots) and s.k == len(basis)
        # a second space, often spanned by some of the same rows
        more = _oracle_rows(rng, field, n, rng.randrange(n + 2))
        t = canonicalize(field, rng.sample(rows, rng.randrange(len(rows) + 1)) + more
                         or [[0] * n])
        total = _oracle_rank(field, s.basis + t.basis)
        assert dim_sum(s, t) == dim_sum(t, s) == total
        assert s.contains(t) == (total == s.k)
        assert t.contains(s) == (total == t.k)
        if q**n <= 256:
            small += 1
            span_s, span_t = span_set(field, n, rows), span_set(field, n, t.basis)
            assert span_set(field, n, s.basis) == span_s and len(span_s) == q**s.k
            assert s.contains(t) == (span_t <= span_s)
            assert q ** dim_sum(s, t) == len(span_set(field, n, s.basis + t.basis))
    assert small >= 150


@pytest.mark.parametrize("q,n,k", [(2, 5, 3), (2, 6, 4), (3, 4, 3), (4, 3, 2), (9, 3, 2),
                                   (2, 4, 4), (5, 2, 1)])
def test_perp_is_the_orthogonal_complement(q, n, k):
    field = make_field(q)
    for s in enumerate_subspaces(field, n, k):
        perp = s.perp()
        assert s.k + perp.k == n
        for u in s.basis:
            for w in perp.basis:
                dot = 0
                for x, y in zip(u, w):
                    dot = field.add(dot, field.mul(x, y))
                assert dot == 0
        assert perp.perp() == s


@pytest.mark.parametrize("q,n,k,d", [(3, 4, 2, 1), (2, 5, 3, 2), (4, 3, 3, 1), (2, 4, 2, 0)])
def test_span_frames_pick_each_subspace_once(q, n, k, d):
    """[U.vectors()[i] for i in frame] runs through the RREF bases of the
    d-subspaces of U, each once."""
    field = make_field(q)
    frames = span_frames(field, k, d)
    assert len(frames) == gauss(k, d, q)
    inside = [w for w in enumerate_subspaces(field, n, d)]
    for s in list(enumerate_subspaces(field, n, k))[:20]:
        span = list(s.vectors())
        picked = [canonicalize(field, [span[i] for i in fr] or [[0] * n]) for fr in frames]
        assert [w.basis for w in picked] == [tuple(span[i] for i in fr) for fr in frames]
        assert sorted(picked) == sorted(w for w in inside if s.contains(w))


def test_canonical_form_independent_of_basis_choice():
    rng = random.Random(11)
    for field in (F2, F3, F5):
        q = field.q
        for _ in range(25):
            n = rng.randrange(2, 6)
            k = rng.randrange(1, n + 1)
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
            s = canonicalize(field, rows)
            # random invertible row operations: scale by nonzero, add multiples, shuffle
            mixed = [list(r) for r in rows]
            for _ in range(6):
                i, j = rng.randrange(k), rng.randrange(k)
                c = rng.randrange(1, q)
                if i == j:
                    mixed[i] = [field.mul(c, x) for x in mixed[i]]
                else:
                    mixed[i] = [field.add(x, field.mul(c, y))
                                for x, y in zip(mixed[i], mixed[j])]
            rng.shuffle(mixed)
            assert canonicalize(field, mixed) == s


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumeration_counts_match_gauss():
    for field in (F2, F3):
        for n in range(6):
            for k in range(n + 1):
                count = sum(1 for _ in enumerate_subspaces(field, n, k))
                assert count == gauss(n, k, field.q)


def test_enumeration_matches_span_dedup_oracle():
    for field, n, k in ((F2, 4, 2), (F2, 3, 1), (F3, 3, 2)):
        enumerated = set(enumerate_subspaces(field, n, k))
        assert enumerated == subspaces_by_span_dedup(field, n, k)


def test_enumeration_duality_counts():
    for n, k in ((5, 2), (6, 2), (5, 1)):
        a = sum(1 for _ in enumerate_subspaces(F2, n, k))
        b = sum(1 for _ in enumerate_subspaces(F2, n, n - k))
        assert a == b


def test_enumeration_order_is_pivot_lex_then_base_q_counter():
    first = list(enumerate_subspaces(F3, 3, 1))
    bases = [s.basis for s in first]
    assert bases[:4] == [((1, 0, 0),), ((1, 0, 1),), ((1, 0, 2),), ((1, 1, 0),)]
    assert bases[-2:] == [((0, 1, 2),), ((0, 0, 1),)]
    assert bases == [s.basis for s in enumerate_subspaces(F3, 3, 1)]  # stable


def test_enumeration_yields_distinct_canonical_subspaces():
    subs = list(enumerate_subspaces(F2, 4, 2))
    assert len(set(subs)) == 35
    assert all(canonicalize(F2, s.basis) == s for s in subs)
    assert subs == sorted(subs)  # sort_key agrees with emission order


def test_zero_dimensional_space():
    subs = list(enumerate_subspaces(F3, 4, 0))
    assert len(subs) == 1 and subs[0].k == 0 and subs[0].basis == ()


def test_enumeration_size_guard():
    with pytest.raises(TooLargeError):
        next(enumerate_subspaces(F2, 8, 4, limit=100))


# ---------------------------------------------------------------------------
# dimension arithmetic
# ---------------------------------------------------------------------------

def test_dim_intersection_examples():
    a = unit_spans(F2, 4, (0, 1))
    b = unit_spans(F2, 4, (2, 3))
    c = unit_spans(F2, 4, (1, 2))
    assert dim_intersection(a, a) == 2 and dim_sum(a, a) == 2
    assert dim_intersection(a, b) == 0 and dim_sum(a, b) == 4
    assert dim_intersection(a, c) == 1 and dim_sum(a, c) == 3


def test_ambient_mismatch_rejected():
    a = unit_spans(F2, 4, (0,))
    b = unit_spans(F2, 3, (0,))
    c = unit_spans(F3, 4, (0,))
    with pytest.raises(AmbientMismatchError):
        dim_intersection(a, b)
    with pytest.raises(AmbientMismatchError):
        dim_sum(a, c)


def test_modular_law_on_random_pairs():
    subs = list(enumerate_subspaces(F3, 4, 2))
    rng = random.Random(5)
    for _ in range(60):
        a, b = rng.choice(subs), rng.choice(subs)
        inter, total = dim_intersection(a, b), dim_sum(a, b)
        assert inter == dim_intersection(b, a)
        assert a.k + b.k == inter + total
        assert max(0, a.k + b.k - 4) <= inter <= min(a.k, b.k)


def test_contains():
    s = unit_spans(F2, 4, (0, 1))
    diag = canonicalize(F2, [[1, 1, 0, 0]])
    zero = canonicalize(F2, [[0, 0, 0, 0]])
    assert s.contains(s)
    assert s.contains(diag)
    assert s.contains(zero)
    assert not diag.contains(s)
    assert not s.contains(unit_spans(F2, 4, (2,)))


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 3)])
def test_contains_agrees_with_rank_route(q, n):
    field = make_field(q)
    subs = [s for k in range(n + 1) for s in enumerate_subspaces(field, n, k)]
    for a in subs:
        for b in subs:
            assert a.contains(b) == (dim_intersection(a, b) == b.k)
    with pytest.raises(AmbientMismatchError):
        subs[0].contains(unit_spans(field, n + 1, (0,)))


def test_vectors_span_has_full_size():
    s = unit_spans(F3, 3, (0, 2))
    vecs = set(s.vectors())
    assert len(vecs) == 9
    assert (0, 0, 0) in vecs and (1, 0, 2) in vecs
