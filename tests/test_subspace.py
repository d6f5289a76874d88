import random

import pytest

from bruteforce import subspaces_by_span_dedup
from qkneser.errors import AmbientMismatchError, EmptyMatrixError, TooLargeError
from qkneser.gf import make_field
from qkneser.qcount import gauss
from qkneser.subspace import canonicalize, dim_intersection, dim_sum, enumerate_subspaces

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
