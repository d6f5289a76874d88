import copy
import pickle
import random

import pytest

from bruteforce import (
    addition_tables,
    dim_intersection,
    dim_sum,
    perp_by_null_space,
    rref_gauss_jordan,
    span_set,
    subspaces_by_span_dedup,
)
from qkneser.errors import AmbientMismatchError, EmptyMatrixError, NotPrimePowerError, TooLargeError
from qkneser.errors import OutOfRangeError, UnsupportedFieldError
from qkneser.gf import GF, make_field
from qkneser.qcount import gauss
from qkneser.subspace import (
    canonicalize,
    enumerate_subspaces,
    lanes,
    span_frames,
    subspace_keys,
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
    add = addition_tables(field.q)[0]
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
            rows.append([add[x][field.mul(c, y)] for x, y in zip(a, b)])
        else:
            rows.append([rng.randrange(field.q) for _ in range(n)])
    return rows


def _oracle_rank(field, rows) -> int:
    return len(rref_gauss_jordan(field, [list(r) for r in rows])[0]) if rows else 0


def test_kernel_matches_gauss_jordan_and_span_oracles():
    """canonicalize, contains and the rank of two stacked bases (the
    dim_sum oracle, on _rref) against column-by-column Gauss-Jordan
    elimination and, where q^n is tiny, against span sets."""
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
    add = addition_tables(q)[0]
    for s in enumerate_subspaces(field, n, k):
        perp = s.perp()
        assert s.k + perp.k == n
        for u in s.basis:
            for w in perp.basis:
                dot = 0
                for x, y in zip(u, w):
                    dot = add[dot][field.mul(x, y)]
                assert dot == 0
        assert perp.perp() == s


@pytest.mark.parametrize("q,n,k,d", [(3, 4, 2, 1), (2, 5, 3, 2), (4, 3, 3, 1), (2, 4, 2, 0)])
def test_span_frames_pick_each_subspace_once(q, n, k, d):
    """[U.vectors()[i] for i in frame] runs through the RREF bases of the
    d-subspaces of U, each once, and subspace_keys gives each the key of
    its own rows: row j shifted up by j * bits."""
    field = make_field(q)
    frames = span_frames(field, k, d)
    assert len(frames) == gauss(k, d, q)
    inside = [w for w in enumerate_subspaces(field, n, d)]
    bits = lanes(field, n).bits
    for s in list(enumerate_subspaces(field, n, k))[:20]:
        span = list(map(lanes(field, n).unpack, s.vectors()))
        picked = [canonicalize(field, [span[i] for i in fr] or [[0] * n]) for fr in frames]
        assert [w.basis for w in picked] == [tuple(span[i] for i in fr) for fr in frames]
        assert set(picked) == {w for w in inside if s.contains(w)}
        [keys] = subspace_keys([s], d)
        assert keys == [sum(r << j * bits for j, r in enumerate(w.rows)) for w in picked]
        assert len(set(keys)) == len(frames)


def test_canonical_form_independent_of_basis_choice():
    rng = random.Random(11)
    for field in (F2, F3, F5):
        q = field.q
        add = addition_tables(q)[0]
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
                    mixed[i] = [add[x][field.mul(c, y)] for x, y in zip(mixed[i], mixed[j])]
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
    # pivot pattern first, then the basis entries row-major
    assert subs == sorted(subs, key=lambda s: (s.pivot_cols, s.basis))


def test_zero_dimensional_space():
    subs = list(enumerate_subspaces(F3, 4, 0))
    assert len(subs) == 1 and subs[0].k == 0 and subs[0].basis == ()


def test_enumeration_rejects_k_above_n():
    with pytest.raises(OutOfRangeError):
        next(enumerate_subspaces(F2, 3, 4))


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
    with pytest.raises(AmbientMismatchError):  # F_2^4 against F_2^3
        a.contains(b)
    with pytest.raises(AmbientMismatchError):  # F_2^4 against F_3^4
        a.contains(c)
    with pytest.raises(AmbientMismatchError):
        c.contains(a)


def test_one_layout_per_q_and_n_whatever_the_field_object():
    rows = [[1, 2, 0], [0, 3, 8]]
    a, b = canonicalize(GF(9), rows), canonicalize(make_field(9), rows)
    assert a.lay is b.lay
    assert a == b and hash(a) == hash(b)
    assert a.contains(b) and b.contains(a)


def test_subspace_is_immutable_and_copies_keep_its_layout():
    s = unit_spans(F3, 4, (0, 2))
    value = (s.lay, s.rows, s.pivot_cols)
    for name in ("lay", "rows", "pivot_cols"):
        with pytest.raises(AttributeError):
            setattr(s, name, None)
        assert (s.lay, s.rows, s.pivot_cols) == value
        with pytest.raises(AttributeError):
            delattr(s, name)
        assert (s.lay, s.rows, s.pivot_cols) == value
    # derived values and new names refuse the same way
    for name in ("field", "n", "k", "basis", "other"):
        with pytest.raises(AttributeError):
            setattr(s, name, None)
        assert (s.lay, s.rows, s.pivot_cols) == value
    assert (s.field, s.n, s.k) == (F3, 4, 2)
    for other in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert other.lay is s.lay and other == s and hash(other) == hash(s)
        assert other.contains(s) and s.contains(other)


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
    vecs = set(map(lanes(F3, 3).unpack, s.vectors()))
    assert len(vecs) == 9
    assert (0, 0, 0) in vecs and (1, 0, 2) in vecs


# ---------------------------------------------------------------------------
# the packed kernel against per-entry tuple oracles, on every field q <= 27
# ---------------------------------------------------------------------------

def _fields_up_to(qmax: int):
    out = []
    for q in range(2, qmax + 1):
        try:
            out.append(make_field(q))
        except (NotPrimePowerError, UnsupportedFieldError):
            pass
    return out


FIELDS_TO_27 = _fields_up_to(27)


def test_fields_to_27_are_the_primes_and_prime_powers():
    assert [f.q for f in FIELDS_TO_27] == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27]


def _lane_edge_vectors(field, n: int) -> list[list[int]]:
    """Vectors whose lanes sit at the edges of the add rule: every digit
    p-1 (so (p-1)+(p-1) in each lane), zero, one in the top lane only, the
    largest element in the top lane only, and 1 everywhere."""
    top = field.q - 1
    return [[top] * n, [0] * n, [0] * (n - 1) + [1], [0] * (n - 1) + [top], [1] * n]


@pytest.mark.parametrize("field", FIELDS_TO_27, ids=lambda f: f"q{f.q}")
def test_lane_arithmetic_matches_field_tables(field):
    """pack/unpack, add, sub and scale on packed vectors equal the same
    operation entry by entry: scale through the field's mul, add and sub
    through the digit-wise oracle."""
    add, neg = addition_tables(field.q)
    rng = random.Random(field.q)
    for n in range(1, 7):
        lay = lanes(field, n)
        vecs = _lane_edge_vectors(field, n) + [
            [rng.randrange(field.q) for _ in range(n)] for _ in range(12)]
        for a in vecs:
            x = lay.pack(a)
            assert x.bit_length() <= lay.bits and lay.unpack(x) == tuple(a)
            for c in {0, 1, field.q - 1, rng.randrange(field.q)}:
                assert lay.unpack(lay.scale(x, c)) == tuple(field.mul(c, v) for v in a)
            for b in vecs[:5] + [rng.choice(vecs)]:
                y = lay.pack(b)
                assert lay.unpack(lay.add(x, y)) == tuple(add[u][v] for u, v in zip(a, b))
                assert lay.unpack(lay.sub(x, y)) == tuple(add[u][neg[v]] for u, v in zip(a, b))


@pytest.mark.parametrize("field", FIELDS_TO_27, ids=lambda f: f"q{f.q}")
def test_packed_kernel_matches_tuple_oracles(field):
    """canonicalize, contains, the dim_sum oracle, perp and vectors() against
    Gauss-Jordan elimination, null spaces built entry by entry and span
    sets, on seeded matrices with n <= 6, lane edge rows included."""
    rng = random.Random(1000 + field.q)
    q = field.q
    add = addition_tables(q)[0]
    for case in range(40):
        n = 1 + case % 6
        rows = _oracle_rows(rng, field, n, rng.randrange(1, n + 3))
        if case % 4 == 0:
            rows += rng.sample(_lane_edge_vectors(field, n), 2)
        s = canonicalize(field, rows)
        basis, pivots = rref_gauss_jordan(field, [list(r) for r in rows])
        assert (s.basis, s.pivot_cols) == (tuple(map(tuple, basis)), tuple(pivots))
        t = canonicalize(field, _oracle_rows(rng, field, n, rng.randrange(1, n + 2))
                         + rng.sample(rows, rng.randrange(len(rows) + 1)))
        total = _oracle_rank(field, s.basis + t.basis)
        assert dim_sum(s, t) == dim_sum(t, s) == total
        assert s.contains(t) == (total == s.k) and t.contains(s) == (total == t.k)
        perp_basis, perp_pivots = perp_by_null_space(field, n, s.basis)
        perp = s.perp()
        assert (perp.basis, perp.pivot_cols) == (tuple(map(tuple, perp_basis)),
                                                 tuple(perp_pivots))
        if q**s.k <= 729:
            # position sum_j c_j q^j holds sum_j c_j * row_j
            expected = []
            for pos in range(q**s.k):
                vec = [0] * n
                for j, row in enumerate(s.basis):
                    c = pos // q**j % q
                    vec = [add[v][field.mul(c, x)] for v, x in zip(vec, row)]
                expected.append(tuple(vec))
            got = list(map(lanes(field, n).unpack, s.vectors()))
            assert got == expected
            assert set(got) == span_set(field, n, rows)
