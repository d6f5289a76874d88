import copy
import pickle
import random

import pytest

from qkneser.errors import BadQError, OutOfRangeError
from qkneser.qcount import (
    Params,
    Window,
    alpha_formula,
    degree_formula,
    delta_alpha_below_vertex_count,
    gauss,
    gauss_at_most,
    gauss_bounds_hold,
    gauss_identities_hold,
    intersect_count,
    layer_exceeds_alpha,
    pigeonhole_bound_holds,
    sweep_records,
    tw_formula_applies,
    tw_formula_cograssmann,
    tw_formula_qkneser,
    tw_value,
)


# ---------------------------------------------------------------------------
# Gaussian binomials
# ---------------------------------------------------------------------------

def test_gauss_small_values():
    assert gauss(4, 2, 2) == 35
    assert gauss(7, 2, 2) == 2667  # 127 * 63 / 3
    assert gauss(4, 2, 3) == 130
    assert gauss(5, 2, 2) == 155


def test_gauss_conventions():
    for a in range(6):
        assert gauss(a, 0, 2) == 1
        assert gauss(a, -1, 2) == 0
        assert gauss(a, a + 1, 2) == 0
        assert gauss(a, a, 2) == 1


def test_gauss_rejects_bad_q():
    with pytest.raises(BadQError):
        gauss(4, 2, 1)
    with pytest.raises(ValueError):
        gauss(-1, 0, 2)


def test_gauss_symmetry():
    for q in (2, 3, 4, 5):
        for a in range(13):
            for b in range(a + 1):
                assert gauss(a, b, q) == gauss(a, a - b, q)


def test_gauss_accepts_non_prime_power_q():
    # polynomial identity in q; q = 6 must still give exact integers
    assert gauss(4, 2, 6) == (6**4 - 1) * (6**3 - 1) // ((6**2 - 1) * 5)


def test_size_gate_agrees_with_the_multiplied_out_count():
    # the gate answers from bit lengths alone once
    # e = k(n-k)(bit_length(q)-1) >= bit_length(limit); each case takes
    # limits on both sides of that boundary and around [n,k]_q itself
    rng = random.Random(20261018)
    cases = 0
    for q in (2, 3, 4, 5, 7, 8, 9, 16):
        for _ in range(40):
            n = rng.randrange(0, 24)
            for k in (-1, 0, rng.randrange(n + 1), n, n + 1):
                count = gauss(n, k, q)
                e = k * (n - k) * (q.bit_length() - 1)
                limits = {0, 1, count - 1, count, count + 1}
                if e > 0:
                    # bit_length e: the gate stops early; e + 1: it multiplies out
                    limits |= {1 << (e - 1), (1 << e) - 1, (1 << e) | rng.getrandbits(e), 1 << e}
                for limit in limits:
                    assert gauss_at_most(n, k, q, limit) == (count <= limit), (n, k, q, limit)
                    cases += 1
    assert cases > 5000
    # far past the limit, nothing is multiplied out
    assert not gauss_at_most(10**9, 2, 2, 10**4300)
    with pytest.raises(BadQError):
        gauss_at_most(4, 2, 1, 0)


# ---------------------------------------------------------------------------
# recurrences and bounds
# ---------------------------------------------------------------------------

def test_recurrence_identity_examples():
    assert gauss(5, 2, 2) == 155 == gauss(4, 1, 2) + 4 * gauss(4, 2, 2)
    assert gauss_identities_hold(5, 2, 2)
    assert gauss_identities_hold(3, 3, 2)  # [3,3] = 1 = [2,2]
    assert gauss(6, 1, 3) == 364 == gauss(5, 0, 3) + 3 * gauss(5, 1, 3)
    assert gauss_identities_hold(6, 1, 3)


def test_power_bound_examples():
    assert 16 < gauss(4, 2, 2) < 256
    assert gauss_bounds_hold(4, 2, 2)
    assert gauss_bounds_hold(3, 3, 5)  # equality case i = m: 1 <= 1
    assert 16 < gauss(5, 1, 2) < 32
    assert gauss_bounds_hold(5, 1, 2)


def test_identities_and_bounds_sweep():
    for q in (2, 3, 4, 5, 7, 8, 9):
        for m in range(1, 13):
            for i in range(1, m + 1):
                assert gauss_identities_hold(m, i, q)
                assert gauss_bounds_hold(m, i, q)


def test_identity_precondition():
    with pytest.raises(OutOfRangeError):
        gauss_identities_hold(2, 3, 2)


# ---------------------------------------------------------------------------
# intersection counts
# ---------------------------------------------------------------------------

def test_intersect_count_examples():
    assert intersect_count(4, 2, 2, 1, 2) == 18  # 2 * [2,1] * [2,1]
    assert intersect_count(4, 2, 2, 2, 2) == 1   # only Y = X
    assert sum(intersect_count(4, 2, 2, m, 2) for m in range(3)) == 35


def test_intersect_count_infeasible_cases_are_zero():
    assert intersect_count(4, 2, 2, -1, 2) == 0
    assert intersect_count(4, 2, 2, 3, 2) == 0
    assert intersect_count(4, 3, 3, 1, 2) == 0  # two 3-subspaces of F^4 meet in dim >= 2


@pytest.mark.parametrize("n, j, i", [(4, -1, 2), (4, 5, 2), (4, 2, -1), (4, 2, 5)])
def test_intersect_count_rejects_dimensions_outside_0_to_n(n, j, i):
    with pytest.raises(OutOfRangeError):
        intersect_count(n, j, i, 0, 2)


@pytest.mark.parametrize("q", [1, 0, -2])
def test_intersect_count_and_cograssmann_reject_q_below_2(q):
    with pytest.raises(BadQError):
        intersect_count(4, 2, 2, 1, q)
    with pytest.raises(BadQError):
        tw_formula_cograssmann(5, 2, q)


def test_intersect_count_partitions_the_grassmannian():
    for q in (2, 3, 4, 5):
        for n in range(7):
            for j in range(n + 1):
                for i in range(n + 1):
                    total = sum(intersect_count(n, j, i, m, q) for m in range(i + 1))
                    assert total == gauss(n, i, q)


# ---------------------------------------------------------------------------
# graph-parameter formulas
# ---------------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(OutOfRangeError):
        Params(4, 2, 2, 2)  # t = k
    with pytest.raises(OutOfRangeError):
        Params(4, 2, 0, 2)
    with pytest.raises(OutOfRangeError):
        Params(2, 3, 1, 2)  # k > n
    with pytest.raises(BadQError):
        Params(4, 2, 1, 1)


def test_params_make_and_replace_check_the_range():
    # _replace builds through _make, which a named tuple does not route
    # through __new__; both must refuse what the constructor refuses
    p = Params(7, 2, 1, 2)
    with pytest.raises(OutOfRangeError):
        p._replace(t=5)
    with pytest.raises(BadQError):
        Params._make((7, 2, 1, 1))
    assert p._replace(n=8) == Params(8, 2, 1, 2)
    assert Params._make([7, 2, 1, 2]) == p
    for other in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert other == p and type(other) is Params


def test_degree_formula_examples():
    assert degree_formula(Params(7, 2, 1, 2)) == 2480  # 16 * [5,2]
    assert degree_formula(Params(5, 2, 1, 2)) == 112   # 16 * [3,2]
    assert degree_formula(Params(4, 2, 1, 2)) == 16
    assert degree_formula(Params(3, 2, 1, 2)) == 0     # all pairs intersect


def test_alpha_formula_examples():
    assert alpha_formula(Params(4, 2, 1, 2)) == 7
    assert alpha_formula(Params(7, 2, 1, 2)) == 63
    assert alpha_formula(Params(3, 2, 1, 2)) == 7  # edgeless: all of V = [3,2]_2


def test_tw_formula_range_predicate():
    assert tw_formula_applies(Params(7, 2, 1, 2))
    assert not tw_formula_applies(Params(6, 2, 1, 2))
    for k, t in ((3, 1), (4, 2), (8, 7)):
        boundary = 2 * t * (k - t + 1) + k + 1
        assert tw_formula_applies(Params(boundary, k, t, 2))
        assert not tw_formula_applies(Params(boundary - 1, k, t, 2))


def test_tw_formula_qkneser_examples():
    assert tw_formula_qkneser(Params(7, 2, 1, 2)) == 2603
    assert tw_formula_qkneser(Params(8, 2, 1, 2)) == 10795 - 127 - 1
    with pytest.raises(OutOfRangeError):
        tw_formula_qkneser(Params(6, 2, 1, 2))


def test_tw_formula_equals_vertex_count_minus_alpha_minus_one():
    for q in (2, 3, 5):
        for k in range(2, 6):
            for t in range(1, k):
                n = 2 * t * (k - t + 1) + k + 1
                p = Params(n, k, t, q)
                assert tw_formula_qkneser(p) == gauss(n, k, q) - alpha_formula(p) - 1


def test_tw_cograssmann_examples():
    assert tw_formula_cograssmann(5, 2, 2) == 139
    assert tw_formula_cograssmann(6, 3, 2) == 1395 - 15 - 1
    with pytest.raises(OutOfRangeError):
        tw_formula_cograssmann(4, 3, 2)  # n < k + 2
    with pytest.raises(OutOfRangeError):
        tw_formula_cograssmann(4, 1, 2)


def test_tw_cograssmann_is_symmetric_in_k_and_n_minus_k():
    # G_q(n,k) = G_q(n,n-k): direct callers get the value tw_value gives
    for n, k, q in ((5, 3, 2), (6, 4, 2), (5, 3, 3), (7, 5, 2), (7, 4, 2)):
        assert tw_formula_cograssmann(n, k, q) == tw_formula_cograssmann(n, n - k, q) \
            == tw_value(Params(n, k, k - 1, q))
    assert tw_formula_cograssmann(5, 3, 2) == 139
    assert tw_formula_cograssmann(4, 2, 2) == Window(19, 27)


def test_tw_cograssmann_open_window_at_n4_k2():
    w = tw_formula_cograssmann(4, 2, 2)
    assert isinstance(w, Window)
    assert (w.lower, w.upper) == (19, 27)
    assert 20 in w and 28 not in w
    w3 = tw_formula_cograssmann(4, 2, 3)
    assert (w3.lower, w3.upper) == (3**4 + 3**2 - 1, 3**4 + 3**3 + 3**2 - 1)


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------

def test_layer_exceeds_alpha_examples():
    # LHS at (7,2,1,2): 2 * [5,1] * [2,1] = 2 * 31 * 3; alpha = 63
    assert layer_exceeds_alpha(Params(7, 2, 1, 2))
    assert layer_exceeds_alpha(Params(4, 2, 1, 2))  # 18 > 7
    assert layer_exceeds_alpha(Params(6, 3, 2, 3))


def test_layer_term_matches_intersect_count():
    for p in (Params(7, 2, 1, 2), Params(6, 3, 2, 3), Params(9, 4, 2, 2)):
        lhs = p.q ** ((p.k - p.t) ** 2) * gauss(p.n - p.k, p.k - p.t, p.q) * gauss(p.k, p.t, p.q)
        assert lhs == intersect_count(p.n, p.k, p.k, p.t, p.q)


def test_pigeonhole_bound_examples():
    assert pigeonhole_bound_holds(Params(7, 2, 1, 2))   # 27 <= 63
    assert pigeonhole_bound_holds(Params(10, 3, 1, 2))
    # exact arithmetic refutes the bound just below / at the q=2, t=1
    # hypothesis boundary for k >= 4: 3*[4,1]^2*[11,2] > [12,3]
    assert not pigeonhole_bound_holds(Params(9, 3, 1, 2))
    assert not pigeonhole_bound_holds(Params(13, 4, 1, 2))
    assert 3 * gauss(4, 1, 2) ** 2 * gauss(11, 2, 2) == 471168225
    assert gauss(12, 3, 2) == 408345795


def test_delta_alpha_below_vertex_count_in_range():
    for q in (2, 3, 9):
        for k in range(2, 6):
            for t in range(1, k):
                for n in range(2 * k, 25):
                    assert delta_alpha_below_vertex_count(Params(n, k, t, q))


# ---------------------------------------------------------------------------
# sweep records
# ---------------------------------------------------------------------------

def test_sweep_record_format():
    lines = sweep_records([Params(7, 2, 1, 2), Params(6, 2, 1, 2)])
    assert lines[0] == "2,7,2,1,true,true,2480,63,2603"
    q, n, k, t, c1, c2, delta, alpha, tw = lines[1].split(",")
    assert (q, n, k, t) == ("2", "6", "2", "1")
    assert c1 == "true" and tw == "-"
