import random
import time

import pytest

from bruteforce import prime_power_by_trial_division
from qkneser.errors import NotPrimePowerError, TooLargeError, UnsupportedFieldError
from qkneser.gf import GF, _iroot, factor_prime_power, make_field

SMALL_SUPPORTED = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
LARGE_SUPPORTED = [37, 49, 64, 81, 101, 121, 125, 127, 128]
PRIMES_TO_128 = [p for p in range(2, 129) if all(p % d for d in range(2, p))]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_prime_field_is_trivial_extension():
    f = make_field(2)
    assert (f.p, f.e, f.q) == (2, 1, 2)
    assert f.modulus == (0, 1)


def test_gf4_uses_the_unique_irreducible_quadratic():
    # exhaustive root check over Z_2: x^2+x+1 is the only monic quadratic
    # with no root, so GF(4)'s modulus is forced
    irreducible = [
        (c0, c1)
        for c0 in (0, 1)
        for c1 in (0, 1)
        if all((x * x + c1 * x + c0) % 2 != 0 for x in (0, 1))
    ]
    assert irreducible == [(1, 1)]
    assert make_field(4).modulus == (1, 1, 1)


def test_not_prime_power_rejected():
    for q in (6, 10, 12, 100):
        with pytest.raises(NotPrimePowerError):
            GF(q)


def _factor_or_none(q):
    try:
        return factor_prime_power(q)
    except NotPrimePowerError:
        return None


def test_factor_prime_power_matches_trial_division():
    for q in range(-2, 6000):
        assert _factor_or_none(q) == prime_power_by_trial_division(q), q


def test_factor_prime_power_is_fast_on_large_primes_and_powers():
    start = time.perf_counter()
    assert factor_prime_power(10**14 + 31) == (10**14 + 31, 1)
    assert factor_prime_power((10**6 + 3) ** 3) == (10**6 + 3, 3)
    assert factor_prime_power(2**61 - 1) == (2**61 - 1, 1)
    assert factor_prime_power(3**80) == (3, 80)
    # trial division took over a second on the first of these alone
    assert time.perf_counter() - start < 0.5
    # 4,215 and 4,516 digits: a walk over every exponent took half a minute
    # on each, and the second then failed to print q in its message
    start = time.perf_counter()
    assert factor_prime_power(2**14000) == (2, 14000)
    with pytest.raises(NotPrimePowerError):
        factor_prime_power(3 * 2**15000)
    assert time.perf_counter() - start < 1


def test_factor_prime_power_is_fast_without_a_prime_factor_up_to_41():
    # every prime factor is at least 43, so only the root search decides;
    # a walk over every exponent took about 30 s on the first
    start = time.perf_counter()
    assert factor_prime_power(43**2600) == (43, 2600)
    assert factor_prime_power(47**210) == (47, 210)  # 210 = 2*3*5*7
    with pytest.raises(NotPrimePowerError) as info:
        factor_prime_power(43**600 * 47)
    assert time.perf_counter() - start < 1
    assert "43" not in str(info.value)


def test_integer_root_is_the_floor_root_on_both_paths():
    # k*k > bit_length(n) sets the root's bits from the top; the rest take
    # Newton steps; both must give r with r^k <= n < (r+1)^k
    rng = random.Random(20261019)
    paths = set()
    for _ in range(2000):
        n = rng.getrandbits(rng.randrange(1, 4000)) | 1
        k = rng.randrange(1, 300)
        r = _iroot(n, k)
        assert r**k <= n < (r + 1) ** k, (n, k)
        paths.add(k * k > n.bit_length())
    for r, k in ((43, 2600), (2**61 - 1, 2), (3, 500), (10**6 + 3, 7)):
        assert _iroot(r**k, k) == r and _iroot(r**k - 1, k) == r - 1
    assert paths == {True, False}


def test_prime_powers_above_the_proven_bound_are_decided_by_their_base():
    # q itself lies above 3.3e24, where the 13 bases prove nothing, but its
    # base lies below it (a prime power) or a base is a witness (a composite)
    assert factor_prime_power((2**61 - 1) ** 2) == (2**61 - 1, 2)
    with pytest.raises(NotPrimePowerError):
        factor_prime_power((2**61 - 1) * (2**31 - 1))


@pytest.mark.parametrize("q", [2**89 - 1, 2**521 - 1])
def test_primes_above_the_proven_bound_are_refused_fast(q):
    # Mersenne primes pass all 13 bases, which proves nothing above 3.3e24
    start = time.perf_counter()
    with pytest.raises(TooLargeError):
        factor_prime_power(q)
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize("q", [
    1, 6, 0, -4,
    561,                       # a Carmichael number
    3215031751,                # a strong pseudoprime to bases 2, 3, 5 and 7
    3825123056546413051,       # a strong pseudoprime to the primes up to 23
    (2**61 - 1) * (10**6 + 3),
    (10**6 + 3) ** 2 * 2,
])
def test_factor_prime_power_rejects_non_prime_powers(q):
    with pytest.raises(NotPrimePowerError):
        factor_prime_power(q)


def test_unsupported_prime_powers_rejected():
    for q in (131, 169, 243, 256):
        with pytest.raises(UnsupportedFieldError):
            GF(q)


def test_make_field_caches():
    assert make_field(9) is make_field(9)
    assert make_field(9) == GF(9)


def test_element_encoding_roundtrip():
    f = make_field(27)
    for a in f.elements:
        assert f.element(f.coeffs(a)) == a
    assert f.coeffs(0) == (0, 0, 0)
    assert f.coeffs(1) == (1, 0, 0)


# ---------------------------------------------------------------------------
# arithmetic examples
# ---------------------------------------------------------------------------

def test_mod3_addition():
    assert make_field(3).add(2, 2) == 1


def test_gf4_x_squared_reduces():
    # x * x = x + 1 under modulus x^2 + x + 1; encodings: x = 2, x+1 = 3
    assert make_field(4).mul(2, 2) == 3


def test_gf5_inverse():
    assert make_field(5).inv(2) == 3


@pytest.mark.parametrize("p", PRIMES_TO_128)
def test_prime_field_tables_are_integers_mod_p(p):
    # prime fields go through the extension-field table builder with the
    # degree-1 modulus x; its tables must be the plain residues mod p
    f = GF(p)
    for a in range(p):
        assert f.neg(a) == (-a) % p
        assert [f.add(a, b) for b in range(p)] == [(a + b) % p for b in range(p)]
        assert [f.mul(a, b) for b in range(p)] == [(a * b) % p for b in range(p)]
        if a:
            assert f.inv(a) == pow(a, -1, p)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        make_field(7).inv(0)


# ---------------------------------------------------------------------------
# field axioms: exhaustive for q <= 32, sampled above
# ---------------------------------------------------------------------------

def _axiom_triples(f, triples):
    for a, b, c in triples:
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", SMALL_SUPPORTED)
def test_axioms_exhaustive_small(q):
    f = make_field(q)
    _axiom_triples(
        f, ((a, b, c) for a in f.elements for b in f.elements for c in f.elements)
    )
    for a in f.elements:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", LARGE_SUPPORTED)
def test_axioms_sampled_large(q):
    f = make_field(q)
    rng = random.Random(q)
    triples = [
        tuple(rng.randrange(q) for _ in range(3))
        for _ in range(300)
    ]
    _axiom_triples(f, triples)
    for a in f.elements:
        if a:
            assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128])
def test_frobenius_fixes_every_element(q):
    f = make_field(q)
    for a in f.elements:
        assert f.pow(a, q) == a


@pytest.mark.parametrize("q", [2, 4, 9])
def test_tables_are_read_only_rows_of_add_and_mul(q):
    f = make_field(q)
    assert [list(r) for r in f.add_table] == [[f.add(a, b) for b in f.elements] for a in f.elements]
    assert [list(r) for r in f.mul_table] == [[f.mul(a, b) for b in f.elements] for a in f.elements]
    with pytest.raises(TypeError):
        f.add_table[1][1] = 0
    with pytest.raises(AttributeError):
        f.mul_table = ()


def test_sub_and_div_consistent():
    f = make_field(9)
    for a in f.elements:
        for b in f.elements:
            assert f.add(f.sub(a, b), b) == a
            if b:
                assert f.mul(f.div(a, b), b) == a
