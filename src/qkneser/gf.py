"""The finite field GF(q) for prime powers q: moduli, encoding, products.

Elements are plain integers in [0, q).  For GF(p^e) the integer a encodes
the polynomial a_0 + a_1*x + ... + a_{e-1}*x^{e-1} where (a_0, ..., a_{e-1})
are the base-p digits of a (a_0 least significant).  Extension fields are
built from a fixed table of monic irreducible moduli (Conway polynomials),
so element encodings are reproducible across runs and implementations.
Addition is digit-wise mod p; it acts on whole packed vectors in
subspace.Lanes, which is built from these digits and the product table.

Only graph construction needs the field; the counting formulas treat q as
a bare integer and never import this module.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotPrimePowerError, TooLargeError, UnsupportedFieldError

# Monic irreducible moduli over Z_p, coefficient lists with the constant
# term first (the x^e coefficient, always 1, is last).  Conway polynomials.
_MODULI = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 4, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (3, 6, 1),
    64: (1, 1, 0, 1, 1, 0, 1),
    81: (2, 0, 0, 2, 1),
    121: (2, 7, 1),
    125: (3, 3, 0, 1),
    128: (1, 1, 0, 0, 0, 0, 0, 1),
}


# every composite n < 3,317,044,064,679,887,385,961,981 fails the strong
# probable-prime test to one of the prime bases up to 41 (Sorenson &
# Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981
# a q left longer than this after root extraction is refused untested: it
# could only be proven composite (a prime that long is beyond _MR_PROVEN),
# and one strong-probable-prime round on it takes seconds (about 0.25 s at
# 4,096 bits and 8 s at 14,100 bits in CPython 3.11 on one core)
_MR_BITS = 4096


def _is_prime(n: int) -> bool:
    """Miller-Rabin to the 13 prime bases up to 41, for n >= 2.  A witness
    proves n composite at any size; passing every base proves n prime only
    below _MR_PROVEN, so at or above it a pass raises TooLargeError."""
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_PROVEN:
        raise TooLargeError("primality above 3.3e24 is not decided by a proven test")
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1.  The root has m = ceil(b/k) bits, b the
    bit length of n.  For k*k > b they are set one at a time from the top
    (m powers of k); otherwise integer Newton steps go down from 2^m, each
    shrinking x by about a factor 1 - 1/k until it is near the root."""
    m = -(-n.bit_length() // k)
    if k * k > n.bit_length():
        x = 0
        for i in reversed(range(m)):
            if (x | 1 << i) ** k <= n:
                x |= 1 << i
        return x
    x = 1 << m
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise NotPrimePowerError.  A base p
    of _MR_BASES that divides q is its only candidate: dividing p out must
    leave 1.  Otherwise every prime factor is at least 43.  Then q is
    replaced by its exact ell-th root, and e multiplied by ell, for prime
    ell from 2 up, while that root is at least 43; what is left must be
    prime.  What is left is refused with TooLargeError, untested, when it
    is longer than _MR_BITS bits; a prime that _is_prime cannot prove
    raises TooLargeError too.  No message prints q."""
    if q < 2:
        raise NotPrimePowerError("q must be >= 2")
    for p in _MR_BASES:
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            if q == 1:
                return p, e
            raise NotPrimePowerError("q is not a prime power")
    e, ell = 1, 2
    while (r := _iroot(q, ell)) > _MR_BASES[-1]:
        if r**ell == q:
            q, e = r, e * ell  # r may be an ell-th power in turn
            continue
        ell += 1
        while not _is_prime(ell):
            ell += 1
    if q.bit_length() > _MR_BITS:
        raise TooLargeError(f"q is not decided: no prime factor up to 41, and over {_MR_BITS} "
                            "bits after root extraction")
    if _is_prime(q):
        return q, e
    raise NotPrimePowerError("q is not a prime power")


class GF:
    """GF(q) as its modulus, its digit encoding and the product and inverse
    tables behind mul and inv; vectors are added in subspace.Lanes.

    Immutable after construction; all operations are pure, so instances
    are safe for unrestricted concurrent use.
    """

    def __init__(self, q: int):
        p, e = factor_prime_power(q)
        if e == 1:
            if p > 128:
                raise UnsupportedFieldError(f"prime field GF({q}) beyond built-in range (p <= 128)")
            modulus = (0, 1)  # the trivial degree-1 polynomial x
        else:
            if q not in _MODULI:
                raise UnsupportedFieldError(f"no built-in modulus for GF({q})")
            modulus = _MODULI[q]
        self.p = p
        self.e = e
        self.q = q
        self.modulus = modulus
        self._build_tables()

    def _build_tables(self) -> None:
        # one path for every q: a prime field is the degree-1 extension by
        # the modulus x, whose products need no reduction
        p, q = self.p, self.q
        digits = [self.coeffs(a) for a in range(q)]
        self._mul = tuple(tuple(self._poly_mul(digits[a], digits[b]) for b in range(q))
                          for a in range(q))
        self._inv = [0] * q
        for a in range(1, q):
            row = self._mul[a]
            for b in range(1, q):
                if row[b] == 1:
                    self._inv[a] = b
                    break
            else:
                raise UnsupportedFieldError(
                    f"modulus {self.modulus} is not irreducible over Z_{p}"
                )

    def _poly_mul(self, da: tuple[int, ...], db: tuple[int, ...]) -> int:
        """Multiply coefficient vectors mod p, reduce by the modulus."""
        p, e = self.p, self.e
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        # modulus is monic: x^e = -(lower coefficients)
        for i in range(2 * e - 2, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                for j in range(e):
                    prod[i - e + j] = (prod[i - e + j] - c * self.modulus[j]) % p
        return self.element(tuple(prod[:e]))

    # -- element encoding --------------------------------------------------

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Base-p digit vector of a, constant coefficient first."""
        p = self.p
        out = []
        for _ in range(self.e):
            out.append(a % p)
            a //= p
        return tuple(out)

    def element(self, coeffs) -> int:
        """Inverse of coeffs(): pack a residue vector into an int."""
        a = 0
        for c in reversed(tuple(coeffs)):
            a = a * self.p + c % self.p
        return a

    @property
    def elements(self) -> range:
        return range(self.q)

    # -- arithmetic --------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def make_field(q: int) -> GF:
    """Field for a supported prime power q (all primes <= 128 plus the
    built-in extension table).  Raises NotPrimePowerError / UnsupportedFieldError.
    """
    return GF(q)
