"""Exact arithmetic in the finite field GF(q) for prime powers q.

Elements are plain integers in [0, q).  For GF(p^e) the integer a encodes
the polynomial a_0 + a_1*x + ... + a_{e-1}*x^{e-1} where (a_0, ..., a_{e-1})
are the base-p digits of a (a_0 least significant).  Extension fields are
built from a fixed table of monic irreducible moduli (Conway polynomials),
so element encodings are reproducible across runs and implementations.

Only graph construction needs field arithmetic; the counting formulas treat
q as a bare integer and never import this module.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import NotPrimePowerError, UnsupportedFieldError

_PRIMES_TO_128 = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127,
)

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


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p^e, or raise NotPrimePowerError."""
    if q < 2:
        raise NotPrimePowerError(f"q must be >= 2, got {q}")
    n, p = q, q
    d = 2
    while d * d <= n:
        if n % d == 0:
            p = d
            break
        d += 1
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    if n != 1:
        raise NotPrimePowerError(f"{q} is not a prime power")
    return p, e


class GF:
    """GF(q) with table-driven arithmetic on int-encoded elements.

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
        self._add = [
            [self.element(tuple((x + y) % p for x, y in zip(digits[a], digits[b])))
             for b in range(q)]
            for a in range(q)
        ]
        self._neg = [self.element(tuple((-x) % p for x in digits[a])) for a in range(q)]
        self._mul = [[self._poly_mul(digits[a], digits[b]) for b in range(q)] for a in range(q)]
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

    def add(self, a: int, b: int) -> int:
        return self._add[a][b]

    def neg(self, a: int) -> int:
        return self._neg[a]

    def sub(self, a: int, b: int) -> int:
        return self._add[a][self._neg[b]]

    def mul(self, a: int, b: int) -> int:
        return self._mul[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self._inv[a]

    def div(self, a: int, b: int) -> int:
        return self._mul[a][self.inv(b)]

    def pow(self, a: int, m: int) -> int:
        r = 1
        for _ in range(m):
            r = self._mul[r][a]
        return r

    def __eq__(self, other):
        if isinstance(other, GF):
            return self.q == other.q and self.modulus == other.modulus
        return NotImplemented

    def __hash__(self):
        return hash((self.q, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def make_field(q: int) -> GF:
    """Field for a supported prime power q (all primes <= 128 plus the
    built-in extension table).  Raises NotPrimePowerError / UnsupportedFieldError.
    """
    return GF(q)
