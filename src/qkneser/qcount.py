"""Closed-form subspace counting with exact integer arithmetic.

Gaussian binomial coefficients [a,b]_q, the degree / independence-number /
treewidth formulas for the generalized q-Kneser graph K_q(n,k,t), and the
counting identities and inequalities behind them.

Everything here is a polynomial identity or integer comparison in q, so q
is accepted as any integer >= 2 (no prime-power validation: sweeping over
non-prime-powers costs nothing and catches algebra errors).  No floats or
rationals anywhere; inequalities with rational factors are cross-multiplied
into pure integer comparisons.  gauss_at_most is the one size gate, asked
before any enumeration or printed report.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import lru_cache

from .errors import BadQError, OutOfRangeError, TooLargeError


class Params(namedtuple("Params", "n k t q")):
    """Graph parameters (n, k, t, q) with 1 <= t < k <= n and q >= 2."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, t: int, q: int):
        if q < 2:
            raise BadQError(f"q must be >= 2, got {q}")
        if not (1 <= t < k <= n):
            raise OutOfRangeError(f"need 1 <= t < k <= n, got n={n} k={k} t={t}")
        return super().__new__(cls, n, k, t, q)

    @classmethod
    def _make(cls, iterable):  # the named tuple's own, which _replace calls, skips __new__
        return cls(*iterable)


class Window(namedtuple("Window", "lower upper")):
    """Inclusive integer bracket [lower, upper] for a value the formulas
    bound but do not pin down exactly."""

    __slots__ = ()

    def __contains__(self, value: int) -> bool:
        return self.lower <= value <= self.upper


@lru_cache(maxsize=None)
def gauss(a: int, b: int, q: int) -> int:
    """Gaussian binomial [a,b]_q = prod_{0<=i<b} (q^(a-i)-1)/(q^(b-i)-1).

    Counts b-dimensional subspaces of F_q^a.  Conventions: [a,0] = 1 and
    [a,b] = 0 for b < 0 or b > a.  Exact: the numerator is multiplied out
    before the single (guaranteed exact) division.
    """
    if q < 2:
        raise BadQError(f"q must be >= 2, got {q}")
    if a < 0:
        raise OutOfRangeError(f"a must be >= 0, got {a}")
    if b < 0 or b > a:
        return 0
    b = min(b, a - b)  # [a,b] = [a,a-b]
    if b == 0:
        return 1
    num = 1
    den = 1
    for i in range(b):
        num *= q ** (a - i) - 1
        den *= q ** (b - i) - 1
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"[{a},{b}]_{q}: inexact division {num} / {den}")
    return quot


def gauss_at_most(a: int, b: int, q: int, limit: int) -> bool:
    """Is [a,b]_q <= limit?  [a,b]_q >= q^(b(a-b)) >= 2^(b(a-b)(bit_length(q)-1)),
    so that exponent >= bit_length(limit) answers no with nothing multiplied
    out; otherwise gauss is computed (q < 2 raises BadQError) and compared."""
    if q >= 2 and b * (a - b) * (q.bit_length() - 1) >= limit.bit_length():
        return False
    return gauss(a, b, q) <= limit


def check_printable(*params: Params) -> None:
    """TooLargeError unless each [n,k]_q, which bounds every count reported
    for its p, prints within the interpreter's int-to-str digit limit."""
    digits = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    limit = 10**digits - 1
    for p in params:
        if not gauss_at_most(p.n, p.k, p.q, limit):
            raise TooLargeError(f"[{p.n},{p.k}]_{p.q} has more than {digits} decimal digits")


def gauss_identities_hold(m: int, i: int, q: int) -> bool:
    """Check the q-Pascal recurrence and the column-ratio identity:

        [m,i] = [m-1,i-1] + q^i * [m-1,i]
        [m,i] * (q^i - 1) = (q^m - 1) * [m-1,i-1]

    for m >= i >= 1.  Both must hold; this exists as a test oracle.
    """
    if not m >= i >= 1:
        raise OutOfRangeError(f"need m >= i >= 1, got m={m} i={i}")
    lhs = gauss(m, i, q)
    if lhs != gauss(m - 1, i - 1, q) + q**i * gauss(m - 1, i, q):
        return False
    return lhs * (q**i - 1) == (q**m - 1) * gauss(m - 1, i - 1, q)


def gauss_bounds_hold(m: int, i: int, q: int) -> bool:
    """Check the power sandwich q^(i(m-i)) <= [m,i] < q^(i(m-i+1)), with
    the lower bound strict when i < m, plus (for i < m) the ratio bounds

        q^(m-i) < (q^m-1)/(q^i-1) < q^(m-i+1)
        q^(i-m-1) < (q^i-1)/(q^m-1) < q^(i-m)

    cross-multiplied into integer comparisons.  Cleared of denominators,
    the reciprocal bounds are the ratio bounds again: one check serves both.
    """
    if not m >= i >= 1:
        raise OutOfRangeError(f"need m >= i >= 1, got m={m} i={i}")
    g = gauss(m, i, q)
    if not q ** (i * (m - i)) <= g < q ** (i * (m - i + 1)):
        return False
    if i == m:
        return True
    if not q ** (i * (m - i)) < g:
        return False
    a, b = q**m - 1, q**i - 1
    return q ** (m - i) * b < a < q ** (m - i + 1) * b


def intersect_count(n: int, j: int, i: int, m: int, q: int) -> int:
    """Number of i-subspaces Y of F_q^n with dim(X cap Y) = m, for any
    fixed j-subspace X:  q^((i-m)(j-m)) * [n-j, i-m] * [j, m].

    Infeasible (j,i,m) combinations return 0 via the binomial conventions.
    """
    if q < 2:
        raise BadQError(f"q must be >= 2, got {q}")
    if not (0 <= i <= n and 0 <= j <= n):
        raise OutOfRangeError(f"need 0 <= i,j <= n, got n={n} j={j} i={i}")
    if m < 0 or m > i or m > j:
        return 0
    return q ** ((i - m) * (j - m)) * gauss(n - j, i - m, q) * gauss(j, m, q)


def degree_formula(p: Params) -> int:
    """Common vertex degree of K_q(n,k,t) (the graph is vertex-transitive),
    the k-subspaces meeting a fixed one in dimension below t:

        sum_{i=0}^{t-1} q^((k-i)^2) * [n-k, k-i] * [k, i],

    whose terms below i = 2k-n vanish (two k-subspaces meet in dimension
    >= 2k-n) and are skipped.
    """
    return sum(intersect_count(p.n, p.k, p.k, i, p.q) for i in range(max(0, 2 * p.k - p.n), p.t))


def nest_dim(p: Params) -> int:
    """min(n, 2k-t): for n < 2k the k-subspaces of a space of this dimension
    are a largest t-intersecting family (Frankl & Wilson, JCTA 43, 1986)."""
    return min(p.n, 2 * p.k - p.t)


def alpha_formula(p: Params) -> int:
    """Independence number of K_q(n,k,t), the size of a largest
    t-intersecting family of k-subspaces: [n-t, k-t]_q (a point pencil)
    for n >= 2k, [nest_dim(p), k]_q for n < 2k."""
    if p.n < 2 * p.k:
        return gauss(nest_dim(p), p.k, p.q)
    return gauss(p.n - p.t, p.k - p.t, p.q)


def tw_formula_applies(p: Params) -> bool:
    """True iff n >= 2t(k-t+1) + k + 1, the hypothesis under which the
    q-Kneser treewidth formula is asserted."""
    return p.n >= 2 * p.t * (p.k - p.t + 1) + p.k + 1


def tw_formula_qkneser(p: Params) -> int:
    """Exact treewidth of K_q(n,k,t) for n >= 2t(k-t+1)+k+1:

        [n,k] - [n-t, k-t] - 1
    """
    if not tw_formula_applies(p):
        raise OutOfRangeError(
            f"treewidth formula needs n >= {2 * p.t * (p.k - p.t + 1) + p.k + 1}, got n={p.n}"
        )
    return gauss(p.n, p.k, p.q) - gauss(p.n - p.t, p.k - p.t, p.q) - 1


def tw_formula_cograssmann(n: int, k: int, q: int):
    """Treewidth of the complement of the Grassmann graph G_q(n,k), i.e.
    of K_q(n,k,k-1), for 2 <= min(k, n-k); G_q(n,k) = G_q(n,n-k), so k is
    taken as min(k, n-k) first.

    Returns the exact value [n,k] - [n-k+1, 1] - 1 except at (k,n) = (2,4),
    where only the bracket

        q^4 + q^2 - 1  <=  tw  <=  q^4 + q^3 + q^2 - 1

    is known; that case returns a Window rather than pretending exactness.
    """
    if q < 2:
        raise BadQError(f"q must be >= 2, got {q}")
    if min(k, n - k) < 2:
        raise OutOfRangeError(f"need 2 <= k <= n-2, got n={n} k={k}")
    k = min(k, n - k)
    if k == 2 and n == 4:
        return Window(q**4 + q**2 - 1, q**4 + q**3 + q**2 - 1)
    return gauss(n, k, q) - gauss(n - k + 1, 1, q) - 1


def dual_form(p: Params) -> Params | None:
    """The parameters the treewidth formulas are read at: p for n >= 2k;
    for n < 2k, K_q(n, n-k, t-(2k-n)), onto which U -> U^perp maps
    K_q(n,k,t) since dim(U^perp cap V^perp) = dim(U cap V) + n - 2k, or
    None when t <= 2k-n (every pair meets in dimension >= t: no edges)."""
    if p.n >= 2 * p.k:
        return p
    if p.t <= 2 * p.k - p.n:
        return None
    return Params(p.n, p.n - p.k, p.t - (2 * p.k - p.n), p.q)


def qkneser_tw(p: Params) -> int | None:
    """The q-Kneser treewidth formula read at dual_form(p), or None when
    it does not apply there."""
    d = dual_form(p)
    return tw_formula_qkneser(d) if d is not None and tw_formula_applies(d) else None


def tw_value(p: Params) -> int | Window | None:
    """What the formulas say about tw(K_q(n,k,t)), read at dual_form(p) (0
    when that is None: no edges): the q-Kneser value in its range, else the
    complement-Grassmann value or Window when t = k-1 and n >= k+2, else
    None (no formula applies)."""
    p = dual_form(p)
    if p is None:
        return 0
    if tw_formula_applies(p):
        return tw_formula_qkneser(p)
    if p.t == p.k - 1 and p.n >= p.k + 2:
        return tw_formula_cograssmann(p.n, p.k, p.q)
    return None


def layer_exceeds_alpha(p: Params) -> bool:
    """True iff q^((k-t)^2) * [n-k, k-t] * [k, t] > [n-t, k-t], i.e. the
    count of k-subspaces meeting a fixed one in dimension exactly t already
    exceeds the independence number.  Holds throughout n >= 2k; this is the
    inequality that makes Delta + alpha < |V|.
    """
    return intersect_count(p.n, p.k, p.k, p.t, p.q) > gauss(p.n - p.t, p.k - p.t, p.q)


def pigeonhole_bound_holds(p: Params) -> bool:
    """True iff 3 * [k,t]^2 * [n-t-1, k-t-1] <= [n-t, k-t] (the rational
    inequality [n-t-1,k-t-1] <= [k,t]^(-2) * (1/3) * [n-t,k-t], cleared of
    denominators).  Proven true for n >= 2t(k-t+1)+k+1; computed exactly
    for any parameters.
    """
    lhs = 3 * gauss(p.k, p.t, p.q) ** 2 * gauss(p.n - p.t - 1, p.k - p.t - 1, p.q)
    return lhs <= gauss(p.n - p.t, p.k - p.t, p.q)


def delta_alpha_below_vertex_count(p: Params) -> bool:
    """True iff degree_formula(p) + alpha_formula(p) < [n,k]_q; the
    comparison that drives the constructive upper bound."""
    return degree_formula(p) + alpha_formula(p) < gauss(p.n, p.k, p.q)


def sweep_records(params_iter) -> "list[str]":
    """Render parameter sweeps as line-delimited records, one per Params:

        q,n,k,t,<layer bound>,<pigeonhole bound>,delta,alpha,tw

    Booleans are lowercase true/false; counts are decimal strings; the tw
    field is qkneser_tw(p), "-" when the q-Kneser formula does not apply.
    """
    lines = []
    for p in params_iter:
        c1 = "true" if layer_exceeds_alpha(p) else "false"
        c2 = "true" if pigeonhole_bound_holds(p) else "false"
        delta = degree_formula(p)
        alpha = alpha_formula(p)
        tw = qkneser_tw(p)
        tw = "-" if tw is None else tw
        lines.append(f"{p.q},{p.n},{p.k},{p.t},{c1},{c2},{delta},{alpha},{tw}")
    return lines
