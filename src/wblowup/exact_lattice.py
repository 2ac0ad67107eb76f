"""Shared exact-arithmetic primitives: rationals, integer roots, budgets.

Every comparison in this package is exact. Nothing here or downstream
touches floating point; rationals are `fractions.Fraction`, which already
guarantees lowest terms and a positive denominator.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import mul

DEFAULT_ENUMERATION_CAP = 10_000_000

# the routes of witness.certify_not_eps_lc, its method argument; kept here so
# the CLI's flag table reads them without loading witness
CERTIFY_METHODS = ("auto", "construction", "enumeration")


class Value:
    """Base of the package's immutable value classes, in place of frozen dataclasses.

    A subclass names its fields in __slots__, in the order its constructor
    takes them, and its __init__ stores each once with object.__setattr__,
    as a frozen dataclass's generated __init__ does. As with a frozen
    dataclass, assigning or deleting a field raises AttributeError, two
    instances of one class are equal, and hash alike, when their fields
    are, and repr reads Name(field=value, ...). An instance pickles as a
    call of its constructor, so an unpickled one is checked again.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class BudgetExceeded(Exception):
    """A scan stopped, or was refused up front, before its counted work passed the cap.

    work > cap counts the units named by what, up to the step that would pass cap.
    """

    def __init__(self, work: int, cap: int, what: str):
        self.work = work
        self.cap = cap
        super().__init__(f"{work} {what} exceed budget {cap}")


# "p" or "p/q"; a sign is only allowed on the numerator and q must be positive.
_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal of the form "p" or "p/q"."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    return Fraction(num, den)


def format_rational(x) -> str:
    """Render a rational as "p" or "p/q", the inverse of parse_rational."""
    x = exact(x, "x")
    return format_ratio(x.numerator, x.denominator)


def format_ratio(num: int, den: int) -> str:
    """Render num/den, in lowest terms with den > 0, as format_rational does."""
    return str(num) if den == 1 else f"{num}/{den}"


def format_quotient(num: int, den: int) -> str:
    """Render num/den, for any integers with den != 0, as format_rational does.

    The pair is reduced by one gcd, with the sign moved onto the numerator,
    so no Fraction is built.
    """
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return format_ratio(num // g, den // g)


def exact(x, what: str) -> Fraction:
    """x as a Fraction. A float is refused: its binary expansion is seldom
    the number meant (0.1 would be read as 3602879701896397/2**55)."""
    if isinstance(x, float):
        raise ValueError(f"{what} must be exact (an int, Fraction or string), got the float {x!r}")
    return x if isinstance(x, Fraction) else Fraction(x)


def check_int(x, what: str, least: int = 1) -> int:
    """x, checked to be an int >= least: the integer twin of exact and check_eps.

    A bool, a float or a string is refused, even one equal to an integer.
    """
    if not isinstance(x, int) or isinstance(x, bool) or x < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {x!r}")
    return x


def check_eps(eps) -> Fraction:
    """eps as a Fraction in (0, 1], the only range an eps-lc question takes here."""
    if not isinstance(eps, Fraction):
        eps = exact(eps, "eps")
    if not 0 < eps.numerator <= eps.denominator:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    return eps


# not exported; kept because bench/tracing.py looks this name up when it installs
def pow_cmp(x, d: int, y) -> int:
    """Compare x**d against y exactly, without extracting any roots.

    Both x and y must be nonnegative and d >= 1. The package's own
    Dirichlet search does not call it: dirichlet_simultaneous compares
    integer errors against the integer radius integer_nth_root(D**d // Z, d).
    """
    check_int(d, "exponent")
    x = exact(x, "x")
    y = exact(y, "y")
    if x < 0 or y < 0:
        raise ValueError("pow_cmp requires nonnegative operands")
    left = x.numerator**d * y.denominator
    right = y.numerator * x.denominator**d
    return (left > right) - (left < right)


def integer_nth_root(x: int, n: int) -> int:
    """Largest integer r with r**n <= x, exactly.

    math.isqrt for n = 2; otherwise integer Newton steps from 1 << ceil(bits/n),
    which is above the root. The step r -> ((n - 1)*r + x // r**(n - 1)) // n
    is the floor of the mean of n - 1 copies of r and x / r**(n - 1), so by
    the arithmetic-geometric mean inequality it never falls below the root;
    while r is above the root, x / r**(n - 1) < r and the step falls. The
    first step that does not fall therefore starts at the root.
    """
    check_int(x, "radicand", 0)
    check_int(n, "root index")
    if n == 1 or x < 2:
        return x
    if n == 2:
        return math.isqrt(x)
    r = 1 << -(-x.bit_length() // n)
    while True:
        s = ((n - 1) * r + x // r ** (n - 1)) // n
        if s >= r:
            return r
        r = s


def ceil_div(num: int, den: int) -> int:
    """Ceiling of num/den for a positive denominator."""
    return -((-num) // den)


def _dedekind12(h: int, c: int) -> int:
    """12*c*s(h, c) for the Dedekind sum s(h, c) = sum over k mod c of
    ((k/c))*((h*k/c)), with c >= 1 and gcd(h, c) = 1.

    ((x)) is the sawtooth, x - floor(x) - 1/2 off the integers and 0 on
    them. The reciprocity law (Rademacher and Grosswald, Dedekind Sums,
    1972) gives, for c > 1, 12*c*s(h, c) = h + h' + c*(q_1 - q_2 + ... +-
    q_n - 1 - 2*[n odd]), where h' = h^-1 mod c and q_1..q_n are the
    quotients of Euclid's algorithm on (c, h mod c): O(log c) integer steps.
    The same pass reads h': it keeps x = t0*h and y = t1*h (mod c), and
    the remainder left at 1 gives h' = t0 or t1. It takes two quotients a
    turn, so their signs alternate without a sign variable.
    """
    if c == 1:
        return 0
    h %= c
    alt, x, y, t0, t1 = -1, c, h, 0, 1
    while True:
        q, x = divmod(x, y)
        alt += q
        t0 -= q * t1
        if not x:
            return h + t1 % c + c * (alt - 2)
        q, y = divmod(y, x)
        alt -= q
        t1 -= q * t0
        if not y:
            return h + t0 % c + c * alt


def _dedekind_pair12(u: int, v: int, c: int) -> int:
    """12*c*D(u, v; c) for D(u, v; c) = sum over k mod c of ((u*k/c))*((v*k/c)).

    A common factor g of u, v and c comes out as g*D(u/g, v/g; c/g). After
    it, d = gcd(u, c) is prime to v, so k = k_0 + t*c/d runs v*k/c over the
    d shifts by t/d and Raabe's formula gives D(u/d, v; c/d); the same goes
    for v. Left with u and v prime to c, k -> k/u gives s(v/u mod c, c).
    """
    g = math.gcd(u, v, c)
    u, v, c = u // g, v // g, c // g
    d = math.gcd(u, c)
    e = math.gcd(v, c // d)
    c //= d * e
    return g * g * d * e * _dedekind12(v // e * pow(u // d, -1, c), c)


def require_same_dimension(n: int, v) -> None:
    if len(v) != n:
        raise ValueError(f"dimension mismatch: expected {n}, got {len(v)}")


def _lll(b: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Reduce linearly independent integer rows b in place; integral LLL.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7,
    with Lovasz constant 3/4. Returns (d, lam): d[i] is the Gram determinant
    of the first i reduced rows (d[0] = 1) and lam[k][j] = d[j + 1] * mu_kj
    for j < k, so that the Gram-Schmidt data |b_k*|^2 = d[k + 1] / d[k] and
    mu_kj stay integral and every division below is exact. Size reduction
    subtracts rows in place; a swap exchanges the row lists of b and lam.
    """
    n = len(b)
    d = [1, sum(x * x for x in b[0])] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]
    k, kmax = 1, 0
    while k < n:
        bk, lk = b[k], lam[k]
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                lj = lam[j]
                u = sum(map(mul, bk, b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lk[i] * lj[i]) // d[i]
                if j < k:
                    lk[j] = u
                else:
                    d[k + 1] = u
        # size-reduce row k against rows k-1, ..., 0, but right after row
        # k-1 test Lovasz's condition: if it fails, swap rows k-1 and k and
        # step back before reducing against the rest
        for l in range(k - 1, -1, -1):
            m, dl = lk[l], d[l + 1]
            if 2 * abs(m) > dl:
                r = (2 * m + dl) // (2 * dl)
                bl, ll = b[l], lam[l]
                for i in range(len(bk)):
                    bk[i] -= r * bl[i]
                for i in range(l):
                    lk[i] -= r * ll[i]
                m = lk[l] = m - r * dl
            if l == k - 1 and 4 * d[k + 1] * d[k - 1] < 3 * dl * dl - 4 * m * m:
                b[k], b[k - 1] = b[k - 1], bk
                lam[k], lam[k - 1] = lam[k - 1], lk
                lam[k][k - 1], lk[k - 1] = m, 0
                dk1 = d[k + 1]
                new = (d[k - 1] * dk1 + m * m) // dl
                for i in range(k + 1, kmax + 1):
                    li = lam[i]
                    t = li[k]
                    li[k] = (dk1 * li[k - 1] - m * t) // dl
                    li[k - 1] = (new * t + m * li[k]) // dk1
                d[k] = new
                k = max(1, k - 1)
                break
        else:
            k += 1
    return d, lam


def _short_vectors(b, d, lam, bound: int) -> list[list[int]]:
    """Every lattice vector v with v.v <= bound, up to sign (zero included).

    b holds the rows of a basis reduced by _lll, and d and lam are what _lll
    returned for it. Fincke-Pohst enumeration (Math. Comp. 44, 1985) walks
    the coefficients x_{n-1}, ..., x_0 of the rows with x_{n-1} >= 0, which
    lists each pair +-v at least once. At level i the Gram-Schmidt term is
    m^2 / (d[i] * d[i + 1]) with m = d[i + 1] * x_i + sum_{j > i}
    lam[j][i] * x_j. Every term above level i has its denominator dividing
    P_i = d[i + 1] * ... * d[n], so what they left of bound is an integer
    num / P_i, and in integers alone the exact range of x_i is |m| <=
    isqrt(num * d[i] // P_{i+1}), and level i - 1 is left num * d[i] - m^2 *
    P_{i+1} over P_{i-1} = d[i] * P_i.
    """
    n = len(b)
    found = []
    x = [0] * n
    P = [1] * (n + 1)
    for i in range(n - 1, -1, -1):
        P[i] = d[i + 1] * P[i + 1]

    def descend(i, num, v):
        shift = sum(lam[j][i] * x[j] for j in range(i + 1, n))
        num *= d[i]
        den = P[i + 1]
        s = math.isqrt(num // den)
        step = d[i + 1]
        lo = ceil_div(-s - shift, step)
        for xi in range(max(lo, 0) if i == n - 1 else lo, (s - shift) // step + 1):
            x[i] = xi
            w = [c + xi * r for c, r in zip(v, b[i])]
            if i:
                m = step * xi + shift
                descend(i - 1, num - m * m * den, w)
            else:
                found.append(w)

    descend(n - 1, bound * P[n - 1], [0] * len(b[0]))
    return found
