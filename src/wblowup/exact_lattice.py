"""Shared exact-arithmetic primitives: rationals, integer roots, budgets.

Every comparison in this package is exact. Nothing here or downstream
touches floating point; rationals are `fractions.Fraction`, which already
guarantees lowest terms and a positive denominator.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

DEFAULT_ENUMERATION_CAP = 10_000_000


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
    x = Fraction(x)
    return format_ratio(x.numerator, x.denominator)


def format_ratio(num: int, den: int) -> str:
    """Render num/den, in lowest terms with den > 0, as format_rational does."""
    return str(num) if den == 1 else f"{num}/{den}"


def gcd_all(values) -> int:
    """Greatest common divisor of one or more positive integers."""
    vals = tuple(values)
    if not vals:
        raise ValueError("gcd_all needs at least one value")
    for v in vals:
        if not isinstance(v, int) or isinstance(v, bool) or v < 1:
            raise ValueError(f"gcd_all expects positive integers, got {v!r}")
    return math.gcd(*vals)


def pow_cmp(x, d: int, y) -> int:
    """Compare x**d against y exactly, without extracting any roots.

    Both x and y must be nonnegative and d >= 1. This is how comparisons
    against irrational bounds of the form Z**(1/d) are carried out: compare
    d-th powers instead.
    """
    if not isinstance(d, int) or d < 1:
        raise ValueError(f"exponent must be a positive integer, got {d!r}")
    x = Fraction(x)
    y = Fraction(y)
    if x < 0 or y < 0:
        raise ValueError("pow_cmp requires nonnegative operands")
    left = x.numerator**d * y.denominator
    right = y.numerator * x.denominator**d
    return (left > right) - (left < right)


def integer_nth_root(x: int, n: int) -> int:
    """Largest integer r with r**n <= x, by exact integer binary search."""
    if not isinstance(x, int) or x < 0:
        raise ValueError(f"need a nonnegative integer, got {x!r}")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"root index must be a positive integer, got {n!r}")
    if n == 1 or x < 2:
        return x
    hi = 1
    while hi**n <= x:
        hi <<= 1
    lo = hi >> 1
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid
    return lo


def ceil_div(num: int, den: int) -> int:
    """Ceiling of num/den for a positive denominator."""
    return -((-num) // den)


def require_same_dimension(n: int, v) -> None:
    if len(v) != n:
        raise ValueError(f"dimension mismatch: expected {n}, got {len(v)}")


def _lll(b: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Reduce linearly independent integer rows b in place; integral LLL.

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.6.7,
    with Lovasz constant 3/4. Returns (d, lam): d[i] is the Gram determinant
    of the first i reduced rows (d[0] = 1) and lam[k][j] = d[j + 1] * mu_kj
    for j < k, so that the Gram-Schmidt data |b_k*|^2 = d[k + 1] / d[k] and
    mu_kj stay integral and every division below is exact.
    """
    n = len(b)
    d = [1, sum(x * x for x in b[0])] + [0] * (n - 1)
    lam = [[0] * n for _ in range(n)]

    def reduce(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            r = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - r * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= r * d[l + 1]
            for i in range(l):
                lam[k][i] -= r * lam[l][i]

    k, kmax = 1, 0
    while k < n:
        if k > kmax:
            kmax = k
            for j in range(k + 1):
                u = sum(x * y for x, y in zip(b[k], b[j]))
                for i in range(j):
                    u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k + 1] = u
        reduce(k, k - 1)
        m = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] ** 2 - 4 * m * m:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            new = (d[k - 1] * d[k + 1] + m * m) // d[k]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - m * t) // d[k]
                lam[i][k - 1] = (new * t + m * lam[i][k]) // d[k + 1]
            d[k] = new
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return d, lam


def _short_vectors(b, d, lam, bound: int) -> list[list[int]]:
    """Every lattice vector v with v.v <= bound, up to sign (zero included).

    b holds the rows of a basis reduced by _lll, and d and lam are what _lll
    returned for it. Fincke-Pohst enumeration (Math. Comp. 44, 1985) walks
    the coefficients x_{n-1}, ..., x_0 of the rows with x_{n-1} >= 0, which
    lists each pair +-v at least once. At level i the Gram-Schmidt term is
    m^2 / (d[i] * d[i + 1]) with m = d[i + 1] * x_i + sum_{j > i}
    lam[j][i] * x_j, so the exact range of x_i is |m| <= isqrt(floor(rest
    * d[i] * d[i + 1])), rest being what the levels above left of bound.
    """
    n = len(b)
    found = []
    x = [0] * n

    def descend(i, rest, v):
        shift = sum(lam[j][i] * x[j] for j in range(i + 1, n))
        scale = d[i] * d[i + 1]
        s = math.isqrt(math.floor(rest * scale))
        step = d[i + 1]
        lo = ceil_div(-s - shift, step)
        for xi in range(max(lo, 0) if i == n - 1 else lo, (s - shift) // step + 1):
            x[i] = xi
            w = [c + xi * r for c, r in zip(v, b[i])]
            if i:
                m = step * xi + shift
                descend(i - 1, rest - Fraction(m * m, scale), w)
            else:
                found.append(w)

    descend(n - 1, Fraction(bound), [0] * len(b[0]))
    return found
