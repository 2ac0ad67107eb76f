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
    """An enumeration was refused because its predicted size exceeds the cap."""

    def __init__(self, estimated: int, cap: int, what: str = "lattice enumeration"):
        self.estimated = estimated
        self.cap = cap
        super().__init__(f"{what}: estimated {estimated} points exceeds budget {cap}")


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
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


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
