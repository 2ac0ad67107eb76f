"""Constructive Dirichlet approximation over the rationals.

One-dimensional approximations are convergents, walked by the extended
Euclidean recurrence on the integer numerator and denominator.
The simultaneous version returns what a scan over q = 1..Z would: the
least q whose nearest-integer numerators meet the d-th power bound. No
real root is extracted: with D the common denominator of the targets the
bound is the integer radius R = integer_nth_root(D**d // Z, d). The first
2*4**d denominators are scanned; above them the least q is read off
the few short vectors of an integer lattice (integral LLL and Fincke-Pohst
enumeration, in exact_lattice), so the cost no longer grows with Z. When
2R >= D, q = 1 meets the bound and the prefix finds it; R = 0 needs no
lattice: the least q is D. Some q <= Z always meets the bound, by
Minkowski's convex body theorem, so there is no fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import NamedTuple

from .exact_lattice import _lll, _short_vectors, check_int, exact, format_rational, integer_nth_root


class Approx1D(NamedTuple):
    """One-dimensional approximation p/q with 1 <= q <= Z and |q*alpha - p| < 1/Z."""

    p: int
    q: int


@dataclass(frozen=True)
class DirichletWitness:
    """Simultaneous approximation p_j/q to alphas, searched over q <= Z.

    q is the least denominator meeting max_j |q*alpha_j - p_j| ** d <= 1/Z,
    which is the bound |alpha_j - p_j/q| <= 1 / (q * Z**(1/d)). The
    residuals p_j/q - alpha_j are computed when first read.
    """

    q: int
    p: tuple[int, ...]
    Z: int
    alphas: tuple[Fraction, ...]
    # Always true: the box {|x_0| <= Z, |x_0*alpha_j - x_j| <= Z**(-1/d)} has
    # volume 2**(d+1), so by Minkowski's convex body theorem it holds a
    # nonzero lattice point, and for Z >= 2 its x_0 is nonzero (q = 1 meets
    # the bound at Z = 1). Kept so the JSON form keeps its "satisfied" key.
    satisfied = True

    @cached_property
    def residuals(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(pj, self.q) - aj for pj, aj in zip(self.p, self.alphas))

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "p": list(self.p),
            "Z": self.Z,
            "residuals": [format_rational(r) for r in self.residuals],
            "satisfied": self.satisfied,
        }


def dirichlet_1d(num: int, den: int, Z: int) -> Approx1D:
    """Integers (p, q) with 1 <= q <= Z and |q*alpha - p| < 1/Z, alpha = num/den.

    Walks the convergents p_k/q_k of alpha by the extended Euclidean
    recurrence and keeps the last with q_k <= Z. Either it is alpha itself,
    or the next convergent has q_{k+1} > Z and the classical bound
    |q_k*alpha - p_k| <= 1/q_{k+1} <= 1/(Z + 1) holds.
    """
    check_int(num, "alpha's numerator", 0)
    check_int(den, "alpha's denominator")
    check_int(Z, "Z")
    # (p, q) is the current convergent and (p0, q0) the one before it; the
    # first, floor(alpha)/1, always fits
    p0, q0, p, q = 1, 0, num // den, 1
    num, den = den, num % den
    while den:
        c, r = divmod(num, den)
        if c * q + q0 > Z:
            break
        p0, q0, p, q = p, q, c * p + p0, c * q + q0
        num, den = den, r
    return Approx1D(p, q)


def _nearest(t: int, D: int) -> int:
    """Nearest integer to t/D; half-integral ties go to even."""
    p, rem = divmod(t, D)
    double = 2 * rem
    if double > D or (double == D and p % 2 == 1):
        p += 1
    return p


def _scan(cs, D: int, R: int, stop: int) -> int | None:
    # the first q in 1..stop meeting the bound. Each remainder t_j = q*c_j
    # mod D steps by c_j mod D; the nearest-integer error of q*c_j / D is
    # min(t_j, D - t_j) whatever the tie rule, so q misses the bound exactly
    # when some R < t_j < D - R
    steps = [c % D for c in cs]
    ts = [0] * len(cs)
    hi = D - R
    for q in range(1, stop + 1):
        hit = True
        for j, c in enumerate(steps):
            t = ts[j] + c
            if t >= D:
                t -= D
            ts[j] = t
            if R < t < hi:
                hit = False
        if hit:
            return q
    return None


def _least_q_in_box(cs, D: int, R: int, Z: int) -> int:
    # The vectors (q, q*c_1 - p_1*D, ..., q*c_d - p_d*D) form a lattice.
    # Scaled by R on coordinate 0 and by Z on the rest, the box [-Z, Z] x
    # [-R, R]^d becomes a cube of half-side R*Z, held by the ball of squared
    # radius (d + 1)*(R*Z)^2, which holds about V_{d+1}*(d+1)^((d+1)/2)
    # lattice points whatever Z is (about 22 for d = 2), unless the lattice
    # has a vector far shorter than the cube. A first reduced row under half
    # the half-side is such a vector and lies in the box, so it bounds the
    # answer: the box shrinks to its q, at least halving Z, and is reduced
    # again. Once the row is longer, LLL's guarantee puts every nonzero
    # vector above R*Z / 2**(d/2 + 1), and the ball holds a number of points
    # bounded in terms of d alone. The box is never empty: Minkowski puts a
    # point in it, and a shrunk box keeps the row it shrank to.
    n = len(cs) + 1
    while True:
        side = R * Z
        b = [[R] + [Z * c for c in cs]] + [[0] * j + [Z * D] + [0] * (n - 1 - j) for j in range(1, n)]
        gram, lam = _lll(b)
        if 4 * gram[1] >= side * side:
            break
        Z = abs(b[0][0]) // R
    return min(
        abs(v[0]) // R
        for v in _short_vectors(b, gram, lam, n * side * side)
        if v[0] and max(map(abs, v)) <= side
    )


def dirichlet_simultaneous(alphas, Z: int) -> DirichletWitness:
    """The least q in 1..Z whose nearest-integer numerators meet the d-th power bound.

    Ties in the nearest integer (q*alpha_j exactly half-integral) round to
    even. With D the common denominator of the alphas and c_j = alpha_j*D,
    the bound max_j |q*alpha_j - p_j|**d * Z <= 1 reads, in integers,
    max_j |q*c_j - p_j*D| <= R = integer_nth_root(D**d // Z, d).

    The first 2*4**d denominators are scanned one by one. Above them
    the answer is found without visiting every q:
    - R = 0 asks for q*c_j = p_j*D for every j; the least such q is D,
      which is below Z since D**d < Z;
    - otherwise 2R < D, since q = 1 would have met the bound, so each
      error within R belongs to the unique nearest p_j, and the answer is
      the least positive q of a lattice vector (q, q*c_1 - p_1*D, ...) in
      the box [1, Z] x [-R, R]^d. Integral LLL reduction and Fincke-Pohst
      enumeration list the few lattice points of a ball around that box.
    Some q <= Z always meets the bound (Minkowski's convex body theorem, see
    DirichletWitness.satisfied), so the search never comes back empty.
    """
    alphas = tuple(exact(x, "target") for x in alphas)
    if not alphas:
        raise ValueError("need at least one target value")
    if any(x < 0 for x in alphas):
        raise ValueError("targets must be nonnegative")
    check_int(Z, "Z")
    d = len(alphas)
    D = math.lcm(*(a.denominator for a in alphas))
    cs = [a.numerator * (D // a.denominator) for a in alphas]
    R = integer_nth_root(D**d // Z, d)
    # One lattice search costs as much as scanning about 900, 1,700, 3,900
    # and 50,000 denominators at d = 2, 3, 4 and 6 (weights near 10^30, Intel
    # Xeon, Python 3.11), some 2x to 4x more per target, since its ball holds
    # about V_{d+1}*(d+1)^((d+1)/2) points. Scanning 2*4**d first stays far
    # below one search (32 at d = 2, 128 at d = 3) and keeps short scans
    # short at every d. A longer prefix is mostly waste on large weights: the
    # n = 3 answers of the bench witness pool have median q 4,282.
    prefix = 2 * 4**d
    q = _scan(cs, D, R, min(Z, prefix))
    if q is None:
        q = D if R == 0 else _least_q_in_box(cs, D, R, Z)
    return DirichletWitness(q, tuple(_nearest(q * c, D) for c in cs), Z, alphas)
