"""Constructive Dirichlet approximation over the rationals.

One-dimensional approximations come from continued-fraction convergents;
the simultaneous version is a bounded exhaustive search over denominators
with exact d-th power comparisons against the target bound (no real roots
are ever extracted).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .exact_lattice import format_rational, pow_cmp


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial quotients and convergents of a nonnegative rational."""

    value: Fraction
    quotients: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]  # (p, q) pairs, lowest terms


class Approx1D(NamedTuple):
    """One-dimensional approximation: |q*alpha - p| < 1/Z when strict is True."""

    p: int
    q: int
    residual: Fraction  # q*alpha - p, signed
    strict: bool


@dataclass(frozen=True)
class DirichletWitness:
    """Simultaneous approximation p_j/q to alphas, searched over q <= Z.

    satisfied means max_j |q*alpha_j - p_j| ** d <= 1/Z, checked by exact
    d-th power comparison, which is the bound |alpha_j - p_j/q| <=
    1 / (q * Z**(1/d)). When no q <= Z satisfies it the best q found is
    returned with satisfied False; callers treat that as inconclusive.
    """

    q: int
    p: tuple[int, ...]
    Z: int
    residuals: tuple[Fraction, ...]  # p_j/q - alpha_j
    satisfied: bool

    @property
    def d(self) -> int:
        return len(self.p)

    def to_json_dict(self) -> dict:
        return {
            "q": self.q,
            "p": list(self.p),
            "Z": self.Z,
            "residuals": [format_rational(r) for r in self.residuals],
            "satisfied": self.satisfied,
        }


def continued_fraction(alpha) -> ContinuedFraction:
    """Euclidean-algorithm partial quotients of a nonnegative rational."""
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    quotients = []
    num, den = alpha.numerator, alpha.denominator
    while True:
        q, r = divmod(num, den)
        quotients.append(q)
        if r == 0:
            break
        num, den = den, r
    convergents = []
    hm2, hm1 = 0, 1
    km2, km1 = 1, 0
    for aq in quotients:
        h = aq * hm1 + hm2
        k = aq * km1 + km2
        convergents.append((h, k))
        hm2, hm1 = hm1, h
        km2, km1 = km1, k
    if convergents[-1] != (alpha.numerator, alpha.denominator):
        raise AssertionError(f"last convergent {convergents[-1]} does not reproduce {alpha}")
    return ContinuedFraction(alpha, tuple(quotients), tuple(convergents))


def dirichlet_1d(alpha, Z: int) -> Approx1D:
    """Integers (p, q) with 1 <= q <= Z and |q*alpha - p| < 1/Z.

    Uses the last convergent with denominator <= Z, which for rational
    alpha always meets the strict bound; an exhaustive scan over q = 1..Z
    backs it up. If even the scan only reaches equality (not expected for
    rational alpha), the best witness is returned with strict False.
    """
    alpha = Fraction(alpha)
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if not isinstance(Z, int) or Z < 1:
        raise ValueError(f"Z must be a positive integer, got {Z!r}")
    cf = continued_fraction(alpha)
    p, q = cf.convergents[0]
    for cp, cq in cf.convergents[1:]:
        if cq > Z:
            break
        p, q = cp, cq
    residual = q * alpha - p
    if abs(residual) * Z < 1:
        return Approx1D(p, q, residual, True)
    best = None
    for qq in range(1, Z + 1):
        pp = round(qq * alpha)
        rr = qq * alpha - pp
        if abs(rr) * Z < 1:
            return Approx1D(pp, qq, rr, True)
        if best is None or abs(rr) < abs(best.residual):
            best = Approx1D(pp, qq, rr, False)
    return best


def dirichlet_simultaneous(alphas, Z: int) -> DirichletWitness:
    """Search q = 1..Z for nearest-integer numerators meeting the d-th power bound.

    Ties in the nearest integer (q*alpha_j exactly half-integral) round to
    even. Returns the first satisfying q, or the best q found flagged
    satisfied=False. The scan works on raw numerators and denominators so
    that large targets stay cheap.
    """
    alphas = tuple(Fraction(x) for x in alphas)
    if not alphas:
        raise ValueError("need at least one target value")
    if any(x < 0 for x in alphas):
        raise ValueError("targets must be nonnegative")
    if not isinstance(Z, int) or Z < 1:
        raise ValueError(f"Z must be a positive integer, got {Z!r}")
    d = len(alphas)
    nums = [a.numerator for a in alphas]
    dens = [a.denominator for a in alphas]
    best = None  # (worst_num, worst_den, q, ps); residual_j = |q*u_j - p_j*v_j| / v_j
    for q in range(1, Z + 1):
        ps = []
        worst_num, worst_den = 0, 1
        ok = True
        for u, v in zip(nums, dens):
            t = q * u
            p, rem = divmod(t, v)
            double = 2 * rem
            if double > v or (double == v and p % 2 == 1):
                p += 1  # nearest integer, half-integral ties to even
            err = abs(t - p * v)
            if ok and err**d * Z > v**d:
                ok = False
            if err * worst_den > worst_num * v:
                worst_num, worst_den = err, v
            ps.append(p)
        if ok:
            residuals = tuple(Fraction(pj, q) - aj for pj, aj in zip(ps, alphas))
            return DirichletWitness(q, tuple(ps), Z, residuals, True)
        if best is None or worst_num * best[1] < best[0] * worst_den:
            best = (worst_num, worst_den, q, tuple(ps))
    _, _, q, ps = best
    residuals = tuple(Fraction(pj, q) - aj for pj, aj in zip(ps, alphas))
    return DirichletWitness(q, ps, Z, residuals, False)
