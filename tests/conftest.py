"""Shared generators and rational views for the test suite.

The package holds C(a, eps) only as integer facet rows and computes psi
with one integer kernel on the first maximal cone holding a point. The
rational facets and vertices of C(a, eps), the list of every maximal cone
holding a point, barycentric coordinates in a maximal cone and the
sub-simplex membership test below are the textbook forms, kept here so
that the tests can cross-check the package against them.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from wblowup import WeightVector
from wblowup.diophantine import dirichlet_simultaneous
from wblowup.exact_lattice import require_same_dimension


def coprime_sorted_tuples(n: int, max_entry: int, min_entry: int = 1):
    """All sorted coprime n-tuples with entries in [min_entry, max_entry]."""

    def rec(prefix):
        if len(prefix) == n:
            if math.gcd(*prefix) == 1:
                yield prefix
            return
        lo = prefix[-1] if prefix else min_entry
        for v in range(lo, max_entry + 1):
            yield from rec(prefix + (v,))

    yield from rec(())


def random_weight_vector(rng: random.Random, n: int, max_entry: int) -> WeightVector:
    while True:
        entries = tuple(sorted(rng.randint(1, max_entry) for _ in range(n)))
        if math.gcd(*entries) == 1:
            return WeightVector(entries)


def _level_points(entries):
    """Each lattice point of T = conv(e_1, ..., e_n, a) off its vertices, with its psi, one level at a time.

    {psi <= 1} is the unit simplex together with T. With N = sum(a) - 1 and
    r_j = -a_j*k mod N, level k = sum(x) - 1 of T, 0 < k < N, holds one
    lattice point when k + sum_j r_j = N and none otherwise: x_j = (r_j +
    a_j*k) / N, with psi = 1 - min_j r_j / a_j (z_j = N*x_j - a_j*k is at
    least 0, congruent to r_j mod N, and the z_j sum to N - k). Every other
    nonzero point of {psi <= 1} has psi = 1. A reference in O(n*N) integer
    steps, not an engine.
    """
    N = sum(entries) - 1
    for k in range(1, N):
        r = [-aj * k % N for aj in entries]
        if k + sum(r) == N:
            yield 1 - min(Fraction(rj, aj) for rj, aj in zip(r, entries)), tuple(
                (rj + aj * k) // N for rj, aj in zip(r, entries))


def mld_levels(entries) -> tuple[Fraction, tuple[int, ...]]:
    """The mld of the blowup with weights entries and its lex-first minimiser, by _level_points.

    When no level point has psi < 1 the mld is 1, and e_n is the lex-first
    point with psi = 1.
    """
    n = len(entries)
    return min([(Fraction(1), (0,) * (n - 1) + (1,)), *_level_points(entries)])


def refuters_levels(entries, eps_values) -> list[tuple[int, ...] | None]:
    """For each eps in (0, 1], the lex-first lattice point with psi < eps, or None when it is eps-lc.

    One pass of _level_points serves every eps: a nonzero point with psi < 1
    is a level point. This is is_eps_lc's refuter, by a route that shares
    none of its code.
    """
    levels = sorted((point, psi) for psi, point in _level_points(entries))
    return [next((point for point, psi in levels if psi < eps), None) for eps in eps_values]


def random_fraction(rng: random.Random, max_num: int, max_den: int, nonneg: bool = True) -> Fraction:
    num = rng.randint(0 if nonneg else -max_num, max_num)
    den = rng.randint(1, max_den)
    return Fraction(num, den)


def over_one_denominator(alphas) -> tuple[tuple[int, ...], int]:
    """Rational targets as dirichlet_simultaneous takes them: numerators over their least common denominator."""
    alphas = [Fraction(x) for x in alphas]
    D = math.lcm(*(x.denominator for x in alphas))
    return tuple(x.numerator * (D // x.denominator) for x in alphas), D


def dirichlet_at(alphas, Z):
    """dirichlet_simultaneous on rational targets, passed over one denominator."""
    return dirichlet_simultaneous(*over_one_denominator(alphas), Z)


@dataclass(frozen=True)
class FacetHyperplane:
    """Rational view of one tilted facet row, positive on the interior side.

    The row omitting axis i, divided by a_i * ed, reads
        ((sum_{j != i} a_j - 1) / a_i) * x_i - sum_{j != i} x_j + eps,
    which vanishes on its n defining vertices and equals eps at the origin.
    """

    omitted: int  # 1-based axis whose eps*e_i is NOT on this facet
    coeffs: tuple[Fraction, ...]
    offset: Fraction

    def evaluate(self, point) -> Fraction:
        acc = self.offset
        for c, x in zip(self.coeffs, point):
            acc += c * x
        return acc


def facets(C) -> tuple[FacetHyperplane, ...]:
    """The tilted facets of C(a, eps), derived from its integer rows."""
    n = C.n
    en, ed = C.eps.numerator, C.eps.denominator
    K = (C.a.total - 1) * ed
    out = []
    for i, ai in enumerate(C.a.entries):
        scale = ai * ed
        coeffs = [Fraction(-1)] * n
        coeffs[i] = Fraction(K - scale, scale)
        out.append(FacetHyperplane(i + 1, tuple(coeffs), Fraction(ai * en, scale)))
    return tuple(out)


def vertices(C) -> tuple[tuple[Fraction, ...], ...]:
    """The origin, eps*e_1, ..., eps*e_n and the apex eps*a, in that order."""
    n = C.n
    eps = C.eps
    zero = (Fraction(0),) * n
    basis = tuple(tuple(eps if j == i else Fraction(0) for j in range(n)) for i in range(n))
    apex = tuple(eps * ai for ai in C.a.entries)
    return (zero, *basis, apex)


def argmin_cones(a: WeightVector, v) -> tuple[int, ...]:
    """All 1-based i minimising v_i / a_i, i.e. the maximal cones containing v."""
    ent = a.entries
    best = [1]
    bi = 0
    for j in range(1, len(ent)):
        lhs = v[j] * ent[bi]
        rhs = v[bi] * ent[j]
        if lhs < rhs:
            best = [j + 1]
            bi = j
        elif lhs == rhs:
            best.append(j + 1)
    return tuple(best)


@dataclass(frozen=True)
class BarycentricCoords:
    """Coordinates of a vector in one maximal cone: v = ray_coeff * a + sum(axis_coeffs[j] * e_j).

    axis_coeffs has full length n; the entry at the cone's omitted axis is
    always 0 since e_i is not a generator of cone i. All coefficients are
    nonnegative exactly when the vector lies in the cone, and their sum is
    psi(v) whenever it does.
    """

    cone: int
    ray_coeff: Fraction
    axis_coeffs: tuple[Fraction, ...]

    def value(self) -> Fraction:
        return self.ray_coeff + sum(self.axis_coeffs)

    def in_cone(self) -> bool:
        return self.ray_coeff >= 0 and all(c >= 0 for c in self.axis_coeffs)

    def reconstruct(self, a: WeightVector) -> tuple[Fraction, ...]:
        return tuple(self.ray_coeff * aj + cj for aj, cj in zip(a.entries, self.axis_coeffs))


def barycentric(a: WeightVector, v, cone: int) -> BarycentricCoords:
    """Solve v = ray_coeff * a + sum axis_coeffs[j] * e_j for the given cone.

    Defined for any nonnegative nonzero v; coefficients are negative when v
    is outside the cone.
    """
    require_same_dimension(a.n, v)
    if any(x < 0 for x in v) or not any(v):
        raise ValueError(f"need a nonnegative nonzero vector, got {tuple(v)}")
    if not 1 <= cone <= a.n:
        raise ValueError(f"cone index out of range: {cone}")
    i = cone - 1
    lam0 = Fraction(v[i]) / a.entries[i]
    axis = [Fraction(v[j]) - a.entries[j] * lam0 for j in range(a.n)]
    axis[i] = Fraction(0)
    return BarycentricCoords(cone, lam0, tuple(axis))


def interior_by_subsimplex(C, v) -> bool:
    """Interior test by the barycentric route, to cross-validate contains_interior.

    v is interior exactly when, in some containing maximal cone, its
    coordinates with respect to the eps-scaled generators have nonnegative
    axis coefficients, strictly positive ray coefficient, and sum below 1
    (the sum is psi(v)/eps).
    """
    require_same_dimension(C.n, v)
    if any(x < 0 for x in v) or not any(v):
        return False
    for cone in argmin_cones(C.a, v):
        b = barycentric(C.a, v, cone)
        if b.in_cone() and b.ray_coeff > 0 and b.value() < C.eps:
            return True
    return False
