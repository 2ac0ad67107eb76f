"""Brute-force ground truth used to validate the other modules.

Everything here scans full bounding boxes and tests every point against
every facet form, with no slicing tricks; the point is to stay simple
enough to trust. Budgets are integers >= 1, enforced up front, and a
budget hit is an error, never a silently truncated result.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

from .exact_lattice import DEFAULT_ENUMERATION_CAP, BudgetExceeded, check_eps, check_int
from .toric_mld import WeightVector
from .witness import CEpsPolytope, build_polytope


def enumerate_lattice_points(C: CEpsPolytope, mode: str = "closed", budget: int = DEFAULT_ENUMERATION_CAP):
    """All lattice points of the polytope, scanned from its bounding box.

    mode "closed" keeps boundary points, mode "open" applies strict
    inequalities on all 2n facets. Output is sorted lexicographically.
    """
    if mode not in ("closed", "open"):
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    check_int(budget, "budget")
    ent = C.a.entries
    n = C.n
    en, ed = C.eps.numerator, C.eps.denominator
    dims = [(en * ai) // ed + 1 for ai in ent]
    volume = 1
    for m in dims:
        volume *= m
    if volume > budget:
        raise BudgetExceeded(volume, budget, "oracle box points")
    # a_i*ed*F_i(x) = x_i*K + a_i*u with K = (T-1)*ed and u = en - ed*sum(x)
    K = (sum(ent) - 1) * ed
    strict = mode == "open"
    out = []
    if n == 2:
        a1, a2 = ent
        for x in range(1 if strict else 0, dims[0]):
            for y in range(1 if strict else 0, dims[1]):
                u = en - ed * (x + y)
                f1 = x * K + a1 * u
                f2 = y * K + a2 * u
                if (f1 > 0 and f2 > 0) if strict else (f1 >= 0 and f2 >= 0):
                    out.append((x, y))
    elif n == 3:
        a1, a2, a3 = ent
        start = 1 if strict else 0
        for x in range(start, dims[0]):
            for y in range(start, dims[1]):
                for z in range(start, dims[2]):
                    u = en - ed * (x + y + z)
                    f1 = x * K + a1 * u
                    f2 = y * K + a2 * u
                    f3 = z * K + a3 * u
                    if (f1 > 0 and f2 > 0 and f3 > 0) if strict else (f1 >= 0 and f2 >= 0 and f3 >= 0):
                        out.append((x, y, z))
    else:
        start = 1 if strict else 0
        for pt in itertools.product(*(range(start, m) for m in dims)):
            u = en - ed * sum(pt)
            vals = [x * K + ai * u for x, ai in zip(pt, ent)]
            if all(v > 0 for v in vals) if strict else all(v >= 0 for v in vals):
                out.append(pt)
    return out


def psi_bruteforce(a: WeightVector, v) -> Fraction:
    """psi by solving the barycentric system in every containing cone.

    Independently of the argmin shortcut used by the engine, this solves
    all n cones, keeps those with nonnegative coefficients, and checks the
    candidates agree before returning.
    """
    if len(v) != a.n:
        raise ValueError("dimension mismatch")
    for c in v:
        check_int(c, "coordinate", 0)
    if not any(v):
        raise ValueError("need a nonnegative nonzero vector")
    values = []
    for i in range(a.n):
        lam0 = Fraction(v[i], a.entries[i])
        lams = [Fraction(v[j]) - a.entries[j] * lam0 for j in range(a.n) if j != i]
        if lam0 >= 0 and all(l >= 0 for l in lams):
            values.append(lam0 + sum(lams))
    if not values:
        raise AssertionError("every nonnegative vector lies in some cone")
    if any(val != values[0] for val in values[1:]):
        raise AssertionError("cone values must agree on walls")
    return values[0]


@lru_cache(maxsize=None)
def _mld_bruteforce_cached(entries: tuple, budget: int) -> Fraction:
    a = WeightVector(entries)
    points = enumerate_lattice_points(build_polytope(a, 1), "closed", budget)
    return min(psi_bruteforce(a, v) for v in points if any(v))


def mld_bruteforce(a: WeightVector, budget: int = DEFAULT_ENUMERATION_CAP) -> Fraction:
    """Exhaustive minimum of psi over nonzero lattice points of {psi <= 1}."""
    # checked before the cache sees it: True and 2.0 hash as 1 and 2 do
    return _mld_bruteforce_cached(a.entries, check_int(budget, "budget"))


def verify_interior_psi_equivalence(a: WeightVector, eps, budget: int = DEFAULT_ENUMERATION_CAP) -> bool:
    """Check the equivalence between interior lattice points and small psi.

    Returns True when [C(a, eps) has an interior lattice point] agrees with
    [some nonzero lattice vector has psi < eps], both sides computed by
    exhaustive scans.
    """
    eps = check_eps(eps)
    interior = enumerate_lattice_points(build_polytope(a, eps), "open", budget)
    has_interior_point = len(interior) > 0
    has_small_psi = mld_bruteforce(a, budget) < eps
    return has_interior_point == has_small_psi
