"""The n = 2 mld routines: Klein sail walk and Pick count against the scans.

mld_global and mld_at_fixed_point compute n = 2 without enumerating. The
generic scans they keep for n >= 3 are the reference here, called on n = 2
through their private helpers; a Reid-Tai age sum written out below is the
reference past the sizes a scan can reach.
"""

import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import coprime_sorted_tuples
from wblowup import toric_mld
from wblowup.exact_lattice import ceil_div
from wblowup.toric_mld import (
    CLASS_CANONICAL,
    CLASS_KLT,
    WeightVector,
    _fixed_point_scan,
    _mld_scan,
    estimate_region_points,
    mld_at_fixed_point,
    mld_global,
    psi_value,
)


def pick_count(a1, a2):
    # nonzero lattice points of hull(0, e1, (a1, a2), e2)
    return (a1 + a2 + gcd(a1 - 1, a2) + gcd(a1, a2 - 1)) // 2 + 1


def age_minimum(a1, a2):
    # (age, vector) over e_2 and every box point of both cones, O(a2): the
    # least age and, among its vectors, the lexicographically first
    best = (Fraction(1), (0, 1))
    for k in range(1, a1):
        best = min(best, (Fraction(k + (-k * a2) % a1, a1), (k, ceil_div(k * a2, a1))))
    for k in range(1, a2):
        best = min(best, (Fraction(k + (-k * a1) % a2, a2), (ceil_div(k * a1, a2), k)))
    return best


def cone_age_minimum(p, q):
    # least Reid-Tai age of a 2-dimensional cone of index p, or 2 without box points
    return min((Fraction(k + (-k * q) % p, p) for k in range(1, p)), default=Fraction(2))


def test_n2_branch_matches_generic_scan():
    for entries in coprime_sorted_tuples(2, 150):
        a = WeightVector(entries)
        assert mld_global(a) == _mld_scan(a), entries
    # the scale-2 region the fixed-point scan walks grows as a2^2
    for entries in coprime_sorted_tuples(2, 80):
        a = WeightVector(entries)
        for cone in (1, 2):
            assert mld_at_fixed_point(a, cone) == _fixed_point_scan(a, cone), (entries, cone)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=5000))
def test_n2_mld_equals_reid_tai_age_sum(x, y):
    a1, a2 = min(x, y), max(x, y)
    assume(gcd(a1, a2) == 1)
    a = WeightVector((a1, a2))
    rep = mld_global(a)
    assert (rep.value, rep.achieved_at) == age_minimum(a1, a2)
    assert psi_value(a, rep.achieved_at) == rep.value
    assert rep.points_scanned == pick_count(a1, a2)
    assert mld_at_fixed_point(a, 1) == cone_age_minimum(a1, a2)
    assert mld_at_fixed_point(a, 2) == cone_age_minimum(a2, a1)


def fibonacci_pair(digits):
    f, g = 1, 2
    while len(str(f)) < digits:
        f, g = g, f + g
    return f, g


K = 10**300 + 7

SCALE = [
    # (weights, mld, achieved_at) where the value is known in closed form
    (fibonacci_pair(300), None, None),
    ((K, K + 1), Fraction(2, K + 1), (1, 1)),
    ((K, 2 * K - 1), Fraction(2, K), (1, 2)),
    ((1, K), Fraction(1), (0, 1)),
]


@pytest.mark.parametrize("entries,value,at", SCALE, ids=["fibonacci", "k,k+1", "k,2k-1", "1,k"])
def test_n2_mld_runs_in_logarithmic_steps(entries, value, at):
    # a Hirzebruch-Jung walk that does not skip collinear runs takes a2
    # steps on (k, k+1); here a2 has about 300 digits
    a = WeightVector(entries)
    cap = 10 * estimate_region_points(a, a.n)
    started = time.perf_counter()
    rep = mld_global(a, cap)
    fixed = [mld_at_fixed_point(a, cone, cap) for cone in (1, 2)]
    assert time.perf_counter() - started < 1.0
    assert psi_value(a, rep.achieved_at) == rep.value
    assert rep.points_scanned == pick_count(*entries)
    assert rep.classification == (CLASS_KLT if rep.value < 1 else CLASS_CANONICAL)
    assert min(fixed) == rep.value  # a2 > 1, so cone 2 has a box point of age <= 1
    if value is not None:
        assert (rep.value, rep.achieved_at) == (value, at)


def test_n2_never_enumerates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("n = 2 mld enumerated a region")

    monkeypatch.setattr(toric_mld, "iter_region_points", refuse)
    for entries in [(1, 1), (1, 7), (2, 3), (5, 8), (10093, 10424)]:
        a = WeightVector(entries)
        mld_global(a)
        mld_at_fixed_point(a, 1)
        mld_at_fixed_point(a, 2)
