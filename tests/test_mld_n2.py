"""The mld routines against brute force, and the n = 2 sail walk.

mld_at_fixed_point reads box-point ages at every n, and mld_global does for
n = 2, where the Klein sail walk and Pick count take over, and for n = 3,
where the lattice points of conv(e1, e2, e3, a) are counted by Dedekind
sums and searched by lattice slices; neither enumerates a region there. The oracle's box scan is the reference
on small weights, the generic scan of {psi <= 1} that mld_global keeps for
n >= 4 is the reference for n = 2 pairs and n = 3 triples, and a Reid-Tai
age sum written out below is the reference past the sizes a scan can reach.
"""

import itertools
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import coprime_sorted_tuples, random_weight_vector
from wblowup import toric_mld
from wblowup.exact_lattice import DEFAULT_ENUMERATION_CAP, ceil_div
from wblowup.oracle import enumerate_lattice_points, psi_bruteforce
from wblowup.toric_mld import (
    CLASS_CANONICAL,
    CLASS_KLT,
    CLASS_TERMINAL,
    MldReport,
    WeightVector,
    _mld_scan,
    mld_at_fixed_point,
    mld_global,
    psi_value,
)
from wblowup.witness import build_polytope


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


def oracle_report(a):
    # every MldReport field from the oracle's box scan of {psi <= 1}
    ent = a.entries
    points = [v for v in enumerate_lattice_points(build_polytope(a, 1), "closed") if any(v)]
    psis = [psi_bruteforce(a, v) for v in points]
    value = min(psis)
    at = points[psis.index(value)]  # the scan is in lexicographic order
    cone = min(range(a.n), key=lambda i: Fraction(at[i], ent[i])) + 1

    def on_fan_ray(v):
        return sum(1 for c in v if c) == 1 or all(x * ent[0] == v[0] * aj for x, aj in zip(v, ent))

    if value < 1:
        classification = CLASS_KLT
    elif all(on_fan_ray(v) for v in points):
        classification = CLASS_TERMINAL
    else:
        classification = CLASS_CANONICAL
    return MldReport(a, value, at, cone, classification, len(points))


def oracle_fixed_point(a, cone):
    # least psi over the lattice points interior to the cone in the box
    # [0, n*a_j], which holds {psi <= n} and so the point a + sum of generators
    ent = a.entries
    i = cone - 1
    return min(
        psi_bruteforce(a, v)
        for v in itertools.product(*(range(a.n * aj + 1) for aj in ent))
        if v[i] > 0 and all(v[j] * ent[i] > ent[j] * v[i] for j in range(a.n) if j != i)
    )


def test_mld_report_matches_oracle_brute_force():
    rng = random.Random(5)
    cases = [WeightVector(e) for e in coprime_sorted_tuples(2, 60)]
    cases += [WeightVector(e) for e in coprime_sorted_tuples(3, 12)]
    cases += [random_weight_vector(rng, 4, 12) for _ in range(30)]
    cases += [random_weight_vector(rng, 5, 8) for _ in range(10)]
    cases += [random_weight_vector(rng, 6, 6) for _ in range(4)]
    # n = 7, one tuple per class: random small weights are almost all terminal
    cases += [WeightVector(e) for e in ((1, 1, 2, 3, 4, 4, 5), (2, 2, 3, 4, 4, 4, 4), (3, 4, 5, 5, 5, 5, 5))]
    cases += [WeightVector((1,) * 5), WeightVector((2, 2, 2, 3, 3, 3))]
    for a in cases:
        assert mld_global(a) == oracle_report(a), a.entries
    for entries in list(coprime_sorted_tuples(2, 12)) + list(coprime_sorted_tuples(3, 5)):
        a = WeightVector(entries)
        for cone in range(1, a.n + 1):
            assert mld_at_fixed_point(a, cone) == oracle_fixed_point(a, cone), (entries, cone)


def scan_report(a):
    # every MldReport field from the generic column scan of {psi <= 1}
    value, at, scanned = _mld_scan(a, DEFAULT_ENUMERATION_CAP)
    cone = min(range(a.n), key=lambda i: Fraction(at[i], a.entries[i])) + 1
    if value < 1:
        classification = CLASS_KLT
    else:
        classification = CLASS_CANONICAL if scanned > a.n + 1 else CLASS_TERMINAL
    return MldReport(a, value, at, cone, classification, scanned)


def test_n2_branch_matches_generic_scan():
    # the n = 2 sail walk and the n = 3 lattice slicer against the scan they
    # replace, report for report
    rng = random.Random(13)
    seeded = []
    while len(seeded) < 200:
        e = tuple(sorted((rng.randrange(1, 3000), rng.randrange(1, 30000), rng.randrange(1, 30000))))
        if gcd(*e) == 1:
            seeded.append(e)
    # 17 to 31 points tie at psi 1/2 here, more than the slicer lists, so it
    # bisects on their lexicographic order
    ties = [(29, 140, 336), (4, 359, 724), (3, 408, 610)]
    # the listing halves a u-range longer than 16 here, 11, 2, 1 and 1 times
    long_slices = [(47, 287819, 287830), (50, 333981, 918031), (5039, 44314, 130929), (13623, 25153, 1578280)]
    for entries in [*coprime_sorted_tuples(2, 150), *coprime_sorted_tuples(3, 40), *seeded, *ties, *long_slices]:
        a = WeightVector(entries)
        assert mld_global(a) == scan_report(a), entries
    for entries in coprime_sorted_tuples(2, 80):
        a = WeightVector(entries)
        for cone in (1, 2):
            p, q = entries[cone - 1], entries[2 - cone]
            assert mld_at_fixed_point(a, cone) == cone_age_minimum(p, q), (entries, cone)


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
    # steps on (k, k+1); here a2 has about 300 digits, far past the default
    # budget, which n = 2 never consults
    a = WeightVector(entries)
    started = time.perf_counter()
    rep = mld_global(a)
    fixed = [mld_at_fixed_point(a, cone) for cone in (1, 2)]
    assert time.perf_counter() - started < 1.0
    assert psi_value(a, rep.achieved_at) == rep.value
    assert rep.points_scanned == pick_count(*entries)
    assert rep.classification == (CLASS_KLT if rep.value < 1 else CLASS_CANONICAL)
    assert min(fixed) == rep.value  # a2 > 1, so cone 2 has a box point of age <= 1
    if value is not None:
        assert (rep.value, rep.achieved_at) == (value, at)


def test_n2_never_enumerates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("n = 2 or n = 3 mld enumerated a region")

    monkeypatch.setattr(toric_mld, "_slices", refuse)
    for entries in [(1, 1), (1, 7), (2, 3), (5, 8), (10093, 10424)]:
        a = WeightVector(entries)
        mld_global(a)
        mld_at_fixed_point(a, 1)
        mld_at_fixed_point(a, 2)
    # nor does n = 3, which counts the points of conv(e1, e2, e3, a) by
    # Dedekind sums and lists the least of them by lattice slices
    for entries in [(1, 1, 1), (2, 3, 5), (1052, 1204, 1239), (2, 3, 100001), (1, 1, 200000)]:
        mld_global(WeightVector(entries))


def test_fixed_point_never_enumerates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("fixed-point mld enumerated a region")

    monkeypatch.setattr(toric_mld, "_slices", refuse)
    for entries in [(1, 1, 1), (2, 3, 5), (1052, 1204, 1239), (2, 3, 5, 7), (1, 1, 2, 3, 5)]:
        a = WeightVector(entries)
        for cone in range(1, a.n + 1):
            mld_at_fixed_point(a, cone)


@pytest.mark.parametrize("entries", [(1, 1, 5_000_000), (1,) * 7 + (10**7,)], ids=["1,1,5e6", "1^7,1e7"])
def test_skewed_mld_costs_the_region_not_the_weights(entries):
    # {psi <= 1} holds only the n + 1 fan-ray generators here, while a pass
    # over every box point would take sum(a) steps
    a = WeightVector(entries)
    started = time.perf_counter()
    rep = mld_global(a)
    assert time.perf_counter() - started < 1.0
    assert (rep.value, rep.points_scanned, rep.classification) == (1, a.n + 1, CLASS_TERMINAL)
