"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines and timings. Every check is exact; no tolerances are involved
anywhere. Expected total runtime is a few minutes single-threaded.
"""

import math
import random
import time
from fractions import Fraction

from conftest import barycentric, coprime_sorted_tuples, dirichlet_at, facets, interior_by_subsimplex, vertices
from wblowup.diophantine import dirichlet_1d
from wblowup.exact_lattice import integer_nth_root, parse_rational, pow_cmp
from wblowup.oracle import mld_bruteforce, verify_interior_psi_equivalence
from wblowup.toric_mld import (
    WeightVector,
    is_eps_lc,
    mld_at_fixed_point,
    mld_global,
    psi_value,
)
from wblowup.witness import (
    METHOD_N3_PROJECTION,
    Certificate,
    build_polytope,
    certify_not_eps_lc,
    contains_interior,
    default_theta,
    witness_general_theta,
    witness_n3,
)


def _report(label: str, started: float, detail: str = "") -> None:
    elapsed = time.perf_counter() - started
    suffix = f" ({detail})" if detail else ""
    print(f"PASS {label}{suffix} [{elapsed:.1f}s]")


def test_criterion_1_n2_threshold_sweep():
    started = time.perf_counter()
    eps = Fraction(1, 2)
    total = 0
    for a1 in range(26, 127):
        for a2 in range(a1, a1 + 501):
            if math.gcd(a1, a2) != 1:
                continue
            total += 1
            a = WeightVector((a1, a2))
            result = certify_not_eps_lc(a, eps)
            assert isinstance(result, Certificate), (a1, a2, result)
            assert Fraction(*result.psi) < eps
            assert contains_interior(build_polytope(a, eps), result.point)
    _report(
        "criterion 1: eps=1/2 sweep 26<=a1<=126, a2<=a1+500 fully certified",
        started,
        f"{total} tuples",
    )


def test_criterion_2_leading_one_family():
    started = time.perf_counter()
    for k in range(1, 5001):
        ok, refuter = is_eps_lc(WeightVector((1, k)), 1)
        assert ok, (k, refuter)
    for k in range(1, 201):
        a = WeightVector((1, k))
        assert mld_at_fixed_point(a, 1) == 2, k
        assert mld_at_fixed_point(a, 2) == (2 if k == 1 else 1), k
    _report(
        "criterion 2: (1,k) family 1-lc for k<=5000, fixed-point mlds 2 and 1 for k<=200",
        started,
    )


def test_criterion_3_oracle_equivalence():
    started = time.perf_counter()
    checked = 0
    for n in (2, 3):
        for entries in coprime_sorted_tuples(n, 30):
            a = WeightVector(entries)
            assert mld_global(a).value == mld_bruteforce(a), entries
            checked += 1
    rng = random.Random(20260810)
    samples = 0
    while samples < 200:
        entries = tuple(sorted(rng.randint(1, 15) for _ in range(4)))
        if math.gcd(*entries) != 1:
            continue
        a = WeightVector(entries)
        assert mld_global(a).value == mld_bruteforce(a), entries
        samples += 1
    _report(
        "criterion 3: mld engine equals brute force",
        started,
        f"{checked} exhaustive + {samples} random n=4",
    )


def test_criterion_4_interior_psi_equivalence():
    started = time.perf_counter()
    epsilons = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1))
    checked = 0
    for n in (2, 3):
        for entries in coprime_sorted_tuples(n, 30):
            a = WeightVector(entries)
            for eps in epsilons:
                assert verify_interior_psi_equivalence(a, eps), (entries, eps)
                checked += 1
    _report(
        "criterion 4: interior-point / small-psi equivalence",
        started,
        f"{checked} (weights, eps) pairs",
    )


def test_criterion_5_n3_projection_construction():
    started = time.perf_counter()
    theta = Fraction(1, 100)

    cert = witness_n3(WeightVector((5, 6, 61)), Fraction(1), theta)
    assert cert.point == (1, 1, 7)
    assert Fraction(*cert.psi) == Fraction(52, 61)
    assert cert.method == METHOD_N3_PROJECTION

    rng = random.Random(5061)
    made = 0
    while made < 100:
        a1 = rng.randint(200, 2000)
        a2 = rng.randint(a1, 3 * a1)
        if math.gcd(a1, a2) != 1:
            continue
        a3 = rng.randint(2 * a2, 4 * a2)
        # tall-box hypothesis holds exactly: (a3/a2)**100 >= 2**100 > a1
        assert pow_cmp(Fraction(a3, a2), 100, Fraction(a1)) > 0
        a = WeightVector((a1, a2, a3))
        cert = witness_n3(a, Fraction(1), theta)
        assert cert is not None, a.entries
        assert cert.method == METHOD_N3_PROJECTION
        assert contains_interior(build_polytope(a, 1), cert.point)
        assert psi_value(a, cert.point) == Fraction(*cert.psi) < 1
        assert parse_rational(cert.trace["x3_lo"]) < cert.point[2] < parse_rational(cert.trace["x3_hi"])
        made += 1
    _report("criterion 5: n=3 projection certificates on 100 tall instances", started)


def test_criterion_6_dirichlet_contracts():
    started = time.perf_counter()
    rng = random.Random(1866)
    for _ in range(1000):
        alpha = Fraction(rng.randint(0, 10**6), rng.randint(1, 10**6))
        Z = rng.randint(1, 1000)
        p, q = dirichlet_1d(alpha.numerator, alpha.denominator, Z)
        assert 1 <= q <= Z
        assert abs(q * alpha - p) * Z < 1
    satisfied = 0
    for _ in range(1000):
        d = rng.randint(1, 4)
        Z = rng.randint(1, 1000)
        alphas = tuple(
            Fraction(rng.randint(0, 10**6), rng.randint(1, 10**6)) for _ in range(d)
        )
        w = dirichlet_at(alphas, Z)
        assert 1 <= w.q <= Z
        satisfied += w.satisfied
        worst = max(abs(w.q * aj - pj) for aj, pj in zip(alphas, w.p))
        assert pow_cmp(worst, d, Fraction(1, Z)) <= 0
    assert satisfied == 1000
    _report(
        "criterion 6: Dirichlet contracts on 1000 + 1000 random instances",
        started,
        f"{satisfied}/1000 simultaneous searches satisfied",
    )


# criterion 7: each property suite is its own test, runnable in isolation


def _random_weights(rng, n, cap):
    while True:
        entries = tuple(sorted(rng.randint(1, cap) for _ in range(n)))
        if math.gcd(*entries) == 1:
            return WeightVector(entries)


def test_criterion_7_psi_homogeneity():
    started = time.perf_counter()
    rng = random.Random(71)
    for _ in range(500):
        a = _random_weights(rng, rng.randint(2, 4), 50)
        v = tuple(rng.randint(0, 40) for _ in range(a.n))
        if not any(v):
            continue
        k = rng.randint(1, 12)
        assert psi_value(a, tuple(k * c for c in v)) == k * psi_value(a, v)
    _report("criterion 7a: psi positive homogeneity", started)


def test_criterion_7_psi_normalisation():
    started = time.perf_counter()
    rng = random.Random(72)
    for _ in range(500):
        a = _random_weights(rng, rng.randint(2, 5), 10**6)
        assert psi_value(a, a.entries) == 1
        for i in range(a.n):
            e = tuple(1 if j == i else 0 for j in range(a.n))
            assert psi_value(a, e) == 1
    _report("criterion 7b: psi equals 1 on every ray generator", started)


def test_criterion_7_barycentric_reconstruction():
    started = time.perf_counter()
    rng = random.Random(73)
    for _ in range(500):
        a = _random_weights(rng, rng.randint(2, 4), 100)
        v = tuple(rng.randint(0, 60) for _ in range(a.n))
        if not any(v):
            continue
        for cone in range(1, a.n + 1):
            assert barycentric(a, v, cone).reconstruct(a) == tuple(Fraction(c) for c in v)
    _report("criterion 7c: barycentric coordinates reconstruct the vector", started)


def test_criterion_7_membership_equivalence():
    started = time.perf_counter()
    rng = random.Random(74)
    checked = 0
    while checked < 10**4:
        a = _random_weights(rng, rng.randint(2, 4), 25)
        eps = Fraction(rng.randint(1, 8), 8)
        C = build_polytope(a, eps)
        for _ in range(50):
            v = tuple(
                Fraction(rng.randint(0, 2 * ai + 2), rng.randint(1, 9)) for ai in a.entries
            )
            if not any(v):
                continue
            assert contains_interior(C, v) == interior_by_subsimplex(C, v), (a, eps, v)
            checked += 1
    _report("criterion 7d: H-rep and sub-simplex membership agree", started, f"{checked} points")


def test_criterion_7_facet_vertex_incidence():
    started = time.perf_counter()
    rng = random.Random(75)
    for _ in range(300):
        a = _random_weights(rng, rng.randint(2, 4), 10**4)
        eps = Fraction(rng.randint(1, 8), 8)
        C = build_polytope(a, eps)
        zero, *basis, apex = vertices(C)
        for f in facets(C):
            assert f.evaluate(zero) == eps
            assert f.evaluate(apex) == 0
            for j, vert in enumerate(basis, start=1):
                assert (f.evaluate(vert) == 0) == (j != f.omitted)
    _report("criterion 7e: facet-vertex incidence slacks exactly 0 and eps", started)


def test_criterion_8_theta_case_soundness():
    started = time.perf_counter()
    rng = random.Random(2026)
    theta = default_theta(4)
    eps = Fraction(1, 2)
    certified = 0
    total = 0
    while total < 100:
        a1 = rng.randint(10**4, 10**5)
        a2 = rng.randint(a1, 2 * a1)
        cap = integer_nth_root(a2**theta.denominator * a1**theta.numerator, theta.denominator)
        a3 = rng.randint(a2, cap)
        a4 = rng.randint(a3, cap)
        entries = (a1, a2, a3, a4)
        if math.gcd(*entries) != 1:
            continue
        a = WeightVector(entries)
        total += 1
        cert = witness_general_theta(a, eps, theta)
        if cert is None:
            continue
        certified += 1
        assert cert.trace["hypothesis_ok"] is True
        assert contains_interior(build_polytope(a, eps), cert.point)
        assert psi_value(a, cert.point) == Fraction(*cert.psi) < eps
    _report(
        "criterion 8: theta-case certificates exactly verified",
        started,
        f"success fraction {certified}/{total} (not asserted)",
    )
