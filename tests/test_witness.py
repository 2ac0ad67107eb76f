import csv
import io
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import coprime_sorted_tuples, facets, interior_by_subsimplex, random_weight_vector, vertices
from wblowup.exact_lattice import integer_nth_root, parse_rational, pow_cmp
from wblowup import witness
from wblowup.toric_mld import WeightVector, is_eps_lc, psi_value
from wblowup.witness import (
    METHOD_ENUMERATION,
    METHOD_GENERAL_THETA,
    METHOD_N2_CASE1,
    METHOD_N2_CASE2,
    METHOD_N3_PROJECTION,
    VERDICT_EPS_LC,
    VERDICT_INCONCLUSIVE,
    VERDICT_NO_WITNESS,
    Certificate,
    certificate_threshold,
    build_polytope,
    certify_not_eps_lc,
    contains_interior,
    default_theta,
    witness_general_theta,
    witness_n2,
    witness_n3,
)

# ---------------------------------------------------------------------------
# polytope construction


def test_facet_form_example_n3():
    C = build_polytope(WeightVector((2, 3, 5)), 1)
    f3 = facets(C)[2]
    assert f3.omitted == 3
    assert f3.coeffs == (Fraction(-1), Fraction(-1), Fraction(4, 5))
    assert f3.offset == 1
    assert f3.evaluate((0, 0, 0)) == 1


def test_facet_lines_n2():
    a, b = 7, 9
    eps = Fraction(1, 2)
    C = build_polytope(WeightVector((a, b)), eps)
    line1, line2 = facets(C)
    # upper line through (0, eps) and eps*a
    assert line1.evaluate((0, eps)) == 0
    assert line1.evaluate((eps * a, eps * b)) == 0
    # lower line through (eps, 0) and eps*a
    assert line2.evaluate((eps, 0)) == 0
    assert line2.evaluate((eps * a, eps * b)) == 0


def test_vertex_incidence_slacks():
    rng = random.Random(2)
    for _ in range(40):
        a = random_weight_vector(rng, rng.randint(2, 4), 30)
        eps = Fraction(rng.randint(1, 4), 4)
        C = build_polytope(a, eps)
        zero, *basis, apex = vertices(C)
        for f in facets(C):
            assert f.evaluate(zero) == eps
            assert f.evaluate(apex) == 0
            for j, vert in enumerate(basis, start=1):
                if j == f.omitted:
                    assert f.evaluate(vert) > 0
                else:
                    assert f.evaluate(vert) == 0


def test_square_like_polytope_for_ones():
    C = build_polytope(WeightVector((1, 1)), 1)
    assert all(f.evaluate((0, 0)) == 1 for f in facets(C))


def test_build_polytope_rejects_bad_eps():
    for bad in (0, Fraction(3, 2), -1):
        with pytest.raises(ValueError):
            build_polytope(WeightVector((2, 3)), bad)


# ---------------------------------------------------------------------------
# interior membership


def test_contains_interior_examples():
    C = build_polytope(WeightVector((26, 27)), Fraction(1, 2))
    assert contains_interior(C, (1, 1)) is True
    C = build_polytope(WeightVector((2, 3)), 1)
    assert contains_interior(C, (2, 3)) is False  # apex vertex
    assert contains_interior(C, (1, 2)) is False  # on the upper facet
    assert contains_interior(C, (1, 1)) is True
    assert contains_interior(C, (0, 1)) is False


def test_interior_equals_psi_below_eps_for_lattice_points():
    rng = random.Random(4)
    for _ in range(60):
        a = random_weight_vector(rng, rng.randint(2, 3), 15)
        eps = Fraction(rng.randint(1, 4), 4)
        C = build_polytope(a, eps)
        for _ in range(40):
            v = tuple(rng.randint(0, 16) for _ in range(a.n))
            if not any(v):
                continue
            assert contains_interior(C, v) == (psi_value(a, v) < eps)


def test_multiples_of_a_positive_point_are_interior_exactly_below_eps_over_psi():
    # the ray lemma the constructions rest on: the tilted rows are eps minus
    # the cone forms and psi is their maximum, so k*w is interior exactly
    # when k*psi(w) < eps, for every w with positive coordinates
    rng = random.Random(9)
    for n in range(2, 7):
        seen = set()
        for _ in range(60):
            a1 = rng.randint(1, 10 ** rng.randint(1, 6))
            spread = rng.choice([1, 3, a1])
            entries = sorted([a1] + [a1 + rng.randint(0, spread) for _ in range(n - 1)])
            while math.gcd(*entries) != 1:
                entries[-1] += 1
            a = WeightVector(tuple(entries))
            m = rng.randint(1, 3)
            w = tuple(max(1, m * ai // a1 + rng.randint(-1, 1)) for ai in entries)
            psi = psi_value(a, w)
            for eps in (Fraction(1, 12), Fraction(1, 2), Fraction(1), psi, 2 * psi, 3 * psi + Fraction(1, 10**9)):
                if not 0 < eps <= 1:
                    continue
                C = build_polytope(a, eps)
                for k in range(1, 5):
                    inside = contains_interior(C, tuple(k * x for x in w))
                    assert inside == (k * psi < eps), (a.entries, w, eps, k)
                    seen.add(inside)
        assert seen == {True, False}


@st.composite
def _huge_weights_eps_point(draw):
    # weights up to 10^18, from near-equal to widely spread; a lattice point
    # near the ray through a; eps with denominator up to 10^6, often the
    # nearest such rational on either side of psi(v) or psi(v) itself
    n = draw(st.integers(2, 4))
    e = draw(st.sampled_from(range(1, 19)))
    spread = 10 ** draw(st.integers(0, e - 1))
    entries = [draw(st.integers(10 ** (e - 1), 10**e // 2))]
    for _ in range(n - 1):
        entries.append(entries[-1] + draw(st.integers(0, spread)))
    assume(math.gcd(*entries) == 1)
    a = WeightVector(tuple(entries))
    c = draw(st.integers(1, 60))
    shift = draw(st.integers(-2, 2))
    jitter = st.integers(-1, 1) if draw(st.booleans()) else st.just(0)
    v = tuple(max(0, ai * c // entries[0] + shift + draw(jitter)) for ai in entries)
    assume(any(v))
    psi = psi_value(a, v)
    ed = draw(st.integers(1, 10**6))
    choice = draw(st.sampled_from(["random", "below", "above", "exact"]))
    if choice == "exact" and psi <= 1 and psi.denominator <= 10**6:
        eps = psi
    elif choice in ("below", "above") and psi <= 1:
        en = math.floor(psi * ed) + (choice == "above")
        eps = Fraction(min(max(en, 1), ed), ed)
    else:
        eps = Fraction(draw(st.integers(1, ed)), ed)
    return a, eps, v


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_huge_weights_eps_point())
def test_integer_rows_agree_with_rational_facets_and_psi(case):
    a, eps, v = case
    C = build_polytope(a, eps)
    inside = contains_interior(C, v)
    assert inside == (all(x > 0 for x in v) and all(f.evaluate(v) > 0 for f in facets(C)))
    assert inside == (psi_value(a, v) < eps)


def test_hrep_matches_subsimplex_on_rational_points():
    rng = random.Random(6)
    for _ in range(25):
        a = random_weight_vector(rng, rng.randint(2, 4), 20)
        eps = Fraction(rng.randint(1, 4), 4)
        C = build_polytope(a, eps)
        for _ in range(80):
            v = tuple(
                Fraction(rng.randint(0, 4 * ai), rng.randint(1, 7)) for ai in a.entries
            )
            if not any(v):
                continue
            assert contains_interior(C, v) == interior_by_subsimplex(C, v)


def test_subsimplex_handles_wall_points():
    # points on the ray through a are interior but have zero axis coefficients
    a = WeightVector((2, 3))
    C = build_polytope(a, 1)
    on_ray = (Fraction(1, 2), Fraction(3, 4))  # 0.25 * a
    assert contains_interior(C, on_ray)
    assert interior_by_subsimplex(C, on_ray)


# ---------------------------------------------------------------------------
# certificate_threshold


def test_certificate_threshold_examples():
    assert certificate_threshold(2, Fraction(1, 2)) == 16
    assert certificate_threshold(2, 1) == 4
    assert certificate_threshold(2, Fraction(1, 4)) == 64
    assert certificate_threshold(3, Fraction(1, 2)) is None
    with pytest.raises(ValueError):
        certificate_threshold(1, Fraction(1, 2))


def test_certificate_threshold_gives_the_proofs_z():
    # the bound is Z0**2 for the least Z0 with 1/Z0 + 1/(Z0 + 1) < eps,
    # 4*k**2 at eps = 1/k
    for q in range(1, 61):
        for p in range(1, q + 1):
            bound = certificate_threshold(2, Fraction(p, q))
            Z = math.isqrt(bound)
            assert Z * Z == bound, (p, q)
            assert p * Z * (Z + 1) > q * (2 * Z + 1), (p, q)
            assert p * (Z - 1) * Z <= q * (2 * Z - 1), (p, q)
        assert certificate_threshold(2, Fraction(1, q)) == 4 * q * q


def test_default_theta_inside_range():
    for n in (2, 3, 4, 7):
        t = default_theta(n)
        assert 0 < t < Fraction(1, 2 * n * n)


# ---------------------------------------------------------------------------
# n = 2 construction


def test_witness_n2_hand_trace():
    cert = witness_n2(WeightVector((26, 27)), Fraction(1, 2))
    assert cert.point == (1, 1)
    assert cert.method == METHOD_N2_CASE1
    assert Fraction(*cert.psi) == Fraction(2, 27)
    assert cert.trace["Z"] == 5
    assert (cert.trace["p"], cert.trace["q"]) == (1, 1)
    assert parse_rational(cert.trace["x0"]) == Fraction(27, 4)


def test_witness_n2_case2_instance():
    # 89/80 has convergent 9/8 above it, within Z = isqrt(80) = 8
    cert = witness_n2(WeightVector((80, 89)), Fraction(1, 2))
    assert cert.method == METHOD_N2_CASE2
    assert cert.point == (8, 9)
    assert Fraction(*cert.psi) == Fraction(1, 5)


def test_witness_n2_degenerate_and_lc_cases():
    assert witness_n2(WeightVector((1, 12)), Fraction(1)) is None
    assert witness_n2(WeightVector((1, 1)), Fraction(1, 2)) is None


def _n2_missed_residues(a1: int, eps: Fraction) -> list[int]:
    # the residues r, prime to a1 > 1, at which witness_n2 misses a2 = a1 + r.
    # dirichlet_1d reads a2 only as a2 // a1 and a2 % a1, so its q is the
    # same for every a2 = f*a1 + r, p moves by f*q and delta = q*a2/a1 - p
    # stays; psi(q, p) is q/a1 - delta in case 2 and q/a1 + delta*(a1 - 1)/a2
    # in case 1, which falls as f grows. A hit at a1 + r is therefore a hit at
    # every a2 = r (mod a1), and an empty list means every a2 is certified
    return [r for r in range(1, a1)
            if math.gcd(r, a1) == 1 and witness_n2(WeightVector((a1, a1 + r)), eps) is None]


def test_witness_n2_residue_reduction():
    # the reduction _n2_missed_residues rests on, checked directly on every
    # coprime a2 < 40*a1
    for eps in (Fraction(1, 2), Fraction(1, 3)):
        for a1 in range(2, 60):
            missed = _n2_missed_residues(a1, eps)
            for r in range(1, a1):
                if math.gcd(r, a1) != 1 or r in missed:
                    continue
                for a2 in range(a1 + r, 40 * a1, a1):
                    assert witness_n2(WeightVector((a1, a2)), eps) is not None, (a1, a2, eps)


@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 2), Fraction(1)])
def test_witness_n2_complete_above_threshold(eps):
    # completeness at the threshold: every coprime pair with a1 >=
    # certificate_threshold succeeds, every a2 checked by its residue
    M = certificate_threshold(2, eps)
    for a1 in range(M, M + 12):
        assert _n2_missed_residues(a1, eps) == [], a1
        for r in range(1, a1):
            if math.gcd(r, a1) == 1:
                assert Fraction(*witness_n2(WeightVector((a1, a1 + r)), eps).psi) < eps


def test_witness_n2_measured_threshold_at_one_over_k():
    # measured, not proven: at eps = 1/k the last a1 at which witness_n2
    # misses some a2 is (2k - 1)**2 - 1; certificate_threshold proves only
    # 4*k**2. k <= 12 is fixed from a budget of about 0.5 s, some 10*k**3
    # construction calls of 6 us each per k
    for k in range(2, 13):
        eps = Fraction(1, k)
        assert _n2_missed_residues((2 * k - 1) ** 2 - 1, eps), k
        for a1 in range((2 * k - 1) ** 2, 4 * k * k + 1):
            assert _n2_missed_residues(a1, eps) == [], (k, a1)


# ---------------------------------------------------------------------------
# general theta construction


def test_general_theta_reduces_to_n2_point():
    cert = witness_general_theta(WeightVector((26, 27)), Fraction(1, 2), default_theta(2))
    assert cert.point == (1, 1)
    assert cert.method == METHOD_GENERAL_THETA
    assert parse_rational(cert.trace["x1_0"]) == Fraction(27, 4)
    assert cert.trace["hypothesis_ok"] is True


def test_general_theta_candidates_lie_on_the_line():
    cert = witness_general_theta(WeightVector((10000, 10007, 10013, 10019)), Fraction(1, 2), default_theta(4))
    assert cert is not None
    w = cert.trace["dirichlet"]
    x = cert.point
    assert x[0] % w["q"] == 0
    for j, pj in enumerate(w["p"], start=1):
        assert x[j] * w["q"] == pj * x[0]
    assert Fraction(*cert.psi) < Fraction(1, 2)
    assert cert.trace["hypothesis_ok"] is True


HUGE_N3 = [
    (1030258263504458984910397, 1278140510116388904691940, 1426333040704270630547753),
    (1060365362074921892703914035062, 1353918141503929023461728491263, 1494973553486308774251300770804),
    (
        1024221733902973338203696427188404441476961140,
        1212373467559713310455349106329683237911707391,
        1351844623920910540907083359280514370873486469,
    ),
    (
        1059120394276220075121804993926540463328073483125505326824576,
        1218004191081306903524015380702178344787396197637269280891464,
        1228591339346415988885361940792304665112257852896268370051809,
    ),
]


@pytest.mark.parametrize("entries", HUGE_N3, ids=["1e24", "1e30", "1e45", "1e60"])
def test_huge_n3_weights_cost_the_lattice_not_the_denominators(entries):
    # Z = floor(a_1^(1/3)) runs from 10^8 to 10^20 here: a pass over every
    # denominator q <= Z could not finish
    a = WeightVector(entries)
    started = time.perf_counter()
    cert = certify_not_eps_lc(a, Fraction(1, 2))
    assert time.perf_counter() - started < 1.0
    assert isinstance(cert, Certificate) and cert.method == METHOD_GENERAL_THETA
    assert Fraction(*cert.psi) < Fraction(1, 2) and contains_interior(build_polytope(a, Fraction(1, 2)), cert.point)
    w = cert.trace["dirichlet"]
    q, Z = w["q"], w["Z"]
    assert Z == integer_nth_root(a.entries[0], 3) and 1 <= q <= Z and w["satisfied"]
    worst = max(abs(Fraction(q * aj, a.entries[0]) - pj) for aj, pj in zip(a.entries[1:], w["p"]))
    assert pow_cmp(worst, 2, Fraction(1, Z)) <= 0


def test_general_theta_flags_violated_hypothesis():
    # a_3 / a_2 far above a_1 ** theta, but the construction may still run
    a = WeightVector((10000, 10001, 10**8 + 1))
    cert = witness_general_theta(a, Fraction(1, 2), default_theta(3))
    if cert is not None:
        assert cert.trace["hypothesis_ok"] is False
        assert Fraction(*cert.psi) < Fraction(1, 2)


def test_general_theta_rejects_bad_theta():
    # the n = 4 construction takes theta from certify, which refuses one
    # outside (0, 1/32) before the construction runs
    a = WeightVector((2, 3, 5, 7))
    for theta in (Fraction(1, 8), Fraction(0)):
        with pytest.raises(ValueError, match="theta must lie in"):
            certify_not_eps_lc(a, Fraction(1, 2), theta, method="construction")


@pytest.mark.parametrize("method", ["auto", "construction", "enumeration"])
@pytest.mark.parametrize("entries", [(26, 27), (5, 6, 61), (100, 101, 102, 103)])
def test_certify_rejects_bad_theta_on_every_route(entries, method):
    # checked up front, as the cap and the method are, even where no theta
    # construction would run
    a = WeightVector(entries)
    for theta in (Fraction(0), Fraction(1, 2 * a.n**2), Fraction(5)):
        with pytest.raises(ValueError, match="theta must lie in"):
            certify_not_eps_lc(a, Fraction(1, 2), theta, method=method)


# ---------------------------------------------------------------------------
# n = 3 construction


def test_witness_n3_hand_trace():
    cert = witness_n3(WeightVector((5, 6, 61)), Fraction(1), Fraction(1, 100))
    assert cert.point == (1, 1, 7)
    assert cert.method == METHOD_N3_PROJECTION
    assert Fraction(*cert.psi) == Fraction(52, 61)
    assert (cert.trace["p"], cert.trace["q"]) == (1, 1)
    assert parse_rational(cert.trace["x3_lo"]) == Fraction(61, 10)
    assert parse_rational(cert.trace["x3_hi"]) == Fraction(65, 6)


def test_witness_n3_standard_blowup_has_no_witness():
    assert witness_n3(WeightVector((1, 1, 1)), Fraction(1), default_theta(3)) is None


def test_witness_n3_delegates_to_theta_branch():
    # a_3/a_2 small: branch (i)
    cert = witness_n3(WeightVector((100, 101, 102)), Fraction(1, 2), Fraction(1, 30))
    assert cert is not None
    assert cert.method == METHOD_GENERAL_THETA


def test_branch_i_evaluates_the_theta_hypothesis_once(monkeypatch):
    # witness_n3 evaluates the hypothesis to choose branch (i) and hands its
    # value on; a direct general-theta call evaluates it for its certificate
    calls = []
    real = witness._theta_hypothesis

    def counting(a, theta):
        calls.append(a.entries)
        return real(a, theta)

    monkeypatch.setattr(witness, "_theta_hypothesis", counting)
    a = WeightVector((100, 101, 102))
    cert = witness_n3(a, Fraction(1, 2), Fraction(1, 30))
    assert cert.method == METHOD_GENERAL_THETA and cert.hypothesis_ok is True
    assert calls == [a.entries]
    calls.clear()
    assert witness_general_theta(a, Fraction(1, 2), Fraction(1, 30)) == cert
    assert calls == [a.entries]


def test_recorded_theta_hypothesis_matches_a_fresh_evaluation():
    # seeded n = 3 and n = 4 weights with a1 from 10**9 to 10**18, a few with
    # a_n far above a_2 so that the hypothesis fails
    rng = random.Random(35)
    seen = set()
    for n in (3, 4):
        for _ in range(60):
            a1 = rng.randrange(10 ** rng.randint(9, 17), 10**18)
            top = 3 * a1 if rng.random() < 0.8 else 10**6 * a1
            entries = sorted([a1] + [rng.randrange(a1, top) for _ in range(n - 1)])
            if math.gcd(*entries) != 1:
                continue
            a = WeightVector(tuple(entries))
            construction = witness_n3 if n == 3 else witness_general_theta
            cert = construction(a, Fraction(1, 2), default_theta(n))
            if cert is None or cert.method != METHOD_GENERAL_THETA:
                continue
            assert cert.hypothesis_ok is witness._theta_hypothesis(a, cert.theta)
            seen.add((n, cert.hypothesis_ok))
    assert {(3, True), (4, True), (4, False)} <= seen


def test_witness_n3_projection_point_between_bounds():
    rng = random.Random(8)
    made = 0
    while made < 30:
        a1 = rng.randint(200, 1200)
        a2 = rng.randint(a1, 3 * a1)
        if math.gcd(a1, a2) != 1:
            continue
        a3 = 2 * a2  # ratio 2 exceeds a1 ** (1/100) for these sizes
        a = WeightVector((a1, a2, a3))
        cert = witness_n3(a, Fraction(1), Fraction(1, 100))
        assert cert is not None, a.entries
        assert cert.method == METHOD_N3_PROJECTION
        q, p, m = cert.point
        assert parse_rational(cert.trace["x3_lo"]) < m < parse_rational(cert.trace["x3_hi"])
        assert (q, p) == (cert.trace["q"], cert.trace["p"])
        assert Fraction(*cert.psi) < 1
        made += 1


# ---------------------------------------------------------------------------
# certify dispatcher


def test_certify_examples():
    res = certify_not_eps_lc(WeightVector((2, 3)), Fraction(3, 4))
    assert isinstance(res, Certificate)
    assert res.point == (1, 1) and Fraction(*res.psi) == Fraction(2, 3)

    assert certify_not_eps_lc(WeightVector((1, 10**6)), 1) == VERDICT_EPS_LC

    res = certify_not_eps_lc(WeightVector((26, 27)), Fraction(1, 2))
    assert isinstance(res, Certificate)
    assert res.point == (1, 1) and res.method == METHOD_N2_CASE1

    # eps given as a string is read exactly
    res = certify_not_eps_lc(WeightVector((26, 27)), "1/10")
    assert res.to_json_dict() == certify_not_eps_lc(WeightVector((26, 27)), Fraction(1, 10)).to_json_dict()
    assert res.eps == Fraction(1, 10)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: certify_not_eps_lc(WeightVector((26, 27)), 0.1), "float"),
        (lambda: build_polytope(WeightVector((26, 27)), 0.5), "float"),
        (lambda: certify_not_eps_lc(WeightVector((5, 6, 61)), 1, 0.01), "float"),
        (lambda: certify_not_eps_lc(WeightVector((26, 27)), 0), r"eps must lie in \(0, 1\], got 0"),
        (lambda: certify_not_eps_lc(WeightVector((5, 6, 61)), 0), r"eps must lie in \(0, 1\], got 0"),
        (lambda: certify_not_eps_lc(WeightVector((5, 6, 61)), 1, Fraction(1, 18)),
         r"theta must lie in \(0, 1/18\), got 1/18"),
        (lambda: certify_not_eps_lc(WeightVector((2, 3, 5, 7)), Fraction(3, 2)),
         r"eps must lie in \(0, 1\], got 3/2"),
    ],
    ids=["certify-eps-float", "polytope-eps-float", "theta-float", "n2-eps-0", "n3-eps-0", "n3-theta-1/18",
         "general-theta-eps-3/2"],
)
def test_input_checks_raise(call, message):
    # a float would be read as its binary expansion: 0.1 is not 1/10; the
    # constructions check nothing, so each rejection is certify's, at the
    # dimension of the construction it would call
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize(
    "entries,theta,method",
    [
        ((26, 27), Fraction(1, 9), METHOD_N2_CASE1),
        ((26, 27, 28), Fraction(1, 19), METHOD_GENERAL_THETA),
        ((200, 201, 402), Fraction(1, 100), METHOD_N3_PROJECTION),
        ((100, 101, 102, 103), Fraction(1, 33), METHOD_GENERAL_THETA),
        ((26, 27, 28), None, METHOD_GENERAL_THETA),
    ],
    ids=["n2", "n3-branch-i", "n3-branch-ii", "n4", "n3-default-theta"],
)
def test_certify_checks_its_request_once(monkeypatch, entries, theta, method):
    # certify checks eps and theta in _certify_request and the construction
    # it calls does not check them again
    calls = {"check_eps": 0, "_check_theta": 0}

    def counted(name):
        real = getattr(witness, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(witness, name, wrapper)

    counted("check_eps")
    counted("_check_theta")
    cert = certify_not_eps_lc(WeightVector(entries), Fraction(1, 2), theta)
    assert isinstance(cert, Certificate) and cert.method == method
    assert calls == {"check_eps": 1, "_check_theta": 1}


def test_certify_enumeration_path_when_construction_fails():
    # a1 = 1 skips the plane construction; the refutation must come from scans
    res = certify_not_eps_lc(WeightVector((1, 9)), Fraction(1, 2))
    assert res == VERDICT_EPS_LC
    res = certify_not_eps_lc(WeightVector((4, 5)), Fraction(1, 2))
    assert isinstance(res, Certificate)
    assert Fraction(*res.psi) < Fraction(1, 2)


def test_certify_inconclusive_on_tiny_budget():
    # no construction applies, and proving eps-lc visits 30 prefixes
    a = WeightVector((2, 57, 58))
    assert certify_not_eps_lc(a, 1, enumeration_cap=29) == VERDICT_INCONCLUSIVE
    assert certify_not_eps_lc(a, 1, enumeration_cap=30) == VERDICT_EPS_LC
    # the whole interior scan visits 750 prefixes, its first point after 3:
    # a refuter found within the cap is still the certificate
    b = WeightVector((1000, 1001, 1003))
    cert = certify_not_eps_lc(b, Fraction(1, 2), enumeration_cap=3, method="enumeration")
    assert isinstance(cert, Certificate) and cert.point == (1, 1, 1)
    res = certify_not_eps_lc(b, Fraction(1, 2), enumeration_cap=2, method="enumeration")
    assert res == VERDICT_INCONCLUSIVE


@pytest.mark.parametrize(
    "entries,eps",
    [((1, 9), Fraction(1, 2)), ((1, 1, 1), 1), ((1, 2, 3), Fraction(1, 2)), ((2, 3, 5, 7), Fraction(1, 2))],
)
def test_certify_scans_eps_lc_tuples_once(monkeypatch, entries, eps):
    import wblowup.toric_mld as toric_mld

    calls = []
    original = toric_mld._slices

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(toric_mld, "_slices", counting)
    assert certify_not_eps_lc(WeightVector(entries), eps) == VERDICT_EPS_LC
    assert len(calls) <= 1


def test_certify_decides_through_is_eps_lc(monkeypatch):
    # certify's scan is is_eps_lc, looked up on the witness module, so a
    # wrapper set there sees every scan: one per eps-lc verdict or scanned
    # certificate, and none on the construction route
    import wblowup.witness as witness

    calls = []
    original = witness.is_eps_lc

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(witness, "is_eps_lc", counting)
    cases = [
        # eps-lc, on the auto and the enumeration route
        ((1, 9), Fraction(1, 2), "auto", VERDICT_EPS_LC, 1),
        ((2, 3, 5, 7), Fraction(1, 2), "auto", VERDICT_EPS_LC, 1),
        ((1, 12), 1, "enumeration", VERDICT_EPS_LC, 1),
        # a construction miss that the scan refutes
        ((5, 7), Fraction(1, 2), "auto", (1, 1), 1),
        ((2, 3, 3), 1, "auto", (1, 1, 1), 1),
        # the construction route never scans, on a hit or a miss
        ((26, 27), Fraction(1, 2), "construction", (1, 1), 0),
        ((5, 7), Fraction(1, 2), "construction", VERDICT_NO_WITNESS, 0),
        ((1, 9), Fraction(1, 2), "construction", VERDICT_NO_WITNESS, 0),
    ]
    for entries, eps, method, want, scans in cases:
        calls.clear()
        res = certify_not_eps_lc(WeightVector(entries), eps, method=method)
        got = res.point if isinstance(res, Certificate) else res
        assert (got, len(calls)) == (want, scans), (entries, method)
        if isinstance(res, Certificate) and scans:
            assert res.method == METHOD_ENUMERATION
    # a scan past the cap is inconclusive, after one call
    calls.clear()
    assert certify_not_eps_lc(WeightVector((1000, 1001, 1003)), Fraction(1, 2), enumeration_cap=2,
                              method="enumeration") == VERDICT_INCONCLUSIVE
    assert len(calls) == 1


def test_certify_method_selects_the_route():
    a = WeightVector((1, 12))  # a1 = 1: the plane construction never applies
    assert certify_not_eps_lc(a, 1, method="construction") == VERDICT_NO_WITNESS
    assert certify_not_eps_lc(a, 1, method="enumeration") == VERDICT_EPS_LC
    cert = certify_not_eps_lc(WeightVector((26, 27)), Fraction(1, 2), method="enumeration")
    assert cert.method == METHOD_ENUMERATION and cert.point == (1, 1)
    with pytest.raises(ValueError):
        certify_not_eps_lc(a, 1, method="telepathy")


def _construction_requests(rng):
    # seeded (weights, eps, theta) at four kinds of input, eps and theta as
    # a caller may give them: n = 2; n = 3 branch (i), a3/a2 <= a1**(1/30)
    # near (100, 101, 102); n = 3 branch (ii), a3 >= 2*a2 against theta
    # 1/100; n = 4 at the default theta
    def coprime(draw):
        entries = ()
        while math.gcd(*entries) != 1:
            entries = tuple(sorted(draw()))
        return WeightVector(entries)

    for _ in range(30):
        eps = rng.choice(["1/10", "1/3", "1/2", 1])
        a1 = rng.randint(2, 100)
        yield "n2", coprime(lambda: (a1, rng.randint(a1, 3 * a1))), eps, None
        a1 = rng.randint(100, 130)
        yield "n3-i", coprime(lambda: (a1, rng.randint(a1, a1 + 3), rng.randint(a1 + 3, a1 + 12))), eps, "1/30"
        a1 = rng.randint(20, 1200)
        a2 = rng.randint(a1, 3 * a1)
        yield "n3-ii", coprime(lambda: (a1, a2, rng.randint(2 * a2, 4 * a2))), eps, Fraction(1, 100)
        a1 = rng.randint(10, 10**6)
        yield "n4", coprime(lambda: [a1] + [rng.randint(a1, 2 * a1) for _ in range(3)]), eps, None


def test_construction_method_is_the_constructions_public_path():
    # certify_not_eps_lc(..., method="construction") checks the request and
    # answers with the construction's certificate on the checked arguments,
    # or "no-witness" where the construction finds none
    methods = {"n2": {METHOD_N2_CASE1, METHOD_N2_CASE2}, "n3-i": {METHOD_GENERAL_THETA},
               "n3-ii": {METHOD_N3_PROJECTION}, "n4": {METHOD_GENERAL_THETA}}
    seen = set()
    for kind, a, eps, theta in _construction_requests(random.Random(40)):
        checked_eps = Fraction(eps)
        checked_theta = default_theta(a.n) if theta is None else Fraction(theta)
        if a.n == 2:
            built = witness_n2(a, checked_eps)
        else:
            built = (witness_n3 if a.n == 3 else witness_general_theta)(a, checked_eps, checked_theta)
        if a.n == 3:
            assert witness._theta_hypothesis(a, checked_theta) is (kind == "n3-i"), a.entries
        res = certify_not_eps_lc(a, eps, theta, method="construction")
        assert res == (VERDICT_NO_WITNESS if built is None else built), (a.entries, eps, theta)
        if built is not None:
            assert built.method in methods[kind], (kind, a.entries)
        seen.add((kind, built is not None))
    assert seen == {(kind, hit) for kind in methods for hit in (True, False)}


@pytest.mark.parametrize("n,max_entry", [(2, 12), (3, 8)])
def test_enumeration_route_returns_the_first_refuter(n, max_entry):
    # the interior scan and the refutation scan of is_eps_lc agree point for point
    for entries in coprime_sorted_tuples(n, max_entry):
        a = WeightVector(entries)
        for eps in (Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            ok, refuter = is_eps_lc(a, eps)
            res = certify_not_eps_lc(a, eps, method="enumeration")
            if ok:
                assert res == VERDICT_EPS_LC, (entries, eps)
            else:
                assert res.point == refuter, (entries, eps)


def test_certify_body_answers_as_certify():
    # a sweep row calls _certify on the request its spec checked; on checked
    # arguments it answers as certify_not_eps_lc does, under every method,
    # a cap of 2 prefixes leaving some scans inconclusive
    rng = random.Random(41)
    seen = set()
    for kind, a, eps, theta in _construction_requests(rng):
        checked_eps = Fraction(eps)
        checked_theta = default_theta(a.n) if theta is None else Fraction(theta)
        for method in ("auto", "construction", "enumeration"):
            cap = rng.choice([2, 10**4])
            res = certify_not_eps_lc(a, eps, theta, cap, method)
            assert witness._certify(a, checked_eps, checked_theta, cap, method) == res, (a.entries, eps, method)
            seen.add(res.method if isinstance(res, Certificate) else res)
    assert seen == {VERDICT_EPS_LC, VERDICT_INCONCLUSIVE, VERDICT_NO_WITNESS, METHOD_N2_CASE1, METHOD_N2_CASE2,
                    METHOD_N3_PROJECTION, METHOD_GENERAL_THETA, METHOD_ENUMERATION}, seen


@pytest.mark.parametrize("n,max_entry", [(2, 12), (3, 10)])
def test_certify_agrees_with_oracle_on_small_family(n, max_entry):
    from wblowup.oracle import enumerate_lattice_points

    for entries in coprime_sorted_tuples(n, max_entry):
        a = WeightVector(entries)
        for eps in (Fraction(1, 2), Fraction(1)):
            res = certify_not_eps_lc(a, eps)
            interior = enumerate_lattice_points(build_polytope(a, eps), "open")
            if isinstance(res, Certificate):
                assert interior, (entries, eps)
                assert contains_interior(build_polytope(a, eps), res.point)
            else:
                assert res == VERDICT_EPS_LC
                assert not interior, (entries, eps)


def test_construction_and_enumeration_points_both_sound():
    # the two routes may return different points; each must satisfy the
    # exact soundness checks on its own
    eps = Fraction(1, 2)
    for entries in [(26, 27), (80, 89), (40, 63), (33, 35)]:
        a = WeightVector(entries)
        C = build_polytope(a, eps)
        built = witness_n2(a, eps)
        assert built is not None
        from wblowup.oracle import enumerate_lattice_points

        scanned = enumerate_lattice_points(C, "open")[0]
        for point in (built.point, scanned):
            assert contains_interior(C, point)
            assert psi_value(a, point) < eps


def test_certificate_json_shape():
    cert = certify_not_eps_lc(WeightVector((26, 27)), Fraction(1, 2))
    payload = cert.to_json_dict()
    assert payload["weights"] == [26, 27]
    assert payload["eps"] == "1/2"
    assert payload["point"] == [1, 1]
    assert payload["psi"] == "2/27"
    assert payload["method"] == "n2-case1"
    assert payload["trace"]["x0"] == "27/4"

    cert4 = witness_general_theta(WeightVector((10000, 10007, 10013, 10019)), Fraction(1, 2), default_theta(4))
    payload = cert4.to_json_dict()
    assert payload["trace"]["dirichlet"]["satisfied"] is True
    assert isinstance(payload["trace"]["dirichlet"]["p"], list)


def test_certificates_are_always_sound():
    rng = random.Random(10)
    for _ in range(60):
        a = random_weight_vector(rng, rng.randint(2, 3), 60)
        eps = Fraction(rng.randint(1, 4), 4)
        res = certify_not_eps_lc(a, eps)
        if isinstance(res, Certificate):
            C = build_polytope(a, eps)
            assert contains_interior(C, res.point)
            assert psi_value(a, res.point) == Fraction(*res.psi) < eps


@st.composite
def _sorted_coprime_weights_and_eps(draw):
    n = draw(st.integers(2, 5))
    top = draw(st.sampled_from([6, 30, 200, 10**4])) if n <= 3 else draw(st.sampled_from([5, 12, 40]))
    entries = sorted(draw(st.lists(st.integers(1, top), min_size=n, max_size=n)))
    assume(math.gcd(*entries) == 1)
    return WeightVector(tuple(entries)), draw(st.sampled_from([Fraction(1), Fraction(1, 2), Fraction(1, 3)]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_sorted_coprime_weights_and_eps())
def test_sweep_row_certificate_and_trace_agree(case):
    # the sweep row reads the certificate's integers, never its trace; the
    # JSON form, psi_value and the n = 2 exit abscissa must tell the same story
    from wblowup.harness import CSV_COLUMNS, SweepSpec, _sweep_task

    a, eps = case
    cap = 20000
    spec = SweepSpec(
        n=a.n, eps=eps, a1_min=1, a1_max=1, tail_caps=(0,) * (a.n - 1),
        theta=None, workers=1, enumeration_cap=cap, include_timing=False,
    )
    text, counts = _sweep_task(spec, [a.entries])
    row = dict(zip(CSV_COLUMNS, next(csv.reader(io.StringIO(text)))))
    assert counts == [(a.entries[0], int(row["verdict"] == "certificate"), 1)]
    res = certify_not_eps_lc(a, eps, enumeration_cap=cap)
    if not isinstance(res, Certificate):
        assert row["verdict"] == res and row["point"] == row["psi"] == row["hypothesis_flags"] == ""
        return
    payload = res.to_json_dict()
    assert row["verdict"] == "certificate"
    assert row["method"] == payload["method"]
    assert row["point"] == ";".join(map(str, payload["point"]))
    assert row["psi"] == payload["psi"]
    hyp = payload["trace"].get("hypothesis_ok")
    assert row["hypothesis_flags"] == ("" if hyp is None else "theta-ok" if hyp else "theta-violated")
    assert (hyp is not None) == (res.method == METHOD_GENERAL_THETA)
    assert psi_value(a, res.point) == Fraction(*res.psi) == Fraction(payload["psi"]) < eps
    if res.method in (METHOD_N2_CASE1, METHOD_N2_CASE2):
        assert parse_rational(res.trace["x0"]) == eps * res.point[0] / Fraction(*res.psi)
