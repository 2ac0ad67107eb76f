import math
import random
import re
import time
from fractions import Fraction
from itertools import count

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wblowup import diophantine
from wblowup.diophantine import (
    _RETURNS,
    DirichletWitness,
    _first_hit,
    _least_q_in_box,
    _walked,
    dirichlet_1d,
    dirichlet_simultaneous,
)
from wblowup.exact_lattice import integer_nth_root, parse_rational, pow_cmp

from conftest import dirichlet_at, over_one_denominator

nonneg_rationals = st.fractions(min_value=0, max_value=10**6, max_denominator=10**6)


def _convergents_walked(num, den):
    # the distinct answers of dirichlet_1d as Z runs up to den, in order
    seen = []
    for Z in range(1, den + 1):
        pq = tuple(dirichlet_1d(num, den, Z))
        if not seen or seen[-1] != pq:
            seen.append(pq)
    return seen


def test_continued_fraction_examples():
    # hand expansions: each convergent is p_k = a_k p_{k-1} + p_{k-2}, and
    # the walk in dirichlet_1d visits exactly these
    for (num, den), quotients in (((27, 26), (1, 26)), ((3, 7), (0, 2, 3)), ((5, 1), (5,))):
        expected, (p0, q0, p, q) = [], (0, 1, 1, 0)
        for a in quotients:
            p0, q0, p, q = p, q, a * p + p0, a * q + q0
            expected.append((p, q))
        assert _convergents_walked(num, den) == expected
    assert _convergents_walked(27, 26) == [(1, 1), (27, 26)]
    assert _convergents_walked(3, 7) == [(0, 1), (1, 2), (3, 7)]
    assert _convergents_walked(5, 1) == [(5, 1)]


def test_dirichlet_1d_examples():
    # 27/26 = [1; 26]: convergents 1/1, 27/26
    assert dirichlet_1d(27, 26, 5) == (1, 1)
    assert dirichlet_1d(27, 26, 25) == (1, 1)
    assert dirichlet_1d(27, 26, 26) == (27, 26)
    # 3/7 = [0; 2, 3]: convergents 0/1, 1/2, 3/7
    assert [dirichlet_1d(3, 7, Z) for Z in (1, 2, 6, 7)] == [(0, 1), (1, 2), (1, 2), (3, 7)]
    # 89/80 = [1; 8, 1, 8]: 9/8 lies above alpha
    assert dirichlet_1d(89, 80, 8) == (9, 8)
    for Z in (1, 3, 10):
        assert dirichlet_1d(4, 1, Z) == (4, 1)
    assert dirichlet_1d(0, 5, 3) == (0, 1)
    # a numerator and denominator need not be coprime
    assert dirichlet_1d(6, 14, 2) == (1, 2)


class _Int(int):
    """An int subclass: the integer checks accept it as they accept an int."""


def test_dirichlet_1d_rejects_bad_input():
    # a float numerator or denominator would walk its binary expansion; the
    # numerator is judged first, then the denominator, then Z
    numerator, denominator = "alpha's numerator must be an integer >= 0", "alpha's denominator must be an integer >= 1"
    for num, den, Z, message in (
        (-1, 2, 3, f"{numerator}, got -1"),
        (1, 0, 3, f"{denominator}, got 0"),
        (1, -2, 3, f"{denominator}, got -2"),
        (1, 2, 0, "Z must be an integer >= 1, got 0"),
        (1, 2, 1.5, "Z must be an integer >= 1, got 1.5"),
        (2.5, 1, 3, f"{numerator}, got 2.5"),
        (5, 2.0, 3, f"{denominator}, got 2.0"),
        (True, 2, 3, f"{numerator}, got True"),
        (1, 2, True, "Z must be an integer >= 1, got True"),
        ("1", 2, 3, f"{numerator}, got '1'"),
        (-1, 0, 0, f"{numerator}, got -1"),
        (1, 0, 0, f"{denominator}, got 0"),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            dirichlet_1d(num, den, Z)
    assert dirichlet_1d(_Int(3), _Int(7), _Int(2)) == (1, 2)


@pytest.mark.parametrize(
    "numerators,denominator,Z,message",
    [
        ((), 1, 10, "at least one target"),
        ((1, -2), 6, 10, "target numerator must be an integer >= 0"),
        ((1,), 0, 10, "target denominator must be an integer >= 1"),
        ((1,), 2, 0, "Z must be an integer >= 1"),
        ((1,), 2, 2.0, "Z must be an integer >= 1"),
        ((0.1, 0.3), 1, 10, "target numerator"),
        ((1, 0.3), 10, 10, "target numerator"),
        ((Fraction(1, 10), 3), 10, 10, "target numerator"),
        ((1, 3), 10.0, 10, "target denominator"),
        ((True,), 2, 10, "target numerator"),
    ],
    ids=["empty", "negative", "denominator-zero", "Z-zero", "Z-float", "floats", "one-float", "fraction",
         "float-denominator", "bool"],
)
def test_dirichlet_simultaneous_rejects_bad_input(numerators, denominator, Z, message):
    with pytest.raises(ValueError, match=message):
        dirichlet_simultaneous(numerators, denominator, Z)


def test_dirichlet_simultaneous_reduces_its_targets():
    # targets over any common denominator give the witness of their lowest
    # terms, which keeps the reduced numerators and denominator
    exact = dirichlet_simultaneous((1, 3), 10, 10)
    assert (exact.numerators, exact.denominator) == ((1, 3), 10)
    assert dirichlet_simultaneous([2, 6], 20, 10) == exact
    assert dirichlet_at((Fraction(1, 10), Fraction(3, 10)), 10) == exact


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 10**4), st.integers(1, 10**4),
       st.integers(2, 60))
def test_dirichlet_simultaneous_answers_alike_over_any_common_denominator(c1, c2, D, Z, k):
    # without the reduction, D**d // Z, and so R, could differ from the
    # lowest-terms search
    w = dirichlet_simultaneous((c1, c2), D, Z)
    assert dirichlet_simultaneous((k * c1, k * c2), k * D, Z) == w
    assert w == reference_scan((Fraction(c1, D), Fraction(c2, D)), Z)


@given(nonneg_rationals, st.integers(min_value=1, max_value=1000))
def test_dirichlet_1d_contract(alpha, Z):
    p, q = dirichlet_1d(alpha.numerator, alpha.denominator, Z)
    assert 1 <= q <= Z
    assert abs(q * alpha - p) * Z < 1


@given(nonneg_rationals)
def test_dirichlet_1d_reaches_alpha_and_q_grows_with_Z(alpha):
    # the walk ends on alpha in lowest terms once Z admits its denominator,
    # and the denominators it stops at never fall as Z grows
    num, den = alpha.numerator, alpha.denominator
    assert dirichlet_1d(num, den, den) == (num, den)
    assert dirichlet_1d(3 * num, 3 * den, den) == (num, den)
    qs = [dirichlet_1d(num, den, Z)[1] for Z in range(1, min(den, 200) + 1)]
    assert all(math.gcd(*dirichlet_1d(num, den, Z)) == 1 for Z in range(1, min(den, 50) + 1))
    assert qs == sorted(qs)


def test_dirichlet_1d_is_a_best_approximation():
    # a convergent is a best approximation of the second kind: no smaller
    # denominator comes closer
    rng = random.Random(7)
    for _ in range(50):
        alpha = Fraction(rng.randint(0, 400), rng.randint(1, 400))
        for Z in range(1, alpha.denominator + 1, 3):
            p, q = dirichlet_1d(alpha.numerator, alpha.denominator, Z)
            err = abs(q * alpha - p)
            for q2 in range(1, q):
                assert abs(q2 * alpha - round(q2 * alpha)) >= err


def test_dirichlet_simultaneous_integer_targets():
    w = dirichlet_at((Fraction(3), Fraction(7), Fraction(0)), 9)
    assert w.q == 1
    assert w.p == (3, 7, 0)
    assert all(parse_rational(r) == 0 for r in w.to_json_dict()["residuals"])
    assert w.satisfied


def test_dirichlet_simultaneous_matches_1d():
    w = dirichlet_at((Fraction(27, 26),), 5)
    one = dirichlet_1d(27, 26, 5)
    assert w.satisfied
    assert (w.p[0], w.q) == one


def test_dirichlet_simultaneous_hand_example():
    w = dirichlet_at((Fraction(3, 2), Fraction(7, 3)), 4)
    assert w.q == 1
    assert w.p == (2, 2)  # half-integral 3/2 rounds to the even integer
    assert max(abs(w.q * a - p) for a, p in zip((Fraction(3, 2), Fraction(7, 3)), w.p)) == Fraction(1, 2)
    assert w.satisfied  # (1/2)**2 = 1/4 <= 1/4


def test_nearest_integer_ties_round_to_even():
    w = dirichlet_at((Fraction(1, 2), Fraction(5, 2)), 1)
    assert w.p == (0, 2)


def test_simultaneous_satisfied_obeys_power_bound():
    rng = random.Random(11)
    for _ in range(200):
        d = rng.randint(1, 4)
        Z = rng.randint(1, 500)
        alphas = tuple(Fraction(rng.randint(0, 10**5), rng.randint(1, 10**5)) for _ in range(d))
        w = dirichlet_at(alphas, Z)
        assert 1 <= w.q <= Z
        for aj, pj, rj in zip(alphas, w.p, w.to_json_dict()["residuals"]):
            assert parse_rational(rj) == Fraction(pj, w.q) - aj
        assert w.satisfied
        worst = max(abs(w.q * aj - pj) for aj, pj in zip(alphas, w.p))
        assert pow_cmp(worst, d, Fraction(1, Z)) <= 0


def test_nearest_choice_minimises_residual():
    rng = random.Random(13)
    for _ in range(100):
        alphas = tuple(Fraction(rng.randint(0, 999), rng.randint(1, 99)) for _ in range(2))
        w = dirichlet_at(alphas, rng.randint(1, 20))
        for aj, pj in zip(alphas, w.p):
            err = abs(w.q * aj - pj)
            for delta in (-1, 1):
                assert abs(w.q * aj - (pj + delta)) >= err


def test_witness_shape_and_serialisation():
    w = dirichlet_at((Fraction(3, 2), Fraction(7, 3)), 4)
    assert len(w.p) == 2
    payload = w.to_json_dict()
    assert payload["q"] == 1 and payload["Z"] == 4
    assert payload["satisfied"] is True
    assert payload["residuals"] == ["1/2", "-1/3"]


def reference_scan(alphas, Z):
    # every q = 1..Z in turn: nearest integers with half-integral ties to even,
    # bound |q*n - p*v|**d * Z <= v**d for each target n/v; Minkowski's
    # theorem says some q meets it
    d = len(alphas)
    pairs = [(a.numerator, a.denominator) for a in alphas]
    for q in range(1, Z + 1):
        ps = []
        for num, v in pairs:
            t = q * num
            p, rem = divmod(t, v)
            if 2 * rem > v or (2 * rem == v and p % 2 == 1):
                p += 1
            if abs(t - p * v) ** d * Z > v**d:
                break
            ps.append(p)
        else:
            return DirichletWitness(q, tuple(ps), Z, *over_one_denominator(alphas))
    raise AssertionError(f"no q <= {Z} meets the bound for {alphas}")


def integer_form(alphas, Z):
    # (c_j, D, R) of dirichlet_simultaneous: q meets the bound on target j
    # exactly when q*c_j mod D lies within R of 0
    cs, D = over_one_denominator(alphas)
    return list(cs), D, integer_nth_root(D ** len(cs) // Z, len(cs))


def first_answer(cs, D, R):
    # (n, q) by a scan over q: the least q within R of an integer on every
    # target, and its place n among those within R on the first; q = D is
    # one
    n = 0
    for q in count(1):
        if min(q * cs[0] % D, -q * cs[0] % D) <= R:
            n += 1
            if all(min(q * c % D, -q * c % D) <= R for c in cs[1:]):
                return n, q


# (alphas, Z, q, n): the answer q is the n-th return of target 1. The walk
# answers the first four; the rest lie at its last return and one past it,
# at d = 2, 3 and 4
WALK_BOUNDARY = (
    ((Fraction(612, 61), Fraction(83735, 9232), Fraction(11519, 1351), Fraction(377, 324)), 20000, 2225, 400),
    ((Fraction(3518, 1841), Fraction(82331, 1328), Fraction(75497, 9449), Fraction(16085, 1401)), 20000, 2380, 401),
    ((Fraction(134, 5), Fraction(33767, 1648), Fraction(39936, 8081)), 30000, 2085, 417),
    ((Fraction(214371, 27332), Fraction(9633213, 838529)), 10**5, 63460, 401),
    ((Fraction(182611, 29664), Fraction(35205, 12977)), 2484360, 962224, 1200),
    ((Fraction(23333, 558), Fraction(78934, 13247)), 1673324, 670158, 1201),
    ((Fraction(10207, 353), Fraction(8756, 1693), Fraction(24522, 1973)), 94860, 28240, 1200),
    ((Fraction(22268, 1493), Fraction(24179, 1468), Fraction(26020, 809)), 140085, 31459, 1201),
    ((Fraction(1, 49), Fraction(33, 40), Fraction(1, 19), Fraction(907, 12)), 74820, 11760, 1200),
    ((Fraction(55, 28), Fraction(877, 11), Fraction(156, 47), Fraction(460, 13)), 34151, 6721, 1201),
)


@st.composite
def simultaneous_inputs(draw):
    # denominators up to 2 and 6 force half-integral ties and D**d < Z (R = 0)
    # at large Z; near 10**2 and 10**4 errors land on the radius R itself;
    # tiny Z gives 2R >= D, where q = 1 meets the bound. Target 1 returns
    # within R of 0 about once in D/(2R + 1), about Z**(1/d)/2, denominators,
    # and a return meets the other d - 1 targets about once in
    # (Z**(1/d)/2)**(d - 1) returns. At d >= 3 a Z near
    # (2*_RETURNS**(1/(d - 1)))**d puts that mean near _RETURNS, so with
    # large denominators the answers fall on both sides of the walk's last
    # return and the lattice search answers some of them
    d = draw(st.integers(1, 4))
    if d >= 3 and draw(st.booleans()):
        mean_at_k = (2 * integer_nth_root(_RETURNS, d - 1)) ** d
        Z = draw(st.integers(mean_at_k // 2, 2 * mean_at_k))
    else:
        Z = draw(st.sampled_from([1, 2, 3]) | st.integers(1, 10**5) | st.integers(10**4, 10**5))
    scale = draw(st.sampled_from([10**9, 10**6, 10**4, 10**2, 6, 2]))
    low = 1 if scale < 10 else scale // 10
    alphas = tuple(Fraction(draw(st.integers(low, 10 * scale)), draw(st.integers(low, scale))) for _ in range(d))
    return alphas, Z


@settings(max_examples=300, deadline=None)
@given(simultaneous_inputs())
@example(((Fraction(3, 2), Fraction(7, 3)), 4))  # a tie at q = 1
@example(((Fraction(5, 97),), 10**5))  # R = 0: q = D = 97
@example(((Fraction(123456789, 987654321), Fraction(5, 7)), 99991))  # q = 56, the 7th return
# answers whose worst error is exactly R
@example(((Fraction(7685, 989),), 496))  # q = 61, R = 1
@example(((Fraction(287, 10), Fraction(361, 37)), 1147))  # q = 70, R = 10
@example(((Fraction(829, 45), Fraction(334, 35), Fraction(551, 27)), 2431))  # q = 199, R = 70
@example(((Fraction(56, 53), Fraction(63, 53), Fraction(403, 35), Fraction(14, 3)), 18374))  # q = 636, R = 477
@example(((Fraction(978, 31), Fraction(95, 16)), 1018))  # q = 496, R = 15; q = 144 misses it by one
@example(((Fraction(57, 28), Fraction(46, 21)), 31))  # q = 5, D = 84: remainder 15 = R
@example(((Fraction(11, 5), Fraction(13, 15), Fraction(37, 27)), 124))  # q = 14, D = 135: remainder 108 = D - R
@example(((Fraction(0), Fraction(14, 5), Fraction(31, 20)), 27))  # c_1 = 0: every q returns; q = 4
@example(((Fraction(17, 5), Fraction(0), Fraction(2, 7)), 1))  # Z = 1: 2R >= D, q = 1
# answers at returns 400 to 417, inside the walk, and at d = 3 and 4 at its
# last return and past it, found by the lattice search
@example(WALK_BOUNDARY[0][:2])
@example(WALK_BOUNDARY[1][:2])
@example(WALK_BOUNDARY[2][:2])
@example(WALK_BOUNDARY[3][:2])
@example(WALK_BOUNDARY[6][:2])
@example(WALK_BOUNDARY[7][:2])
@example(WALK_BOUNDARY[8][:2])
@example(WALK_BOUNDARY[9][:2])
def test_dirichlet_simultaneous_matches_reference_scan(inputs):
    alphas, Z = inputs
    assert dirichlet_at(alphas, Z) == reference_scan(alphas, Z)


@settings(max_examples=150, deadline=None)
@given(simultaneous_inputs())
@example(WALK_BOUNDARY[0][:2])
@example(((Fraction(123456789, 987654321), Fraction(5, 7)), 99991))
# answers whose worst error is exactly R
@example(((Fraction(7685, 989),), 496))
@example(((Fraction(287, 10), Fraction(361, 37)), 1147))
@example(((Fraction(829, 45), Fraction(334, 35), Fraction(551, 27)), 2431))
@example(((Fraction(56, 53), Fraction(63, 53), Fraction(403, 35), Fraction(14, 3)), 18374))
@example(((Fraction(978, 31), Fraction(95, 16)), 1018))
def test_lattice_search_matches_reference_scan(inputs):
    # the walk answers most inputs before the lattice search would run, so
    # the search is checked on its own wherever it may run: 0 < 2R < D
    alphas, Z = inputs
    cs, D, R = integer_form(alphas, Z)
    assume(0 < 2 * R < D)
    assert _least_q_in_box(cs, D, R, Z) == reference_scan(alphas, Z).q


@pytest.mark.parametrize("alphas,Z,q,n", WALK_BOUNDARY)
def test_walk_gives_up_after_its_last_return(alphas, Z, q, n):
    cs, D, R = integer_form(alphas, Z)
    assert first_answer(cs, D, R) == (n, q)
    assert _walked(cs, D, R) == (q if n <= _RETURNS else None)
    assert dirichlet_at(alphas, Z).q == q


def test_first_hit_matches_brute_force():
    # every (A, M, lo, hi) with M <= 40, and A up to 2M so that A is reduced;
    # k*A mod M runs through its values within k < M
    for M in range(1, 41):
        for A in range(2 * M):
            first = {}
            for k in range(M):
                first.setdefault(k * A % M, k)
            for lo in range(M):
                least = None
                for hi in range(lo, M):
                    k = first.get(hi)
                    if k is not None and (least is None or k < least):
                        least = k
                    assert _first_hit(A, M, lo, hi) == least
            assert _first_hit(A, M, M - 1, M - 2) is None  # an empty interval


def test_walk_matches_a_scan_over_q(monkeypatch):
    # the walk answers first_answer's q, the n-th return, exactly when n is
    # at most K, else None. K = 1, 5 and 40 give up on some cases, and the
    # walk's own K is checked too. The scan reads each remainder afresh, so
    # it checks the walk's running residue of target 2
    rng = random.Random(23)
    cases = [
        ([0, 3], 7, 2),  # c_1 = 0: every q returns
        ([5, 0], 11, 2),  # c_2 = 0
        ([6, 4, 7], 9, 1),  # gcd(c_1, D) = 3
        ([3, 7, 2], 10, 4),  # 2R + 1 = D - 1
        ([5], 11, 1),  # one target: the first return answers
    ]
    for _ in range(2000):
        D = rng.randint(3, 300)
        cases.append(([rng.randint(0, 3 * D) for _ in range(rng.randint(1, 3))], D, rng.randint(1, (D - 1) // 2)))
    for cs, D, R in cases:
        n, q = first_answer(cs, D, R)
        for K in (1, 5, 40, _RETURNS):
            monkeypatch.setattr(diophantine, "_RETURNS", K)
            assert _walked(cs, D, R) == (q if n <= K else None), (cs, D, R, K)


def test_walk_answers_as_the_lattice_search_does_at_pool_scale():
    # seeded n = 3 and n = 4 weights with a1 from 10**9 to 10**18, asked as
    # the general-theta construction asks: targets a_j/a_1 for j >= 2 and
    # Z = a1**(1/n). No scan over q reaches these Z; both searches give the
    # least q, so they agree wherever the walk answers, which is almost
    # everywhere
    rng = random.Random(33)
    walked = 0
    for n in (3, 4):
        for _ in range(150):
            e = rng.randint(9, 17)
            a1 = rng.randrange(10**e, 10 ** (e + 1))
            alphas = [Fraction(rng.randrange(a1, 3 * a1), a1) for _ in range(n - 1)]
            Z = integer_nth_root(a1, n)
            cs, D, R = integer_form(alphas, Z)
            assert 0 < 2 * R < D
            q = _walked(cs, D, R)
            if q is not None:
                walked += 1
                assert q == _least_q_in_box(cs, D, R, Z), (alphas, Z)
    assert walked >= 290


def test_a_thousand_digit_fibonacci_target_runs_in_a_loop():
    # F_(k-1)/F_k has every partial quotient 1, so the first-hit search runs
    # through about 4,780 Euclid steps, past Python's recursion limit.
    # Cassini's identity F_(k-1)**2 - F_k*F_(k-2) = (-1)**k makes the least
    # k' with k'*F_(k-1) = 1 mod F_k equal to F_(k-1) for even k, else F_(k-2)
    fib = [0, 1]
    while len(str(fib[-1])) < 1000:
        fib.append(fib[-1] + fib[-2])
    for k in (len(fib) - 2, len(fib) - 1):
        assert _first_hit(fib[k - 1], fib[k], 1, 1) == fib[k - 1 if k % 2 == 0 else k - 2]
    # the least q meeting the bound is a best approximation, so a
    # convergent denominator F_j, and F_(j-1) misses the bound
    alpha, Z = Fraction(fib[-2], fib[-1]), 10**400
    w = dirichlet_at((alpha,), Z)
    j = fib.index(w.q)
    assert abs(w.q * alpha - w.p[0]) * Z <= 1
    assert abs(fib[j - 1] * alpha - round(fib[j - 1] * alpha)) * Z > 1


def test_a_very_short_lattice_vector_shrinks_the_search():
    # q = 97 nearly solves both targets, so its multiples crowd the ball
    # around the whole box [1, Z] x [-R, R]^2; listing them all would take
    # time linear in Z. The walk alone finds q = 97 in a few returns, so the
    # lattice search is called directly
    k = 10**30
    alphas = (Fraction(13 * k + 1, 97 * k), Fraction(50 * k + 1, 97 * k))
    cs, D, R = integer_form(alphas, 10**8)
    started = time.perf_counter()
    q = _least_q_in_box(cs, D, R, 10**8)
    assert time.perf_counter() - started < 1.0
    assert q == 97 == reference_scan(alphas, 10**8).q
    assert dirichlet_at(alphas, 10**8).q == 97
