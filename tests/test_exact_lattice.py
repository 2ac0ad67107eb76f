import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wblowup.diophantine import dirichlet_1d, dirichlet_simultaneous
from wblowup.exact_lattice import (
    BudgetExceeded,
    _dedekind12,
    _dedekind_pair12,
    _lll,
    _short_vectors,
    ceil_div,
    check_int,
    format_quotient,
    format_rational,
    integer_nth_root,
    parse_rational,
    pow_cmp,
    require_same_dimension,
)
from wblowup.harness import SweepSpec
from wblowup.oracle import (
    enumerate_lattice_points,
    mld_bruteforce,
    psi_bruteforce,
    verify_interior_psi_equivalence,
)
from wblowup.toric_mld import WeightVector, is_eps_lc, mld_at_fixed_point, mld_global, psi_value
from wblowup.witness import build_polytope, certificate_threshold, certify_not_eps_lc

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
small_nonneg = st.fractions(min_value=0, max_value=100, max_denominator=1000)


def test_pow_cmp_examples():
    assert pow_cmp(Fraction(1, 2), 2, Fraction(1, 4)) == 0
    assert pow_cmp(Fraction(1, 3), 2, Fraction(1, 8)) == -1
    # 27/125 against 1/4 by cross multiplication: 108 < 125
    assert pow_cmp(Fraction(3, 5), 3, Fraction(1, 4)) == -1


@given(small_nonneg, st.integers(min_value=1, max_value=8), small_nonneg)
def test_pow_cmp_matches_repeated_multiplication(x, d, y):
    power = Fraction(1)
    for _ in range(d):
        power *= x
    assert pow_cmp(x, d, y) == (power > y) - (power < y)


def test_pow_cmp_rejects_negative_and_bad_exponent():
    with pytest.raises(ValueError):
        pow_cmp(Fraction(-1, 2), 2, Fraction(1, 4))
    with pytest.raises(ValueError):
        pow_cmp(Fraction(1, 2), 0, Fraction(1, 4))
    # 0.1**2 == 0.01 in decimals, but not in the floats' binary expansions
    with pytest.raises(ValueError, match="float"):
        pow_cmp(0.1, 2, Fraction(1, 100))
    with pytest.raises(ValueError, match="float"):
        pow_cmp(Fraction(1, 10), 2, 0.01)
    assert pow_cmp("1/10", 2, "1/100") == 0


def test_parse_and_format_round_trip():
    for text, expected in [
        ("3/4", Fraction(3, 4)),
        ("-3/4", Fraction(-3, 4)),
        ("5", Fraction(5)),
        ("0", Fraction(0)),
        (" 27/26 ", Fraction(27, 26)),
    ]:
        assert parse_rational(text) == expected
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(8, 4)) == "2"


@pytest.mark.parametrize("bad", ["", "1.5", "1/-2", "1/0", "a/b", "+3", "1 / 2", "--3"])
def test_parse_rational_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@given(rationals)
def test_format_parse_identity(x):
    assert parse_rational(format_rational(x)) == x


@given(st.integers(-10**40, 10**40), st.integers(-10**40, 10**40).filter(bool))
@example(0, -7)
@example(6, -4)
@example(-6, 3)
def test_format_quotient_reduces_as_fraction_does(num, den):
    assert format_quotient(num, den) == format_rational(Fraction(num, den))


def test_arithmetic_survives_huge_operands():
    big = 10**2500
    x = Fraction(big + 1, big)
    y = Fraction(big, big - 1)
    assert x < y
    assert pow_cmp(x, 3, x * x * x) == 0


def test_integer_nth_root_examples():
    assert integer_nth_root(0, 3) == 0
    assert integer_nth_root(1, 5) == 1
    assert integer_nth_root(26, 2) == 5
    assert integer_nth_root(27, 3) == 3
    assert integer_nth_root(26, 3) == 2
    assert integer_nth_root(10**4, 4) == 10


@st.composite
def radicands(draw):
    # any x up to 10**300, or an exact power r**n or one either side of it
    n = draw(st.integers(min_value=1, max_value=8))
    offset = draw(st.sampled_from([None, -1, 0, 1]))
    if offset is None:
        return draw(st.integers(min_value=0, max_value=10**300)), n, None
    r = draw(st.integers(min_value=1, max_value=10 ** (300 // n)))
    return r**n + offset, n, r - 1 if offset < 0 else r if offset == 0 else None


@settings(max_examples=300)
@given(radicands())
@example((10**300, 8, None))
@example((2**1000 - 1, 3, None))
@example((3**320, 8, 3**40))
@example(((10**37 + 1) ** 8 - 1, 8, 10**37))
@example((2, 5, 1))
def test_integer_nth_root_is_exact_floor(case):
    x, n, expected = case
    r = integer_nth_root(x, n)
    assert r**n <= x < (r + 1) ** n
    if expected is not None:
        assert r == expected


def test_integer_nth_root_rejects_bad_input():
    for x, n in ((-1, 2), (8.0, 3), ("8", 3), (8, 0), (8, -2), (8, 1.5), (None, 2)):
        with pytest.raises(ValueError):
            integer_nth_root(x, n)


def _sweep(**overrides):
    spec = dict(n=2, eps=Fraction(1, 2), a1_min=1, a1_max=3, tail_caps=(2,), theta=None, workers=1,
                enumeration_cap=100, include_timing=False)
    return SweepSpec(**{**spec, **overrides})


A = WeightVector((2, 3, 5))
C = build_polytope(WeightVector((2, 3)), 1)

# every public integer argument: (call, least, a value the call accepts)
INTEGER_ARGUMENTS = {
    "check_int": (lambda v: check_int(v, "x", 2), 2, 2),
    "pow_cmp-exponent": (lambda v: pow_cmp(2, v, 4), 1, 2),
    "nth_root-radicand": (lambda v: integer_nth_root(v, 2), 0, 9),
    "nth_root-index": (lambda v: integer_nth_root(8, v), 1, 3),
    "dirichlet_1d-num": (lambda v: dirichlet_1d(v, 7, 3), 0, 3),
    "dirichlet_1d-den": (lambda v: dirichlet_1d(3, v, 3), 1, 7),
    "dirichlet_1d-Z": (lambda v: dirichlet_1d(3, 7, v), 1, 3),
    "dirichlet_simultaneous-numerator": (lambda v: dirichlet_simultaneous((v, 2), 3, 3), 0, 1),
    "dirichlet_simultaneous-denominator": (lambda v: dirichlet_simultaneous((1,), v, 3), 1, 3),
    "dirichlet_simultaneous-Z": (lambda v: dirichlet_simultaneous((1,), 3, v), 1, 3),
    "weight": (lambda v: WeightVector((v, 7)), 1, 2),
    "weight-after-5": (lambda v: WeightVector((5, v)), 5, 7),
    "psi-coordinate": (lambda v: psi_value(WeightVector((2, 3)), (v, 1)), 0, 1),
    "mld_global-cap": (lambda v: mld_global(A, v), 1, 10),
    "fixed_point-cone": (lambda v: mld_at_fixed_point(A, v), 1, 2),
    "fixed_point-cap": (lambda v: mld_at_fixed_point(A, 1, v), 1, 10),
    "is_eps_lc-cap": (lambda v: is_eps_lc(A, Fraction(1, 2), v), 1, 100),
    "certify-cap": (lambda v: certify_not_eps_lc(A, Fraction(1, 2), None, v), 1, 100),
    "threshold-n": (lambda v: certificate_threshold(v, 1), 2, 2),
    "sweep-n": (lambda v: _sweep(n=v), 2, 2),
    "sweep-a1_min": (lambda v: _sweep(a1_min=v), 1, 1),
    "sweep-a1_max": (lambda v: _sweep(a1_min=2, a1_max=v), 2, 2),
    "sweep-tail_cap": (lambda v: _sweep(tail_caps=(v,)), 0, 0),
    "sweep-workers": (lambda v: _sweep(workers=v), 1, 1),
    "sweep-cap": (lambda v: _sweep(enumeration_cap=v), 1, 1),
    "oracle-psi-coordinate": (lambda v: psi_bruteforce(WeightVector((2, 3)), (v, 1)), 0, 1),
    "oracle-budget": (lambda v: enumerate_lattice_points(C, "open", v), 1, 12),
    "oracle-mld-budget": (lambda v: mld_bruteforce(WeightVector((2, 3)), v), 1, 12),
    "oracle-equivalence-budget": (lambda v: verify_interior_psi_equivalence(WeightVector((2, 3)), 1, v), 1, 12),
}


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_every_public_integer_argument_takes_only_an_int(name):
    # one rule everywhere: an int of at least the least value, never a bool,
    # a float or a string, even one equal to an allowed integer
    call, least, good = INTEGER_ARGUMENTS[name]
    call(good)
    for bad in (True, 2.0, "3", least - 1):
        with pytest.raises(ValueError) as err:
            call(bad)
        assert repr(bad) in str(err.value)


def test_check_int_judges_other_values_by_isinstance():
    # an exact int is settled by its type test; any other value is judged
    # by isinstance, as before
    class Count(int):
        pass

    assert check_int(Count(3), "x", 2) == 3
    for bad in (True, 2.0, "3"):
        with pytest.raises(ValueError, match="x must be an integer >= 2"):
            check_int(bad, "x", 2)


def test_oracle_budget_is_checked_before_its_cache():
    # 2.0 hashes as 2 does, so a cache keyed on it would answer for the int
    a = WeightVector((2, 3))
    assert mld_bruteforce(a, 100) == Fraction(2, 3)
    with pytest.raises(ValueError, match="budget"):
        mld_bruteforce(a, 100.0)
    # a nonsense budget is an error, not an exhausted budget
    for bad in (-1, 0, 2.5, True):
        with pytest.raises(ValueError, match="budget must be an integer >= 1"):
            enumerate_lattice_points(C, "open", bad)


def test_format_rational_refuses_floats():
    with pytest.raises(ValueError, match="float"):
        format_rational(0.1)
    assert format_rational("1/10") == format_rational(Fraction(1, 10)) == "1/10"


def test_ceil_div():
    assert ceil_div(7, 2) == 4
    assert ceil_div(6, 2) == 3
    assert ceil_div(-7, 2) == -3
    assert ceil_div(0, 5) == 0


def test_vector_helpers_validate():
    require_same_dimension(2, (1, 2))
    with pytest.raises(ValueError):
        require_same_dimension(2, (1, 2, 3))


def test_budget_error_carries_numbers():
    err = BudgetExceeded(123, 45, "visited prefixes")
    assert err.work == 123
    assert err.cap == 45
    assert str(err) == "123 visited prefixes exceed budget 45"


def test_short_vectors_match_a_box_scan():
    # every v in [-s, s]^n with v.v <= bound and v = x*B for an integer x,
    # found by solving x = v*B^-1 exactly, up to sign
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 3)
        basis = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        inverse = _inverse(basis)
        if inverse is None:
            continue
        bound = rng.randint(0, 40)
        s = math.isqrt(bound)
        expected = {
            max(v, tuple(-t for t in v))
            for v in itertools.product(range(-s, s + 1), repeat=n)
            if sum(t * t for t in v) <= bound
            and all(sum(v[k] * inverse[k][i] for k in range(n)).denominator == 1 for i in range(n))
        }
        reduced = [list(row) for row in basis]
        found = _short_vectors(reduced, *_lll(reduced), bound)
        assert all(sum(t * t for t in v) <= bound for v in found)
        assert {max(tuple(v), tuple(-t for t in v)) for v in found} == expected


def _gram_schmidt(rows):
    # d[i] = det of the Gram matrix of the first i rows and lam[k][j] =
    # d[j + 1] * mu_kj (zero for j >= k), from scratch over the rationals
    n = len(rows)
    stars, norms, lam = [], [], [[0] * n for _ in range(n)]
    d = [Fraction(1)]
    for k, row in enumerate(rows):
        star = [Fraction(x) for x in row]
        for j in range(k):
            mu = sum(x * y for x, y in zip(row, stars[j])) / norms[j]
            lam[k][j] = d[j + 1] * mu
            star = [x - mu * y for x, y in zip(star, stars[j])]
        stars.append(star)
        norms.append(sum(x * x for x in star))
        d.append(d[-1] * norms[-1])
    return d, lam


def _lll_cases():
    rng = random.Random(29)
    for _ in range(150):
        n = rng.randint(2, 6)
        size = rng.choice([3, 50, 10**6])
        yield [[rng.randint(-size, size) for _ in range(n)] for _ in range(n)]
    # the lattices of the simultaneous Dirichlet search, rows (R, Z*c_1, ...)
    # and Z*D*e_j, with D near 10**18 and R the integer radius for Z
    for _ in range(40):
        d = rng.randint(1, 4)
        D = rng.randint(10**18 - 10**6, 10**18 + 10**6)
        Z = rng.randint(2, 10**6)
        R = integer_nth_root(D**d // Z, d)
        cs = [rng.randrange(D) for _ in range(d)]
        yield [[R] + [Z * c for c in cs]] + [[0] * j + [Z * D] + [0] * (d - j) for j in range(1, d + 1)]


def test_lll_returns_a_reduced_basis_of_the_same_lattice():
    for basis in _lll_cases():
        inverse = _inverse(basis)
        if inverse is None:
            continue
        n = len(basis)
        reduced = [list(row) for row in basis]
        d, lam = _lll(reduced)
        # d and lam are the Gram-Schmidt data of the returned rows
        assert (d, lam) == _gram_schmidt(reduced)
        for k in range(1, n):
            # size-reduced, and Lovasz's condition with constant 3/4
            assert all(2 * abs(lam[k][j]) <= d[j + 1] for j in range(k))
            assert 4 * d[k + 1] * d[k - 1] >= 3 * d[k] ** 2 - 4 * lam[k][k - 1] ** 2
        # the same lattice: equal |det|, and integer transforms both ways
        assert d[n] == _gram_schmidt(basis)[0][n]
        back = _inverse(reduced)
        for rows, inv in ((reduced, inverse), (basis, back)):
            assert all(
                sum(row[m] * inv[m][c] for m in range(n)).denominator == 1 for row in rows for c in range(n)
            )


def _inverse(rows):
    # Gauss-Jordan over the rationals; None for a singular matrix
    n = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c:
                m[r] = [x - m[r][c] * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def _sawtooth_pair(u, v, c):
    # c * 12c * sum over k mod c of ((u*k/c))*((v*k/c)), term by term: the
    # sawtooth ((m/c)) is (2*(m mod c) - c) / 2c, and 0 where c divides m
    return 3 * sum((2 * (u * k % c) - c) * (2 * (v * k % c) - c) for k in range(c) if u * k % c and v * k % c)


def test_dedekind_sum_matches_its_definition():
    # 12c*s(h, c) by reciprocity, for every coprime 0 <= h < c <= 60
    pairs = [(h, c) for c in range(1, 61) for h in range(c) if math.gcd(h, c) == 1]
    assert len(pairs) == 1102
    for h, c in pairs:
        assert _dedekind12(h, c) * c == _sawtooth_pair(1, h, c), (h, c)
        assert _dedekind12(h + 3 * c, c) == _dedekind12(h, c)
    assert [_dedekind12(h, 5) for h in range(1, 5)] == [12, 0, 0, -12]  # s(1, 5) = 1/5


def test_dedekind_pair_matches_its_definition():
    # the gcd steps of 12c*D(u, v; c), common factors and Raabe's formula,
    # against the sum, for every c <= 30 and u, v in [-c, c]
    for c in range(1, 31):
        for u in range(-c, c + 1):
            for v in range(-c, c + 1):
                assert _dedekind_pair12(u, v, c) * c == _sawtooth_pair(u, v, c), (u, v, c)
