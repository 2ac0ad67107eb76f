import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from wblowup.exact_lattice import (
    BudgetExceeded,
    _lll,
    _short_vectors,
    ceil_div,
    format_rational,
    integer_nth_root,
    parse_rational,
    pow_cmp,
    require_same_dimension,
)

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
