import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wblowup.exact_lattice import (
    BudgetExceeded,
    _lll,
    _short_vectors,
    ceil_div,
    format_rational,
    gcd_all,
    integer_nth_root,
    parse_rational,
    pow_cmp,
    require_same_dimension,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6)
small_nonneg = st.fractions(min_value=0, max_value=100, max_denominator=1000)


def test_gcd_all_examples():
    assert gcd_all((2, 3, 5)) == 1
    assert gcd_all((4, 6)) == 2
    assert gcd_all((7,)) == 7


def test_gcd_all_rejects_bad_input():
    with pytest.raises(ValueError):
        gcd_all(())
    with pytest.raises(ValueError):
        gcd_all((0, 3))
    with pytest.raises(ValueError):
        gcd_all((-4, 6))
    with pytest.raises(ValueError):
        gcd_all((Fraction(4), 6))


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


@given(st.integers(min_value=0, max_value=10**30), st.integers(min_value=1, max_value=7))
def test_integer_nth_root_is_exact_floor(x, n):
    r = integer_nth_root(x, n)
    assert r**n <= x < (r + 1) ** n
    if n == 2:
        assert r == math.isqrt(x)


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
