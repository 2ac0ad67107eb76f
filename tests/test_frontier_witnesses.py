"""The frontier tuples that ROADMAP quotes, each with its exact mld.

Each entry is a weight tuple whose mld is checked by two routes:
`mld_global` gives the value and its lex-first minimiser, `psi_value` at
that minimiser gives the value again, and the strict scan `is_eps_lc(a,
value)` finds no lattice point with psi below it. A tuple whose mld is at
least eps shows M(n, eps) >= a1, the frontier of Birkar's question: these
are lower bounds only, and nothing here claims a value of M.
"""

from fractions import Fraction

import pytest

from wblowup.toric_mld import WeightVector, is_eps_lc, mld_global, psi_value

ENTRIES = [
    ((7, 12), Fraction(3, 7), (1, 2)),
    ((11, 19), Fraction(4, 11), (1, 2)),
    ((13, 18), Fraction(1, 3), (1, 1)),
    ((60, 67, 84), Fraction(1, 2), (1, 1, 1)),
    ((60, 71, 260), Fraction(1, 2), (1, 1, 3)),
    ((597, 614, 709, 844), Fraction(1, 2), (5, 5, 6, 7)),
    ((564, 582, 895, 978), Fraction(49, 97), (34, 35, 54, 59)),
]


def families(k):
    """The two n = 2 families at k, each with its mld (the second from k = 4 on)."""
    yield (k * k + (k - 1) ** 2, 2 * k * k), Fraction(1, k)
    if k >= 4:
        yield (2 * k * k - 2 * k - 2, 2 * k * k - 1), Fraction(2 * k, 2 * k * k - 1)


def mld_by_two_routes(entries):
    """mld_global's value and minimiser, once psi_value at the minimiser agrees."""
    a = WeightVector(entries)
    report = mld_global(a)
    assert psi_value(a, report.achieved_at) == report.value
    return report.value, report.achieved_at


@pytest.mark.parametrize("entries,value,point", ENTRIES, ids=[",".join(map(str, e)) for e, _, _ in ENTRIES])
def test_frontier_entry_has_its_mld_at_its_point(entries, value, point):
    assert mld_by_two_routes(entries) == (value, point)
    assert is_eps_lc(WeightVector(entries), value) == (True, None)


def test_families_have_their_mld_up_to_k_199():
    for k in range(2, 200):
        for entries, value in families(k):
            assert mld_by_two_routes(entries)[0] == value, entries
            assert is_eps_lc(WeightVector(entries), value) == (True, None), entries


@pytest.mark.parametrize("k", [10**4, 10**5, 10**6, 10**9])
def test_families_have_their_mld_at_large_k(k):
    # the scan's cost grows with the weights, so here mld_global stands alone
    for entries, value in families(k):
        assert mld_by_two_routes(entries)[0] == value, entries
