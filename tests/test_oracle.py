import math
import random
from fractions import Fraction

import pytest

from conftest import coprime_sorted_tuples, facets, mld_levels, random_weight_vector, refuters_levels
from wblowup.exact_lattice import BudgetExceeded
from wblowup.oracle import (
    enumerate_lattice_points,
    mld_bruteforce,
    psi_bruteforce,
    verify_interior_psi_equivalence,
)
from wblowup.toric_mld import WeightVector, is_eps_lc, mld_global, psi_value
from wblowup.witness import build_polytope


def test_enumerate_examples():
    C = build_polytope(WeightVector((2, 3)), 1)
    closed = enumerate_lattice_points(C, "closed")
    assert closed == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 3)]
    assert enumerate_lattice_points(C, "open") == [(1, 1)]
    C11 = build_polytope(WeightVector((1, 1)), 1)
    assert enumerate_lattice_points(C11, "open") == []


def test_enumerate_rejects_bad_mode_and_budget():
    C = build_polytope(WeightVector((2, 3)), 1)
    with pytest.raises(ValueError):
        enumerate_lattice_points(C, "half-open")
    big = build_polytope(WeightVector((999, 10**7)), 1)
    with pytest.raises(BudgetExceeded):
        enumerate_lattice_points(big, "closed", budget=100)


def test_closed_contains_open_and_difference_is_on_boundary():
    rng = random.Random(1)
    for _ in range(40):
        a = random_weight_vector(rng, rng.randint(2, 4), 10)
        eps = Fraction(rng.randint(1, 4), 4)
        C = build_polytope(a, eps)
        closed = enumerate_lattice_points(C, "closed")
        opened = enumerate_lattice_points(C, "open")
        assert set(opened) <= set(closed)
        for v in set(closed) - set(opened):
            slacks = [f.evaluate(v) for f in facets(C)] + [Fraction(c) for c in v]
            assert min(slacks) == 0


def test_psi_bruteforce_agrees_with_engine():
    rng = random.Random(21)
    for _ in range(200):
        a = random_weight_vector(rng, rng.randint(2, 4), 25)
        v = tuple(rng.randint(0, 40) for _ in range(a.n))
        if not any(v):
            continue
        assert psi_bruteforce(a, v) == psi_value(a, v)


@pytest.mark.parametrize(
    "v,message",
    [((1, 1, 1), "dimension mismatch"), ((1,), "dimension mismatch"), ((0, 0), "nonzero"), ((-1, 2), "coordinate must be an integer >= 0")],
    ids=["too-long", "too-short", "zero", "negative"],
)
def test_psi_bruteforce_rejects_bad_vectors(v, message):
    with pytest.raises(ValueError, match=message):
        psi_bruteforce(WeightVector((2, 3)), v)


def test_mld_bruteforce_examples():
    assert mld_bruteforce(WeightVector((2, 3))) == Fraction(2, 3)
    assert mld_bruteforce(WeightVector((1, 7))) == 1
    assert mld_bruteforce(WeightVector((1, 1, 1))) == 1


def test_engine_matches_oracle_small_family():
    # at n >= 5 the engine's only other reference reads the same slice enumerator
    for n, max_entry in ((2, 10), (3, 10), (5, 6), (6, 4)):
        for entries in coprime_sorted_tuples(n, max_entry):
            a = WeightVector(entries)
            report = mld_global(a)
            assert report.value == mld_bruteforce(a), entries
            assert psi_value(a, report.achieved_at) == report.value, entries


def test_mld_levels_matches_oracle():
    # 52 seeded tuples per n: the box scans take about 0.5 s in all
    rng = random.Random(39)
    for n, max_entry in ((2, 30), (3, 12), (4, 8), (5, 6)):
        for _ in range(52):
            a = random_weight_vector(rng, n, max_entry)
            value, point = mld_levels(a.entries)
            assert value == mld_bruteforce(a), a.entries
            assert psi_bruteforce(a, point) == value, a.entries


def test_mld_levels_matches_engine_at_n_4_to_6():
    # beyond the box scan's reach; sizes fixed from a budget of about 2 s:
    # a level pass costs some 10 ms at entries near 2,000 and 100 ms near
    # 15,000, the engine 3 and 40 ms
    rng = random.Random(40)
    draws = [(4 + i % 3, 500, 3000) for i in range(60)] + [(4 + i % 3, 10**4, 2 * 10**4) for i in range(8)]
    for n, lo, hi in draws:
        entries = ()
        while math.gcd(*entries) != 1:
            entries = tuple(sorted(rng.randint(lo, hi) for _ in range(n)))
        report = mld_global(WeightVector(entries))
        assert mld_levels(entries) == (report.value, report.achieved_at), entries


def test_is_eps_lc_matches_level_refuter_at_n_4_to_6():
    # verdict and lex-first refuter at four eps; 36 tuples, fixed from a
    # budget of about 2 s: a level pass costs some 4.5 us a level, 25 ms on
    # average at these entries, and serves all four eps
    rng = random.Random(46)
    eps_values = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1)]
    for i in range(36):
        entries = ()
        while math.gcd(*entries) != 1:
            entries = tuple(sorted(rng.randint(200, 10**4) for _ in range(4 + i % 3)))
        a = WeightVector(entries)
        for eps, refuter in zip(eps_values, refuters_levels(entries, eps_values)):
            assert is_eps_lc(a, eps) == (refuter is None, refuter), (entries, eps)


def test_verify_interior_psi_equivalence_examples():
    assert verify_interior_psi_equivalence(WeightVector((2, 3)), Fraction(3, 4))
    assert verify_interior_psi_equivalence(WeightVector((2, 3)), Fraction(1, 2))
    for k in (1, 5, 40):
        assert verify_interior_psi_equivalence(WeightVector((1, k)), 1)
    assert verify_interior_psi_equivalence(WeightVector((2, 3)), "1/2")
    with pytest.raises(ValueError, match="float"):
        verify_interior_psi_equivalence(WeightVector((2, 3)), 0.5)


def test_verify_interior_psi_equivalence_small_family():
    for entries in coprime_sorted_tuples(2, 10):
        a = WeightVector(entries)
        for eps in (Fraction(1, 2), Fraction(1)):
            assert verify_interior_psi_equivalence(a, eps), (entries, eps)
