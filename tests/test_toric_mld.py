import itertools
import json
import random
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import argmin_cones, barycentric, coprime_sorted_tuples, random_weight_vector
from wblowup.exact_lattice import DEFAULT_ENUMERATION_CAP, BudgetExceeded, format_rational
from wblowup.oracle import enumerate_lattice_points, psi_bruteforce
from wblowup.toric_mld import (
    CLASS_CANONICAL,
    CLASS_KLT,
    CLASS_TERMINAL,
    WeightVector,
    _chain,
    _chain_sum,
    _column_min,
    _cone,
    _floor_sum,
    _fold,
    _n3_count,
    _psi,
    _slices,
    is_eps_lc,
    iter_region_points,
    mld_at_fixed_point,
    mld_global,
    psi_value,
)
from wblowup import toric_mld
from wblowup.witness import build_polytope


def small_weights(rng, max_n=4, max_entry=40):
    return random_weight_vector(rng, rng.randint(2, max_n), max_entry)


# ---------------------------------------------------------------------------
# construction and validation


class _Int(int):
    """An int subclass: the integer checks accept it as they accept an int."""


def test_weight_vector_validation():
    WeightVector((1, 1))
    WeightVector((2, 3, 5))
    assert WeightVector((_Int(2), 3, _Int(5))).entries == (2, 3, 5)
    weight = "weight (weights ascend) must be an integer"
    for entries, message in [
        ((3, 2), f"{weight} >= 3, got 2"),  # descending
        ((2, 4), "weights must be coprime: (2, 4)"),
        ((5,), "need at least two weights"),
        ((0, 1), f"{weight} >= 1, got 0"),
        ((1, -2), f"{weight} >= 1, got -2"),
        ((True, 2), f"{weight} >= 1, got True"),
        ((1, 2.0), f"{weight} >= 1, got 2.0"),
        ((1, "2"), f"{weight} >= 1, got '2'"),
    ]:
        with pytest.raises(ValueError, match=re.escape(message)):
            WeightVector(entries)


def test_vector_preconditions():
    a = WeightVector((2, 3))
    with pytest.raises(ValueError):
        psi_value(a, (0, 0))
    with pytest.raises(ValueError):
        psi_value(a, (-1, 2))
    with pytest.raises(ValueError):
        psi_value(a, (1, 2, 3))


# ---------------------------------------------------------------------------
# psi


def test_psi_examples():
    assert psi_value(WeightVector((1, 5)), (1, 2)) == 1
    assert psi_value(WeightVector((2, 3)), (1, 1)) == Fraction(2, 3)
    for entries in [(2, 3), (1, 7), (3, 5, 7), (2, 3, 5, 11)]:
        a = WeightVector(entries)
        assert psi_value(a, entries) == 1
        for k in range(a.n):
            e = tuple(1 if j == k else 0 for j in range(a.n))
            assert psi_value(a, e) == 1


def test_psi_equals_gauge_of_unit_region():
    # third route: psi is the gauge of {psi <= 1}, i.e. the smallest s with
    # all facet inequalities of the s-scaled region satisfied, which is
    # max_i (sum_{j != i} v_j - (sum_{j != i} a_j - 1) / a_i * v_i)
    rng = random.Random(99)
    for _ in range(300):
        a = small_weights(rng)
        v = tuple(rng.randint(0, 50) for _ in range(a.n))
        if not any(v):
            continue
        T = a.total
        gauge = max(
            sum(v) - v[i] - Fraction((T - a.entries[i] - 1) * v[i], a.entries[i])
            for i in range(a.n)
        )
        assert psi_value(a, v) == gauge


def test_psi_homogeneity_and_boundary_consistency():
    rng = random.Random(3)
    for _ in range(300):
        a = small_weights(rng)
        v = tuple(rng.randint(0, 30) for _ in range(a.n))
        if not any(v):
            continue
        k = rng.randint(1, 9)
        assert psi_value(a, tuple(k * c for c in v)) == k * psi_value(a, v)
        # all containing cones give the same value
        vals = {barycentric(a, v, c).value() for c in argmin_cones(a, v)}
        assert vals == {psi_value(a, v)}


def test_barycentric_reconstruction_any_cone():
    rng = random.Random(5)
    for _ in range(300):
        a = small_weights(rng)
        v = tuple(rng.randint(0, 25) for _ in range(a.n))
        if not any(v):
            continue
        for cone in range(1, a.n + 1):
            b = barycentric(a, v, cone)
            assert b.reconstruct(a) == tuple(Fraction(c) for c in v)
            assert b.axis_coeffs[cone - 1] == 0
        cone = argmin_cones(a, v)[0]
        assert barycentric(a, v, cone).in_cone()


# ---------------------------------------------------------------------------
# cones


def test_max_cones_cover_orthant_and_match_argmin():
    # v lies in closed cone i exactly when v_j * a_i >= a_j * v_i for all j
    rng = random.Random(15)
    for _ in range(80):
        a = small_weights(rng, max_n=4, max_entry=20)
        v = tuple(rng.randint(0, 25) for _ in range(a.n))
        if not any(v):
            continue
        ent = a.entries
        containing = tuple(
            i + 1 for i in range(a.n) if all(v[j] * ent[i] >= ent[j] * v[i] for j in range(a.n))
        )
        assert containing == argmin_cones(a, v)
        assert _cone(a.entries, v) + 1 == containing[0]


# ---------------------------------------------------------------------------
# region enumeration


def test_iter_region_points_matches_psi_filter():
    rng = random.Random(9)
    for _ in range(40):
        a = small_weights(rng, max_n=4, max_entry=9)
        scale = Fraction(rng.randint(1, 4), rng.randint(1, 4))
        got = set(iter_region_points(a, scale))
        box = [range(0, int(scale * ai) + 2) for ai in a.entries]
        import itertools

        expected = {
            v
            for v in itertools.product(*box)
            if any(v) and psi_value(a, v) <= scale
        }
        assert got == expected


def test_iter_region_handles_needle_shaped_regions_quickly():
    # spread weights with small scale give a near-empty sliver; the
    # projection bounds must keep the recursion proportional to the shadow,
    # not to the bounding box
    import time

    a = WeightVector((2223, 8076, 8966, 8988))
    started = time.perf_counter()
    pts = list(iter_region_points(a, Fraction(1, 8)))
    assert pts == []
    pts = list(iter_region_points(a, Fraction(1, 2)))
    assert time.perf_counter() - started < 5.0
    for v in pts:
        assert psi_value(a, v) <= Fraction(1, 2)
    ok, refuter = is_eps_lc(a, Fraction(1, 2))
    assert not ok and refuter in pts


def test_iter_region_fallback_above_projection_cap():
    # n = 6 with spread weights: the closed-form prefix bounds must stay
    # correct (checked against the psi filter) and cheap to set up
    import itertools
    import time

    started = time.perf_counter()
    a = WeightVector((5, 7, 11, 13, 17, 19))
    assert sum(1 for _ in iter_region_points(a, 1)) > 0
    assert time.perf_counter() - started < 10.0
    rng = random.Random(66)
    for _ in range(3):
        a = random_weight_vector(rng, 6, 4)
        scale = Fraction(rng.randint(1, 2), rng.randint(1, 2))
        got = set(iter_region_points(a, scale))
        box = [range(0, int(scale * ai) + 2) for ai in a.entries]
        want = {
            v
            for v in itertools.product(*box)
            if any(v) and psi_value(a, v) <= scale
        }
        assert got == want


def _box_filter(a, scale):
    # sorted brute-force reference: every box point with psi_bruteforce <= s;
    # psi is unchanged by permuting coordinates of equal weight, so the oracle
    # runs once per orbit
    memo = {}
    out = []
    for v in itertools.product(*(range(int(scale * ai) + 1) for ai in a.entries)):
        if not any(v):
            continue
        key = tuple(sorted(zip(a.entries, v)))
        if key not in memo:
            memo[key] = psi_bruteforce(a, v) <= scale
        if memo[key]:
            out.append(v)
    return out


def test_iter_region_points_equals_sorted_box_filter():
    # the whole yield order, at n = 5..7 and for many ones at scale 2
    cases = [(WeightVector((1,) * 8), Fraction(2)), (WeightVector((1,) * 9), Fraction(2))]
    rng = random.Random(0)
    for n, count, scales in (
        (5, 4, (Fraction(2, 3), Fraction(1), Fraction(4, 3), Fraction(3, 2))),
        (6, 3, (Fraction(2, 3), Fraction(1), Fraction(4, 3))),
        (7, 2, (Fraction(2, 3), Fraction(1))),
    ):
        for _ in range(count):
            cases.append((random_weight_vector(rng, n, 5), rng.choice(scales)))
    for a, scale in cases:
        assert list(iter_region_points(a, scale)) == _box_filter(a, scale)


def test_strict_region_points_are_the_closed_scan_below_scale():
    # strict mode yields the closed scan's positive points with psi < s, in
    # the same order, and for s <= 1 every point with psi < s is positive.
    # a_1 = 1 zeroes the tilt of the second level's lower row; its interior
    # is empty unless s > 1, and s = 1 puts the first level's bound on a
    # lattice point, so small denominators are drawn often
    rng = random.Random(47)
    for _ in range(300):
        n = rng.randint(2, 5)
        a = random_weight_vector(rng, n, (40, 25, 9, 6)[n - 2])
        if rng.random() < 0.25:
            a = WeightVector((1,) + a.entries[1:])
        den = rng.choice((1, 2, rng.randint(1, 50)))
        s = Fraction(rng.randint(1, 2 * den), den)
        closed = list(iter_region_points(a, s))
        below = [v for v in closed if psi_value(a, v) < s]
        assert list(iter_region_points(a, s, strict=True)) == [v for v in below if all(v)]
        if s <= 1:
            assert all(map(all, below))


def _drain(columns):
    # the columns of a scan that finishes, and the work it returns
    out = []
    while True:
        try:
            out.append(next(columns))
        except StopIteration as stop:
            return out, stop.value


def _visited_prefixes(a, s, strict):
    # the prefixes an exact scan visits: the empty one and, for k < n, the
    # lattice points of the region's shadow on x_1..x_k, which is the same
    # region for the prefix weights; psi is the largest of its linear pieces
    count = 1
    for k in range(1, a.n):
        ent = a.entries[:k]
        for x in itertools.product(*(range(int(strict), int(s * ai) + 1) for ai in ent)):
            psi = sum(x) - (sum(ent) - 1) * min(Fraction(xi, ai) for xi, ai in zip(x, ent))
            count += psi < s if strict else psi <= s
    return count


def test_scan_budget_is_a_hard_bound():
    # a finished scan counts exactly its visited prefixes, and that count
    # fits its cap; any smaller cap stops the scan before the count passes
    # it, after a prefix of the same columns, reporting a count within the
    # cap plus one step: a prefix and the t values of one column block
    rng = random.Random(29)
    cases = []
    for n, count, max_entry in ((2, 10, 400), (3, 10, 60), (4, 8, 16), (5, 6, 8), (6, 4, 5), (7, 3, 4), (8, 2, 3)):
        for _ in range(count):
            den = rng.randint(1, 6)
            scale = Fraction(rng.randint(den // 2 + 1, den), den)
            cases.append((random_weight_vector(rng, n, max_entry), scale, rng.random() < 0.5))
    for a, s, strict in cases:
        columns, work = _drain(_slices(a, s, strict, DEFAULT_ENUMERATION_CAP))
        assert work == _visited_prefixes(a, s, strict), (a, s, strict)
        assert _drain(_slices(a, s, strict, work)) == (columns, work)
        step = 1 + int(s * a.entries[-2]) + 1
        for cap in {1, work // 2, work - 1} - {0, work}:
            scan = _slices(a, s, strict, cap)
            seen = []
            with pytest.raises(BudgetExceeded) as err:
                for column in scan:
                    seen.append(column)
            assert cap < err.value.work <= cap + step and err.value.cap == cap, (a, s, strict, cap)
            assert seen == columns[: len(seen)]


# ---------------------------------------------------------------------------
# mld


def test_mld_global_examples():
    for k in (1, 2, 7, 100):
        assert mld_global(WeightVector((1, k))).value == 1
    rep = mld_global(WeightVector((1, 1)))
    assert rep.value == 1
    assert rep.achieved_at == (0, 1)  # lexicographically smallest minimiser
    assert rep.classification == CLASS_TERMINAL
    rep = mld_global(WeightVector((2, 3)))
    assert rep.value == Fraction(2, 3)
    assert rep.achieved_at == (1, 1)
    assert rep.points_scanned == 5
    assert rep.classification == CLASS_KLT
    assert mld_global(WeightVector((1, 4))).classification == CLASS_CANONICAL


def test_mld_report_json():
    payload = mld_global(WeightVector((2, 3))).to_json_dict()
    assert payload == {
        "weights": [2, 3],
        "mld": "2/3",
        "achieved_at": [1, 1],
        "cone": 2,
        "points_scanned": 5,
        "classification": "klt-with-mld",
    }


def test_mld_at_fixed_point_examples():
    for k in (2, 5, 30):
        a = WeightVector((1, k))
        assert mld_at_fixed_point(a, 1) == 2  # smooth chart
        assert mld_at_fixed_point(a, 2) == 1
    a = WeightVector((1, 1))
    assert mld_at_fixed_point(a, 1) == 2
    assert mld_at_fixed_point(a, 2) == 2


def test_mld_global_bounded_by_fixed_points():
    rng = random.Random(23)
    for _ in range(25):
        a = small_weights(rng, max_n=3, max_entry=12)
        rep = mld_global(a)
        assert rep.value <= 1
        for i in range(1, a.n + 1):
            assert rep.value <= mld_at_fixed_point(a, i)


def _per_point_mld(a):
    # reference for the column scan: psi at every point of {psi <= 1}, a
    # strict lexicographic minimum and a count
    ent, T1 = a.entries, a.total - 1
    best_num, best_den, best_v, count = 2, 1, None, 0
    for v in iter_region_points(a, 1):
        count += 1
        num, den = _psi(ent, T1, v)
        if num * best_den < best_num * den:
            best_num, best_den, best_v = num, den, v
    return Fraction(best_num, best_den), best_v, argmin_cones(a, best_v)[0], count


def test_mld_scan_matches_per_point_reference():
    # pinned: the minimiser's column clamped to hi (10, 41, 149), y* an
    # integer there (7, 27, 81), minima tied across columns (15, 22, 24) and
    # (59, 66, 93), and a_1 = 1, whose first level has tilt 0
    cases = [(10, 41, 149), (7, 27, 81), (15, 22, 24), (59, 66, 93), (1, 9, 16), (1, 1, 2, 5), (1, 3, 4, 5, 7)]
    rng = random.Random(71)
    for n, max_entry in ((3, 150), (3, 40), (4, 25), (5, 10), (6, 6)):
        cases += [random_weight_vector(rng, n, max_entry).entries for _ in range(12)]
    for entries in cases:
        a = WeightVector(entries)
        rep = mld_global(a)
        assert (rep.value, rep.achieved_at, rep.cone, rep.points_scanned) == _per_point_mld(a), entries


def test_column_min_matches_every_column():
    # the closed-form least psi of each column, at its smallest y, against
    # psi at every point of the column; the columns cover every shape the
    # closed form distinguishes
    seen = set()
    rng = random.Random(72)
    regions = [WeightVector((1, k)) for k in (1, 2, 7)]  # T - 1 = a_n: psi is flat up to y*
    for n, max_entry in ((2, 60), (3, 40), (4, 12), (5, 6)):
        regions += [random_weight_vector(rng, n, max_entry) for _ in range(8)]
    for a in regions:
        ent, T1, an = a.entries, a.total - 1, a.entries[-1]
        for p, lo, hi in _slices(a, 1, False, DEFAULT_ENUMERATION_CAP):
            if not any(p):
                continue  # the origin's column, where _mld_scan seeds e_n
            values = [(Fraction(*_psi(ent, T1, p + (y,))), y) for y in range(lo, hi + 1)]
            value, y = min(values)
            num, den, got = _column_min(ent, T1, p, lo, hi)
            assert (Fraction(num, den), got) == (value, y), (ent, p, lo, hi)
            # the column's shape; psi <= 1 on it and rises by 1 per step
            # after y*, so lo - 1 <= floor(y*) and hi <= floor(y*) + 1
            pb, ab = min(zip(p, ent), key=lambda t: Fraction(*t))
            ys = an * pb // ab
            if ys < lo:
                seen.add("clamped to lo")
            elif ys >= hi and lo < hi:
                seen.add("clamped to hi")
            elif ys < hi and values[ys - lo][0] == values[ys + 1 - lo][0]:
                seen.add("floor(y*) ties floor(y*) + 1")
            if lo <= ys <= hi and lo < hi and an * pb % ab == 0:
                seen.add("y* an integer")
            if T1 == an and lo < min(ys, hi):
                seen.add("flat up to y*")
    assert seen == {
        "clamped to lo",
        "clamped to hi",
        "floor(y*) ties floor(y*) + 1",
        "y* an integer",
        "flat up to y*",
    }


def test_mld_scan_reads_psi_through_the_one_kernel(monkeypatch):
    # the n >= 4 column minimum evaluates its candidates with _psi, the one
    # copy of psi's cone formula, and its reports stay as pinned
    calls = []
    kernel = toric_mld._psi

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(toric_mld, "_psi", counted)
    for entries, want in [((1009, 1013, 1019, 1021), ("23/1021", (1, 1, 1, 1), 153)),
                          ((100, 101, 103, 107, 109), ("26/109", (1, 1, 1, 1, 1), 10))]:
        calls.clear()
        rep = mld_global(WeightVector(entries))
        assert (str(rep.value), rep.achieved_at, rep.points_scanned) == want
        assert calls and all(ent == entries for ent, _, _ in calls)


# ---------------------------------------------------------------------------
# eps-lc


def test_is_eps_lc_examples():
    assert is_eps_lc(WeightVector((1, 10**6)), 1) == (True, None)
    assert is_eps_lc(WeightVector((2, 3)), Fraction(1, 2)) == (True, None)
    ok, refuter = is_eps_lc(WeightVector((2, 3)), Fraction(3, 4))
    assert not ok and refuter == (1, 1)
    assert psi_value(WeightVector((2, 3)), refuter) < Fraction(3, 4)
    assert is_eps_lc(WeightVector((2, 3)), "3/4") == (False, (1, 1))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda a: mld_at_fixed_point(a, 0), "cone index must be an integer >= 1"),
        (lambda a: mld_at_fixed_point(a, 4), "cone index out of range"),
        (lambda a: list(iter_region_points(a, 0)), "scale must be positive"),
        (lambda a: list(iter_region_points(a, Fraction(-1, 2), True)), "scale must be positive"),
        (lambda a: list(iter_region_points(a, 0.9)), "float"),
        (lambda a: is_eps_lc(a, 0.5), "float"),
    ],
    ids=["cone-0", "cone-4", "scale-0", "scale-negative", "scale-float", "eps-float"],
)
def test_input_checks_raise(call, message):
    # a float would be read as its binary expansion: 0.9 is not 9/10
    with pytest.raises(ValueError, match=message):
        call(WeightVector((2, 3, 5)))


def test_is_eps_lc_rejects_eps_out_of_range():
    a = WeightVector((2, 3))
    for bad in (Fraction(0), Fraction(-1, 2), Fraction(5, 4)):
        with pytest.raises(ValueError):
            is_eps_lc(a, bad)


def test_is_eps_lc_agrees_with_mld():
    rng = random.Random(29)
    for _ in range(60):
        a = small_weights(rng, max_n=3, max_entry=14)
        mld = mld_global(a).value
        for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(1)):
            ok, refuter = is_eps_lc(a, eps)
            assert ok == (mld >= eps)
            if refuter is not None:
                assert psi_value(a, refuter) < eps


def test_is_eps_lc_refuter_matches_generic_path():
    # the strict scan's first point is the closed scan's first point with psi < eps
    rng = random.Random(31)
    for _ in range(80):
        a = small_weights(rng, max_n=5, max_entry=25)
        for eps in (Fraction(1, 3), Fraction(2, 3), Fraction(1)):
            ok, refuter = is_eps_lc(a, eps)
            expected = None
            for v in iter_region_points(a, eps):
                if psi_value(a, v) < eps:
                    expected = v
                    break
            assert (not ok and refuter == expected) or (ok and expected is None)


@pytest.mark.parametrize("n,max_entry,refuted,lc", [(5, 9, 12, 4), (6, 7, 12, 4), (7, 4, 4, 4)])
def test_is_eps_lc_agrees_with_oracle_at_high_n(n, max_entry, refuted, lc):
    # random small weights rarely refute at n >= 5, so candidates are drawn
    # until each verdict, read off the mld, has its quota of cases
    rng = random.Random(n)
    want = {True: lc, False: refuted}
    while any(want.values()):
        a = random_weight_vector(rng, n, max_entry)
        eps = Fraction(rng.randint(1, 12), 12)
        expect_lc = mld_global(a).value >= eps
        if not want[expect_lc]:
            continue
        want[expect_lc] -= 1
        interior = enumerate_lattice_points(build_polytope(a, eps), "open")
        ok, refuter = is_eps_lc(a, eps)
        assert ok == expect_lc == (not interior), (a, eps)
        assert refuter == (interior[0] if interior else None), (a, eps)


def test_fixed_point_mld_rejects_cap_below_one():
    with pytest.raises(ValueError, match="enumeration cap must be an integer >= 1"):
        mld_at_fixed_point(WeightVector((2, 3, 5)), 1, 0)


def test_budget_errors_report_work():
    # scans stop on their count of visited prefixes, even before a refuter
    # they would reach, n = 3 mld on its count of lattice slices, and the
    # fixed-point pass refuses its n * a_i box steps up front; n = 2 takes
    # no budget
    c = WeightVector((1000, 1001, 1003, 1007))
    with pytest.raises(BudgetExceeded) as err:
        mld_global(c, enumeration_cap=1000)
    assert err.value.cap == 1000 < err.value.work
    assert "visited prefixes" in str(err.value) and "estimated" not in str(err.value)
    assert mld_global(c, enumeration_cap=3177) == mld_global(c)
    t = WeightVector((1000, 1002, 1003))
    with pytest.raises(BudgetExceeded) as err:
        mld_global(t, enumeration_cap=1)
    assert (err.value.work, err.value.cap) == (2, 1)
    assert str(err.value) == "2 slices exceed budget 1"
    assert mld_global(t, enumeration_cap=2) == mld_global(t)
    a = WeightVector((1000, 1001, 1003))
    with pytest.raises(BudgetExceeded):
        is_eps_lc(a, Fraction(1, 2), enumeration_cap=1)
    with pytest.raises(BudgetExceeded) as err:
        mld_at_fixed_point(a, 1, enumeration_cap=2999)
    assert (err.value.work, err.value.cap) == (3000, 2999)
    assert "box steps" in str(err.value)
    assert mld_at_fixed_point(a, 1, enumeration_cap=3000) == mld_at_fixed_point(a, 1)
    b = WeightVector((10**6, 10**6 + 1))
    assert mld_global(b, enumeration_cap=1) == mld_global(b)
    assert mld_at_fixed_point(b, 1, enumeration_cap=1) == mld_at_fixed_point(b, 1)


def test_fixed_point_budget_is_its_box_pass():
    # a budget on {psi <= n} refused every cone here; the smooth cones
    # read no box point, and cone 8 reads its 10^6 - 1 in 8 * 10^6 steps
    a = WeightVector((1,) * 7 + (10**6,))
    assert [mld_at_fixed_point(a, cone) for cone in range(1, 8)] == [8] * 7
    assert mld_at_fixed_point(a, 8) == Fraction(10**6 + 6, 10**6)
    with pytest.raises(BudgetExceeded) as err:
        mld_at_fixed_point(a, 8, 8 * 10**6 - 1)
    assert err.value.work == 8 * 10**6


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=60))
def test_ones_family_is_one_lc(c, extra):
    # weights (1, c, ..., c + extra) with a leading 1 always have mld 1
    entries = tuple(sorted((1, c, c + extra)))
    a = WeightVector(entries)
    assert mld_global(a).value == 1


# ---------------------------------------------------------------------------
# the n = 3 lattice slicer


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)
def test_floor_sum_matches_direct_sum(n, a, b, m):
    assert _floor_sum(n, a, b, m) == sum((a * x + b) // m for x in range(n))


line = st.tuples(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=12),
)


# each line (B, A, h, q) reads (B*u + A*s + h*T) // q, so with s = 1 and
# T = 0 the lines below read (B*u + A) // q; the row constants h*T are
# folded into the chain once, as a walk does
@settings(max_examples=400, deadline=None)
@given(
    st.lists(line, min_size=1, max_size=3),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-60, max_value=60),
    st.integers(min_value=0, max_value=60),
)
@example([(1, 0, 0, 1), (2, 3, 0, 2)], 1, 0, -5, 10)  # parallel, the first always lower
@example([(1, 5, 0, 1), (2, 2, 0, 2)], 1, 0, -5, 10)  # parallel, the second always lower
@example([(1, 0, 0, 1), (2, 0, 0, 2)], 1, 0, -5, 10)  # parallel and equal
@example([(3, 1, 2, 1), (3, 7, 0, 1), (-1, 0, 0, 1)], 1, 1, -9, 20)  # a parallel pair above a third line
@example([(1, 0, 0, 1), (0, 0, 0, 1)], 1, 0, 1, 6)  # crossing at u = 0 = x0 - 1
@example([(1, 0, 0, 1), (0, 0, 0, 1)], 1, 0, 0, 6)  # crossing at x0
@example([(1, 0, 0, 1), (0, 0, 0, 1)], 1, 0, -6, 7)  # crossing at x1 - 1
@example([(1, 0, 0, 1), (0, 0, 0, 1)], 1, 0, -6, 6)  # crossing at x1
@example([(1, 0, 0, 1), (0, 5, 0, 1), (-1, 0, 0, 1)], 1, 0, -8, 16)  # the middle line stays above
@example([(2, 0, 0, 2), (0, 1, 0, 2), (-2, 2, 0, 2)], 1, 0, -8, 16)  # ... and touches only at u = 1/2
def test_chain_sum_matches_per_u_minimum(lines, s, T, x0, length):
    x1 = x0 + length
    chain = _fold(_chain([(B, A, r, q) for r, (B, A, _, q) in enumerate(lines)]), [h * T for _, _, h, _ in lines])
    slopes = [Fraction(B, q) for B, _, _, q, _ in chain]
    assert slopes == sorted(slopes, reverse=True)
    want = sum(min((B * u + A * s + h * T) // q for B, A, h, q in lines) for u in range(x0, x1 + 1))
    assert _chain_sum(chain, s, x0, x1) == want


def test_cone_frames_keep_chains_in_descending_slope(monkeypatch):
    # the one frame built per query of the mld-n3 bench pool and of
    # (29, 140, 336): of its four rows, one to three bound v above and one
    # to three below, each chain in descending slope B/q. Each walk of the
    # search starts at _slice_range, and the 256 pool queries take 426
    # walks: one walk counts a slice and lists its points, so none reads
    # its slices a second time only to list them
    pool = json.loads((Path(__file__).parents[1] / "bench" / "data" / "mld_pool.json").read_text())["mld-n3"]
    assert len(pool) == 256
    pool.append({"weights": [29, 140, 336], "mld": "1/2", "points_scanned": 148})
    frames, walks = [], []
    build, slice_range = toric_mld._cone_frame, toric_mld._slice_range

    def record(*args):
        frames.append(build(*args))
        walks.append(0)
        return frames[-1]

    def walk_start(*args):
        walks[-1] += 1
        return slice_range(*args)

    monkeypatch.setattr(toric_mld, "_cone_frame", record)
    monkeypatch.setattr(toric_mld, "_slice_range", walk_start)
    for entry in pool:
        report = mld_global(WeightVector(tuple(entry["weights"])))
        assert (str(report.value), report.points_scanned) == (entry["mld"], entry["points_scanned"])
    assert len(frames) == len(pool)
    assert sum(walks[:-1]) == 426 and walks[-1] == 17
    for *_, up, lo in frames:
        assert 1 <= len(up) <= 3 and 1 <= len(lo) <= 3 and len(up) + len(lo) <= 4
        for chain in (up, lo):
            for (B, _, _, q, _), (B2, _, _, Q, _) in zip(chain, chain[1:]):
                assert B * Q >= B2 * q


def test_n3_points_of_psi_at_most_one_are_the_tetrahedron_lattice():
    # on every coprime triple with entries <= 12 (287 of them): the nonzero
    # points with psi <= 1, found by psi_value over the box x_j <= a_j, map
    # one to one onto the points (k, z_1, z_2) of the lattice z_j = -a_j*k
    # (mod N) with k, z_1, z_2 >= 0 and k + z_1 + z_2 <= N, where
    # N = sum(a) - 1, k = sum(x) - 1 and z_j = N*x_j - a_j*k; psi is
    # 1 - min_j z_j / a_j there, and mld_global counts them and finds their
    # least (psi, x)
    triples = list(coprime_sorted_tuples(3, 12))
    assert len(triples) == 287
    for ent in triples:
        a = WeightVector(ent)
        N = sum(ent) - 1
        region = {}
        for x in itertools.product(*(range(aj + 1) for aj in ent)):
            if any(x) and psi_value(a, x) <= 1:
                k = sum(x) - 1
                z = [N * xj - aj * k for xj, aj in zip(x, ent)]
                assert k >= 0 and min(z) >= 0 and sum(z) == N - k, (ent, x)
                assert psi_value(a, x) == 1 - min(Fraction(zj, aj) for zj, aj in zip(z, ent)), (ent, x)
                region[x] = (k, z[0], z[1])
        lattice = {
            (k, z1, z2)
            for k in range(N + 1)
            for z1 in range(-ent[0] * k % N, N - k + 1, N)
            for z2 in range(-ent[1] * k % N, N - k - z1 + 1, N)
        }
        assert sorted(region.values()) == sorted(lattice), ent
        report = mld_global(a)
        assert report.points_scanned == len(region), ent
        assert (report.value, report.achieved_at) == min((psi_value(a, x), x) for x in region), ent


def level_count(ent):
    # the points of T = conv(e1, e2, e3, a) level by level: e1, e2, e3 at
    # k = 0, a at k = N, and one point at 0 < k < N exactly when
    # k + sum_j (-a_j*k mod N) = N
    N = sum(ent) - 1
    return 4 + sum(k + sum(-aj * k % N for aj in ent) == N for k in range(1, N))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10**4), min_size=3, max_size=3))
@example([1, 1, 1])
@example([2, 3, 5])  # gcd(a_2, N) = 3
@example([2, 3, 4])  # r_1 and r_3 both vanish at k = N/2
@example([2, 3, 8])  # a_3 a multiple of a_1 + a_2 - 1: g = (2, 3, 4)
@example([3, 4, 12])  # ... and every g_j > 1
@example([6, 10, 15])
def test_n3_count_matches_levels(entries):
    ent = tuple(sorted(entries))
    assume(gcd(*ent) == 1)
    assert _n3_count(ent) == level_count(ent)


@pytest.mark.parametrize("entries,mld,points", [
    ((10**9 + 7, 10**9 + 9, 10**9 + 21), "27/1000000021", 503703713),
    ((3, 5, 10**12 + 1), "600000000002/1000000000001", 133333333338),
    ((1237007427476, 1423966284840, 1643557039515), "75415309/618503713738", 717421791922),
    ((1184676217692, 1185517227477, 1750205746052), "30255671/296169054423", 686733198598),
], ids=["1e9+7,1e9+9,1e9+21", "3,5,1e12+1", "balanced-1e12-a", "balanced-1e12-b"])
def test_n3_points_scanned_is_pinned(entries, mld, points):
    # counted one lattice slice at a time, independently of _n3_count
    report = mld_global(WeightVector(entries))
    assert (format_rational(report.value), report.points_scanned) == (mld, points)


def test_n3_mld_near_1e30_answers_under_the_default_budget():
    # a count of T here would read about 10^10 slices; the search reads a few
    a = WeightVector((1009158281531516017161695369677, 1630510460162827827556786582087, 1827475353217758864850856503266))
    report = mld_global(a, enumeration_cap=100)
    assert report == mld_global(a)
    assert psi_value(a, report.achieved_at) == report.value < 1
    assert report.points_scanned == _n3_count(a.entries) > 7 * 10**29


def test_n3_tie_break_row_is_never_u_free():
    # walk tests no u-free condition: one on the tie-break row g could fail
    # on a slice of the simplex that the cut by g leaves empty. _mld_n3's
    # walk proves there is none for a_3 >= 27; this checks every a_3 <= 26,
    # and the bounds the proof uses
    simplex_only = 0
    for a1, a2, a3 in coprime_sorted_tuples(3, 26):
        N, M = a1 + a2 + a3 - 1, a3 + 1
        w, cols, *_ = toric_mld._cone_frame(N, a1, a2)
        assert (max(0, *w) - min(0, *w)) ** 3 <= 32 * N  # range(w) <= 2^(5/3) N^(1/3)
        g = (M * M * a1 + M * a2 + a3 - 1, M * M - 1, M - 1)
        conds, *_ = toric_mld._bounds(cols, [(1, 1, 1), g])
        free = [(r, r2) for D, _, r, _, r2, _ in conds if D == 0]
        assert all(4 not in rows for rows in free), (a1, a2, a3)  # row 4 is g
        simplex_only += bool(free)
    assert simplex_only > 0
    assert 28**3 > 256 * (3 * 28 - 4) and 27**3 <= 256 * (3 * 27 - 4)  # M^3 > 256 N from a_3 = 27 on


def test_cone_frame_bounds_its_slicing_row_at_every_size(monkeypatch):
    # walk's u-free proof needs range(w) <= 2^(5/3) N^(1/3) for every
    # a_3 >= 27, which LLL's output bound gives whatever basis _lll starts
    # from. On seeded triples from 10 to 10^60, balanced and skewed: the
    # slicing row w meets it, and with B = (b_i, b_{i+1}, b_{i+2}) of the
    # reduced rows, w = b_i, B is a basis of the dual lattice {y : y_0 =
    # y_1*a_1 + y_2*a_2 (mod N)} and its columns satisfy B c_m = N e_m
    reduced, lll = [], toric_mld._lll

    def keep(b):
        reduced.append(b)
        return lll(b)

    monkeypatch.setattr(toric_mld, "_lll", keep)
    rng = random.Random(31)
    tried = 0
    while tried < 400:
        ent = tuple(sorted(rng.randint(10, 10 ** rng.randint(1, 60)) for _ in range(3)))
        if gcd(*ent) != 1:
            continue
        tried += 1
        a1, a2, a3 = ent
        N = a1 + a2 + a3 - 1
        w, cols, *_ = toric_mld._cone_frame(N, a1, a2)
        assert (max(0, *w) - min(0, *w)) ** 3 <= 32 * N, ent
        b = reduced[-1]
        i = b.index(w)
        B = [b[i], b[(i + 1) % 3], b[(i + 2) % 3]]
        assert all((y0 - y1 * a1 - y2 * a2) % N == 0 for y0, y1, y2 in B), ent
        det = sum(B[0][j] * (B[1][j - 2] * B[2][j - 1] - B[1][j - 1] * B[2][j - 2]) for j in range(3))
        assert abs(det) == N, ent
        for m, col in enumerate(cols):
            assert [sum(x * c for x, c in zip(row, col)) for row in B] == [N * (r == m) for r in range(3)], ent


@pytest.mark.parametrize("entries,slices", [
    ((1000, 1001, 1003), 1),
    ((2, 3, 100001), 11),
    ((29, 140, 336), 21),  # bisects its tie on the weighted row
    ((15701, 28340, 29766), 3),
    ((10**9 + 7, 10**9 + 9, 10**9 + 21), 12),
    ((2, 3, 6000001), 17),  # skewed: one walk per halving along a long column
    ((3, 5, 10**12 + 1), 64),
], ids=["1000,1001,1003", "2,3,100001", "29,140,336", "15701,28340,29766", "1e9+7,1e9+9,1e9+21", "2,3,6000001",
        "3,5,1e12+1"])
def test_n3_slice_schedule_is_pinned(entries, slices):
    # the slices n = 3 mld charges to its budget, over every walk of its
    # search; the count of T reads none, and the walk that finds the last
    # few points lists them, so no walk reads its slices again
    a = WeightVector(entries)
    assert mld_global(a, enumeration_cap=slices) == mld_global(a)
    if slices == 1:
        return  # the least cap, 1, answers
    with pytest.raises(BudgetExceeded) as err:
        mld_global(a, enumeration_cap=slices - 1)
    assert (err.value.work, err.value.cap) == (slices, slices - 1)
