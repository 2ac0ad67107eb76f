"""The frontier ledger, tests/data/frontier.json: lower bounds on M(n, eps), each with its witness.

The ledger holds weight tuples, each with its exact mld and lex-first
minimiser, and families of them, whose weights, mld and minimiser are
polynomials in k. Each mld is checked by two routes: `mld_global` gives
the value and its minimiser, and `psi_value` at that minimiser gives the
value again. The level reference `conftest.mld_levels`, which shares no
code with the engine, gives each tuple's value and minimiser once more,
at n = 4 as at n <= 3. The oracle `mld_bruteforce` is a further route for
every tuple with n <= 3 and for the families up to k = 11, and the strict scan
`is_eps_lc(a, value)` finds no lattice point with psi below the value on
every tuple and on the families up to their k_to.

A bound of kind "mld >= eps" shows M(n, eps) >= a1, the frontier of
Birkar's question; one of kind "mld > eps" shows the same under the
strict reading, and the two are kept apart. These are lower bounds only,
and nothing here claims a value of M. README's ledger tables are rendered
from the file.
"""

import json
import operator
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import mld_levels
from wblowup.oracle import mld_bruteforce, psi_bruteforce
from wblowup.toric_mld import WeightVector, is_eps_lc, mld_global, psi_value

HERE = Path(__file__).resolve().parent
LEDGER = json.loads((HERE / "data" / "frontier.json").read_text(encoding="utf-8"))
ENTRIES, FAMILIES = LEDGER["entries"], LEDGER["families"]
KINDS = {"mld >= eps": operator.ge, "mld > eps": operator.gt}
ORACLE_K = 11  # the families' members up to here are also checked by the oracle


def at(poly, k):
    """A polynomial in k, its coefficients constant term first, evaluated at k."""
    return sum(c * k**i for i, c in enumerate(poly))


def members(k):
    """Each family's member at k, from the family's k_from on: (weights, mld, minimiser, bounds)."""
    for family in FAMILIES:
        if k >= family["k_from"]:
            yield (tuple(at(p, k) for p in family["weights"]),
                   Fraction(at(family["mld"][0], k), at(family["mld"][1], k)),
                   tuple(at(p, k) for p in family["minimiser"]),
                   [(b["kind"], Fraction(at(b["eps"][0], k), at(b["eps"][1], k))) for b in family["bounds"]])


def mld_by_two_routes(entries):
    """mld_global's value and minimiser, once psi_value at the minimiser agrees."""
    a = WeightVector(entries)
    report = mld_global(a)
    assert psi_value(a, report.achieved_at) == report.value
    return report.value, report.achieved_at


def assert_bounds_hold(value, bounds):
    assert bounds, "an entry proves at least one bound"
    for kind, eps in bounds:
        assert KINDS[kind](value, eps), (value, kind, eps)


@pytest.mark.parametrize("entry", ENTRIES, ids=[",".join(map(str, e["weights"])) for e in ENTRIES])
def test_frontier_entry_has_its_mld_at_its_point(entry):
    entries, value, point = tuple(entry["weights"]), Fraction(entry["mld"]), tuple(entry["minimiser"])
    assert len(entries) == entry["n"]
    assert mld_by_two_routes(entries) == (value, point)
    assert mld_levels(entries) == (value, point)
    assert is_eps_lc(WeightVector(entries), value) == (True, None)
    assert_bounds_hold(value, [(b["kind"], Fraction(b["eps"])) for b in entry["bounds"]])
    if entry["n"] <= 3:
        a = WeightVector(entries)
        assert mld_bruteforce(a) == psi_bruteforce(a, point) == value


def test_families_have_their_mld_up_to_k_199():
    for k in range(2, max(family["k_to"] for family in FAMILIES) + 1):
        for entries, value, point, bounds in members(k):
            assert mld_by_two_routes(entries) == (value, point), entries
            assert is_eps_lc(WeightVector(entries), value) == (True, None), entries
            assert_bounds_hold(value, bounds)
            if k <= ORACLE_K:
                assert mld_bruteforce(WeightVector(entries)) == value, entries


@pytest.mark.parametrize("k", sorted({k for family in FAMILIES for k in family["k_large"]}))
def test_families_have_their_mld_at_large_k(k):
    # the scan's cost grows with the weights, so here mld_global stands alone
    for entries, value, point, bounds in members(k):
        assert mld_by_two_routes(entries) == (value, point), entries
        assert_bounds_hold(value, bounds)


def test_ledger_claims_lower_bounds_only():
    # a bound is a kind and an eps: no field holds an upper or exact value of M
    fields = {"n", "weights", "mld", "minimiser", "bounds", "source"}
    for row in ENTRIES + FAMILIES:
        assert set(row) == (fields if row in ENTRIES else fields | {"k_from", "k_to", "k_large"}), row
        for bound in row["bounds"]:
            assert set(bound) == {"kind", "eps"} and bound["kind"] in KINDS, bound


# ---------------------------------------------------------------------------
# README's ledger tables


def poly_text(poly) -> str:
    """2k^2 - 2k + 1 for [1, -2, 2]."""
    terms = []
    for i in reversed(range(len(poly))):
        c = poly[i]
        if c == 0:
            continue
        body = str(abs(c)) if i == 0 else ("" if abs(c) == 1 else str(abs(c))) + ("k" if i == 1 else f"k^{i}")
        terms.append(("-" if c < 0 else "+", body))
    text = ("-" if terms[0][0] == "-" else "") + terms[0][1]
    return text + "".join(f" {sign} {body}" for sign, body in terms[1:])


def ratio_text(pair) -> str:
    # a numerator or denominator of more than one term is parenthesised
    return "/".join(poly_text(p) if len(p) - p.count(0) == 1 else f"({poly_text(p)})" for p in pair)


def bound_text(n, a1, kind, eps) -> str:
    return f"M({n}, {eps}) ≥ {a1}" + (" (strict)" if kind == "mld > eps" else "")


def power_text(k) -> str:
    exponent = len(str(k)) - 1
    return f"10^{exponent}" if k == 10**exponent else str(k)


def ledger_tables() -> str:
    lines = ["| n | weights | mld | minimiser | proves | source |", "|---|---|---|---|---|---|"]
    for e in ENTRIES:
        proves = "; ".join(bound_text(e["n"], e["weights"][0], b["kind"], b["eps"]) for b in e["bounds"])
        lines.append(f"| {e['n']} | ({', '.join(map(str, e['weights']))}) | {e['mld']} | "
                     f"({', '.join(map(str, e['minimiser']))}) | {proves} | {e['source']} |")
    lines += ["", "| n | weights | mld | minimiser | proves | k checked | source |", "|---|---|---|---|---|---|---|"]
    for f in FAMILIES:
        a1 = poly_text(f["weights"][0])
        proves = "; ".join(bound_text(f["n"], a1, b["kind"], ratio_text(b["eps"])) for b in f["bounds"])
        ks = ", ".join([f"{f['k_from']}..{f['k_to']}", *map(power_text, f["k_large"])])
        lines.append(f"| {f['n']} | ({', '.join(map(poly_text, f['weights']))}) | {ratio_text(f['mld'])} | "
                     f"({', '.join(map(poly_text, f['minimiser']))}) | {proves} | {ks} | {f['source']} |")
    return "\n".join(lines) + "\n"


def test_readme_quotes_the_ledger():
    assert ledger_tables() in (HERE.parent / "README.md").read_text(encoding="utf-8")
