"""Correctness gate: every answer a run produces is checked here.

Certificates are re-verified without the engine: the integer facet forms of
C(a, eps) (the ones oracle.enumerate_lattice_points scans with) must be
strictly positive at the point, and oracle.psi_bruteforce, which solves
every cone, must put the point strictly below eps and agree with the
reported psi. Verdicts and mld values that no certificate can prove are
compared with references recorded by bench/record.py.

A wrong answer raises WrongAnswer and fails the run. An undecided answer
(inconclusive, budget exhausted) is returned as UNDECIDED and counted.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction

from wblowup.oracle import psi_bruteforce
from wblowup.toric_mld import WeightVector

DECIDED = "decided"
UNDECIDED = "undecided"

EXIT_OK, EXIT_NEGATIVE, EXIT_BUDGET = 0, 1, 3

# verdict letters of the recorded sweep references
SWEEP_CODES = {"certificate": "c", "eps-lc": "e", "inconclusive": "i"}


class WrongAnswer(Exception):
    """The program produced an answer the gate can refute."""


def verify_certificate(weights, eps: Fraction, point, psi_text: str) -> None:
    """Raise WrongAnswer unless point is a lattice point interior to C(weights, eps)."""
    point = tuple(int(x) for x in point)
    if len(point) != len(weights) or any(x <= 0 for x in point):
        raise WrongAnswer(f"certificate point {point} is not strictly positive for {weights}")
    en, ed = eps.numerator, eps.denominator
    K = (sum(weights) - 1) * ed
    u = en - ed * sum(point)
    for x, a in zip(point, weights):
        if x * K + a * u <= 0:
            raise WrongAnswer(f"certificate point {point} is not interior to C({weights}, {eps})")
    psi = psi_bruteforce(WeightVector(tuple(weights)), point)
    if psi >= eps:
        raise WrongAnswer(f"psi{point} = {psi} is not below eps = {eps} for {weights}")
    if Fraction(psi_text) != psi:
        raise WrongAnswer(f"reported psi {psi_text} at {point} differs from {psi} for {weights}")


def age_mld(weights) -> Fraction:
    """Global mld by the Reid-Tai age sum over the box points of every cone.

    Cone i has index a_i; its nonzero box points are k/a_i * a plus the
    fractional parts of -k*a_j/a_i on the other axes, for 1 <= k < a_i, with
    psi equal to the sum of those coefficients. Used by bench/record.py as a
    second, enumeration-free opinion on the recorded mld values.
    """
    best_num, best_den = 1, 1
    for i, ai in enumerate(weights):
        others = [aj for j, aj in enumerate(weights) if j != i]
        for k in range(1, ai):
            num = k + sum((-k * aj) % ai for aj in others)
            if num * best_den < best_num * ai:
                best_num, best_den = num, ai
    return Fraction(best_num, best_den)


def check_sweep_call(workload, lo: int, hi: int, rc: int, out: str, reference) -> tuple[int, int]:
    """Gate one sweep call over a1 in [lo, hi]; return (rows, undecided rows)."""
    if rc != EXIT_OK:
        raise WrongAnswer(f"sweep a1 {lo}..{hi} exited {rc}")
    rows = list(csv.reader(io.StringIO(out)))
    header, rows = rows[0], rows[1:]
    col = {name: i for i, name in enumerate(header)}
    expected = [t for a1 in range(lo, hi + 1) for t in workload.tuples(a1)]
    codes = "".join(reference[a1] for a1 in range(lo, hi + 1))
    if len(rows) != len(expected) or len(codes) != len(expected):
        raise WrongAnswer(f"sweep a1 {lo}..{hi}: {len(rows)} rows, expected {len(expected)}")
    eps = Fraction(workload.eps)
    undecided = 0
    for row, weights, code in zip(rows, expected, codes):
        if tuple(int(x) for x in row[col["weights"]].split(";")) != weights:
            raise WrongAnswer(f"sweep row {row} out of order, expected weights {weights}")
        verdict = row[col["verdict"]]
        if verdict == "inconclusive":
            undecided += 1
            continue
        if SWEEP_CODES.get(verdict) != code:
            raise WrongAnswer(f"sweep verdict {verdict!r} at {weights}, reference {code!r}")
        if verdict == "certificate":
            verify_certificate(weights, eps, row[col["point"]].split(";"), row[col["psi"]])
    return len(rows), undecided


def check_query(query, rc: int, out: str) -> str:
    """Gate one CLI query against its pool entry; return DECIDED or UNDECIDED."""
    entry = query.entry
    weights = tuple(entry["weights"])
    if rc == EXIT_BUDGET and query.argv[0] != "witness":
        return UNDECIDED
    payload = json.loads(out) if out.strip() else {}
    if query.argv[0] == "mld":
        if rc != EXIT_OK:
            raise WrongAnswer(f"mld {weights} exited {rc}")
        value = Fraction(payload["mld"])
        if value != Fraction(entry["mld"]) or payload["classification"] != entry["classification"]:
            raise WrongAnswer(f"mld {weights}: got {payload['mld']} {payload['classification']}, "
                              f"reference {entry['mld']} {entry['classification']}")
        at = tuple(payload["achieved_at"])
        if any(x < 0 for x in at) or psi_bruteforce(WeightVector(weights), at) != value:
            raise WrongAnswer(f"mld {weights}: psi at achieved_at {at} is not {value}")
        return DECIDED
    if query.argv[0] == "check":
        verdict = "eps-lc" if rc == EXIT_OK else "not-eps-lc" if rc == EXIT_NEGATIVE else None
        if verdict is None or payload.get("verdict") != verdict or verdict != entry["verdict"]:
            raise WrongAnswer(f"check {weights}: exit {rc} {payload.get('verdict')}, "
                              f"reference {entry['verdict']}")
        return DECIDED
    # witness --eps 1/2
    if rc == EXIT_OK:
        eps = Fraction(query.argv[query.argv.index("--eps") + 1])
        verify_certificate(weights, eps, payload["point"], payload["psi"])
        return DECIDED
    if rc == EXIT_BUDGET and payload.get("verdict") == "inconclusive":
        return UNDECIDED
    if rc == EXIT_NEGATIVE and payload.get("verdict") == "eps-lc" and not entry["not_lc"]:
        return UNDECIDED  # no recorded proof either way; the claim stays unchecked
    raise WrongAnswer(f"witness {weights}: exit {rc} {payload}")
