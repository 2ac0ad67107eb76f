"""Regenerate the benchmark's recorded pools and references in bench/data.

    python3 bench/record.py [sweeps|mld|witness ...]

Run it from the repository root. Every recorded answer is confirmed here
without the engine where that is affordable: eps-lc verdicts and check
verdicts by the brute-force oracle box scan (when the box fits the oracle
budget), certificates by gate.verify_certificate, and mld values by the
Reid-Tai age sum (gate.age_mld), itself first checked against the oracle on
every small coprime tuple. Recording is deterministic: the pool seed is
fixed below.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wblowup.exact_lattice import BudgetExceeded, integer_nth_root  # noqa: E402
from wblowup.harness import cli_dispatch  # noqa: E402
from wblowup.oracle import enumerate_lattice_points, mld_bruteforce  # noqa: E402
from wblowup.toric_mld import WeightVector  # noqa: E402
from wblowup.witness import build_polytope  # noqa: E402

import gate  # noqa: E402
from workloads import DATA, QUERY_KINDS, SWEEPS  # noqa: E402

POOL_SEED = 20191111
CANDIDATES = 8  # pool entries per stratum


def dispatch(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli_dispatch(list(argv))
    return rc, out.getvalue()


def oracle_has_interior(weights, eps) -> bool | None:
    """Whether C(weights, eps) has an interior lattice point; None if the box is too big."""
    try:
        return bool(enumerate_lattice_points(build_polytope(WeightVector(weights), eps), "open"))
    except BudgetExceeded:
        return None


def write(name: str, payload: dict) -> None:
    path = DATA / name
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {path}")


def check_age_formula(max_entry: int = 12) -> None:
    count = 0
    for n in (2, 3):
        for t in _small_tuples(n, max_entry):
            if gate.age_mld(t) != mld_bruteforce(WeightVector(t)):
                raise SystemExit(f"age formula disagrees with the oracle at {t}")
            count += 1
    print(f"age formula agrees with the oracle on {count} tuples")


def _small_tuples(n, max_entry):
    def rec(prefix):
        if len(prefix) == n:
            if math.gcd(*prefix) == 1:
                yield prefix
            return
        for v in range(prefix[-1] if prefix else 1, max_entry + 1):
            yield from rec(prefix + (v,))

    yield from rec(())


def record_sweeps() -> None:
    for name, w in SWEEPS.items():
        rc, out = dispatch(w.argv(w.a1_min, w.a1_max))
        if rc != 0:
            raise SystemExit(f"{name}: sweep exited {rc}")
        lines = out.splitlines()[1:]
        verdicts: dict[int, list[str]] = {}
        eps = Fraction(w.eps)
        confirmed = 0
        for line in lines:
            cells = line.split(",")
            weights = tuple(int(x) for x in cells[1].split(";"))
            code = gate.SWEEP_CODES[cells[3]]
            if code == "i":
                raise SystemExit(f"{name}: undecided reference row {weights}")
            if code == "c":
                gate.verify_certificate(weights, eps, cells[5].split(";"), cells[6])
            else:
                if oracle_has_interior(weights, eps) is not False:
                    raise SystemExit(f"{name}: oracle does not confirm eps-lc at {weights}")
                confirmed += 1
            verdicts.setdefault(weights[0], []).append(code)
        # the gate lines rows up against this reference and an independent tuple list
        for a1, codes in verdicts.items():
            if len(codes) != len(list(w.tuples(a1))):
                raise SystemExit(f"{name}: a1 = {a1} has {len(codes)} rows, tuple list differs")
        write(f"{name}_reference.json", {
            "command": w.argv(w.a1_min, w.a1_max),
            "verdicts": {str(a1): "".join(c) for a1, c in sorted(verdicts.items())},
        })
        print(f"{name}: {len(lines)} rows, {confirmed} eps-lc rows confirmed by the oracle")


def _spread_tuple(rng, n, a1):
    while True:
        t = (a1, *sorted(a1 + rng.randrange(a1) for _ in range(n - 1)))
        if math.gcd(*t) == 1:
            return t


def _log_spread(rng, count, lo, hi):
    # one log-uniform draw from each of count equal slices of [10**lo, 10**hi)
    return [int(10 ** (lo + (hi - lo) * (i + rng.random()) / count)) for i in range(count)]


def _stratify(entries, key):
    return sorted(entries, key=lambda e: (key(e), e["weights"]))


def record_mld_pool() -> None:
    rng = random.Random(POOL_SEED)
    strata = QUERY_KINDS["mld-large"]
    pool = {}
    for kind, n, lo, hi in (("mld-n2", 2, 4, 5), ("mld-n3", 3, 3, 4.2)):
        entries = []
        for a1 in _log_spread(rng, strata[kind] * CANDIDATES, lo, hi):
            t = _spread_tuple(rng, n, a1)
            rc, out = dispatch(("mld", "--weights", ",".join(map(str, t))))
            if rc != 0:
                raise SystemExit(f"mld {t} exited {rc}")
            report = json.loads(out)
            if Fraction(report["mld"]) != gate.age_mld(t):
                raise SystemExit(f"engine mld disagrees with the age formula at {t}")
            entries.append({
                "weights": list(t),
                "mld": report["mld"],
                "classification": report["classification"],
                "points_scanned": report["points_scanned"],
            })
        pool[kind] = _stratify(entries, lambda e: e["points_scanned"])
        print(f"{kind}: {len(entries)} entries confirmed by the age formula")
    entries = []
    half = strata["check"] * CANDIDATES // 2
    for k in _log_spread(rng, half, 1, 4):
        entries.append((1, k))
    for k in _log_spread(rng, half, 1, math.log10(300)):
        entries.append((1, *sorted((k, k + rng.randrange(k + 1)))))
    checks = []
    for t in entries:
        rc, out = dispatch(("check", "--weights", ",".join(map(str, t)), "--eps", "1"))
        verdict = json.loads(out)["verdict"]
        if verdict != "eps-lc" or oracle_has_interior(t, 1) is not False:
            raise SystemExit(f"check {t}: {verdict}, not confirmed 1-lc by the oracle")
        checks.append({"weights": list(t), "verdict": verdict})
    pool["check"] = _stratify(checks, lambda e: (len(e["weights"]), e["weights"][1:]))
    print(f"check: {len(checks)} entries confirmed 1-lc by the oracle")
    write("mld_pool.json", pool)


def record_witness_pool() -> None:
    rng = random.Random(POOL_SEED + 1)
    strata = QUERY_KINDS["witness-large"]
    pool = {}
    for kind, n in (("witness-n3", 3), ("witness-n4", 4)):
        entries = []
        undecided = 0
        for a1 in _log_spread(rng, strata[kind] * CANDIDATES, 9, 18):
            t = _spread_tuple(rng, n, a1)
            rc, out = dispatch(("witness", "--weights", ",".join(map(str, t)), "--eps", "1/2"))
            payload = json.loads(out)
            if rc == 0:
                gate.verify_certificate(t, Fraction(1, 2), payload["point"], payload["psi"])
                dirichlet = payload["trace"].get("dirichlet")
                # denominators the simultaneous search scanned; 0 on the projection route
                scanned = dirichlet["q"] if dirichlet else 0
            elif rc == 3 and payload["verdict"] == "inconclusive":
                scanned = integer_nth_root(a1, n)
                undecided += 1
            else:
                raise SystemExit(f"witness {t} exited {rc}: {payload}")
            entries.append({"weights": list(t), "not_lc": rc == 0, "scanned": scanned})
        pool[kind] = _stratify(entries, lambda e: e["scanned"])
        print(f"{kind}: {len(entries)} entries, {undecided} undecided at recording")
    write("witness_pool.json", pool)


def main(argv) -> None:
    parts = argv or ["sweeps", "mld", "witness"]
    if "mld" in parts:
        check_age_formula()
    for part in parts:
        {"sweeps": record_sweeps, "mld": record_mld_pool, "witness": record_witness_pool}[part]()


if __name__ == "__main__":
    main(sys.argv[1:])
