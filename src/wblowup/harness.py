"""Command-line interface: single checks, parameter sweeps, self tests.

Subcommands: mld, check, witness, sweep, verify-example, selftest. Exit
codes: 0 computed as asked, 1 negative verdict where the subcommand has a
polarity (not eps-lc, no witness), 2 usage error, 3 budget exhausted.

Configuration precedence is CLI flag over config-file entry over built-in
default; the config file (--config PATH) is line oriented, `key = value`,
and each key must be a flag of the chosen subcommand. The environment
variable WBLOWUP_BUDGET overrides the default budget of 10^7 visited prefixes
per scan (lattice slices for n = 3 mld, box steps for a fixed-point pass);
at about 1-3.5 us per prefix a scan stopped there has run some 10-35 s,
and at about 20-26 us per slice an n = 3 mld some 200-260 s.

The argument parser is built on the first cli_dispatch call and reused by
every later call in the process, so in-process callers pay for it once.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

from .exact_lattice import (
    DEFAULT_ENUMERATION_CAP,
    BudgetExceeded,
    format_ratio,
    format_rational,
    gcd_all,
    parse_rational,
)
from .oracle import enumerate_lattice_points, mld_bruteforce, verify_interior_psi_equivalence
from .toric_mld import WeightVector, is_eps_lc, mld_at_fixed_point, mld_global, psi_value
from .witness import (
    CERTIFY_METHODS,
    VERDICT_EPS_LC,
    Certificate,
    _check_theta,
    build_polytope,
    certify_not_eps_lc,
)

CSV_COLUMNS = [
    "n",
    "weights",
    "eps",
    "verdict",
    "method",
    "point",
    "psi",
    "hypothesis_flags",
    "wall_micros",
]


def parse_weights(text) -> WeightVector:
    if not text:
        raise ValueError("missing --weights")
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"weights must be comma-separated integers, got {text!r}") from None
    return WeightVector(entries)


def default_budget() -> int:
    raw = os.environ.get("WBLOWUP_BUDGET")
    if raw is None:
        return DEFAULT_ENUMERATION_CAP
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"WBLOWUP_BUDGET must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError("WBLOWUP_BUDGET must be positive")
    return value


@dataclass(frozen=True)
class SweepSpec:
    """Parameters of one sweep over coprime sorted weight tuples.

    tail_caps[k] bounds coordinate k+2 by a1 + tail_caps[k]; the tuple must
    have n-1 entries. method is passed to certify_not_eps_lc: "auto" runs
    the full dispatcher; "construction" tries only the dimension-specific
    construction (rows read certificate or no-witness, useful for
    success-rate studies); "enumeration" skips the construction entirely.
    """

    n: int
    eps: Fraction
    a1_min: int
    a1_max: int
    tail_caps: tuple[int, ...]
    theta: Fraction | None
    workers: int
    enumeration_cap: int
    include_timing: bool
    method: str = "auto"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("sweep dimension must be at least 2")
        if not 0 < self.eps <= 1:
            raise ValueError("eps must lie in (0, 1]")
        if self.a1_min < 1 or self.a1_max < self.a1_min:
            raise ValueError("empty a1 range")
        if len(self.tail_caps) != self.n - 1:
            raise ValueError(f"need {self.n - 1} tail caps, got {len(self.tail_caps)}")
        if any(c < 0 for c in self.tail_caps):
            raise ValueError("tail caps must be nonnegative")
        if self.workers < 1:
            raise ValueError("worker count must be positive")
        if self.enumeration_cap < 1:
            raise ValueError("enumeration cap must be positive")
        if self.theta is not None:
            _check_theta(self.theta, self.n)
        if self.method not in CERTIFY_METHODS:
            raise ValueError(f"method must be one of {CERTIFY_METHODS}, got {self.method!r}")


@dataclass(frozen=True)
class FrontierReport:
    """Per-a1 certificate fractions and the empirical all-certified threshold."""

    eps: Fraction
    per_a1: tuple[tuple[int, int, int], ...]  # (a1, certified, total)
    empirical_m: int | None

    def to_json_dict(self) -> dict:
        return {
            "eps": format_rational(self.eps),
            "per_a1": [
                {
                    "a1": a1,
                    "certified": certified,
                    "total": total,
                    "fraction": format_rational(Fraction(certified, total)),
                }
                for a1, certified, total in self.per_a1
            ],
            "empirical_m": self.empirical_m,
        }


def iter_weight_tuples(spec: SweepSpec):
    """Sorted coprime tuples, lexicographic: a1 in range, a_k up to a1 + cap."""

    def rec(prefix):
        k = len(prefix)
        if k == spec.n:
            if math.gcd(*prefix) == 1:
                yield prefix
            return
        lo = prefix[-1]
        hi = prefix[0] + spec.tail_caps[k - 1]
        for v in range(lo, hi + 1):
            yield from rec(prefix + (v,))

    for a1 in range(spec.a1_min, spec.a1_max + 1):
        yield from rec((a1,))


def _sweep_task(args):
    # eps_text is eps formatted once per sweep
    entries, eps, eps_text, theta, cap, include_timing, method = args
    a = WeightVector(entries)
    started = time.perf_counter_ns()
    result = certify_not_eps_lc(a, eps, theta, cap, method)
    micros = (time.perf_counter_ns() - started) // 1000
    if isinstance(result, Certificate):
        verdict = "certificate"
        method = result.method
        point = ";".join(map(str, result.point))
        psi = format_ratio(*result.psi)
        hyp = result.hypothesis_ok
        flags = "" if hyp is None else ("theta-ok" if hyp else "theta-violated")
    else:
        verdict = result
        method = point = psi = flags = ""
    return [
        str(len(entries)),
        ";".join(map(str, entries)),
        eps_text,
        verdict,
        method,
        point,
        psi,
        flags,
        str(micros) if include_timing else "",
    ]


def run_sweep(spec: SweepSpec, stream) -> FrontierReport:
    """Run certify over every tuple of the spec, streaming CSV rows.

    Row order is lexicographic by weights regardless of worker count.
    """
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    return _sweep(spec, writer.writerow)


def Pool(processes: int):
    """A multiprocessing pool, imported on first use: queries never need one,
    and the module costs about 1 MiB. bench/tracing.py swaps this name."""
    from multiprocessing import Pool as pool

    return pool(processes)


def _sweep(spec: SweepSpec, emit) -> FrontierReport:
    # certify every tuple of the spec, passing each row to emit in order
    eps_text = format_rational(spec.eps)
    tasks = [
        (entries, spec.eps, eps_text, spec.theta, spec.enumeration_cap, spec.include_timing, spec.method)
        for entries in iter_weight_tuples(spec)
    ]
    counts: dict[int, list[int]] = {}
    if spec.workers == 1 or len(tasks) < 2:
        for task in tasks:
            row = _sweep_task(task)
            emit(row)
            _tally(counts, task[0][0], row)
    else:
        chunk = max(1, len(tasks) // (spec.workers * 8))
        with Pool(spec.workers) as pool:
            for task, row in zip(tasks, pool.imap(_sweep_task, tasks, chunksize=chunk)):
                emit(row)
                _tally(counts, task[0][0], row)
    per_a1 = tuple(sorted((a1, c[0], c[1]) for a1, c in counts.items()))
    empirical = None
    for a1, certified, total in reversed(per_a1):
        if certified != total:
            break
        empirical = a1
    return FrontierReport(spec.eps, per_a1, empirical)


def _tally(counts, a1, row):
    entry = counts.setdefault(a1, [0, 0])
    entry[1] += 1
    if row[3] == "certificate":
        entry[0] += 1


# ---------------------------------------------------------------------------
# config file


def load_config(path: str) -> dict:
    """Parse a line-oriented `key = value` file; '#' starts a comment."""
    values = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _effective(ns, config, key, builtin, convert):
    cli = getattr(ns, key, None)
    if cli is not None:
        return convert(cli) if isinstance(cli, str) else cli
    if key in config:
        return convert(config[key])
    return builtin


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# ---------------------------------------------------------------------------
# subcommand handlers


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=False)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _handle_mld(ns, config) -> int:
    a = parse_weights(_effective(ns, config, "weights", None, str))
    cap = _effective(ns, config, "cap", default_budget(), int)
    report = mld_global(a, cap)
    _emit(report.to_json_dict(), _effective(ns, config, "out", None, str))
    return 0


def _handle_check(ns, config) -> int:
    a = parse_weights(_effective(ns, config, "weights", None, str))
    eps = _effective(ns, config, "eps", None, parse_rational)
    if eps is None:
        raise ValueError("check requires --eps")
    cap = _effective(ns, config, "cap", default_budget(), int)
    ok, refuter = is_eps_lc(a, eps, cap)
    payload = {
        "weights": list(a.entries),
        "eps": format_rational(eps),
        "verdict": "eps-lc" if ok else "not-eps-lc",
    }
    if refuter is not None:
        payload["refuting_point"] = list(refuter)
        payload["refuting_psi"] = format_rational(psi_value(a, refuter))
    _emit(payload, _effective(ns, config, "out", None, str))
    return 0 if ok else 1


def _handle_witness(ns, config) -> int:
    a = parse_weights(_effective(ns, config, "weights", None, str))
    eps = _effective(ns, config, "eps", None, parse_rational)
    if eps is None:
        raise ValueError("witness requires --eps")
    theta = _effective(ns, config, "theta", None, parse_rational)
    cap = _effective(ns, config, "cap", default_budget(), int)
    out = _effective(ns, config, "out", None, str)
    result = certify_not_eps_lc(a, eps, theta, cap)
    if isinstance(result, Certificate):
        _emit(result.to_json_dict(), out)
        return 0
    _emit({"weights": list(a.entries), "eps": format_rational(eps), "verdict": result}, out)
    return 1 if result == VERDICT_EPS_LC else 3


def _handle_sweep(ns, config) -> int:
    n = _effective(ns, config, "n", 2, int)
    eps = _effective(ns, config, "eps", Fraction(1), parse_rational)
    theta = _effective(ns, config, "theta", None, parse_rational)
    a1_min = _effective(ns, config, "a1_min", 1, int)
    a1_max = _effective(ns, config, "a1_max", a1_min, int)
    raw_caps = _effective(ns, config, "tail_cap", "100", str)
    caps = tuple(int(part) for part in str(raw_caps).split(","))
    if len(caps) == 1:
        caps = caps * (n - 1)
    workers = _effective(ns, config, "workers", 1, int)
    cap = _effective(ns, config, "cap", default_budget(), int)
    no_timing = bool(_effective(ns, config, "no_timing", False, _parse_bool))
    fmt = _effective(ns, config, "format", "csv", str)
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {fmt!r}")
    method = _effective(ns, config, "method", "auto", str)
    out = _effective(ns, config, "out", None, str)
    spec = SweepSpec(
        n=n,
        eps=eps,
        a1_min=a1_min,
        a1_max=a1_max,
        tail_caps=caps,
        theta=theta,
        workers=workers,
        enumeration_cap=cap,
        include_timing=not no_timing,
        method=method,
    )
    if fmt == "json":
        rows = []
        report = _sweep(spec, lambda row: rows.append(dict(zip(CSV_COLUMNS, row))))
        _emit({"rows": rows, "frontier": report.to_json_dict()}, out)
        return 0
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            report = run_sweep(spec, handle)
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        report = run_sweep(spec, sys.stdout)
        print(json.dumps(report.to_json_dict(), indent=2), file=sys.stderr)
    return 0


def _handle_verify_example(ns, config) -> int:
    limit = _effective(ns, config, "limit", 500, int)
    mld_limit = _effective(ns, config, "mld_limit", 100, int)
    cap = _effective(ns, config, "cap", default_budget(), int)
    failures = 0
    for k in range(1, limit + 1):
        ok, refuter = is_eps_lc(WeightVector((1, k)), 1, cap)
        if not ok:
            failures += 1
            print(f"FAIL weights (1,{k}): expected 1-lc, refuted by {refuter}")
    print(f"1-lc check for weights (1,k), k <= {limit}: {limit - failures}/{limit} passed")
    mld_failures = 0
    for k in range(1, mld_limit + 1):
        a = WeightVector((1, k))
        smooth = mld_at_fixed_point(a, 1, cap)
        other = mld_at_fixed_point(a, 2, cap)
        expected_other = 2 if k == 1 else 1
        if smooth != 2 or other != expected_other:
            mld_failures += 1
            print(f"FAIL weights (1,{k}): fixed-point mlds {smooth}, {other}")
    print(
        f"fixed-point mld check for weights (1,k), k <= {mld_limit}: "
        f"{mld_limit - mld_failures}/{mld_limit} passed"
    )
    return 0 if failures == 0 and mld_failures == 0 else 1


def _handle_selftest(ns, config) -> int:
    max_entry = _effective(ns, config, "max_entry", 10, int)
    cap = _effective(ns, config, "cap", default_budget(), int)
    failures = []

    def tuples(n):
        def rec(prefix):
            if len(prefix) == n:
                if gcd_all(prefix) == 1:
                    yield prefix
                return
            for v in range(prefix[-1] if prefix else 1, max_entry + 1):
                yield from rec(prefix + (v,))

        yield from rec(())

    checked = 0
    for n in (2, 3):
        for entries in tuples(n):
            a = WeightVector(entries)
            checked += 1
            if mld_global(a, cap).value != mld_bruteforce(a, cap):
                failures.append(f"mld mismatch at {entries}")
            for eps in (Fraction(1, 2), Fraction(1)):
                if not verify_interior_psi_equivalence(a, eps, cap):
                    failures.append(f"interior/psi equivalence fails at {entries}, eps={eps}")
                result = certify_not_eps_lc(a, eps, None, cap)
                has_interior = bool(enumerate_lattice_points(build_polytope(a, eps), "open", cap))
                if isinstance(result, Certificate) != has_interior:
                    failures.append(f"certify/oracle disagreement at {entries}, eps={eps}")
    for line in failures:
        print(f"FAIL {line}")
    print(f"selftest: {checked} weight vectors checked, {len(failures)} failures")
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call; every caller shares it, so none may modify it."""
    parser = argparse.ArgumentParser(
        prog="wblowup",
        description="Exact eps-lc checks and interior-point certificates for weighted blowups.",
    )
    parser.add_argument("--config", help="key = value config file; CLI flags win")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, weights=True, eps=True, theta=False, out=True):
        if weights:
            p.add_argument("--weights", help="comma-separated positive integers, sorted, coprime")
        if eps:
            p.add_argument("--eps", help="rational in (0,1], e.g. 1/2")
        if theta:
            p.add_argument("--theta", help="theta-construction exponent, rational in (0, 1/(2n^2))")
        p.add_argument(
            "--cap",
            type=int,
            help="work budget, in visited prefixes, or lattice slices for n = 3 mld (default WBLOWUP_BUDGET or 10^7)",
        )
        if out:
            p.add_argument("--out", help="write output to this path instead of stdout")

    p_mld = sub.add_parser("mld", help="minimal log discrepancy report")
    common(p_mld, eps=False)

    p_check = sub.add_parser("check", help="decide eps-lc-ness")
    common(p_check)

    p_wit = sub.add_parser("witness", help="construct a not-eps-lc certificate")
    common(p_wit, theta=True)

    p_sweep = sub.add_parser("sweep", help="sweep coprime weight tuples, emitting CSV")
    common(p_sweep, weights=False, theta=True)
    p_sweep.add_argument("--n", type=int, help="tuple length (default 2)")
    p_sweep.add_argument("--a1-min", dest="a1_min", type=int, help="smallest a1")
    p_sweep.add_argument("--a1-max", dest="a1_max", type=int, help="largest a1")
    p_sweep.add_argument(
        "--tail-cap",
        dest="tail_cap",
        help="offsets above a1 bounding a2..an, single int or comma list",
    )
    p_sweep.add_argument("--workers", type=int, help="worker processes (default 1)")
    p_sweep.add_argument(
        "--method",
        choices=CERTIFY_METHODS,
        help="certification route: full dispatcher, construction only, or scans only",
    )
    p_sweep.add_argument("--format", choices=("csv", "json"), help="output format")
    p_sweep.add_argument(
        "--no-timing",
        dest="no_timing",
        action="store_const",
        const=True,
        help="blank the wall_micros column for byte-stable output",
    )

    p_ver = sub.add_parser("verify-example", help="check the (1,k) family is 1-lc")
    common(p_ver, weights=False, eps=False, out=False)
    p_ver.add_argument("--limit", type=int, help="largest k for the 1-lc scan (default 500)")
    p_ver.add_argument("--mld-limit", dest="mld_limit", type=int, help="largest k for fixed-point mlds")

    p_self = sub.add_parser("selftest", help="cross-check engine against the brute-force oracle")
    common(p_self, weights=False, eps=False, out=False)
    p_self.add_argument("--max-entry", dest="max_entry", type=int, help="largest weight entry (default 10)")

    return parser


_HANDLERS = {
    "mld": _handle_mld,
    "check": _handle_check,
    "witness": _handle_witness,
    "sweep": _handle_sweep,
    "verify-example": _handle_verify_example,
    "selftest": _handle_selftest,
}


def cli_dispatch(argv) -> int:
    """Run one CLI invocation in-process and return its exit code.

    The parser is built once per process, on the first call. Parsing never
    mutates it: parse_args writes only into a fresh Namespace, help and
    usage text read the terminal width when printed, and the budget and
    the config file are read per call.
    """
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    config = {}
    try:
        if ns.config:
            config = load_config(ns.config)
            # a key is a flag of the chosen subcommand, or a usage error
            unknown = sorted(set(config) - (set(vars(ns)) - {"config", "command"}))
            if unknown:
                raise ValueError(f"{ns.config}: no {ns.command} flag reads {', '.join(unknown)}")
        return _HANDLERS[ns.command](ns, config)
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
