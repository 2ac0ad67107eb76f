"""Command-line interface: single checks, parameter sweeps, self tests.

Subcommands: mld, check, witness, sweep, verify-example, selftest. Exit
codes: 0 computed as asked, 1 negative verdict where the subcommand has a
polarity (not eps-lc, no witness), 2 usage error, 3 budget exhausted.

Two tables hold every setting: _SETTINGS, one row per flag destination
(converter, value when not given, help line), and _COMMANDS, one row per
subcommand (handler, help line, flags, required flags). A value comes from
the command line's flag, else the config file's entry (--config PATH, lines
`key = value`, each read as the flag --key=value), else, unless required,
the default. The budget --cap defaults to 10^7 visited prefixes per scan
(lattice slices for n = 3 mld, box steps for a fixed-point pass); README
gives what a scan stopped there has cost. Pooled sweeps share one worker
pool per process (see Pool).

A module a subcommand may not need is loaded on its first use, not at
import: a cold mld or check loads exact_lattice and toric_mld alone, and
witness, oracle and csv come in through _load, multiprocessing through
Pool. No import statement runs per query or per sweep row.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import io
import itertools
import json
import math
import re
import sys
import threading
import time
import types
from fractions import Fraction
from importlib import import_module

from .exact_lattice import (
    CERTIFY_METHODS,
    DEFAULT_ENUMERATION_CAP,
    BudgetExceeded,
    Value,
    check_int,
    format_ratio,
    format_rational,
    parse_rational,
)
from .toric_mld import WeightVector, is_eps_lc, mld_at_fixed_point, mld_global, psi_value

# modules bound by _load on first use; their functions are read as
# attributes at call time, so a wrapper set on the module is seen
csv = oracle = witness = None


def _load(*names: str) -> None:
    """Bind each named module (csv, oracle or witness) here, if not yet bound.

    A cold mld or check never needs them: witness and oracle, with
    diophantine, are some 800 source lines to compile when no bytecode cache
    is valid. After the first call this is a dict lookup per name.
    """
    for name in names:
        if globals()[name] is None:
            globals()[name] = import_module(name if name == "csv" else "." + name, __package__)


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
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"weights must be comma-separated integers, got {text!r}") from None
    return WeightVector(entries)


class SweepSpec(Value):
    """Parameters of one sweep over coprime sorted weight tuples.

    tail_caps[k] bounds coordinate k+2 by a1 + tail_caps[k]; the tuple must
    have n-1 entries. method is passed to certify_not_eps_lc: "auto" runs
    the full dispatcher; "construction" tries only the dimension-specific
    construction (rows read certificate or no-witness, useful for
    success-rate studies); "enumeration" skips the construction entirely.
    Every field is checked here, so a spec unpickled in a pool worker is
    checked again, and loads witness there. eps and theta are kept as the
    Fractions (theta may be None) that the check returns.
    """

    __slots__ = ("n", "eps", "a1_min", "a1_max", "tail_caps", "theta", "workers", "enumeration_cap",
                 "include_timing", "method")

    def __init__(self, n: int, eps: Fraction, a1_min: int, a1_max: int, tail_caps: tuple[int, ...],
                 theta: Fraction | None, workers: int, enumeration_cap: int, include_timing: bool,
                 method: str = "auto"):
        check_int(n, "sweep dimension", 2)
        _load("witness")
        eps, theta = witness._certify_request(n, eps, theta, method, enumeration_cap)
        put = object.__setattr__
        put(self, "n", n)
        put(self, "eps", eps)
        put(self, "a1_min", a1_min)
        put(self, "a1_max", a1_max)
        put(self, "tail_caps", tail_caps)
        put(self, "theta", theta)
        put(self, "workers", workers)
        put(self, "enumeration_cap", enumeration_cap)
        put(self, "include_timing", include_timing)
        put(self, "method", method)
        check_int(a1_max, "a1_max", check_int(a1_min, "a1_min"))
        if len(tail_caps) != n - 1:
            raise ValueError(f"need {n - 1} tail caps, got {len(tail_caps)}")
        for c in tail_caps:
            check_int(c, "tail cap", 0)
        check_int(workers, "worker count")


class FrontierReport(Value):
    """Per-a1 certificate fractions and the empirical all-certified threshold."""

    __slots__ = ("eps", "per_a1", "empirical_m")

    # per_a1 holds (a1, certified, total)
    def __init__(self, eps: Fraction, per_a1: tuple[tuple[int, int, int], ...], empirical_m: int | None):
        put = object.__setattr__
        put(self, "eps", eps)
        put(self, "per_a1", per_a1)
        put(self, "empirical_m", empirical_m)

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
    n, caps, gcd = spec.n, spec.tail_caps, math.gcd

    def prefixes(prefix, g):
        # the sorted prefixes of n - 1 entries extending prefix, each with its gcd
        k = len(prefix)
        if k == n - 1:
            yield prefix, g
            return
        for v in range(prefix[-1], prefix[0] + caps[k - 1] + 1):
            yield from prefixes(prefix + (v,), gcd(g, v))

    for a1 in range(spec.a1_min, spec.a1_max + 1):
        top = a1 + caps[-1] + 1
        for prefix, g in prefixes((a1,), a1):
            for v in range(prefix[-1], top):
                if gcd(g, v) == 1:
                    yield prefix + (v,)


def _sweep_task(spec: SweepSpec, chunk) -> list:
    """Certify each tuple of chunk in order: [its CSV rows as text, (a1, certified, total) per a1].

    The task binds csv and witness itself, so a worker started by spawn or
    forkserver, which inherits no module state, runs it too. A row whose
    certify raises is reported as a RuntimeError naming its tuple.
    """
    _load("csv", "witness")
    text = io.StringIO()
    writerow = csv.writer(text, lineterminator="\n").writerow
    certify, certificate = witness.certify_not_eps_lc, witness.Certificate
    eps, theta, cap, method, timing = spec.eps, spec.theta, spec.enumeration_cap, spec.method, spec.include_timing
    eps_text = format_rational(eps)
    micros = ""
    counts = []
    a1, certified, total = chunk[0][0], 0, 0
    for entries in chunk:
        if entries[0] != a1:
            counts.append((a1, certified, total))
            a1, certified, total = entries[0], 0, 0
        if timing:
            started = time.perf_counter_ns()
        try:
            result = certify(WeightVector(entries), eps, theta, cap, method)
        except Exception as exc:
            raise RuntimeError(f"sweep row {entries}: {exc!r}") from exc
        if timing:
            micros = str((time.perf_counter_ns() - started) // 1000)
        total += 1
        if isinstance(result, certificate):
            certified += 1
            hyp = result.hypothesis_ok
            cells = ("certificate", result.method, ";".join(map(str, result.point)), format_ratio(*result.psi),
                     "" if hyp is None else ("theta-ok" if hyp else "theta-violated"))
        else:
            cells = (result, "", "", "", "")
        writerow((len(entries), ";".join(map(str, entries)), eps_text, *cells, micros))
    counts.append((a1, certified, total))
    return [text.getvalue(), counts]


# Tuples per task. On sweep-n3 (blocks of about 1,050 tuples, 2 workers on
# the kept pool; Intel Xeon, 2 vCPUs, Python 3.11) bench ops/s over 10 s
# runs read a median of 62,900 at 128 (3 runs), 66,500 at 256 and 69,900 at
# 512 (6 runs each; 512 beat 256 in 5 of 6 alternating pairs): a task's cost
# past its rows (pickling, a pipe round trip, a wake-up of the pool's
# threads) is paid per chunk, and a chunk's text is about 20 KB at 512.
_CHUNK = 512


def _chunks(tuples):
    # lists of _CHUNK tuples, the last shorter; each drawn only when asked for
    while chunk := list(itertools.islice(tuples, _CHUNK)):
        yield chunk


def run_sweep(spec: SweepSpec, stream) -> FrontierReport:
    """Run certify over every tuple of the spec, streaming CSV rows.

    Tuples are drawn a chunk of _CHUNK at a time, and each chunk's rows are
    written as one piece of text once certified (a pool reads ahead by its
    chunks), so memory does not grow with the sweep. Rows come in
    lexicographic order of weights, identical at any worker count.

    A sweep with more than one worker runs on the process's one kept pool
    (see Pool): the first such sweep starts it, forking the workers then,
    and later sweeps with the same worker count reuse it. A single CLI
    sweep therefore gets no faster; a process that runs many sweeps pays
    the pool's start-up once.
    """
    stream.write(",".join(CSV_COLUMNS) + "\n")
    # looked up here, not at import: bench/tracing.py swaps in a wrapper
    task = functools.partial(_sweep_task, spec)
    chunks = _chunks(iter_weight_tuples(spec))
    per_a1 = []
    with Pool(spec.workers) if spec.workers > 1 else contextlib.nullcontext() as pool:
        for text, counts in pool.imap(task, chunks) if pool else map(task, chunks):
            stream.write(text)
            # chunks come in lexicographic order, so an a1 may straddle two
            if per_a1 and per_a1[-1][0] == counts[0][0]:
                a1, certified, total = per_a1.pop()
                counts[0] = (a1, certified + counts[0][1], total + counts[0][2])
            per_a1 += counts
    empirical = None
    for a1, certified, total in reversed(per_a1):
        if certified != total:
            break
        empirical = a1
    return FrontierReport(spec.eps, tuple(per_a1), empirical)


_kept_pool = None  # (processes, pool): the pool every sweep of this process shares
_pool_lock = threading.Lock()  # held by the sweep using the kept pool


@contextlib.contextmanager
def Pool(processes: int):
    """The process's one kept pool of `processes` workers, as a context.

    The first call starts the pool, and later calls with the same worker
    count hand out the same pool; a call with another count terminates it
    and starts a new one. The workers are forked when the pool starts, so
    they see module state as of that moment: each sweep task carries its
    spec with it, so sweeps do not depend on later changes to that
    state. Leaving the context normally keeps the pool running; an exception
    leaving it (a task error, a failed write, KeyboardInterrupt) terminates
    the pool and forgets it, so the unfinished job of an abandoned sweep
    never reaches a later one. An atexit hook terminates the kept pool at
    interpreter exit. Sweeps from several threads take the pool in turn.
    A one-shot CLI sweep starts the pool once either way and gets no
    faster; in-process callers that run many sweeps gain.

    Like every module a command may not use (see the module docstring),
    multiprocessing is imported on first use: queries never need it, and
    it costs about 1 MiB. bench/tracing.py swaps this name.
    """
    global _kept_pool
    with _pool_lock:
        if _kept_pool is not None and _kept_pool[0] != processes:
            _drop_pool()
        if _kept_pool is None:
            from multiprocessing import Pool as pool

            _kept_pool = (processes, pool(processes))
            atexit.register(_drop_pool)
        try:
            yield _kept_pool[1]
        except BaseException:
            _drop_pool()
            raise


def _drop_pool() -> None:
    """Terminate the kept pool, if any, and forget it."""
    global _kept_pool
    if _kept_pool is not None:
        atexit.unregister(_drop_pool)
        _kept_pool[1].terminate()
        _kept_pool = None


# ---------------------------------------------------------------------------
# config file


def load_config(path: str) -> dict:
    """Parse a line-oriented `key = value` file; '#' at a line's start or after whitespace starts a comment."""
    values = {}
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


# ---------------------------------------------------------------------------
# subcommand handlers


_quoted = json.encoder.encode_basestring_ascii


def _json_text(obj) -> str:
    """obj as JSON, byte for byte what json.dumps(obj, indent=2) writes.

    It takes dicts with str keys, lists, tuples, str, int, bool and None,
    and raises TypeError on anything else, a Fraction or a float included,
    so no float can reach the CLI's output. It is the CLI's one JSON
    writer: json.dumps drops to its pure-Python encoder whenever indent is
    set, and this one takes about 0.5 to 0.6 of its time on a witness or mld
    payload (Python 3.11).
    """
    parts = []
    _json_parts(obj, "\n", parts)
    return "".join(parts)


def _json_parts(obj, newline: str, parts: list) -> None:
    # newline is the line break and indent of obj's own line; its items sit
    # two spaces further in
    if isinstance(obj, str):
        parts.append(_quoted(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in obj.items():
            parts.append(sep)
            parts.append(_quoted(key))  # a key that is no str raises TypeError here
            parts.append(": ")
            _json_parts(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            parts.append(sep)
            _json_parts(value, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(payload: dict, out: str | None) -> None:
    text = _json_text(payload)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _handle_mld(ns) -> int:
    report = mld_global(parse_weights(ns.weights), ns.cap)
    _emit(report.to_json_dict(), ns.out)
    return 0


def _handle_check(ns) -> int:
    a = parse_weights(ns.weights)
    ok, refuter = is_eps_lc(a, ns.eps, ns.cap)
    payload = {
        "weights": list(a.entries),
        "eps": format_rational(ns.eps),
        "verdict": "eps-lc" if ok else "not-eps-lc",
    }
    if refuter is not None:
        payload["refuting_point"] = list(refuter)
        payload["refuting_psi"] = format_rational(psi_value(a, refuter))
    _emit(payload, ns.out)
    return 0 if ok else 1


def _handle_witness(ns) -> int:
    _load("witness")
    a = parse_weights(ns.weights)
    result = witness.certify_not_eps_lc(a, ns.eps, ns.theta, ns.cap)
    if isinstance(result, witness.Certificate):
        _emit(result.to_json_dict(), ns.out)
        return 0
    _emit({"weights": list(a.entries), "eps": format_rational(ns.eps), "verdict": result}, ns.out)
    return 1 if result == witness.VERDICT_EPS_LC else 3


def _handle_sweep(ns) -> int:
    # one tail cap stands for every coordinate, and --a1-max defaults to --a1-min
    caps = ns.tail_cap * (ns.n - 1) if len(ns.tail_cap) == 1 else ns.tail_cap
    spec = SweepSpec(
        n=ns.n,
        eps=ns.eps,
        a1_min=ns.a1_min,
        a1_max=ns.a1_min if ns.a1_max is None else ns.a1_max,
        tail_caps=caps,
        theta=ns.theta,
        workers=ns.workers,
        enumeration_cap=ns.cap,
        include_timing=not ns.no_timing,
        method=ns.method,
    )
    if ns.format == "json":
        # the JSON rows are the CSV rows, read back cell for cell
        _load("csv")
        text = io.StringIO()
        report = run_sweep(spec, text)
        text.seek(0)
        _emit({"rows": list(csv.DictReader(text)), "frontier": report.to_json_dict()}, ns.out)
        return 0
    if ns.out:
        with open(ns.out, "w", encoding="utf-8", newline="") as handle:
            report = run_sweep(spec, handle)
        print(_json_text(report.to_json_dict()))
    else:
        report = run_sweep(spec, sys.stdout)
        print(_json_text(report.to_json_dict()), file=sys.stderr)
    return 0


def _handle_verify_example(ns) -> int:
    # no --cap: the 1-lc scan of (1, k) visits one prefix, and n = 2 fixed-point mlds spend no budget
    limit = check_int(ns.limit, "--limit")
    failures = 0
    for k in range(1, limit + 1):
        ok, refuter = is_eps_lc(WeightVector((1, k)), 1)
        if not ok:
            failures += 1
            print(f"FAIL weights (1,{k}): expected 1-lc, refuted by {refuter}")
    print(f"1-lc check for weights (1,k), k <= {limit}: {limit - failures}/{limit} passed")
    mld_failures = 0
    for k in range(1, limit + 1):
        a = WeightVector((1, k))
        smooth = mld_at_fixed_point(a, 1)
        other = mld_at_fixed_point(a, 2)
        expected_other = 2 if k == 1 else 1
        if smooth != 2 or other != expected_other:
            mld_failures += 1
            print(f"FAIL weights (1,{k}): fixed-point mlds {smooth}, {other}")
    print(f"fixed-point mld check for weights (1,k), k <= {limit}: {limit - mld_failures}/{limit} passed")
    return 0 if failures == 0 and mld_failures == 0 else 1


def _handle_selftest(ns) -> int:
    max_entry = check_int(ns.max_entry, "--max-entry")
    _load("oracle", "witness")
    failures = []
    checked = 0
    for n in (2, 3):
        for entries in itertools.combinations_with_replacement(range(1, max_entry + 1), n):
            if math.gcd(*entries) != 1:
                continue
            a = WeightVector(entries)
            checked += 1
            if mld_global(a, ns.cap).value != (least := oracle.mld_bruteforce(a, ns.cap)):
                failures.append(f"mld mismatch at {entries}")
            for eps in (Fraction(1, 2), Fraction(1)):
                # the one box scan of C(a, eps): it ties an interior point to least < eps
                if not oracle.verify_interior_psi_equivalence(a, eps, ns.cap):
                    failures.append(f"interior/psi equivalence fails at {entries}, eps={eps}")
                result = witness.certify_not_eps_lc(a, eps, None, ns.cap)
                if isinstance(result, witness.Certificate) != (least < eps):
                    failures.append(f"certify/oracle disagreement at {entries}, eps={eps}")
    for line in failures:
        print(f"FAIL {line}")
    print(f"selftest: {checked} weight vectors checked, {len(failures)} failures")
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# flag reading


def _choice(*choices):
    def read(text):
        if text not in choices:
            raise ValueError(f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})")
        return text

    read.metavar = "{" + ",".join(choices) + "}"
    return read


# each setting by its flag's destination: converter, value when not given (None for none), help line
_SETTINGS = {
    "config": (str, None, "key = value config file; CLI flags win"),
    "weights": (str, None, "comma-separated positive integers, sorted, coprime"),
    "eps": (parse_rational, Fraction(1), "rational in (0,1], e.g. 1/2"),
    "theta": (parse_rational, None, "theta-construction exponent, rational in (0, 1/(2n^2))"),
    "cap": (int, DEFAULT_ENUMERATION_CAP, "work budget, in visited prefixes, or lattice slices for n = 3 mld"),
    "out": (str, None, "write output to this path instead of stdout"),
    "n": (int, 2, "tuple length"),
    "a1_min": (int, 1, "smallest a1"),
    "a1_max": (int, None, "largest a1 (default --a1-min)"),
    "tail_cap": (lambda text: tuple(map(int, text.split(","))), (100,),
                 "offsets above a1 bounding a2..an, single int or comma list"),
    "workers": (int, 1, "worker processes"),
    "method": (_choice(*CERTIFY_METHODS), "auto",
               "certification route: full dispatcher, construction only, or scans only"),
    "format": (_choice("csv", "json"), "csv",
               "output format; json holds the whole sweep in memory, so it is for short sweeps"),
    "no_timing": (_parse_bool, None, "blank the wall_micros column for byte-stable output (bare flag: yes)"),
    "limit": (int, 500, "largest k for the 1-lc scan and the fixed-point mlds"),
    "max_entry": (int, 10, "largest weight entry"),
}
# each subcommand: handler, help line, flags in help order, required flags in the order a missing one is reported
_COMMANDS = {
    "mld": (_handle_mld, "minimal log discrepancy report", ("weights", "cap", "out"), ("weights",)),
    "check": (_handle_check, "decide eps-lc-ness", ("weights", "eps", "cap", "out"), ("weights", "eps")),
    "witness": (_handle_witness, "construct a not-eps-lc certificate", ("weights", "eps", "theta", "cap", "out"),
                ("weights", "eps")),
    "sweep": (_handle_sweep, "sweep coprime weight tuples, emitting CSV",
              ("eps", "theta", "cap", "out", "n", "a1_min", "a1_max", "tail_cap", "workers", "method", "format",
               "no_timing"), ()),
    "verify-example": (_handle_verify_example, "check the (1,k) family is 1-lc", ("limit",), ()),
    "selftest": (_handle_selftest, "cross-check engine against the brute-force oracle", ("cap", "max_entry"), ()),
}
# built once: the converters of the top-level flags and of each subcommand's, and its namespace before any flag is read
_TOP = {"config": _SETTINGS["config"][0]}
_FLAGS = {command: {dest: _SETTINGS[dest][0] for dest in row[2]} for command, row in _COMMANDS.items()}
_UNSET = {command: {dest: _SETTINGS[dest][1] for dest in row[2]} for command, row in _COMMANDS.items()}


def _help(command) -> str:
    """The -h text of a subcommand, or of the top level when command is None."""
    if command:
        _, about, flags, required = _COMMANDS[command]
        lines = [f"usage: wblowup {command} [-h] [--flag VALUE]...", "", about]
    else:
        flags, required = _TOP, ()
        lines = ["usage: wblowup [-h] [--config CONFIG] COMMAND [--flag VALUE]...", "",
                 "Exact eps-lc checks and interior-point certificates for weighted blowups.", "", "commands:"]
        lines += [f"  {name:<23} {row[1]}" for name, row in _COMMANDS.items()]
    lines += ["", "options:", f"  {'-h, --help':<23} show this help message and exit"]
    for dest in flags:
        convert, default, about = _SETTINGS[dest]
        metavar = "[BOOL]" if convert is _parse_bool else getattr(convert, "metavar", dest.upper())
        if dest in required:
            about += " (required)"
        elif default is not None:
            about += f" (default {str(default).strip('(,)')})"  # a one-cap tuple (100,) reads 100
        lines.append(f"  {'--' + dest.replace('_', '-') + ' ' + metavar:<23} {about}")
    return "\n".join(lines)


def _read(tokens, values: dict, command=None, exact=False):
    """Read `[--config PATH] COMMAND (--flag VALUE | --flag=VALUE)...` into values, by dest.

    Given a command, tokens hold its flags alone. A flag may be a unique
    prefix unless exact. Its value is the next token, but a boolean flag last
    or before a token starting with '-' means yes. Returns the command, or
    None once -h or --help has printed its text.
    """
    flags = _FLAGS[command] if command else _TOP
    extras = []  # unknown flags and stray tokens, refused together at the end
    i = 0
    while i < len(tokens):
        token = "--help" if tokens[i] == "-h" else tokens[i]
        i += 1
        if token[:2] != "--":
            if command is None:
                command = _choice(*_FLAGS)(token)
                flags = _FLAGS[command]
            else:
                extras.append(token)
            continue
        name, eq, text = token[2:].partition("=")
        dest = "" if "_" in name else name.replace("-", "_")  # flags are spelt with '-'
        if dest not in flags:
            hits = [d for d in (*flags, "help") if d.startswith(dest)] if dest and not exact else []
            if len(hits) > 1:
                raise ValueError(f"ambiguous option: --{name} could match --{', --'.join(hits).replace('_', '-')}")
            if not hits:
                extras.append(token)
                continue
            if hits == ["help"]:
                print(_help(command))
                return None
            dest, name = hits[0], hits[0].replace("_", "-")
        convert = flags[dest]
        if not eq:
            if convert is _parse_bool and (i == len(tokens) or tokens[i][:1] == "-"):
                values[dest] = True
                continue
            if i == len(tokens):
                raise ValueError(f"argument --{name}: expected one argument")
            text = tokens[i]
            i += 1
        try:
            values[dest] = convert(text)
        except ValueError as exc:
            reason = f"invalid {convert.__name__} value: {text!r}" if convert in (int, parse_rational) else exc
            raise ValueError(f"argument --{name}: {reason}") from None
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    if command is None:
        raise ValueError("the following arguments are required: command")
    return command


def cli_dispatch(argv) -> int:
    """Run one CLI invocation in-process and return its exit code.

    Every setting is resolved here, once: the command line's flag, else the
    config file's entry, read as the flag --key=value by the same loop but
    with exact keys; a required flag given neither way is a usage error, and
    any other takes its _SETTINGS value when not given. A ValueError of the
    handler ends with the file's path and the keys it supplied that no flag
    overrode, if any.
    """
    values = {}
    try:
        command = _read(argv, values)
        if command is None:
            return 0
        path = values.pop("config", None)
        entries = {}
        if path:
            tokens = [f"--{key.replace('_', '-')}={value}" for key, value in load_config(path).items()]
            try:
                _read(tokens, entries, command, exact=True)
            except ValueError as exc:
                raise ValueError(f"{path}: not a valid {command} config file: {exc}") from None
        handler, _, _, required = _COMMANDS[command]
        for dest in required:
            if dest not in values and dest not in entries:
                raise ValueError(f"{command} requires --{dest}")
        try:
            return handler(types.SimpleNamespace(**{**_UNSET[command], **entries, **values}))
        except ValueError as exc:
            # a range or coprimality check runs here, so name the file's settings that the run used
            if used := [key for key in entries if key not in values]:
                raise ValueError(f"{exc} (from {path}: {', '.join(used)})") from None
            raise
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
