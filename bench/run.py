"""Benchmark of wblowup's CLI: sweep throughput, query latency, per-layer cost.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root; the package is imported from ./src. Every
operation goes in-process through wblowup.harness.cli_dispatch, the code
path of the console script, in a closed loop with one client. Workloads
(see BENCHMARK.json and bench/README.md for why each was chosen):

  sweep-n2       sweep --n 2 --eps 1/2, a1 26..126, tail cap 500, 1 worker
  sweep-n3       sweep --n 3 --eps 1/2, a1 2..24, tail caps 24,24, 2 workers
  mld-large      seeded mld queries on n=2 and n=3 weights near 10^4..10^5,
                 plus check --eps 1 on 1-lc tuples
  witness-large  seeded witness --eps 1/2 queries, n=3 and n=4, a1 in 10^9..10^18

The loop runs whole batches (a sweep block, or a round of queries) for
about --seconds of wall time. Every op's time is scaled to the reference
host by bench/refclock.py. Every answer passes the correctness gate
(bench/gate.py) outside the timed calls; a wrong answer makes the run
exit 1.

--trace 0 prints the end-to-end metrics. --trace 1 runs a fixed number
of batches (workloads.TRACE_BATCHES) twice: untraced, then with spans
around every layer's public functions (bench/tracing.py), and prints the
per-layer metrics and the tracing overhead. The last line of output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --tiny runs one
small batch, for the benchmark's own tests. --workload all runs every
workload in its own process and ends with one JSON line holding all results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns

from refclock import RefClock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("sweep-n2", "sweep-n3", "mld-large", "witness-large")

# cold CLI start: interpreter, package import and the smallest query
SETUP_ARGV = ("-m", "wblowup", "mld", "--weights", "2,3")
SETUP_LAUNCHES = 11


class SetupError(Exception):
    pass


def import_package():
    """Import wblowup from ./src of this checkout, never from anywhere else."""
    if not (SRC / "wblowup" / "__init__.py").is_file():
        raise SetupError(f"no package source at {SRC / 'wblowup'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import wblowup

    if Path(wblowup.__file__).resolve().parent != SRC / "wblowup":
        raise SetupError(f"wblowup imported from {wblowup.__file__}, not from {SRC}")


@dataclass
class Tally:
    ops: int = 0
    undecided: int = 0
    errors: int = 0
    calls: list = field(default_factory=list)  # (wall ns, ops, clock mark, input) per call
    seconds: float | None = None
    launches: int = 0  # cold launches to spread over the run
    setup: list = field(default_factory=list)  # (wall s, clock mark) per cold launch
    clock: RefClock = field(default_factory=RefClock)
    started_ns: int = field(default_factory=perf_counter_ns)

    def dispatch(self, harness, argv):
        """One timed cli_dispatch call; returns its exit code (None if it raised) and stdout."""
        self.launch_if_due()
        mark = self.clock.mark()
        rc, out, ns = dispatch(harness, argv)
        self.calls.append([ns, 0, mark, tuple(argv)])
        self.clock.spent(ns)
        return rc, out

    def launch_if_due(self, now=False) -> None:
        """Spread the cold launches evenly over the run, so that no single busy
        spell of the host sets them all; now launches the next one regardless."""
        if len(self.setup) >= self.launches:
            return
        if now or self.seconds is None or (perf_counter_ns() - self.started_ns
                                           >= len(self.setup) * self.seconds * 1e9 / self.launches):
            mark = self.clock.mark()
            wall = cold_launch()
            self.clock.calibrate()
            self.setup.append((wall, mark))

    def setup_s(self) -> list[float]:
        return [wall * self.clock.scale(mark) for wall, mark in self.setup]

    def count(self, ops: int) -> None:
        """Credit the ops of the last call."""
        self.calls[-1][1] = ops
        self.ops += ops

    def scaled_s(self, call) -> float:
        ns, _, mark, _ = call
        return ns * 1e-9 * self.clock.scale(mark)

    @property
    def ops_per_s(self) -> float:
        return self.ops / sum(self.scaled_s(c) for c in self.calls)

    @property
    def wall_ops_per_s(self) -> float:
        return self.ops / (sum(c[0] for c in self.calls) * 1e-9)

    def latencies_ms(self, per_input=False) -> list[float]:
        """Scaled ms per op of every call that completed ops; with per_input,
        one figure per distinct input instead: its scaled time over its ops,
        summed over all its calls."""
        done = [c for c in self.calls if c[1]]
        if not per_input:
            return [self.scaled_s(c) * 1e3 / c[1] for c in done]
        by_input = {}
        for c in done:
            s_ops = by_input.setdefault(c[3], [0.0, 0])
            s_ops[0] += self.scaled_s(c)
            s_ops[1] += c[1]
        return [s * 1e3 / ops for s, ops in by_input.values()]


def dispatch(harness, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = harness.cli_dispatch(list(argv))
    except Exception:
        rc = None
        traceback.print_exc()
    return rc, out.getvalue(), perf_counter_ns() - t0


def _done(tally, seconds, batches, done):
    if batches is not None:
        return done >= batches
    return perf_counter_ns() - tally.started_ns >= seconds * 1e9


def run_sweeps(workload, seconds, batches, tally):
    import gate
    from wblowup import harness
    from workloads import load_sweep_reference

    reference = load_sweep_reference(workload.name)
    blocks = workload.blocks()
    i = 0
    while True:
        lo, hi = blocks[i % len(blocks)]
        i += 1
        rc, out = tally.dispatch(harness, workload.argv(lo, hi))
        if rc is None or rc == 2:
            tuples = sum(len(reference[a1]) for a1 in range(lo, hi + 1))
            tally.count(tuples)
            tally.errors += tuples
        else:
            rows, undecided = gate.check_sweep_call(workload, lo, hi, rc, out, reference)
            tally.count(rows)
            tally.undecided += undecided
        if _done(tally, seconds, batches, i):
            return


def run_queries(name, seed, seconds, batches, tiny, tally):
    import gate
    from wblowup import harness
    from workloads import load_pool, query_rounds

    for done, batch in enumerate(query_rounds(name, seed, load_pool(name), tiny), start=1):
        for query in batch:
            rc, out = tally.dispatch(harness, query.argv)
            tally.count(1)
            if rc is None or rc == 2:
                tally.errors += 1
            elif gate.check_query(query, rc, out) == gate.UNDECIDED:
                tally.undecided += 1
        if batches is None:
            # whole rounds keep the mix of inputs: as many as fit at the first one's pace
            elapsed = perf_counter_ns() - tally.started_ns
            batches = max(1, round(seconds * 1e9 / elapsed))
        if done >= batches:
            return


def measure(name, seed, *, seconds=None, batches=None, tiny=False, launches=0) -> Tally:
    """Run whole batches until seconds of wall time have passed, or for a
    fixed number of batches, with launches cold launches spread over them.
    tiny runs one batch of the cheapest inputs."""
    from workloads import SWEEPS

    # a sweep with several workers runs on several CPUs at once: time the kernel on each
    parallel = name in SWEEPS and SWEEPS[name].workers > 1 and hasattr(os, "sched_setaffinity")
    clock = RefClock(sorted(os.sched_getaffinity(0)) if parallel else None)
    tally = Tally(seconds=seconds, launches=launches, clock=clock)
    if tiny:
        batches = 1
    if name in SWEEPS:
        run_sweeps(SWEEPS[name], seconds, batches, tally)
    else:
        run_queries(name, seed, seconds, batches, tiny, tally)
    while len(tally.setup) < launches:  # a run that ended early
        tally.launch_if_due(now=True)
    tally.clock.finish()
    return tally


def cold_launch() -> float:
    """Wall seconds of one cold `python -m wblowup mld --weights 2,3`, answer checked."""
    import gate

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    t0 = perf_counter_ns()
    proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=False)
    wall = (perf_counter_ns() - t0) * 1e-9
    if proc.returncode != 0 or Fraction(json.loads(proc.stdout)["mld"]) != gate.age_mld((2, 3)):
        raise gate.WrongAnswer(f"setup query exited {proc.returncode}: {proc.stdout!r}")
    return wall


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_record(name, seed, seconds, trace) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "wblowup").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    # the benchmark may run in an export that is not a git repository
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text(encoding="utf-8").strip() if target.is_file() else ref[5:]
    return ref


def end_to_end(name, seed, seconds, tiny, lines) -> tuple[dict, Tally]:
    cold_launch()  # untimed: brings the interpreter and the package into the page cache
    tally = measure(name, seed, seconds=seconds, tiny=tiny,
                    launches=1 if tiny else SETUP_LAUNCHES)
    setup, setup_wall = tally.setup_s(), [wall for wall, _ in tally.setup]
    # a sweep cycles over its blocks: each block's latency is its mean over the run
    sweep = name.startswith("sweep")
    lat = tally.latencies_ms(per_input=sweep)
    fail = tally.undecided + tally.errors
    metrics = {
        "ops_per_s": (tally.ops_per_s, "ops/s"),
        "op_ms_p50": (statistics.median(lat), "ms"),
        "op_ms_p90": (p90(lat) if len(lat) > 1 else lat[0], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
        "decided_frac": (1 - fail / tally.ops, "ratio"),
    }
    per = "tuple: each sweep block's mean over its calls" if sweep else "query"
    lines += [
        f"samples: {tally.ops} ops in {len(tally.calls)} calls; op latency per {per}, "
        f"over {len(lat)} {'blocks' if sweep else 'calls'} "
        f"({sum(x > metrics['op_ms_p90'][0] for x in lat)} above p90); "
        f"setup over {len(setup)} launches",
        f"fail_frac {fail / tally.ops:.6f} ratio "
        f"(base {tally.ops} ops: {tally.undecided} undecided, {tally.errors} errors)",
        f"times are scaled to the reference host (bench/refclock.py); unscaled: "
        f"{tally.wall_ops_per_s:.6g} ops/s, setup {statistics.median(setup_wall):.6g} s; "
        f"host slowdown {tally.clock.slowdown():.3f} over {len(tally.clock.kernel_ns)} "
        f"kernel timings",
    ]
    return metrics, tally


def traced(name, seed, seconds, tiny, lines) -> tuple[dict, Tally]:
    import tracing

    from workloads import TRACE_BATCHES

    batches = TRACE_BATCHES[name]
    plain = measure(name, seed, batches=batches, tiny=tiny)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tally = measure(name, seed, batches=batches, tiny=tiny)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.agg)
    metrics["trace.ops"] = (tally.ops, "count")
    metrics["trace.ops_per_s_untraced"] = (plain.ops_per_s, "ops/s")
    metrics["trace.ops_per_s_traced"] = (tally.ops_per_s, "ops/s")
    metrics["trace.overhead_frac"] = (plain.ops_per_s / tally.ops_per_s - 1, "ratio")
    total = sum(ms for _, ms in tracing.self_time_ranking(tracer.agg))
    lines.append("self time by traced function (share of all traced self time):")
    for fname, ms in tracing.self_time_ranking(tracer.agg)[:8]:
        lines.append(f"  {fname:40s} {ms:12.1f} ms  {ms / total:6.1%}")
    if not tiny:
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{name}-seed{seed}-spans.jsonl")
    plain.ops += tally.ops
    plain.undecided += tally.undecided
    plain.errors += tally.errors
    return metrics, plain


def run_all(args) -> int:
    """Run every workload, each in a fresh process; print all their metrics."""
    worst, summary = 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        sys.stderr.write(proc.stderr)
        summary[name] = json.loads(lines[-1]) if lines else None
        worst = max(worst, proc.returncode)
    print(json.dumps(summary))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one small batch, for self tests")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        import_package()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import gate

    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    lines = ["run record: " + json.dumps(record)]
    run = traced if args.trace else end_to_end
    try:
        metrics, tally = run(args.workload, args.seed, args.seconds, args.tiny, lines)
    except gate.WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    for key, (value, unit) in metrics.items():
        lines.append(f"{key} {value:.6g} {unit}")
    result = {
        "correct": True,
        "attempted": tally.ops,
        "failed": tally.errors,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if not args.tiny:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
                  encoding="utf-8") as handle:
            json.dump({"record": record, "report": lines, "result": result}, handle, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
