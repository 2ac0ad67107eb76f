"""Spans around the package's public functions, installed from outside it.

install() replaces each traced function at every module attribute its
callers look up: the defining module and every package module that
imported the name (witness imports iter_region_points, is_eps_lc and the
Dirichlet searches by name; harness imports mld_global, is_eps_lc, ...).
The oracle module is left alone, since only the correctness gate uses it.
uninstall() puts the originals back.

A span is (name, start_ns, end_ns, parent, op, busy_ns, info). busy_ns is
end - start for a call; for the region enumerator, a generator, it is only
the time spent inside the generator, so its consumer's loop is not charged
to it. info is a small value read from the call's return value or
exception. Spans of one CLI call (one op) share an op id. A span's self
time is its busy time minus the busy time of its children.

Sweep workers are forked from the traced process, so they run the wrapped
functions too. The wrapped harness._sweep_task ships each task's spans back
with its row, and the pool class swapped into harness collects them.
Spans stay in memory: each op is folded into the aggregates when it ends,
and the spans of the first ops are kept and written once at the end.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.pool
import os
import resource
from collections import defaultdict
from time import perf_counter_ns

from wblowup import diophantine, exact_lattice, harness, toric_mld, witness

NAME, START, END, PARENT, OP, BUSY, INFO = range(7)

LAYERS = {
    harness: ("cli_dispatch", "run_sweep", "_sweep_task"),
    witness: (
        "certify_not_eps_lc", "build_polytope", "contains_interior",
        "witness_n2", "witness_n3", "witness_general_theta",
    ),
    toric_mld: ("iter_region_points", "mld_global", "is_eps_lc", "psi_value"),
    diophantine: ("dirichlet_1d", "dirichlet_simultaneous"),
    exact_lattice: ("pow_cmp", "integer_nth_root"),
}
ENUMERATOR = "toric_mld.iter_region_points"
KEEP_SPANS = 20000  # spans written to the spans file
PACKAGE = (harness, witness, toric_mld, diophantine, exact_lattice)

CONSTRUCTIONS = {
    "witness.witness_n2": "n2",
    "witness.witness_n3": "n3-projection",
    "witness.witness_general_theta": "general-theta",
}


def _info(name, args, result):
    # work counts read from return values only
    if name in CONSTRUCTIONS:
        return None if result is None else result.trace.get("k", 0)
    if name == "diophantine.dirichlet_simultaneous":
        return (result.q, result.Z, result.satisfied)
    if name == "toric_mld.mld_global":
        return result.points_scanned
    if name == "harness.run_sweep":
        return args[0].workers
    return None


class TracedRow(list):
    """A sweep row that carries the worker's spans back to the traced process."""

    spans: list


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.stack: list[int] = []
        self.spans: list[list] = []
        self.op = -1
        self.kept: list[list] = []
        self.agg = defaultdict(int)
        self.originals: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, perf_counter_ns(), 0, self.stack[-1] if self.stack else -1,
                           self.op, 0, None])
        return idx

    def _close(self, idx, info):
        span = self.spans[idx]
        span[END] = perf_counter_ns()
        span[BUSY] = span[END] - span[START]
        span[INFO] = info

    def wrap(self, name, fn):
        if name == ENUMERATOR:
            return self._wrap_generator(name, fn)
        root = name == "harness.cli_dispatch"
        task = name == "harness._sweep_task"
        sweep = name == "harness.run_sweep"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if task and os.getpid() != tracer.pid:
                return tracer._worker_task(fn, args)
            if root:
                tracer.op += 1
            if sweep:
                cpu0 = _children_cpu_ns()
            idx = tracer._open(name)
            tracer.stack.append(idx)
            info = None
            try:
                result = fn(*args, **kwargs)
                info = _info(name, args, result)
                if sweep:
                    info = (info, _children_cpu_ns() - cpu0)
            except BaseException as exc:
                info = type(exc).__name__
                raise
            finally:
                tracer.stack.pop()
                tracer._close(idx, info)
                if root:
                    tracer._end_op()
            return result

        return wrapper

    def _wrap_generator(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            gen = fn(a, *args, **kwargs)
            idx = tracer._open(name)
            busy = points = 0
            try:
                while True:
                    t0 = perf_counter_ns()
                    tracer.stack.append(idx)
                    try:
                        v = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tracer.stack.pop()
                        busy += perf_counter_ns() - t0
                    points += 1
                    yield v
            finally:
                gen.close()
                span = tracer.spans[idx]
                span[END] = perf_counter_ns()
                span[BUSY] = busy
                span[INFO] = (a.n, points)

        return wrapper

    def _worker_task(self, fn, args):
        # in a forked sweep worker: trace this task alone and ship its spans
        self.stack, self.spans = [], []
        idx = self._open("harness._sweep_task")
        self.stack.append(idx)
        try:
            row = TracedRow(fn(*args))
        finally:
            self.stack.pop()
        self._close(idx, None)
        row.spans = self.spans
        self.spans = []
        return row

    def absorb(self, spans):
        base = len(self.spans)
        for s in spans:
            s[PARENT] = s[PARENT] + base if s[PARENT] >= 0 else -1
            s[OP] = self.op
            self.spans.append(s)

    # -- install / uninstall ------------------------------------------------

    def install(self):
        for module, names in LAYERS.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for fname in names:
                original = getattr(module, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for mod in PACKAGE:
                    if getattr(mod, fname, None) is original:
                        self.originals.append((mod, fname, original))
                        setattr(mod, fname, wrapped)
        tracer = self

        class _TracedPool(multiprocessing.pool.Pool):
            def imap(self, func, iterable, chunksize=1):
                for row in super().imap(func, iterable, chunksize):
                    tracer.absorb(getattr(row, "spans", ()))
                    yield row

        self.originals.append((harness, "Pool", harness.Pool))
        harness.Pool = lambda processes: _TracedPool(processes, context=multiprocessing.get_context())

    def uninstall(self):
        for mod, fname, original in reversed(self.originals):
            setattr(mod, fname, original)
        self.originals.clear()

    # -- aggregation ----------------------------------------------------------

    def _end_op(self):
        spans, self.spans = self.spans, []
        self.kept.extend(spans[: KEEP_SPANS - len(self.kept)])
        agg = self.agg
        agg["spans"] += len(spans)
        child_busy = [0] * len(spans)
        children = defaultdict(list)
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                child_busy[s[PARENT]] += s[BUSY]
                children[s[PARENT]].append(s[NAME])
        for i, s in enumerate(spans):
            name, info = s[NAME], s[INFO]
            self_ns = s[BUSY] - child_busy[i]
            agg[name + ".calls"] += 1
            agg[name + ".busy_ns"] += s[BUSY]
            if name == "harness.run_sweep" and isinstance(info, tuple) and info[0] > 1:
                # with a pool, the traced process only waits; workers' spans carry the work
                agg["pool.child_cpu_ns"] += info[1]
                agg["pool.capacity_ns"] += info[0] * s[BUSY]
                agg["pool.wait_ns"] += self_ns
                continue
            agg[name + ".self_ns"] += self_ns
            agg["layer." + name.split(".", 1)[0] + ".self_ns"] += self_ns
            if isinstance(info, str):
                if info == "BudgetExceeded":
                    agg["budget_refusals"] += 1
                continue
            if name in CONSTRUCTIONS:
                method = CONSTRUCTIONS[name]
                if name == "witness.witness_n3" and "witness.witness_general_theta" in children[i]:
                    continue  # branch (i) delegated; counted as a general-theta attempt
                agg[f"con.{method}.attempts"] += 1
                agg[f"con.{method}.self_ns"] += self_ns
                if info is not None:
                    agg[f"con.{method}.hits"] += 1
                    agg[f"con.{method}.multiples"] += info
            elif name == ENUMERATOR:
                n, points = info
                agg[f"{name}.n{n}.calls"] += 1
                agg[f"{name}.n{n}.busy_ns"] += s[BUSY]
                agg[f"{name}.n{n}.points"] += points
                agg[f"{name}.points"] += points
                # certify's interior scan finished empty, then is_eps_lc scans again
                parent = spans[s[PARENT]] if s[PARENT] >= 0 else None
                if (parent and parent[NAME] == "toric_mld.is_eps_lc" and parent[PARENT] >= 0
                        and spans[parent[PARENT]][NAME] == "witness.certify_not_eps_lc"):
                    agg["rescan_points"] += points
            elif name == "toric_mld.mld_global":
                agg["mld.points_scanned"] += info
            elif name == "diophantine.dirichlet_simultaneous":
                q, Z, satisfied = info
                agg["dir.denominators"] += q if satisfied else Z
                agg["dir.satisfied"] += satisfied

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.kept:
                handle.write(json.dumps({
                    "name": s[NAME], "start_ns": s[START], "end_ns": s[END],
                    "parent": s[PARENT], "op": s[OP], "busy_ns": s[BUSY],
                }) + "\n")


def _children_cpu_ns() -> int:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return int((ru.ru_utime + ru.ru_stime) * 1e9)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(agg) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each as (value, unit), from a tracer's aggregates."""
    ms = 1e-6
    m: dict[str, tuple[float, str]] = {}

    def calls_ms(name, self_time=True, inclusive=False):
        m[f"{name}.calls"] = (agg[f"{name}.calls"], "count")
        if self_time:
            m[f"{name}.self_ms"] = (agg[f"{name}.self_ns"] * ms, "ms")
        if inclusive:
            m[f"{name}.ms"] = (agg[f"{name}.busy_ns"] * ms, "ms")

    calls_ms("harness.cli_dispatch")
    m["harness.run_sweep.calls"] = (agg["harness.run_sweep.calls"], "count")
    m["harness.run_sweep.ms"] = (agg["harness.run_sweep.busy_ns"] * ms, "ms")
    m["harness.pool.wait_ms"] = (agg["pool.wait_ns"] * ms, "ms")
    m["harness.pool.capacity_ms"] = (agg["pool.capacity_ns"] * ms, "ms")
    m["harness.pool.busy_frac"] = (_ratio(agg["pool.child_cpu_ns"], agg["pool.capacity_ns"]), "ratio")
    for fname in ("certify_not_eps_lc", "build_polytope", "contains_interior"):
        calls_ms(f"witness.{fname}")
    for method in CONSTRUCTIONS.values():
        key = f"witness.construction.{method}"
        attempts, hits = agg[f"con.{method}.attempts"], agg[f"con.{method}.hits"]
        m[f"{key}.attempts"] = (attempts, "count")
        m[f"{key}.hits"] = (hits, "count")
        m[f"{key}.hit_ratio"] = (_ratio(hits, attempts), "ratio")
        m[f"{key}.self_ms"] = (agg[f"con.{method}.self_ns"] * ms, "ms")
        if method != "n3-projection":
            m[f"{key}.multiples_to_hit"] = (agg[f"con.{method}.multiples"], "count")
    for key in (ENUMERATOR, f"{ENUMERATOR}.n2", f"{ENUMERATOR}.n3"):
        points, busy = agg[f"{key}.points"], agg[f"{key}.busy_ns"]
        m[f"{key}.calls"] = (agg[f"{key}.calls"], "count")
        m[f"{key}.points"] = (points, "count")
        m[f"{key}.ms"] = (busy * ms, "ms")
        m[f"{key}.points_per_s"] = (_ratio(points, busy * 1e-9), "points/s")
    calls_ms("toric_mld.mld_global", inclusive=True)
    m["toric_mld.mld_global.points_scanned"] = (agg["mld.points_scanned"], "count")
    calls_ms("toric_mld.is_eps_lc", self_time=False, inclusive=True)
    calls_ms("toric_mld.psi_value")
    m["toric_mld.rescan_points"] = (agg["rescan_points"], "count")
    m["toric_mld.rescan_ratio"] = (_ratio(agg["rescan_points"], agg[f"{ENUMERATOR}.points"]), "ratio")
    m["toric_mld.budget_refusals"] = (agg["budget_refusals"], "count")
    calls_ms("diophantine.dirichlet_1d", self_time=False, inclusive=True)
    ds = "diophantine.dirichlet_simultaneous"
    calls_ms(ds, self_time=False, inclusive=True)
    m[f"{ds}.denominators"] = (agg["dir.denominators"], "count")
    m[f"{ds}.satisfied"] = (agg["dir.satisfied"], "count")
    m[f"{ds}.satisfied_ratio"] = (_ratio(agg["dir.satisfied"], agg[f"{ds}.calls"]), "ratio")
    for fname in ("pow_cmp", "integer_nth_root"):
        calls_ms(f"exact_lattice.{fname}", self_time=False, inclusive=True)
    for module in PACKAGE:
        layer = module.__name__.rsplit(".", 1)[1]
        m[f"layer.{layer}.self_ms"] = (agg[f"layer.{layer}.self_ns"] * ms, "ms")
    m["trace.spans"] = (agg["spans"], "count")
    return m


def self_time_ranking(agg) -> list[tuple[str, float]]:
    """Traced functions by total self time, largest first, in ms."""
    rows = [(k[: -len(".self_ns")], v * 1e-6) for k, v in agg.items()
            if k.endswith(".self_ns") and not k.startswith(("layer.", "con."))]
    return sorted(rows, key=lambda r: -r[1])
