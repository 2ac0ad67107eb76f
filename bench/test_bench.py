"""Self-checks of the benchmark: every named metric prints with its unit in
tiny runs, and the correctness gate rejects tampered answers."""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import refclock  # noqa: E402
import run  # noqa: E402

run.import_package()

import gate  # noqa: E402
from workloads import SWEEPS, Query, load_pool, load_sweep_reference, query_argv  # noqa: E402

from wblowup.harness import cli_dispatch  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def dispatch(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli_dispatch(argv)
    return rc, out.getvalue()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, capsys):
    rc = run.main(["--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1])
    if not trace:
        assert any(line.startswith("fail_frac ") for line in lines)


def test_gate_rejects_tampered_certificate_point():
    rc, out = dispatch(["witness", "--weights", "26,27", "--eps", "1/2"])
    cert = json.loads(out)
    weights, eps = (26, 27), Fraction(1, 2)
    gate.verify_certificate(weights, eps, cert["point"], cert["psi"])
    moved = [cert["point"][0] + 1000, cert["point"][1]]
    with pytest.raises(gate.WrongAnswer):
        gate.verify_certificate(weights, eps, moved, cert["psi"])
    with pytest.raises(gate.WrongAnswer):
        gate.verify_certificate(weights, eps, cert["point"], "1/3")


def _sweep_call(workload, lo, hi):
    rc, out = dispatch(workload.argv(lo, hi))
    return rc, out.splitlines()


def test_gate_rejects_tampered_sweep_rows():
    workload = SWEEPS["sweep-n3"]
    reference = load_sweep_reference("sweep-n3")
    lo, hi = workload.blocks()[0]
    rc, lines = _sweep_call(workload, lo, hi)
    assert gate.check_sweep_call(workload, lo, hi, rc, "\n".join(lines), reference)[0] > 0
    cert = next(i for i, line in enumerate(lines) if ",certificate," in line)
    lc = next(i for i, line in enumerate(lines) if ",eps-lc," in line)

    def tampered(i, old, new):
        copy = list(lines)
        copy[i] = copy[i].replace(old, new, 1)
        return "\n".join(copy)

    point = lines[cert].split(",")[5]
    bad_point = ";".join(str(int(x) * 7) for x in point.split(";"))
    for text in (
        tampered(cert, point, bad_point),
        tampered(cert, ",certificate,", ",eps-lc,"),
        tampered(lc, ",eps-lc,", ",certificate,"),
    ):
        with pytest.raises(gate.WrongAnswer):
            gate.check_sweep_call(workload, lo, hi, rc, text, reference)


def test_gate_rejects_flipped_query_answers():
    pool = load_pool("mld-large")
    check = pool["check"][0]
    query = Query("check", query_argv("check", check["weights"]), check)
    rc, out = dispatch(list(query.argv))
    assert gate.check_query(query, rc, out) == gate.DECIDED
    flipped = json.dumps({**json.loads(out), "verdict": "not-eps-lc"})
    with pytest.raises(gate.WrongAnswer):
        gate.check_query(query, 1, flipped)
    entry = pool["mld-n3"][0]
    query = Query("mld-n3", query_argv("mld-n3", entry["weights"]), entry)
    rc, out = dispatch(list(query.argv))
    assert gate.check_query(query, rc, out) == gate.DECIDED
    wrong = json.dumps({**json.loads(out), "mld": str(Fraction(entry["mld"]) + 1)})
    with pytest.raises(gate.WrongAnswer):
        gate.check_query(query, rc, wrong)


def test_refuses_to_run_without_package_source(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", BENCH / "no-such-src")
    rc = run.main(["--workload", "sweep-n2", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert rc != 0
    assert "metrics" not in capsys.readouterr().out


def test_refclock_scales_by_the_kernel_times_around_an_op():
    clock = refclock.RefClock()
    nominal = refclock.KERNEL_NOMINAL_NS
    clock.kernel_ns = [nominal, 3 * nominal]
    assert clock.scale(0) == pytest.approx(0.5)  # the host ran at half speed around it
    assert clock.scale(1) == pytest.approx(1 / 3)  # no later timing: the last one alone
    clock.spent(refclock.CADENCE_NS - 1)
    assert len(clock.kernel_ns) == 2
    clock.spent(1)
    assert len(clock.kernel_ns) == 3 and clock.since_ns == 0
