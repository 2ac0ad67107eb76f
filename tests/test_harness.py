import csv
import hashlib
import io
import itertools
import json
import math
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
import threading
import time
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from wblowup import harness, oracle, witness
from wblowup.exact_lattice import DEFAULT_ENUMERATION_CAP
from wblowup.harness import (
    SweepSpec,
    _json_text,
    cli_dispatch,
    iter_weight_tuples,
    load_config,
    parse_weights,
    run_sweep,
)
from wblowup.toric_mld import WeightVector


def run_cli(capsys, *argv):
    code = cli_dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# single-shot subcommands


def test_mld_subcommand(capsys):
    code, out, _ = run_cli(capsys, "mld", "--weights", "2,3")
    assert code == 0
    payload = json.loads(out)
    assert payload["mld"] == "2/3"
    assert payload["achieved_at"] == [1, 1]


def test_check_subcommand_polarity(capsys):
    code, out, _ = run_cli(capsys, "check", "--weights", "1,1000000", "--eps", "1")
    assert code == 0
    assert json.loads(out)["verdict"] == "eps-lc"

    code, out, _ = run_cli(capsys, "check", "--weights", "2,3", "--eps", "3/4")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "not-eps-lc"
    assert payload["refuting_point"] == [1, 1]


def test_witness_subcommand(capsys):
    code, out, _ = run_cli(capsys, "witness", "--weights", "26,27", "--eps", "1/2")
    assert code == 0
    payload = json.loads(out)
    assert payload["point"] == [1, 1]
    assert payload["method"] == "n2-case1"

    code, out, _ = run_cli(capsys, "witness", "--weights", "1,12", "--eps", "1")
    assert code == 1
    assert json.loads(out)["verdict"] == "eps-lc"


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "mld", "--weights", "2,x")
    assert code == 2
    code, _, err = run_cli(capsys, "check", "--weights", "3,2", "--eps", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "check", "--weights", "2,3", "--eps", "5/4")
    assert code == 2
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2
    # --theta belongs to witness and sweep only
    code, out, _ = run_cli(capsys, "mld", "--weights", "2,3", "--theta", "7")
    assert (code, out) == (2, "")
    code, out, _ = run_cli(capsys, "check", "--weights", "2,3", "--eps", "1", "--theta", "1/100")
    assert (code, out) == (2, "")


@pytest.mark.parametrize(
    "argv",
    [
        ("mld", "--weights", "2,3"),
        ("check", "--weights", "1,12", "--eps", "1"),
        ("witness", "--weights", "1,12", "--eps", "1"),
        ("sweep", "--n", "2", "--eps", "1/2", "--a1-min", "2", "--a1-max", "4", "--tail-cap", "3"),
    ],
    ids=lambda argv: argv[0],
)
@pytest.mark.parametrize("cap", ["0", "-4"])
def test_cap_below_one_is_usage_error(capsys, argv, cap):
    # a nonpositive cap is a usage error on every subcommand, never a verdict
    code, out, err = run_cli(capsys, *argv, "--cap", cap)
    assert code == 2
    assert out == ""
    assert "enumeration cap must be an integer >= 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        # n = 2 runs no theta construction
        ("witness", "--weights", "26,27", "--eps", "1/2", "--theta", "5"),
        ("witness", "--weights", "26,27", "--eps", "1/2", "--theta", "0"),
        ("witness", "--weights", "5,6,61", "--eps", "1", "--theta", "5"),
        # the enumeration route runs no construction at all
        ("sweep", "--n", "3", "--eps", "1/2", "--a1-min", "2", "--a1-max", "3", "--tail-cap", "1,1",
         "--theta", "5", "--method", "enumeration", "--no-timing"),
    ],
    ids=["witness-n2-5", "witness-n2-0", "witness-n3-5", "sweep-enumeration-5"],
)
def test_out_of_range_theta_is_usage_error(capsys, argv):
    # theta must lie in (0, 1/(2 n^2)) whatever the dimension and route;
    # a sweep refuses it before writing its CSV header
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "theta must lie in" in err


def test_budget_exhaustion_exits_3(capsys):
    code, _, err = run_cli(capsys, "mld", "--weights", "1000003,1000033,1000037,1000039", "--cap", "100")
    assert code == 3
    assert "budget" in err.lower()


def test_witness_inconclusive_exits_3(capsys):
    # no construction applies and the eps-lc scan visits 30 prefixes
    argv = ("witness", "--weights", "2,57,58", "--eps", "1")
    code, out, _ = run_cli(capsys, *argv, "--cap", "29")
    assert code == 3
    assert json.loads(out)["verdict"] == "inconclusive"
    code, out, _ = run_cli(capsys, *argv, "--cap", "30")
    assert code == 1
    assert json.loads(out)["verdict"] == "eps-lc"


@pytest.mark.parametrize(
    "argv,key,value",
    [
        # a budget estimate refused these, though no scan comes near it
        (("check", "--weights", "1,20000000", "--eps", "1"), "verdict", "eps-lc"),
        (("mld", "--weights", "2,3,6000001"), "points_scanned", 500004),
        # the column scan would visit about 10^9 prefixes; n = 3 reads 13
        # lattice slices, and psi(1, 1, 1) = 27/1000000021
        (("mld", "--weights", "1000000007,1000000009,1000000021"), "mld", "27/1000000021"),
    ],
    ids=["check-1,2e7", "mld-2,3,6000001", "mld-1e9-triple"],
)
def test_cheap_scans_answer_under_the_default_budget(capsys, argv, key, value):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)[key] == value


def test_refuter_in_a_range_longer_than_the_budget_is_found(capsys):
    # the first level of the plane scan holds 10^8 - 1 values of x_1, more
    # than the default budget of 10^7: the range is clipped at the budget
    # rather than refused before its first column is read
    code, out, _ = run_cli(capsys, "check", "--weights", "100000007,100000008", "--eps", "1")
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "not-eps-lc"
    assert payload["refuting_point"] == [1, 1]
    assert payload["refuting_psi"] == "1/50000004"


def test_budget_comes_from_cap_or_the_config_file_not_the_environment(tmp_path, capsys, monkeypatch):
    # 200,201,203,207 reads more than 50 prefixes and fewer than the default budget
    monkeypatch.setenv("WBLOWUP_BUDGET", "50")
    argv = ("mld", "--weights", "200,201,203,207")
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv, "--cap", "50")[0] == 3
    cfg = tmp_path / "wblowup.cfg"
    cfg.write_text("cap = 50\n")
    assert run_cli(capsys, "--config", str(cfg), *argv)[0] == 3


@pytest.mark.parametrize("raw", ["junk", "0", "-3"], ids=["junk", "zero", "negative"])
@pytest.mark.parametrize(
    "argv",
    [
        ("mld", "--weights", "2,3"),
        ("check", "--weights", "1,12", "--eps", "1"),
        ("witness", "--weights", "26,27", "--eps", "1/2"),
        ("sweep", "--a1-min", "2", "--a1-max", "4", "--tail-cap", "3", "--no-timing"),
    ],
    ids=lambda argv: argv[0],
)
def test_every_command_answers_alike_whatever_budget_variable_is_set(capsys, monkeypatch, argv, raw):
    # a budget variable the CLI once read is no setting: no value of it, however
    # malformed, changes an answer or an exit code
    monkeypatch.delenv("WBLOWUP_BUDGET", raising=False)
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    monkeypatch.setenv("WBLOWUP_BUDGET", raw)
    assert run_cli(capsys, *argv) == plain


# ---------------------------------------------------------------------------
# sweep


def make_spec(**overrides):
    base = dict(
        n=2,
        eps=Fraction(1),
        a1_min=1,
        a1_max=9,
        tail_caps=(8,),
        theta=None,
        workers=1,
        enumeration_cap=10**7,
        include_timing=False,
    )
    base.update(overrides)
    return SweepSpec(**base)


def replaced(spec, **changes):
    # what dataclasses.replace did: a new spec through the constructor, which checks it
    return SweepSpec(**{name: getattr(spec, name) for name in SweepSpec._fields} | changes)


def test_sweep_draws_tuples_only_as_rows_are_written(monkeypatch):
    # with one worker, rows are written a chunk at a time, and at every write
    # no more tuples are drawn than the data rows written through it
    drawn = []
    real = harness.iter_weight_tuples

    def counting(spec):
        for entries in real(spec):
            drawn.append(entries)
            yield entries

    writes = []  # (tuples drawn, data rows written through this write)
    written = -1  # the header is no data row

    def write(text):
        nonlocal written
        written += text.count("\n")
        writes.append((len(drawn), written))

    monkeypatch.setattr(harness, "iter_weight_tuples", counting)
    run_sweep(make_spec(a1_min=2, a1_max=12, tail_caps=(harness._CHUNK,)), types.SimpleNamespace(write=write))
    data_writes = writes[1:]
    assert len(drawn) > 2 * harness._CHUNK and len(data_writes) >= 3
    assert written == len(drawn)
    assert all(count <= rows for count, rows in data_writes)


def test_iter_weight_tuples_sorted_coprime():
    spec = make_spec(a1_min=2, a1_max=4, tail_caps=(3,))
    tuples = list(iter_weight_tuples(spec))
    assert tuples == sorted(tuples)
    assert all(t[0] <= t[1] <= t[0] + 3 for t in tuples)
    assert all(math.gcd(*t) == 1 for t in tuples)
    assert (2, 4) not in tuples
    assert (2, 3) in tuples and (4, 5) in tuples


@pytest.mark.parametrize("n,a1_min,a1_max,caps", [
    (2, 1, 9, (8,)), (2, 5, 7, (0,)), (3, 1, 7, (6, 6)), (3, 2, 6, (0, 4)), (3, 2, 6, (5, 0)), (3, 3, 5, (0, 0)),
    (4, 1, 5, (4, 3, 5)), (4, 2, 4, (3, 0, 2)), (4, 1, 4, (0, 0, 3)),
])
def test_iter_weight_tuples_equals_a_filter_over_the_product(n, a1_min, a1_max, caps):
    spec = make_spec(n=n, a1_min=a1_min, a1_max=a1_max, tail_caps=caps)
    top = a1_max + max(caps)
    expected = [
        t for t in itertools.product(range(a1_min, top + 1), repeat=n)
        if a1_min <= t[0] <= a1_max and list(t) == sorted(t) and math.gcd(*t) == 1
        and all(x <= t[0] + c for x, c in zip(t[1:], caps))
    ]
    tuples = list(iter_weight_tuples(spec))
    assert tuples == expected and tuples == sorted(set(tuples))
    # _sweep_task wraps each tuple as a WeightVector without its check, so
    # each must pass that check and give the value the wrap builds
    for t in tuples:
        assert WeightVector(t) == tuple.__new__(WeightVector, (t,))


def test_missing_weights_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "mld")
    assert code == 2
    assert "weights" in err


def test_sweep_rows_and_frontier(tmp_path):
    import io

    buf = io.StringIO()
    report = run_sweep(make_spec(), buf)
    lines = buf.getvalue().splitlines()
    header, rows = lines[0], lines[1:]
    assert header.startswith("n,weights,eps,verdict")
    byw = {row.split(",")[1]: row.split(",")[3] for row in rows}
    assert byw["1;1"] == "eps-lc"
    assert byw["1;7"] == "eps-lc"
    assert byw["2;3"] == "certificate"
    # every pair with a1 >= 2 carries the certificate (1, 1) at eps = 1
    assert report["empirical_m"] == 2
    assert report["eps"] == "1"
    assert any(item["fraction"] == "0" for item in report["per_a1"])


def test_sweep_deterministic_and_worker_independent(tmp_path):
    out1 = tmp_path / "one.csv"
    out2 = tmp_path / "two.csv"
    spec1 = make_spec(a1_min=20, a1_max=30, tail_caps=(20,), eps=Fraction(1, 2))
    spec2 = make_spec(
        a1_min=20, a1_max=30, tail_caps=(20,), eps=Fraction(1, 2), workers=2
    )
    with open(out1, "w") as h:
        rep1 = run_sweep(spec1, h)
    with open(out2, "w") as h:
        rep2 = run_sweep(spec2, h)
    assert out1.read_bytes() == out2.read_bytes()
    assert rep1 == rep2


SWEEP_N3 = ("sweep", "--n", "3", "--eps", "1/2", "--a1-min", "2", "--a1-max", "8", "--tail-cap", "8,8", "--no-timing")


@pytest.fixture
def pools_built(monkeypatch):
    """Worker counts of the pools started during the test, which starts with
    no kept pool and leaves none behind."""
    harness._drop_pool()
    built = []
    real = multiprocessing.Pool

    def counting(processes):
        built.append(processes)
        return real(processes)

    monkeypatch.setattr(multiprocessing, "Pool", counting)
    yield built
    harness._drop_pool()


def test_pooled_sweeps_share_one_pool(capsys, pools_built):
    formats = ((), ("--format", "json"))
    expected = {fmt: run_cli(capsys, *SWEEP_N3, *fmt) for fmt in formats}
    assert pools_built == []
    for workers in ("2", "2", "3", "2"):
        for fmt in formats:
            assert run_cli(capsys, *SWEEP_N3, *fmt, "--workers", workers) == expected[fmt]
    # back-to-back sweeps on 2 workers share one pool; a new count replaces it
    assert pools_built == [2, 3, 2]
    assert len(multiprocessing.active_children()) == 2


class _ClosedPipe:
    """A stream that raises once `lines` lines are written, as a closed pipe does."""

    def __init__(self, lines, error):
        self.lines, self.error = lines, error

    def write(self, text):
        if self.lines <= 0:
            raise self.error
        self.lines -= text.count("\n")


@pytest.mark.parametrize("error", [BrokenPipeError(32, "Broken pipe"), KeyboardInterrupt()],
                         ids=["broken-pipe", "interrupt"])
def test_abandoned_sweep_drops_the_kept_pool(pools_built, error):
    spec = make_spec(n=3, eps=Fraction(1, 2), a1_min=2, a1_max=16, tail_caps=(16, 16), workers=2)
    assert len(list(iter_weight_tuples(spec))) > 2 * harness._CHUNK
    expected = io.StringIO()
    run_sweep(replaced(spec, workers=1), expected)
    # ten lines in, the pool has tasks queued and running
    with pytest.raises(type(error)):
        run_sweep(spec, _ClosedPipe(10, error))
    assert pools_built == [2]
    assert multiprocessing.active_children() == []
    out = io.StringIO()
    run_sweep(spec, out)
    assert pools_built == [2, 2]
    assert out.getvalue() == expected.getvalue()


def _per_a1_from_csv(text):
    # (a1, certified, total) recounted from the CSV's rows
    per_a1 = {}
    for row in csv.DictReader(io.StringIO(text)):
        a1 = int(row["weights"].split(";")[0])
        certified, total = per_a1.get(a1, (0, 0))
        per_a1[a1] = (certified + (row["verdict"] == "certificate"), total + 1)
    return tuple((a1, certified, total) for a1, (certified, total) in per_a1.items())


def _exact_multiple_spec():
    # a1 = 11 alone, at the least tail cap giving it exactly 2 * _CHUNK tuples
    for cap in itertools.count(2 * harness._CHUNK):
        spec = make_spec(a1_min=11, a1_max=11, tail_caps=(cap,), eps=Fraction(1, 5))
        if len(list(iter_weight_tuples(spec))) == 2 * harness._CHUNK:
            return spec


@pytest.mark.parametrize("case", ["a1-over-three-chunks", "exact-multiple"])
def test_per_a1_counts_merge_across_chunk_boundaries(pools_built, case):
    chunk = harness._CHUNK
    if case == "exact-multiple":
        spec = _exact_multiple_spec()
    else:
        # a1 = 22 fills the first chunk and part of the second, so a1 = 23's
        # rows run on over at least three chunks
        spec = make_spec(a1_min=22, a1_max=23, tail_caps=(3 * chunk,), eps=Fraction(1, 5))
        places = [k for k, t in enumerate(iter_weight_tuples(spec)) if t[0] == 23]
        assert places[-1] // chunk - places[0] // chunk >= 2 and places[0] % chunk
    outs, reports = [], []
    for workers in (1, 2):
        out = io.StringIO()
        reports.append(run_sweep(replaced(spec, workers=workers), out))
        outs.append(out.getvalue())
    assert outs[0] == outs[1]
    assert reports[0] == reports[1]
    per_a1 = tuple((item["a1"], item["certified"], item["total"]) for item in reports[0]["per_a1"])
    assert per_a1 == _per_a1_from_csv(outs[0])
    assert any(certified != total for _, certified, total in per_a1)
    assert sum(total for _, _, total in per_a1) == len(list(iter_weight_tuples(spec)))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_sweep_row_names_its_tuple(pools_built, monkeypatch, workers):
    # pools_built has dropped the kept pool, so the workers fork with the patch
    real = witness._certify

    def failing(a, *args):
        if a.entries == (5, 7):
            raise ZeroDivisionError("boom")
        return real(a, *args)

    monkeypatch.setattr(witness, "_certify", failing)
    with pytest.raises(RuntimeError, match=re.escape("sweep row (5, 7): ZeroDivisionError('boom')")):
        run_sweep(make_spec(workers=workers), io.StringIO())


@pytest.mark.parametrize("n,theta", [(2, None), (3, Fraction(1, 100))], ids=["n2-default-theta", "n3"])
def test_a_sweep_checks_its_request_once(monkeypatch, n, theta):
    # SweepSpec checks eps and theta through certify's own check, and the
    # rows of an in-process sweep call the checked body, which checks
    # neither again
    calls = {"check_eps": 0, "_check_theta": 0}

    def counted(name):
        real = getattr(witness, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(witness, name, wrapper)

    counted("check_eps")
    counted("_check_theta")
    spec = make_spec(n=n, eps=Fraction(1, 2), a1_max=5, tail_caps=(4,) * (n - 1), theta=theta)
    report = run_sweep(spec, io.StringIO())
    assert sum(item["total"] for item in report["per_a1"]) > 10
    assert calls == {"check_eps": 1, "_check_theta": 1}


@pytest.mark.parametrize("n,eps", [(3, Fraction(1, 2)), (4, Fraction(2, 3))], ids=["n3", "n4"])
def test_a_sweep_spec_holds_its_resolved_theta(n, eps):
    # a theta left None is resolved once, by the spec's check, and the spec
    # is the one built with that theta; the sweeps hold general-theta rows,
    # so the theta reaches their hypothesis_flags
    unset = make_spec(n=n, eps=eps, a1_min=2, a1_max=6, tail_caps=(5,) * (n - 1), theta=None)
    assert unset.theta == witness.default_theta(n)
    given = replaced(unset, theta=witness.default_theta(n))
    assert unset == given
    outs = []
    for spec in (unset, given):
        out = io.StringIO()
        run_sweep(spec, out)
        outs.append(out.getvalue())
    assert outs[0] == outs[1]
    assert ",theta-ok," in outs[0]


def test_sweep_task_runs_in_a_spawned_worker():
    # a worker started by spawn (macOS) or forkserver inherits no module
    # state, so the task must bind witness itself
    spec = make_spec(n=3, eps=Fraction(1, 2), a1_min=2, a1_max=5, tail_caps=(5, 5))
    args = (spec, list(iter_weight_tuples(spec)))
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        spawned = pool.apply(harness._sweep_task, args)
    assert spawned == harness._sweep_task(*args)
    assert spawned[0].count("\n") == len(args[1])


def test_sweep_rows_are_the_lines_csv_writer_would_write():
    # the task writes each row as a plain line; csv.writer, given the cells
    # csv.reader reads back, must write the same bytes for rows of every shape
    specs = [
        make_spec(n=3, eps=Fraction(1, 2), a1_min=2, a1_max=8, tail_caps=(8, 8), theta=Fraction(1, 100)),
        make_spec(n=3, eps=Fraction(1, 2), a1_min=2, a1_max=8, tail_caps=(8, 8), method="construction"),
        make_spec(n=3, eps=Fraction(1, 2), a1_min=2, a1_max=8, tail_caps=(8, 8), enumeration_cap=3),
        make_spec(n=4, eps=Fraction(2, 3), a1_min=2, a1_max=6, tail_caps=(5, 5, 5)),
        make_spec(n=2, eps=Fraction(1, 2), a1_min=1, a1_max=30, tail_caps=(30,), include_timing=True),
    ]
    shapes = set()
    for spec in specs:
        text, _ = harness._sweep_task(spec, list(iter_weight_tuples(spec)))
        for line in text.splitlines(keepends=True):
            cells = next(csv.reader([line]))
            assert len(cells) == len(harness.CSV_COLUMNS)
            out = io.StringIO()
            csv.writer(out, lineterminator="\n").writerow(cells)
            assert out.getvalue() == line
            shapes.add(cells[3] if cells[3] != "certificate" else cells[7])
            shapes.add("timed" if cells[8] else "untimed")
    assert shapes >= {"theta-ok", "theta-violated", "", "eps-lc", "no-witness", "inconclusive", "timed"}


def test_threads_take_the_kept_pool_in_turn(pools_built):
    # each thread starts while the one before it is mid-sweep and asks for
    # another worker count: it must wait, not terminate the pool in use
    spec = make_spec(n=3, eps=Fraction(1, 2), a1_min=2, a1_max=16, tail_caps=(16, 16))
    expected = io.StringIO()
    run_sweep(spec, expected)
    outs = [io.StringIO() for _ in range(4)]
    threads = [
        threading.Thread(target=run_sweep, args=(replaced(spec, workers=2 + k % 2), out), daemon=True)
        for k, out in enumerate(outs)
    ]
    for thread in threads:
        thread.start()
        time.sleep(0.05)
    deadline = time.monotonic() + 60
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.monotonic()))
        assert not thread.is_alive()
    assert all(out.getvalue() == expected.getvalue() for out in outs)
    assert len(multiprocessing.active_children()) in (2, 3)


def test_kept_pool_ends_with_the_interpreter():
    script = (
        "import multiprocessing\n"
        "from wblowup.harness import cli_dispatch\n"
        f"for _ in range(2): assert cli_dispatch({list(SWEEP_N3) + ['--workers', '2']!r}) == 0\n"
        "print(' '.join(str(p.pid) for p in multiprocessing.active_children()))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    # a pool left running at exit warns "unclosed running multiprocessing pool"
    proc = subprocess.run([sys.executable, "-W", "always::ResourceWarning", "-c", script],
                          capture_output=True, text=True, env=env, timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stdout.splitlines()[-1].split()]
    assert len(pids) == 2
    # stderr holds the two frontier documents and nothing else
    docs, rest = [], proc.stderr.strip()
    while rest:
        doc, end = json.JSONDecoder().raw_decode(rest)
        docs.append(doc)
        rest = rest[end:].lstrip()
    assert [doc["eps"] for doc in docs] == ["1/2", "1/2"]
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_sweep_all_certified_above_threshold(tmp_path):
    import io

    buf = io.StringIO()
    report = run_sweep(
        make_spec(a1_min=26, a1_max=32, tail_caps=(25,), eps=Fraction(1, 2)), buf
    )
    assert report["empirical_m"] == 26
    assert all(item["certified"] == item["total"] for item in report["per_a1"])


def test_sweep_n3_tuples_and_rows():
    import io

    spec = make_spec(n=3, a1_min=2, a1_max=4, tail_caps=(3, 5), eps=Fraction(1, 2))
    tuples = list(iter_weight_tuples(spec))
    assert all(len(t) == 3 and t[0] <= t[1] <= t[2] for t in tuples)
    assert all(t[1] <= t[0] + 3 and t[2] <= t[0] + 5 for t in tuples)
    buf = io.StringIO()
    run_sweep(spec, buf)
    rows = buf.getvalue().splitlines()[1:]
    assert len(rows) == len(tuples)
    assert all(row.split(",")[3] in ("certificate", "eps-lc") for row in rows)


def test_sweep_method_selector():
    import io

    # construction-only at eps = 1/2: pairs below the plane threshold may
    # miss while the dispatcher still certifies them by scanning
    base = dict(a1_min=2, a1_max=9, tail_caps=(8,), eps=Fraction(1, 2))
    outputs = {}
    for method in ("auto", "construction", "enumeration"):
        buf = io.StringIO()
        run_sweep(make_spec(method=method, **base), buf)
        rows = [line.split(",") for line in buf.getvalue().splitlines()[1:]]
        outputs[method] = {tuple(r[1].split(";")): (r[3], r[4]) for r in rows}
    for key, (verdict, _) in outputs["auto"].items():
        con_verdict, con_method = outputs["construction"][key]
        enu_verdict, enu_method = outputs["enumeration"][key]
        assert con_verdict in ("certificate", "no-witness")
        assert enu_verdict in ("certificate", "eps-lc")
        assert enu_method in ("enumeration", "")
        # the routes agree on refutability; construction alone may miss
        assert (verdict == "certificate") == (enu_verdict == "certificate")
        if con_verdict == "certificate":
            assert verdict == "certificate"
    assert any(v == "no-witness" for v, _ in outputs["construction"].values())


def test_sweep_rejects_unknown_method():
    with pytest.raises(ValueError):
        make_spec(method="telepathy")


@pytest.mark.parametrize(
    "overrides,message",
    [
        (dict(n=1, tail_caps=()), "sweep dimension must be an integer >= 2"),
        (dict(eps=Fraction(0)), "eps must lie in"),
        (dict(eps=Fraction(3, 2)), "eps must lie in"),
        (dict(eps=0.5), "float"),
        (dict(a1_min=0), "a1_min must be an integer >= 1"),
        (dict(a1_min=5, a1_max=4), "a1_max must be an integer >= 5"),
        (dict(tail_caps=(8, 8)), "need 1 tail caps, got 2"),
        (dict(tail_caps=(-1,)), "tail cap must be an integer >= 0"),
        (dict(workers=0), "worker count must be an integer >= 1"),
    ],
    ids=["n-1", "eps-0", "eps-3/2", "eps-float", "a1-min-0", "a1-max-below-min", "caps-count", "caps-negative", "workers-0"],
)
def test_sweep_spec_rejects_bad_parameters(overrides, message):
    with pytest.raises(ValueError, match=message):
        make_spec(**overrides)


def test_sweep_cli_no_timing_blank_column(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--n", "2",
        "--eps", "1",
        "--a1-min", "2",
        "--a1-max", "3",
        "--tail-cap", "2",
        "--no-timing",
    )
    assert code == 0
    rows = [line for line in out.splitlines() if line and line[0].isdigit()]
    assert rows and all(row.endswith(",") for row in rows)


def test_sweep_cli_json_format(capsys):
    code, out, _ = run_cli(
        capsys,
        "sweep",
        "--n", "2",
        "--eps", "1/2",
        "--a1-min", "26",
        "--a1-max", "27",
        "--tail-cap", "4",
        "--format", "json",
        "--no-timing",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["frontier"]["empirical_m"] == 26
    assert all(row["verdict"] == "certificate" for row in payload["rows"])


# sweeps whose rows take every shape the CSV can hold, each with the
# (verdict, hypothesis_flags) of one row it must hold
JSON_SWEEPS = {
    "eps-lc": (("eps-lc", ""), ("sweep", "--n", "3", "--eps", "1/2", "--a1-min", "2", "--a1-max", "5",
                                "--tail-cap", "4,5", "--no-timing")),
    "theta-ok": (("certificate", "theta-ok"), (*SWEEP_N3, "--theta", "1/100")),
    "no-witness": (("no-witness", ""), (*SWEEP_N3, "--method", "construction")),
    "inconclusive": (("inconclusive", ""), (*SWEEP_N3, "--cap", "3")),
    "n-4-theta-violated": (("certificate", "theta-violated"), ("sweep", "--n", "4", "--eps", "2/3", "--a1-min", "2",
                                                               "--a1-max", "6", "--tail-cap", "5", "--no-timing")),
}


@pytest.mark.parametrize("shape,argv", JSON_SWEEPS.values(), ids=JSON_SWEEPS.keys())
def test_sweep_json_rows_are_the_csv_rows(capsys, shape, argv):
    code, csv_out, csv_err = run_cli(capsys, *argv)
    assert code == 0
    code, json_out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    assert payload["rows"] == list(csv.DictReader(io.StringIO(csv_out)))
    assert payload["frontier"] == json.loads(csv_err)
    assert shape in {(row["verdict"], row["hypothesis_flags"]) for row in payload["rows"]}


def test_timed_sweep_json_rows_hold_the_csv_columns(capsys):
    argv = ("sweep", "--n", "2", "--eps", "1/2", "--a1-min", "1", "--a1-max", "30", "--tail-cap", "30", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows and all(list(row) == harness.CSV_COLUMNS and row["wall_micros"].isdigit() for row in rows)
    code, out, _ = run_cli(capsys, *argv, "--no-timing")
    assert code == 0
    assert [{**row, "wall_micros": ""} for row in rows] == json.loads(out)["rows"]


# ---------------------------------------------------------------------------
# config file


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "wblowup.cfg"
    cfg.write_text("eps = 3/4\ncap = 100000  # comment\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "check", "--weights", "2,3")
    assert code == 1  # eps from config: 2/3 < 3/4
    code, out, _ = run_cli(
        capsys, "--config", str(cfg), "check", "--weights", "2,3", "--eps", "1/2"
    )
    assert code == 0  # CLI flag wins over config


def test_load_config_parses_and_rejects(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# header\n a1-min = 3 \nworkers=2\n")
    assert load_config(str(cfg)) == {"a1_min": "3", "workers": "2"}
    # a file saved as UTF-8 with a byte-order mark reads its first key the same
    cfg.write_text("\ufeffa1-min = 3\nworkers=2\n", encoding="utf-8")
    assert load_config(str(cfg)) == {"a1_min": "3", "workers": "2"}
    cfg.write_text("nonsense line\n")
    with pytest.raises(ValueError):
        load_config(str(cfg))


def test_config_hash_inside_a_value_is_kept(tmp_path, capsys):
    # '#' starts a comment only at the start of a line or after whitespace
    target = tmp_path / "a#b.json"
    cfg = tmp_path / "wblowup.cfg"
    cfg.write_text(f"# header\nout = {target}  # the report\n")
    assert run_cli(capsys, "--config", str(cfg), "mld", "--weights", "2,3") == (0, "", "")
    assert target.read_text() == run_cli(capsys, "mld", "--weights", "2,3")[1]
    assert load_config(str(cfg)) == {"out": str(target)}


def test_config_keys_no_flag_reads_are_usage_errors(tmp_path, capsys):
    # mld takes no --theta and no --eps, so the file may not set them either
    cfg = tmp_path / "wblowup.cfg"
    cfg.write_text("theta = 7\nbogus = 1\n")
    code, out, err = run_cli(capsys, "--config", str(cfg), "mld", "--weights", "2,3")
    assert code == 2 and out == ""
    assert "bogus" in err and "theta" in err
    cfg.write_text("eps = 1/2\n")
    code, _, err = run_cli(capsys, "--config", str(cfg), "mld", "--weights", "2,3")
    assert code == 2 and "eps" in err
    code, _, _ = run_cli(capsys, "--config", str(cfg), "check", "--weights", "2,3")
    assert code == 0
    # keys are read under their flag's destination, spelt either way
    cfg.write_text("max-entry = 3\n")
    assert run_cli(capsys, "--config", str(cfg), "selftest")[0] == 0
    cfg.write_text("config = other.cfg\n")
    assert run_cli(capsys, "--config", str(cfg), "selftest")[0] == 2


@pytest.mark.parametrize(
    "text,argv,code",
    [
        # argparse alone would read --weight=2,3 as --weights and --a1-mi=3 as --a1-min
        ("weight = 2,3\n", ("mld",), 2),
        ("a1-mi = 3\n", ("sweep",), 2),
        ("a1_mi = 3\n", ("sweep",), 2),
        ("a1-min = 3\n", ("sweep",), 0),
        ("a1_min = 3\n", ("sweep",), 0),
    ],
    ids=["weight", "a1-mi", "a1_mi", "a1-min", "a1_min"],
)
def test_config_keys_must_name_a_flag_exactly(tmp_path, capsys, text, argv, code):
    cfg = tmp_path / "wblowup.cfg"
    cfg.write_text(text)
    if argv == ("sweep",):
        argv += ("--a1-max", "4", "--tail-cap", "2", "--no-timing")
    got, out, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert got == code
    if code == 2:
        assert out == ""
        assert f"{cfg}: not a valid {argv[0]} config file" in err
    else:
        assert {row.split(",")[1].split(";")[0] for row in out.splitlines()[1:]} == {"3", "4"}


def test_config_out_is_read_and_unread_out_flags_are_refused(tmp_path, capsys):
    target = tmp_path / "mld.json"
    cfg = tmp_path / "wblowup.cfg"
    cfg.write_text(f"out = {target}\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "mld", "--weights", "2,3")
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["mld"] == "2/3"
    # verify-example and selftest print a report and write no file
    for command in ("verify-example", "selftest"):
        assert run_cli(capsys, "--config", str(cfg), command)[0] == 2
        assert run_cli(capsys, command, "--out", str(target))[0] == 2


@pytest.mark.parametrize(
    "text,code,message",
    [
        ("no_timing = yes\n", 0, None),
        ("no-timing = off\n", 0, None),
        ("no_timing = yes\nworkers = 2\n", 0, None),
        ("no_timing = maybe\n", 2, "not a boolean: 'maybe'"),
        ("format = xml\n", 2, "invalid choice: 'xml'"),
        ("workers = two\n", 2, "invalid int value: 'two'"),
        ("eps = 0.5\n", 2, "invalid parse_rational value: '0.5'"),
        # read even though the command line's --tail-cap wins
        ("tail_cap = x\n", 2, "argument --tail-cap: invalid literal for int()"),
    ],
    ids=["no-timing-yes", "no-timing-off", "no-timing-yes-workers-2", "no-timing-maybe", "format-xml", "workers-two",
         "eps-float", "tail-cap-x"],
)
def test_config_values_are_checked_like_flags(tmp_path, capsys, text, code, message):
    cfg = tmp_path / "wblowup.cfg"
    cfg.write_text(text)
    argv = ("sweep", "--eps", "1", "--a1-min", "2", "--a1-max", "3", "--tail-cap", "2")
    got, out, err = run_cli(capsys, "--config", str(cfg), *argv)
    assert got == code
    if message is not None:
        assert out == ""
        assert message in err and str(cfg) in err
        return
    rows = [line for line in out.splitlines() if line[:1].isdigit()]
    assert rows and all(row.endswith(",") == ("yes" in text) for row in rows)
    if "yes" in text:  # the same CSV as the flag gives, on however many workers the file asks for
        assert out == run_cli(capsys, *argv, "--no-timing")[1]
    # a flag on the command line wins over the file, a bare one meaning yes
    for flag, blank in (("--no-timing", True), ("--no-timing=yes", True), ("--no-timing=no", False)):
        out = run_cli(capsys, "--config", str(cfg), *argv, flag)[1]
        rows = [line for line in out.splitlines() if line[:1].isdigit()]
        assert rows and all(row.endswith(",") == blank for row in rows)
    harness._drop_pool()  # a file's workers = 2 leaves no kept pool behind


SWEEP_23 = ("sweep", "--eps", "1", "--a1-min", "2", "--a1-max", "3", "--tail-cap", "2")


@pytest.mark.parametrize(
    "text,argv,message",
    [
        ("cap = 0\n", SWEEP_23, "enumeration cap must be an integer >= 1, got 0"),
        ("workers = 0\n", SWEEP_23, "worker count must be an integer >= 1, got 0"),
        ("weights = 2,4\n", ("mld",), "weights must be coprime: (2, 4)"),
    ],
    ids=["cap-0", "workers-0", "weights-2,4"],
)
def test_a_config_value_failing_its_check_names_the_file(tmp_path, capsys, text, argv, message):
    cfg = tmp_path / "c1.cfg"
    cfg.write_text(text)
    key = text.split(" =")[0]
    assert run_cli(capsys, "--config", str(cfg), *argv) == (2, "", f"error: {message} (from {cfg}: {key})\n")


def test_a_config_value_a_flag_overrides_is_not_named(tmp_path, capsys):
    cfg = tmp_path / "c1.cfg"
    cfg.write_text("cap = 0\n")
    assert run_cli(capsys, "--config", str(cfg), "mld", "--weights", "2,3", "--cap", "5") == (0, MLD_23, "")
    # the file supplied nothing the run used, and a flag's own bad value reads as without a file
    flag_only = run_cli(capsys, "mld", "--weights", "2,4")
    assert flag_only == (2, "", "error: weights must be coprime: (2, 4)\n")
    assert run_cli(capsys, "--config", str(cfg), "mld", "--weights", "2,4", "--cap", "5") == flag_only
    cfg.write_text("# nothing set\n")
    assert run_cli(capsys, "--config", str(cfg), "mld", "--weights", "2,4") == flag_only


def test_missing_config_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "--config", "/nonexistent.cfg", "mld", "--weights", "2,3")
    assert code == 2


# ---------------------------------------------------------------------------
# flag reading

# Exit code, stdout and a stderr fragment of each argv, recorded from the
# argparse-based reader that the flag table replaced. CFG stands for a config
# file holding `eps = 3/4`; stdout's wall_micros cells are read as T.
MLD_23 = json.dumps({"weights": [2, 3], "mld": "2/3", "achieved_at": [1, 1], "cone": 2, "points_scanned": 5,
                     "classification": "klt-with-mld"}, indent=2) + "\n"
CHECK_34 = json.dumps({"weights": [2, 3], "eps": "3/4", "verdict": "not-eps-lc", "refuting_point": [1, 1],
                       "refuting_psi": "2/3"}, indent=2) + "\n"
CHECK_12 = json.dumps({"weights": [2, 3], "eps": "1/2", "verdict": "eps-lc"}, indent=2) + "\n"
SWEEP_BLANK = (
    "n,weights,eps,verdict,method,point,psi,hypothesis_flags,wall_micros\n"
    "2,2;3,1,certificate,n2-case1,1;1,2/3,,\n"
    "2,3;4,1,certificate,n2-case1,1;1,1/2,,\n"
    "2,3;5,1,certificate,n2-case2,1;2,2/3,,\n"
)
SWEEP_TIMED = SWEEP_BLANK.replace(",,\n", ",,T\n")
SWEEP_ARGS = ("--a1-min", "2", "--a1-max", "3", "--tail-cap", "2")
FRONTIER = '"empirical_m": 2'
PARITY = [
    # --flag value, --flag=value, unique and ambiguous prefixes, a repeated flag
    (("mld", "--weights", "2,3"), 0, MLD_23, ""),
    (("mld", "--weights=2,3"), 0, MLD_23, ""),
    (("mld", "--weight", "2,3"), 0, MLD_23, ""),
    (("mld", "--w=2,3"), 0, MLD_23, ""),
    (("mld", "--weights", "2,4", "--weights", "2,3"), 0, MLD_23, ""),
    (("check", "--weights", "2,3", "--eps", "1/2", "--eps=3/4"), 1, CHECK_34, ""),
    (("sweep", "--a1-mi", "2", "--a1-max", "3", "--tail-cap", "2", "--no-timing"), 0, SWEEP_BLANK, FRONTIER),
    (("sweep", "--a1-m", "3"), 2, "", "ambiguous option: --a1-m could match --a1-min, --a1-max"),
    # --no-timing bare before a flag and last, with a value, and as a prefix
    (("sweep", "--no-timing", *SWEEP_ARGS), 0, SWEEP_BLANK, FRONTIER),
    (("sweep", *SWEEP_ARGS, "--no-timing"), 0, SWEEP_BLANK, FRONTIER),
    (("sweep", *SWEEP_ARGS, "--no-timing", "no"), 0, SWEEP_TIMED, FRONTIER),
    (("sweep", *SWEEP_ARGS, "--no-timing=off"), 0, SWEEP_TIMED, FRONTIER),
    (("sweep", *SWEEP_ARGS, "--no-timing", "yes"), 0, SWEEP_BLANK, FRONTIER),
    (("sweep", *SWEEP_ARGS, "--no", "--n", "2"), 0, SWEEP_BLANK, FRONTIER),
    (("sweep", *SWEEP_ARGS, "--no-timing", "maybe"), 2, "", "argument --no-timing: not a boolean: 'maybe'"),
    (("sweep", *SWEEP_ARGS, "--no-timing", "--format", "xml"), 2, "", "argument --format: invalid choice: 'xml'"),
    (("sweep", *SWEEP_ARGS, "--workers", "two"), 2, "", "argument --workers: invalid int value: 'two'"),
    # --config, before the command only
    (("--config", "CFG", "check", "--weights", "2,3"), 1, CHECK_34, ""),
    (("--config=CFG", "check", "--weights", "2,3"), 1, CHECK_34, ""),
    (("--conf", "CFG", "check", "--weights", "2,3"), 1, CHECK_34, ""),
    (("--config", "CFG", "check", "--weights", "2,3", "--eps", "1/2"), 0, CHECK_12, ""),
    (("check", "--weights", "2,3", "--config", "CFG"), 2, "", "unrecognized arguments: --config CFG"),
    # a missing value, a stray token, another command's flag and other usage errors
    (("mld", "--weights"), 2, "", "argument --weights: expected one argument"),
    (("mld", "2,3"), 2, "", "unrecognized arguments: 2,3"),
    (("mld", "--weights", "2,3", "--eps", "1"), 2, "", "unrecognized arguments: --eps 1"),
    (("mld", "--weights", "2,3", "--bogus"), 2, "", "unrecognized arguments: --bogus"),
    (("mld", "--weights", "2,3", "--cap", "-4"), 2, "", "enumeration cap must be an integer >= 1, got -4"),
    (("check", "--weights", "2,3", "--eps", "0.5"), 2, "", "argument --eps: invalid parse_rational value: '0.5'"),
    (("check", "--weights", "2,3", "--eps", "1/0"), 2, "", "argument --eps: invalid parse_rational value: '1/0'"),
    (("frobnicate",), 2, "", "invalid choice: 'frobnicate'"),
    ((), 2, "", "the following arguments are required: command"),
    (("--config", "CFG"), 2, "", "the following arguments are required: command"),
]


@pytest.mark.parametrize("argv,code,out,err", PARITY, ids=[" ".join(argv) or "no-args" for argv, *_ in PARITY])
def test_flag_forms_keep_their_answers(tmp_path, capsys, argv, code, out, err):
    cfg = tmp_path / "wblowup.cfg"
    cfg.write_text("eps = 3/4\n")
    got, got_out, got_err = run_cli(capsys, *(arg.replace("CFG", str(cfg)) for arg in argv))
    assert got == code
    assert re.sub(r",\d+$", ",T", got_out, flags=re.M) == out
    assert err.replace("CFG", str(cfg)) in got_err


@pytest.mark.parametrize(
    "argv,lines",
    [
        (("-h",), ["minimal log discrepancy report", "selftest", "--config", "key = value config file"]),
        (("--help",), ["minimal log discrepancy report", "selftest", "--config", "key = value config file"]),
        (("mld", "-h"), ["--weights", "comma-separated positive integers", "--cap", "--out"]),
        (("sweep", "--help"), ["--tail-cap", "--no-timing", "--format", "{auto,construction,enumeration}"]),
        (("sweep", "--he"), ["--tail-cap", "--no-timing", "--format", "{auto,construction,enumeration}"]),
    ],
    ids=["-h", "--help", "mld -h", "sweep --help", "sweep --he"],
)
def test_help_lists_commands_or_flags_and_exits_0(capsys, argv, lines):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert all(line in out for line in lines)


# SHA-256 of each --help text, stdout byte for byte; the top level has no command
HELP_DIGESTS = {
    "": "fd99de9f316b0f0f9764d5cb6c3721eeaf25e241c8f93c86ddb2a6bdf0e2e352",
    "mld": "8f8187c1c45d01dd7c529dc453e46604867af050df60fbad255763d64f0842b9",
    "check": "5aae66ab0daae7cd447e971e6afaa2e09ea758f2c2438439dd771b17348d5629",
    "witness": "cdd6de90cf1a8e13ad49398e8a746ffba16237f13b73c0af3c14f0d50d0fa88e",
    "sweep": "8a0783d4dc8c53c0f6cb324a728f44e8f34ae7eb037a2fb1e03efb1a71c3a7d8",
    "verify-example": "4160ce6d5c09a10f99576b3b683c59b9e056759d0560f45da6e0f3e5eabe1aa1",
    "selftest": "439c50b0d94347574dd93718cc245d697178150692569fe2e588a0c45e241a6c",
}


@pytest.mark.parametrize("command", list(HELP_DIGESTS), ids=[c or "top-level" for c in HELP_DIGESTS])
def test_help_texts_are_pinned(capsys, command):
    code, out, err = run_cli(capsys, *([command] if command else []), "--help")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[command], out


def test_setting_tables_name_only_flags():
    used = set()
    for _, _, flags, required in harness._COMMANDS.values():
        assert isinstance(flags, tuple) and isinstance(required, tuple)
        assert set(required) <= set(flags) <= set(harness._SETTINGS)
        used.update(flags)
    # every row but the top level's --config is some subcommand's flag
    assert set(harness._SETTINGS) - used == {"config"}


@pytest.mark.parametrize("command", list(harness._COMMANDS))
def test_help_states_each_default_from_the_table(capsys, command):
    code, out, _ = run_cli(capsys, command, "--help")
    assert code == 0
    _, _, flags, required = harness._COMMANDS[command]
    for dest in flags:
        [line] = [line for line in out.splitlines() if line.startswith(f"  --{dest.replace('_', '-')} ")]
        default = harness._SETTINGS[dest][1]
        if dest in required:
            assert line.endswith(" (required)")
        elif default is not None:
            assert line.endswith(" (default %s)" % str(default).strip("(,)"))
        else:  # --a1-max's default, --a1-min, is no table entry
            assert "(default" not in line or dest == "a1_max"
    # only a command that takes --cap prints the budget's default
    assert ("(default 10000000)" in out) == ("cap" in flags) and "WBLOWUP_BUDGET" not in out


def test_tail_cap_is_converted_as_a_flag(capsys):
    argv = ("sweep", "--a1-min", "2", "--a1-max", "3", "--no-timing")
    for caps in ("x", "2,x", ""):
        code, out, err = run_cli(capsys, *argv, "--tail-cap", caps)
        assert (code, out) == (2, "")
        assert "error: argument --tail-cap: invalid literal for int()" in err
    # one cap stands for every coordinate; range checks stay with SweepSpec
    assert run_cli(capsys, *argv, "--tail-cap", "2")[1] == SWEEP_BLANK
    assert "tail cap must be an integer >= 0" in run_cli(capsys, *argv, "--tail-cap", "-1")[2]


def test_readme_commands_read_as_flags():
    # each `wblowup ...` line of README's sh blocks, its backslash continuations joined
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("wblowup ")]
    assert [argv[1] for argv in commands] == ["mld", "check", "witness", "sweep", "sweep", "verify-example",
                                              "selftest"]
    for argv in commands:
        assert harness._read(argv[1:], {}) == argv[1], argv


def test_harness_imports_no_argparse_and_prints_help():
    env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
    script = "import sys, wblowup.harness; print(sorted({'argparse', 'wblowup.harness'} & sys.modules.keys()))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60,
                          check=False)
    assert proc.stdout.split("\n")[0] == "['wblowup.harness']", proc.stderr
    proc = subprocess.run([sys.executable, "-m", "wblowup", "mld", "-h"], capture_output=True, text=True, env=env,
                          timeout=60, check=False)
    assert proc.returncode == 0, proc.stderr
    assert all(flag in proc.stdout for flag in ("--weights", "--cap", "--out"))


# ---------------------------------------------------------------------------
# bundled checks


def test_verify_example_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify-example", "--limit", "25")
    assert code == 0
    assert out.count("25/25 passed") == 2


def test_selftest_subcommand(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--max-entry", "6")
    assert code == 0
    assert "0 failures" in out


def test_selftest_scans_each_box_once(capsys, monkeypatch):
    # one open box scan per (tuple, eps): the interior/psi check's, whose
    # least psi then stands in for the box when certify is compared
    scans = []
    scan = oracle.enumerate_lattice_points

    def counted(C, mode="closed", budget=DEFAULT_ENUMERATION_CAP):
        if mode == "open":
            scans.append((C.a.entries, C.eps))
        return scan(C, mode, budget)

    # counted under either module's name, so a scan harness made itself would count too
    for module in (oracle, harness):
        monkeypatch.setattr(module, "enumerate_lattice_points", counted, raising=False)
    code, out, _ = run_cli(capsys, "selftest", "--max-entry", "4")
    assert (code, out) == (0, "selftest: 21 weight vectors checked, 0 failures\n")
    assert len(scans) == len(set(scans)) == 2 * 21


# exit code, stdout and stderr at each cap, recorded with two box scans per
# (tuple, eps): the first budget refused and the report stay as they were
@pytest.mark.parametrize("cap,code,stdout,stderr", [
    (1, 3, "", "budget exhausted: 4 oracle box points exceed budget 1\n"),
    (5, 3, "", "budget exhausted: 6 oracle box points exceed budget 5\n"),
    (40, 3, "", "budget exhausted: 42 oracle box points exceed budget 40\n"),
    (200, 3, "", "budget exhausted: 210 oracle box points exceed budget 200\n"),
    (300, 0, "selftest: 54 weight vectors checked, 0 failures\n", ""),
])
def test_selftest_reports_at_each_cap_are_pinned(capsys, cap, code, stdout, stderr):
    assert run_cli(capsys, "selftest", "--max-entry", "6", "--cap", str(cap)) == (code, stdout, stderr)


@pytest.mark.parametrize(
    "argv,flag",
    [
        (("verify-example", "--limit", "0"), "--limit"),
        (("verify-example", "--limit", "-3"), "--limit"),
        (("selftest", "--max-entry", "0"), "--max-entry"),
    ],
    ids=["limit-0", "limit-negative", "max-entry-0"],
)
def test_bundled_check_limits_below_one_are_usage_errors(capsys, argv, flag):
    # an empty range of k or of entries would report every check passed
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"error: {flag} must be an integer >= 1" in err


@pytest.mark.parametrize("flag", ["--mld-limit", "--cap"])
def test_verify_example_refuses_the_removed_flags(capsys, flag):
    # --limit bounds both (1, k) checks, and neither check can reach a budget
    assert run_cli(capsys, "verify-example", flag, "5") == (2, "", f"error: unrecognized arguments: {flag} 5\n")


@pytest.mark.parametrize(
    "argv,patches,code,line",
    [
        (("check", "--weights", "2,3"), {}, 2, "error: check requires --eps"),
        (("witness", "--weights", "2,3"), {}, 2, "error: witness requires --eps"),
        (("verify-example", "--limit", "2"), {(harness, "is_eps_lc"): (False, (1, 1))}, 1,
         "FAIL weights (1,1): expected 1-lc, refuted by (1, 1)"),
        (("verify-example", "--limit", "2"), {(harness, "mld_at_fixed_point"): 0}, 1,
         "FAIL weights (1,2): fixed-point mlds 0, 0"),
        (("selftest", "--max-entry", "2"), {(oracle, "mld_bruteforce"): -1}, 1, "FAIL mld mismatch at (1, 2)"),
        (("selftest", "--max-entry", "2"), {(oracle, "verify_interior_psi_equivalence"): False}, 1,
         "FAIL interior/psi equivalence fails at (1, 1, 2), eps=1/2"),
        # every tuple up to entry 2 is 1-lc; an oracle mld below every eps disagrees with certify
        (("selftest", "--max-entry", "2"), {(oracle, "mld_bruteforce"): -1}, 1,
         "FAIL certify/oracle disagreement at (1, 1), eps=1"),
    ],
    ids=["check-no-eps", "witness-no-eps", "verify-1-lc", "verify-mld", "selftest-mld", "selftest-psi",
         "selftest-certify"],
)
def test_failure_paths_exit_with_their_message(capsys, monkeypatch, argv, patches, code, line):
    # each patched engine function returns a fixed value the subcommand does not expect; it is
    # patched where the handler reads it: harness's own name, or the oracle module's attribute
    for (module, name), value in patches.items():
        monkeypatch.setattr(module, name, lambda *args, value=value: value)
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert line in (out + err).splitlines()


def test_parse_weights_validation():
    assert parse_weights("2,3").entries == (2, 3)
    with pytest.raises(ValueError):
        parse_weights("2;3")
    with pytest.raises(ValueError):
        parse_weights("2,4")


# strings with quotes, backslashes, control characters and non-ASCII text
_json_chars = '"\\/\b\f\n\r\t\x00\x1f\x7f aZ0:é€😀\u2028\ud800'
_json_strings = st.text(st.sampled_from(_json_chars), max_size=12) | st.text(max_size=8)
_json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-10**400, 10**400)
    | st.sampled_from([10**399, -(10**399) - 7, 0, -1])
    | _json_strings
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_json_strings, inner, max_size=4),
    max_leaves=30,
)


@given(_json_values)
def test_json_writer_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "bad",
    [Fraction(1, 2), 0.5, {1: "a"}, {"a": [1, {"b": Fraction(3)}]}, [1.0], {None: 1}, {("a",): 1}, {1, 2},
     WeightVector((2, 3)), {"a": [WeightVector((2, 3))]}],
)
def test_json_writer_refuses_what_json_dumps_would_bend(bad):
    # a Fraction or float anywhere, or a key that is no str, is refused; so
    # is a value object, a tuple that json.dumps would write as a list
    with pytest.raises(TypeError):
        _json_text(bad)


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "mld.json"
    code, out, _ = run_cli(capsys, "mld", "--weights", "2,3", "--out", str(target))
    assert code == 0
    assert json.loads(target.read_text())["mld"] == "2/3"
