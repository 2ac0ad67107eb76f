"""Each subcommand in a fresh interpreter, where no other test has loaded a module.

pytest's one process imports every module of the package, so a name that a
lazily loaded module was meant to supply would never be missing here. These
tests run the CLI in new interpreters: each subcommand must answer there
exactly as cli_dispatch answers in process, and a cold mld or check must
leave the modules it does not use unloaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from wblowup import harness
from wblowup.harness import cli_dispatch

ENV = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
SWEEP = ("sweep", "--n", "3", "--eps", "1/2", "--a1-min", "2", "--a1-max", "8", "--tail-cap", "8,8", "--no-timing")
# each command with the exit code it must give, so a stale argv refused alike
# on both sides (exit 2) is caught
COMMANDS = {
    "help": (0, ("--help",)),
    "mld": (0, ("mld", "--weights", "2,3")),
    "check": (1, ("check", "--weights", "2,3", "--eps", "3/4")),
    "witness": (0, ("witness", "--weights", "26,301", "--eps", "1/2")),
    "sweep-1-worker": (0, (*SWEEP, "--workers", "1")),
    "sweep-2-workers": (0, (*SWEEP, "--workers", "2")),
    "verify-example": (0, ("verify-example", "--limit", "5")),
    "selftest": (0, ("selftest", "--max-entry", "4")),
}
# what a query that only reads toric_mld must not load: the other package
# modules, csv, dataclasses with the inspect module it imports, and the
# multiprocessing that only a sweep on more than one worker starts
UNUSED_BY_QUERIES = ("dataclasses", "inspect", "csv", "multiprocessing", "wblowup.witness", "wblowup.diophantine",
                     "wblowup.oracle")


def fresh(*args, cwd=None):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=ENV, cwd=cwd, timeout=120,
                          check=False)


@pytest.mark.parametrize("expected,argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_each_command_answers_alike_in_a_fresh_interpreter(capsys, tmp_path, expected, argv):
    # run from a directory outside the checkout, as an installed command is
    proc = fresh("-m", "wblowup", *argv, cwd=tmp_path)
    try:
        code = cli_dispatch(list(argv))
    finally:
        harness._drop_pool()  # the in-process pooled sweep leaves no kept pool behind
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    assert code == expected, captured.err


def loaded_after(argv):
    """The exit code of cli_dispatch(argv) in a fresh interpreter, and the modules loaded by then."""
    # -S: no site hook can import a module on the package's behalf
    script = (
        "import sys\n"
        "from wblowup.harness import cli_dispatch\n"
        f"code = cli_dispatch({list(argv)!r})\n"
        "print(code, *sorted(sys.modules), file=sys.stderr)\n"
    )
    proc = fresh("-S", "-c", script)
    code, *loaded = proc.stderr.splitlines()[-1].split()  # a CSV sweep's frontier comes first
    assert code in ("0", "1"), proc.stderr
    return loaded


# each command with the modules it must load and those it must leave unloaded:
# witness and oracle come in through harness._load, multiprocessing only
# through a pool of more than one worker
COLD = {
    "mld": (COMMANDS["mld"][1], ("wblowup.toric_mld",), UNUSED_BY_QUERIES),
    "check": (COMMANDS["check"][1], ("wblowup.toric_mld",), UNUSED_BY_QUERIES),
    "witness": (COMMANDS["witness"][1], ("wblowup.witness", "wblowup.diophantine"),
                ("wblowup.oracle", "multiprocessing")),
    "sweep-1-worker": (COMMANDS["sweep-1-worker"][1], (), ("wblowup.oracle", "multiprocessing")),
    "selftest": (COMMANDS["selftest"][1], ("wblowup.oracle", "wblowup.witness"), ()),
}


@pytest.mark.parametrize("argv,used,unused", COLD.values(), ids=COLD.keys())
def test_a_cold_query_loads_only_what_it_uses(argv, used, unused):
    loaded = loaded_after(argv)
    assert [name for name in used if name not in loaded] == []
    assert [name for name in unused if name in loaded] == []


@pytest.mark.parametrize("argv", [*(argv for _, argv in COMMANDS.values()), (*SWEEP, "--format", "json")],
                         ids=[*COMMANDS.keys(), "sweep-json"])
def test_no_command_loads_csv(argv):
    # sweep rows are written, and for --format json split again, as plain lines
    loaded = loaded_after(argv)
    assert "csv" not in loaded and "_csv" not in loaded
    if argv[0] == "sweep":
        assert "wblowup.witness" in loaded


def test_no_module_of_the_package_imports_dataclasses_or_typing():
    script = (
        "import sys\n"
        "from wblowup import diophantine, exact_lattice, harness, oracle, toric_mld, witness\n"
        "print(*sorted({'dataclasses', 'inspect', 'typing'} & sys.modules.keys()))\n"
    )
    proc = fresh("-S", "-c", script)
    assert (proc.returncode, proc.stdout) == (0, "\n"), proc.stderr
