import ast
import copy
import importlib
import io
import operator
import pickle
import re
import types
from fractions import Fraction
from pathlib import Path

import pytest

import wblowup
from wblowup.harness import SweepSpec, run_sweep
from wblowup.witness import _verified, witness_general_theta


def test_library_has_no_assert_statements():
    # python -O strips assert; library invariants must raise explicitly
    for path in sorted(Path(wblowup.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"


# The names the CLI and the paper's objects need; adding or removing one is
# a deliberate change to this list. Submodules are reached as attributes too,
# but are not names the package exports.
PUBLIC_NAMES = {
    "BudgetExceeded",
    "CEpsPolytope",
    "Certificate",
    "DEFAULT_ENUMERATION_CAP",
    "DirichletWitness",
    "MldReport",
    "WeightVector",
    "build_polytope",
    "certificate_threshold",
    "certify_not_eps_lc",
    "default_theta",
    "dirichlet_1d",
    "dirichlet_simultaneous",
    "enumerate_lattice_points",
    "format_rational",
    "integer_nth_root",
    "is_eps_lc",
    "mld_at_fixed_point",
    "mld_bruteforce",
    "mld_global",
    "parse_rational",
    "psi_bruteforce",
    "psi_value",
    "verify_interior_psi_equivalence",
}


# the public names that are no class or function, so have no __module__, by defining module
CONSTANT_HOMES = {"DEFAULT_ENUMERATION_CAP": "wblowup.exact_lattice"}


def test_public_api_is_pinned():
    # the names are exported lazily (PEP 562): none is bound in the package,
    # __all__ and dir() list them, and each reads its defining module's object
    def public(names):
        return {
            name
            for name in names
            if not name.startswith("_") and not isinstance(getattr(wblowup, name), types.ModuleType)
        }

    assert public(vars(wblowup)) == set()
    assert set(wblowup.__all__) == PUBLIC_NAMES
    assert public(dir(wblowup)) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        value = getattr(wblowup, name)
        home = importlib.import_module(CONSTANT_HOMES.get(name) or value.__module__)
        assert getattr(home, name) is value, name
    with pytest.raises(AttributeError, match="no attribute 'mld'"):
        wblowup.mld


def test_readme_lists_the_public_api():
    # README's "Library layout" table names every export in backticks, and
    # the names a row calls exported, those in backticks from "exported:" to
    # the next ";" or the end of the cell, are all in __all__
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Library layout\n\n", 1)[1].split("\n\n", 1)[0]
    named = set(re.findall(r"`(\w+)`", table))
    exported = {name for clause in re.findall(r"[Ee]xported: ([^;|]*)", table)
                for name in re.findall(r"`(\w+)`", clause)}
    assert set(wblowup.__all__) - named == set()
    assert exported - set(wblowup.__all__) == set()


def test_polytope_has_only_the_integer_facet_form():
    C = wblowup.build_polytope(wblowup.WeightVector((2, 3, 5)), 1)
    assert not hasattr(C, "facets") and not hasattr(C, "vertices")
    # held as the data that defines it; _rows_positive forms the rows
    assert wblowup.CEpsPolytope._fields == ("a", "eps")


def _one_of_each():
    # one instance of each value class, built twice by the same calls so that
    # the two are equal and distinct; the general-theta certificate, built
    # by the construction on a checked request, holds a DirichletWitness
    a = wblowup.WeightVector((5, 7))
    spec = SweepSpec(2, Fraction(1), 1, 3, (2,), None, 1, 10, False)
    cert = witness_general_theta(a, Fraction(1, 2), wblowup.default_theta(2))
    return {
        "WeightVector": a,
        "MldReport": wblowup.mld_global(a),
        "SweepSpec": spec,
        "Certificate": cert,
        "CEpsPolytope": wblowup.build_polytope(a, Fraction(1, 2)),
        "DirichletWitness": cert.dirichlet,
    }


def test_value_classes_keep_frozen_dataclass_semantics():
    first, second = _one_of_each(), _one_of_each()
    assert sorted(first) == sorted(type(value).__name__ for value in first.values())
    for name, value in first.items():
        other = second[name]
        assert value is not other and value == other and hash(value) == hash(other), name
        assert pickle.loads(pickle.dumps(value)) == value, name
        for field in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, field, getattr(other, field))
            with pytest.raises(AttributeError):
                delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        # a value is a tuple of its fields, which leaks none of tuple's
        # semantics: it never equals the plain tuple, in either operand
        # order, it is not ordered, and no namedtuple helper builds one
        fields = tuple(value)
        assert value != fields and fields != value and not value == fields and not fields == value, name
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            for left, right in ((value, other), (value, fields), (fields, value)):
                with pytest.raises(TypeError):
                    compare(left, right)
        for helper in ("_make", "_replace", "_asdict"):
            assert not hasattr(value, helper), (name, helper)
    # one field apart, or another class with the same fields, is unequal
    assert first["WeightVector"] != wblowup.WeightVector((5, 8))
    assert first["DirichletWitness"] != first["Certificate"]
    # the repr a frozen dataclass printed
    assert repr(first["Certificate"]) == (
        "Certificate(weights=WeightVector(entries=(5, 7)), eps=Fraction(1, 2), point=(1, 1), psi=(3, 7), "
        "method='general-theta', theta=Fraction(1, 9), dirichlet=DirichletWitness(q=1, p=(1,), Z=2, "
        "numerators=(7,), denominator=5), hypothesis_ok=True)")


def test_value_classes_check_their_fields_when_built_and_unpickled():
    with pytest.raises(ValueError, match="coprime"):
        wblowup.WeightVector((2, 4))
    with pytest.raises(ValueError, match="ascend"):
        wblowup.WeightVector((3, 2))
    spec = SweepSpec(n=2, eps=Fraction(1), a1_min=1, a1_max=3, tail_caps=(2,), theta=None, workers=1,
                     enumeration_cap=10, include_timing=False)
    with pytest.raises(ValueError, match="tail caps"):
        SweepSpec(n=3, eps=Fraction(1), a1_min=1, a1_max=3, tail_caps=(2,), theta=None, workers=1,
                  enumeration_cap=10, include_timing=False)
    with pytest.raises(ValueError, match="method"):
        SweepSpec(2, Fraction(1), 1, 3, (2,), None, 1, 10, False, "fastest")
    # eps and theta are kept as the Fractions the check makes of them
    half = SweepSpec(2, "1/2", 26, 27, (3,), None, 1, 10**7, False)
    assert half == SweepSpec(2, Fraction(1, 2), 26, 27, (3,), None, 1, 10**7, False)
    assert run_sweep(half, io.StringIO())["eps"] == "1/2"
    # a pickle is a constructor call, so a spec with a bad field is refused on load
    bad = pickle.dumps(spec).replace(b"auto", b"nope")
    with pytest.raises(ValueError, match="method"):
        pickle.loads(bad)
    # so is a value built unchecked, as a sweep builds its WeightVectors, and a copy of one
    unchecked = tuple.__new__(wblowup.WeightVector, ((2, 4),))
    for clone in (lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy):
        with pytest.raises(ValueError, match="coprime"):
            clone(unchecked)


def test_an_unsound_certificate_is_refused_with_its_fields():
    cert = wblowup.Certificate(wblowup.WeightVector((2, 3)), Fraction(1, 2), (1, 1), (2, 3), "n2-case1")
    with pytest.raises(AssertionError) as info:
        _verified(cert)
    assert str(info.value) == (
        "unsound certificate: Certificate(weights=WeightVector(entries=(2, 3)), eps=Fraction(1, 2), "
        "point=(1, 1), psi=(2, 3), method='n2-case1', theta=None, dirichlet=None, hypothesis_ok=None)")
    # a stored psi of 1/3 passes the psi check, but the true psi is 10/3 and
    # row 2 reads 5*8 + 3*(1 - 2*10) = -17, so the rows refuse it
    rows_only = wblowup.Certificate(wblowup.WeightVector((2, 3)), Fraction(1, 2), (5, 5), (1, 3), "n2-case1")
    with pytest.raises(AssertionError, match="unsound certificate"):
        _verified(rows_only)


def test_bench_recorder_and_gate_import(monkeypatch):
    # bench/record.py imports engine and oracle functions by name and runs
    # only as a script, so importing it shows those names still resolve
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    for name in ("record", "gate"):
        importlib.import_module(name)
