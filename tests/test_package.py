import ast
import types
from pathlib import Path

import wblowup


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
    "Approx1D",
    "BudgetExceeded",
    "CEpsPolytope",
    "Certificate",
    "DEFAULT_ENUMERATION_CAP",
    "DirichletWitness",
    "MldReport",
    "ORACLE_BUDGET_DEFAULT",
    "WeightVector",
    "build_polytope",
    "certificate_threshold",
    "certify_not_eps_lc",
    "contains_interior",
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
    "pow_cmp",
    "psi_bruteforce",
    "psi_value",
    "verify_interior_psi_equivalence",
    "witness_general_theta",
    "witness_n2",
    "witness_n3",
}


def test_public_api_is_pinned():
    exported = {
        name
        for name, value in vars(wblowup).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


def test_polytope_has_only_the_integer_facet_form():
    C = wblowup.build_polytope(wblowup.WeightVector((2, 3, 5)), 1)
    assert not hasattr(C, "facets") and not hasattr(C, "vertices")
