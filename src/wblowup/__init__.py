"""Exact eps-lc checks and interior-point certificates for weighted blowups.

Each public name is read from the module that defines it when first asked
for (PEP 562), so importing the package loads no submodule, and a CLI
command loads only the modules it uses.
"""

from importlib import import_module as _import_module

# each public name, by its defining module
_SOURCES = {
    "diophantine": ("DirichletWitness", "dirichlet_1d", "dirichlet_simultaneous"),
    "exact_lattice": ("DEFAULT_ENUMERATION_CAP", "BudgetExceeded", "format_rational", "integer_nth_root",
                      "parse_rational", "pow_cmp"),
    "oracle": ("enumerate_lattice_points", "mld_bruteforce", "psi_bruteforce", "verify_interior_psi_equivalence"),
    "toric_mld": ("MldReport", "WeightVector", "is_eps_lc", "mld_at_fixed_point", "mld_global", "psi_value"),
    "witness": ("Certificate", "CEpsPolytope", "certificate_threshold", "build_polytope", "certify_not_eps_lc",
                "contains_interior", "default_theta", "witness_general_theta", "witness_n2", "witness_n3"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}
__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # read on each access, not kept here, so the package always hands out
    # what the defining module holds
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module("." + _MODULE_OF[name], __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
