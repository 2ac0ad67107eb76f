"""Exact eps-lc checks and interior-point certificates for weighted blowups."""

from .diophantine import (
    Approx1D,
    DirichletWitness,
    dirichlet_1d,
    dirichlet_simultaneous,
)
from .exact_lattice import (
    DEFAULT_ENUMERATION_CAP,
    BudgetExceeded,
    format_rational,
    integer_nth_root,
    parse_rational,
    pow_cmp,
)
from .oracle import (
    ORACLE_BUDGET_DEFAULT,
    enumerate_lattice_points,
    mld_bruteforce,
    psi_bruteforce,
    verify_interior_psi_equivalence,
)
from .toric_mld import (
    MldReport,
    WeightVector,
    is_eps_lc,
    mld_at_fixed_point,
    mld_global,
    psi_value,
)
from .witness import (
    Certificate,
    CEpsPolytope,
    certificate_threshold,
    build_polytope,
    certify_not_eps_lc,
    contains_interior,
    default_theta,
    witness_general_theta,
    witness_n2,
    witness_n3,
)

__version__ = "0.1.0"
