"""Exact symbolic engine for type B and D affine vacuum modules.

The package realizes the finite Lie algebras of types B_l and D_l inside a
quadratic fermionic algebra, builds their level -l + 3/2 vacuum modules over
canonical ordered monomials, and machine-checks a family of finite exact
identities: explicit singular vectors, an embedding with its membership
certificate, equality of the two energy vectors, admissibility of the
vacuum weight, the D_4 triality action, and a zero-mode rewrite table.
All arithmetic is rational and exact; every check emits a JSON verdict.
"""

from .liealg import algebra, root_label, parse_root_label
from .verma import vacuum_module, PBWState
from .weights import check_admissible, vacuum_weight
from .singular import singular_vector, check_singular, solve_singular_space
from .embedding import embed_state
from .conformal import sugawara_vector, central_charge, solve_level_equation
from .triality import d4_symmetries

__version__ = "1.0.0"

__all__ = [
    "PBWState",
    "algebra",
    "central_charge",
    "check_admissible",
    "check_singular",
    "d4_symmetries",
    "embed_state",
    "parse_root_label",
    "root_label",
    "singular_vector",
    "solve_level_equation",
    "solve_singular_space",
    "sugawara_vector",
    "vacuum_module",
    "vacuum_weight",
    "__version__",
]
