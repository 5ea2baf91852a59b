"""Verification workbench for the finite spectral triple of the Standard
Model internal space: constructs the concrete algebras, Dirac operators,
real structure and gradings on the 32-dimensional internal Hilbert space and
machine-checks the order conditions, KO-dimension, Clifford algebras, Morita
property, orientability obstructions and irreducibility."""

from .catalog import (
    DiracParams,
    FIXTURE_PARAMS,
    GroupElement,
    TripleConfig,
    build_dirac,
    build_triple,
)
from .linalg import AntilinearOperator, DEFAULT_TOL, adjoint, hs_inner, hs_norm, kron_action
from .morita import (
    Derived,
    IrreducibilityVerdict,
    MoritaVerdict,
    clifford,
    irreducible,
    obstruction_check,
    one_forms,
    property_m,
    weak_orientability_aev,
)
from .star_algebra import StarAlgebra, center, star_closure, unitalize
from .subspaces import OperatorSubspace, commutant, equals, intersect, span_of, subspace_sum
from .triple import (
    DiracDecomposition,
    FiniteTriple,
    SignTable,
    decompose_dirac,
    first_order_violation,
    grading_compatible,
    sign_table,
    zeroth_order_violation,
)

__version__ = "0.1.0"

__all__ = [
    "AntilinearOperator",
    "DEFAULT_TOL",
    "Derived",
    "DiracDecomposition",
    "DiracParams",
    "FIXTURE_PARAMS",
    "FiniteTriple",
    "GroupElement",
    "IrreducibilityVerdict",
    "MoritaVerdict",
    "OperatorSubspace",
    "SignTable",
    "StarAlgebra",
    "TripleConfig",
    "adjoint",
    "build_dirac",
    "build_triple",
    "center",
    "clifford",
    "commutant",
    "decompose_dirac",
    "equals",
    "first_order_violation",
    "grading_compatible",
    "hs_inner",
    "hs_norm",
    "intersect",
    "irreducible",
    "kron_action",
    "obstruction_check",
    "one_forms",
    "property_m",
    "sign_table",
    "span_of",
    "star_closure",
    "subspace_sum",
    "unitalize",
    "weak_orientability_aev",
    "zeroth_order_violation",
]
