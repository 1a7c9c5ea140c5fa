"""Exact-arithmetic subdivision sequences on triangles and simplices.

The package tracks a point of the ordered simplex under a piecewise
linear-fractional map.  All branch decisions are certified: the engine
works on integer lattice columns and only ever needs the sign or floor
of an integer linear form evaluated at the input, so a run is either
exactly right or reports that the input enclosure was too coarse.
"""

from .errors import (
    DegenerateInputError,
    InconsistentInputError,
    NotYetConvergedError,
    PrecisionExhaustedError,
    TriangleMapError,
)
from .matrices import (
    IntMatrix,
    fundamental_identity_check,
    product_matrix,
    recover_nd,
    recover_pair,
    recover_terminated,
    step_matrix,
)
from .numeric import (
    BigFloat,
    FormEvaluator,
    RootSpec,
    SequenceStatus,
    Sign,
    refine_root,
    root_powers,
    sign_of,
)
from .periodicity import (
    detect_period,
    derive_cubic,
    eliminant_nd,
    eliminant_report,
    fixed_point_nd,
    fixed_point_poly,
    period_one_point,
    period_one_poly,
    period_one_root,
    power_basis_evidence,
    rational_termination_check,
)
from .polynomials import IntPolynomial, divides, gcd, squarefree_part
from .realization import TriangleRegion, preimage_region, realize, witness
from .simplex import (
    NonNegSymbol,
    PairSymbol,
    PointN,
    classify_nd,
    decomposition_check,
    region_membership,
    region_vertices,
    sequence_nd,
    step_matrix_nd,
)
from .triangle import (
    GaussRecord,
    Point2,
    SequenceRecord,
    classify,
    gauss_sequence,
    sequence,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "BigFloat",
    "DegenerateInputError",
    "FormEvaluator",
    "GaussRecord",
    "InconsistentInputError",
    "IntMatrix",
    "IntPolynomial",
    "NonNegSymbol",
    "NotYetConvergedError",
    "PairSymbol",
    "Point2",
    "PointN",
    "PrecisionExhaustedError",
    "RootSpec",
    "SequenceRecord",
    "SequenceStatus",
    "Sign",
    "TriangleMapError",
    "TriangleRegion",
    "classify",
    "classify_nd",
    "decomposition_check",
    "derive_cubic",
    "detect_period",
    "divides",
    "eliminant_nd",
    "eliminant_report",
    "fixed_point_nd",
    "fixed_point_poly",
    "fundamental_identity_check",
    "gauss_sequence",
    "gcd",
    "period_one_point",
    "period_one_poly",
    "period_one_root",
    "power_basis_evidence",
    "preimage_region",
    "product_matrix",
    "rational_termination_check",
    "realize",
    "recover_nd",
    "recover_pair",
    "recover_terminated",
    "refine_root",
    "region_membership",
    "region_vertices",
    "root_powers",
    "sequence",
    "sequence_nd",
    "sign_of",
    "squarefree_part",
    "step",
    "step_matrix",
    "step_matrix_nd",
    "witness",
]
