"""Numerical laboratory for Bohr-type radii of integral operators.

The package computes absolute (majorant) series of the Cesaro and Bernardi
integral operator families over the unit ball of bounded analytic
functions, solves the associated radius equations with certified brackets,
verifies the inequalities over seeded corpora, and reproduces the
sharpness arguments through the extremal disk-automorphism families.
"""

__version__ = "0.1.0"

from .errors import (
    BohrlabError,
    BracketError,
    ContinuityError,
    ParameterDomainError,
    PreconditionError,
    QuadratureError,
    TruncationError,
)
from .series import (
    CoefficientSequence,
    binomial_coeffs,
    cauchy_product,
    cumulative_identity_residual,
    horner,
)
from .corpus import (
    BLASCHKE_ZERO_CAP,
    Blaschke,
    BoundedFunction,
    Constant,
    ExtremalPhi,
    ExtremalPsi,
    Polynomial,
    derive_seed,
    evaluate,
    expand,
    extremal_phi,
    extremal_psi,
    multiply_by_z,
    random_schur,
    random_schur_block,
    schwarz_shift,
    suggested_order,
    taylor_coeffs,
    taylor_matrix,
    validate_membership,
)
from .operators import (
    Alexander,
    Bernardi,
    CBeta,
    CesaroBeta,
    ClassicalBohr,
    Libera,
    OperatorKind,
    PrimitiveI,
    Shifted,
    adaptive_simpson,
    bohr_majorant,
    cesaro_series_order,
    kernel_integral,
    majorant_value,
    majorant_values,
    operator_coeffs,
    quadrature_value,
    required_origin_zeros,
    series_order,
    sup_bound,
)
from .radii import (
    CurveRow,
    RadiusProblem,
    RadiusResult,
    radius_curve,
    radius_equation,
    solve_radius,
)
from .sharpness import (
    BOHR_BASELINE_RADIUS,
    Decomposition,
    ViolationReport,
    concavity_check,
    critical_radius,
    decomposition,
    decomposition_bernardi,
    decomposition_cesaro,
    extremal_majorant,
    quadratic_remainder_check,
    violation_search,
)

__all__ = [name for name in dir() if not name.startswith("_")]
