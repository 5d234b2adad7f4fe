"""Numerical laboratory for Bohr-type radii of integral operators.

The package computes absolute (majorant) series of the Cesaro and Bernardi
integral operator families over the unit ball of bounded analytic
functions, solves the associated radius equations with certified brackets,
verifies the inequalities over seeded corpora, and reproduces the
sharpness arguments through the extremal disk-automorphism families.

``_EXPORTS`` below is the one list of public names; each submodule reads
its ``__all__`` from it.  Every export resolves on first access (PEP 562),
importing only its own submodule: ``bohrlab.solve_radius`` loads
``radii``, ``operators`` and ``errors``, and ``bohrlab.decompositions`` adds
``sharpness``, all of which need only the standard library, while the first
name from ``corpus`` or ``series`` loads numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "BohrlabError", "BracketError", "ContinuityError", "ParameterDomainError",
        "PreconditionError", "QuadratureError", "TruncationError",
    ),
    "series": (
        "cauchy_product", "cumulative_identity_residual", "horner",
    ),
    "corpus": (
        "BLASCHKE_ZERO_CAP", "Blaschke", "derive_seed", "evaluate", "expand",
        "multiply_by_z", "random_schur", "random_schur_block", "schwarz_shift",
        "taylor_coeffs",
    ),
    "operators": (
        "Alexander", "Bernardi", "CBeta", "CesaroBeta", "ClassicalBohr", "Libera", "OperatorKind",
        "PrimitiveI", "Shifted", "adaptive_simpson", "binomial_coeffs", "bohr_majorant",
        "cesaro_series_order",
        "kernel_integral", "majorant_value", "operator_coeffs",
        "quadrature_value", "series_order", "sup_bound",
    ),
    "radii": (
        "CurveRow", "RadiusResult", "radius_curve", "radius_equation", "solve_radius",
    ),
    "sharpness": (
        "BOHR_BASELINE_RADIUS", "Decomposition", "ViolationReport", "concavity_check",
        "critical_radius", "decomposition_bernardi", "decomposition_cesaro",
        "decompositions", "extremal_majorant", "violation_search",
    ),
}

# Export name -> the submodule that defines it; a submodule maps to itself.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value
