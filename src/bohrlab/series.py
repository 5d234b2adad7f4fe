"""Truncated power-series arithmetic and the running-sum check of the
binomial weights.

A Taylor series ``a_0 .. a_N`` is a 1-D ``complex128`` array, the row that
``corpus.taylor_coeffs`` and ``corpus.expand`` return; its truncation order
is its length minus one, and nothing in this module resizes implicitly.  The
weights ``c_n(beta)``, the Taylor coefficients of ``(1 - x)**(-beta)``,
come from ``operators.binomial_coeffs``, the recurrence behind the Cesaro
image; this module checks its running-sum identity.

All arithmetic is IEEE-754 binary64.  Long real sums go through
``math.fsum``, which is correctly rounded, so absolute-series values keep
about 1e-12 absolute accuracy near the radii of interest.
"""

from __future__ import annotations

import math

import numpy as np

from . import _EXPORTS
from .errors import ParameterDomainError, TruncationError
from .operators import binomial_coeffs

__all__ = _EXPORTS["series"]


def cauchy_product(u: np.ndarray, v: np.ndarray, n_max: int) -> np.ndarray:
    """Coefficients of the product series, truncated at order ``n_max``.

    Both inputs must carry at least ``n_max + 1`` coefficients; product
    coefficients up to ``n_max`` depend on nothing beyond that.  A product
    that is not finite is refused, as in ``operators.operator_coeffs``.
    """
    if n_max < 0:
        raise ParameterDomainError(f"n_max must be nonnegative, got {n_max}")
    if len(u) <= n_max or len(v) <= n_max:
        raise TruncationError(
            f"inputs of order {len(u) - 1} and {len(v) - 1} cannot produce order {n_max}"
        )
    out = np.convolve(u[: n_max + 1], v[: n_max + 1])[: n_max + 1]
    if not np.all(np.isfinite(out)):
        raise ParameterDomainError("coefficient entries must be finite")
    return out


def cumulative_identity_residual(beta: float, n_max: int) -> float:
    """Worst relative defect of the running-sum identity for the weights.

    The partial sums of ``c_n(beta)`` coincide with ``c_n(beta + 1)``;
    this returns ``max_n |sum_{k<=n} c_k(beta) - c_n(beta+1)| / c_n(beta+1)``
    over ``0 <= n <= n_max``, with every running sum correctly rounded.
    """
    base = binomial_coeffs(beta, n_max)
    bumped = binomial_coeffs(beta + 1.0, n_max)
    return max(abs(math.fsum(base[: n + 1]) - b) / b for n, b in enumerate(bumped))


def horner(coeffs: np.ndarray, z: complex) -> complex:
    """Evaluate ``sum coeffs[n] z**n`` by Horner's rule in Python complex arithmetic."""
    z = complex(z)
    acc = 0.0 + 0.0j
    for c in reversed(coeffs.tolist()):
        acc = acc * z + c
    return acc
