"""Truncated power-series arithmetic and the running-sum check of the
binomial weights.

Coefficient sequences are dense complex vectors ``a_0 .. a_N`` with an
explicit truncation order; nothing in this module resizes implicitly.  The
weights ``c_n(beta)``, the Taylor coefficients of ``(1 - x)**(-beta)``,
come from ``operators.binomial_coeffs``, the one recurrence the Cesaro
weights use; this module re-exports it and checks its running-sum identity.

All arithmetic is IEEE-754 binary64.  Long real sums go through
``math.fsum``, which is correctly rounded, so absolute-series values keep
about 1e-12 absolute accuracy near the radii of interest.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ParameterDomainError, TruncationError
from .operators import binomial_coeffs

__all__ = [
    "CoefficientSequence",
    "binomial_coeffs",
    "cauchy_product",
    "cumulative_identity_residual",
    "horner",
]


class CoefficientSequence:
    """Taylor coefficients ``a_0 .. a_N`` of an analytic function.

    The truncation order ``N`` equals ``len(entries) - 1``.  Entries are
    stored as an immutable complex vector and validated to be finite.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Sequence[complex] | np.ndarray) -> None:
        arr = np.array(entries, dtype=np.complex128)
        if arr.ndim != 1 or arr.size == 0:
            raise ParameterDomainError(
                "a coefficient sequence needs at least the constant term"
            )
        if not np.all(np.isfinite(arr)):
            raise ParameterDomainError("coefficient entries must be finite")
        arr.setflags(write=False)
        self._entries = arr

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def order(self) -> int:
        return self._entries.size - 1

    def __len__(self) -> int:
        return self._entries.size

    def __getitem__(self, n: int) -> complex:
        return complex(self._entries[n])

    def abs_entries(self) -> np.ndarray:
        return np.abs(self._entries)

    def __repr__(self) -> str:
        head = np.array2string(self._entries[:4], precision=6, separator=", ")
        return f"CoefficientSequence(order={self.order}, entries={head}...)"


def cauchy_product(
    u: CoefficientSequence, v: CoefficientSequence, n_max: int
) -> CoefficientSequence:
    """Coefficients of the product series, truncated at order ``n_max``.

    Both inputs must carry at least ``n_max + 1`` coefficients; product
    coefficients up to ``n_max`` depend on nothing beyond that.
    """
    if n_max < 0:
        raise ParameterDomainError(f"n_max must be nonnegative, got {n_max}")
    if u.order < n_max or v.order < n_max:
        raise TruncationError(
            f"inputs of order {u.order} and {v.order} cannot produce order {n_max}"
        )
    conv = np.convolve(u.entries[: n_max + 1], v.entries[: n_max + 1])
    return CoefficientSequence(conv[: n_max + 1])


def cumulative_identity_residual(beta: float, n_max: int) -> float:
    """Worst relative defect of the running-sum identity for the weights.

    The partial sums of ``c_n(beta)`` coincide with ``c_n(beta + 1)``;
    this returns ``max_n |sum_{k<=n} c_k(beta) - c_n(beta+1)| / c_n(beta+1)``
    over ``0 <= n <= n_max``, with every running sum correctly rounded.
    """
    base = binomial_coeffs(beta, n_max)
    bumped = binomial_coeffs(beta + 1.0, n_max)
    return max(abs(math.fsum(base[: n + 1]) - b) / b for n, b in enumerate(bumped))


def horner(coeffs: CoefficientSequence, z: complex) -> complex:
    """Evaluate ``sum coeffs[n] z**n`` by Horner's rule in Python complex arithmetic."""
    z = complex(z)
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc
