"""Truncated power-series arithmetic and the binomial weight engine.

Coefficient sequences are dense complex vectors ``a_0 .. a_N`` with an
explicit truncation order; nothing in this module resizes implicitly.  The
weights ``c_n(beta)``, the Taylor coefficients of ``(1 - x)**(-beta)``,
drive every integral operator in the package.  They are generated by the
multiplicative recurrence ``c_n = c_{n-1} * (n - 1 + beta) / n`` rather
than by Gamma-function quotients: the weights grow only like
``n**(beta - 1)``, so the recurrence stays finite and accurate for orders
in the thousands where naive Gamma evaluation would overflow.

All arithmetic is IEEE-754 binary64.  Long real sums go through
``math.fsum``, which is correctly rounded, so absolute-series values keep
about 1e-12 absolute accuracy near the radii of interest.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ParameterDomainError, TruncationError

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


def binomial_coeffs(beta: float, n_max: int) -> np.ndarray:
    """Weights ``c_n = Gamma(n+beta) / (Gamma(n+1) Gamma(beta))`` for ``n <= n_max``,
    as a read-only vector.

    Built by the multiplicative recurrence ``c_n = c_{n-1} (n-1+beta)/n``,
    never by Gamma evaluation.
    """
    if beta <= 0.0:
        raise ParameterDomainError(f"beta must be positive, got {beta}")
    if n_max < 0:
        raise ParameterDomainError(f"n_max must be nonnegative, got {n_max}")
    w = np.empty(n_max + 1, dtype=np.float64)
    w[0] = 1.0
    if n_max > 0:
        n = np.arange(1, n_max + 1, dtype=np.float64)
        w[1:] = np.cumprod((n - 1.0 + beta) / n)
    w.setflags(write=False)
    return w


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
    running = np.array([math.fsum(base[: n + 1]) for n in range(n_max + 1)])
    return float(np.max(np.abs(running - bumped) / bumped))


def horner(coeffs: CoefficientSequence, z: complex) -> complex:
    """Evaluate ``sum coeffs[n] z**n`` by Horner's rule in Python complex arithmetic."""
    z = complex(z)
    acc = 0.0 + 0.0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc
