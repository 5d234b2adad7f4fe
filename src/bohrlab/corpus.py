"""Concrete members of the unit ball of bounded analytic functions.

Every function the paper needs is a scaled, rotated product
``c * z**k * prod_j (z - a_j) / (1 - conj(a_j) z)``, stored in one of
three forms: a polynomial; a finite Blaschke product with a rotation and a
damping scale (a constant is the empty product, ``Constant(c)``); or the
extremal family

    psi_a_m(z) = z**m * phi_a(z),        phi_a(z) = (z - a) / (1 - a z),

with ``ExtremalPhi(a)`` its ``m = 0`` case and ``a = 1`` the Blaschke
product ``-z**m``.  Each form has an exact rational point evaluator and a
coefficient producer that is exact up to rounding.  A seeded generator
draws random members for verification sweeps: constants, finite Blaschke
products (sup norm exactly 1 on the circle), and Blaschke products damped
by a constant of modulus at most 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ParameterDomainError, PreconditionError
from .series import CoefficientSequence, horner

__all__ = [
    "BLASCHKE_ZERO_CAP",
    "Constant",
    "Polynomial",
    "Blaschke",
    "ExtremalPhi",
    "ExtremalPsi",
    "BoundedFunction",
    "extremal_phi",
    "extremal_psi",
    "evaluate",
    "taylor_coeffs",
    "taylor_matrix",
    "suggested_order",
    "validate_membership",
    "schwarz_shift",
    "multiply_by_z",
    "random_schur",
    "derive_seed",
]

# Zeros at or beyond this modulus make Taylor coefficients decay too slowly
# for the truncation rules used downstream.
BLASCHKE_ZERO_CAP = 0.95

_MEMBERSHIP_TOL = 1e-9
_VALIDATION_RADIUS = 1.0 - 1e-6


@dataclass(frozen=True)
class Polynomial:
    """A polynomial, membership checked numerically on a boundary grid."""

    coeffs: tuple

    def __post_init__(self) -> None:
        coeffs = tuple(complex(c) for c in self.coeffs)
        if not coeffs:
            raise ParameterDomainError("a polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)
        worst = validate_membership(self, 256)
        if worst > 1.0 + _MEMBERSHIP_TOL:
            raise ParameterDomainError(
                f"polynomial exceeds the unit bound on the boundary grid: {worst}"
            )


@dataclass(frozen=True)
class Blaschke:
    """A finite Blaschke product times a unimodular rotation.

    ``scale`` damps the product by a constant of modulus at most 1 so that
    randomly drawn members need not have sup norm exactly 1; it is 1 for a
    pure product.  With no zeros the product is the constant ``scale``.
    """

    zeros: tuple
    unimodular_factor: complex = 1.0 + 0.0j
    scale: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        zeros = tuple(complex(a) for a in self.zeros)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "unimodular_factor", complex(self.unimodular_factor))
        object.__setattr__(self, "scale", complex(self.scale))
        for a in zeros:
            if abs(a) >= 1.0:
                raise ParameterDomainError(f"Blaschke zero must lie in the disk, got |{a}|")
        if abs(abs(self.unimodular_factor) - 1.0) > 1e-12:
            raise ParameterDomainError("the rotation factor must be unimodular")
        if abs(self.scale) > 1.0 + 1e-12:
            raise ParameterDomainError(f"|scale| must be <= 1, got {abs(self.scale)}")


@dataclass(frozen=True)
class ExtremalPsi:
    """psi_a_m(z) = z**m * phi_a(z): an m-fold zero at the origin, a in [0, 1)."""

    a: float
    m: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "m", int(self.m))
        if not 0.0 <= self.a < 1.0:
            raise ParameterDomainError(f"a must lie in [0, 1), got {self.a}")
        if self.m < 0:
            raise ParameterDomainError(f"m must be nonnegative, got {self.m}")


BoundedFunction = Union[Polynomial, Blaschke, ExtremalPsi]


def Constant(value: complex) -> Blaschke:
    """The constant ``value``, ``|value| <= 1``: the empty Blaschke product scaled by it."""
    return Blaschke((), 1.0, value)


def ExtremalPhi(a: float) -> ExtremalPsi:
    """The disk automorphism phi_a(z) = (z - a)/(1 - a z), a in [0, 1): psi with m = 0."""
    return ExtremalPsi(a, 0)


def extremal_psi(a: float, m: int) -> BoundedFunction:
    """z**m * phi_a for a in [0, 1]; a = 1 collapses to the monomial -z**m."""
    if a == 1.0:
        return Blaschke((0j,) * m, 1.0, -1.0)
    return ExtremalPsi(a, m)


def extremal_phi(a: float) -> BoundedFunction:
    """phi_a for a in [0, 1]; the degenerate a = 1 collapses to the constant -1."""
    return extremal_psi(a, 0)


def evaluate(f: BoundedFunction, z: complex) -> complex:
    """Exact structural evaluation at a point of the open unit disk."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ParameterDomainError(f"|z| must be < 1, got {abs(z)}")
    if isinstance(f, Polynomial):
        return horner(f.coeffs, z)
    if isinstance(f, Blaschke):
        out = f.unimodular_factor * f.scale
        for a in f.zeros:
            out *= (z - a) / (1.0 - a.conjugate() * z)
        return out
    if isinstance(f, ExtremalPsi):
        return z**f.m * (z - f.a) / (1.0 - f.a * z)
    raise TypeError(f"not a bounded function: {f!r}")


def taylor_coeffs(f: BoundedFunction, n_max: int) -> CoefficientSequence:
    """The first ``n_max + 1`` Taylor coefficients of ``f`` at the origin.

    A Blaschke product is the one-row case of ``taylor_matrix``.
    """
    if n_max < 0:
        raise ParameterDomainError(f"n_max must be nonnegative, got {n_max}")
    if isinstance(f, Blaschke):
        return CoefficientSequence(taylor_matrix([f], n_max)[0])
    if isinstance(f, Polynomial):
        out = np.zeros(n_max + 1, dtype=np.complex128)
        take = min(len(f.coeffs), n_max + 1)
        out[:take] = f.coeffs[:take]
        return CoefficientSequence(out)
    if isinstance(f, ExtremalPsi):
        # phi_a: -a, then (1 - a^2) a^(n-1) for n >= 1; scalar pow keeps the law exact
        out = np.zeros(n_max + 1, dtype=np.complex128)
        if n_max >= f.m:
            out[f.m] = -f.a
            slack = 1.0 - f.a * f.a
            for n in range(1, n_max - f.m + 1):
                out[f.m + n] = slack * f.a ** (n - 1)
        return CoefficientSequence(out)
    raise TypeError(f"not a bounded function: {f!r}")


def taylor_matrix(fs: Sequence[BoundedFunction], n_max: int) -> np.ndarray:
    """Taylor coefficients ``a_0 .. a_{n_max}`` of each function, one row each.

    Takes Blaschke products, constants included, the members
    ``random_schur`` draws, and expands them with numpy over the rows: each
    zero ``a`` multiplies the series by ``(z - a)``, ``g_n = h_{n-1} - a h_n``,
    then divides by ``(1 - conj(a) z)``, ``h_n = g_n + conj(a) h_{n-1}``.
    Zeros must stay inside the modulus cap 0.95 so the coefficients decay
    geometrically.
    """
    if n_max < 0:
        raise ParameterDomainError(f"n_max must be nonnegative, got {n_max}")
    for f in fs:
        if not isinstance(f, Blaschke):
            raise TypeError(f"expected a Blaschke product, got {f!r}")
    width = max((len(f.zeros) for f in fs), default=0)
    # Coefficient index first: one recurrence step over all rows is contiguous.
    h = np.zeros((n_max + 1, len(fs)), dtype=np.complex128)
    zeros = np.zeros((len(fs), width), dtype=np.complex128)
    live = np.zeros((len(fs), width), dtype=bool)
    for i, f in enumerate(fs):
        h[0, i] = f.unimodular_factor * f.scale
        zeros[i, : len(f.zeros)] = f.zeros
        live[i, : len(f.zeros)] = True
    worst = np.abs(zeros).max(initial=0.0)
    if worst >= BLASCHKE_ZERO_CAP:
        raise ParameterDomainError(
            f"Blaschke zero modulus {worst} at or above the cap {BLASCHKE_ZERO_CAP}"
        )
    # A row without this zero skips the multiply; its padding a = 0 makes the divide exact.
    for a, a_bar, on in zip(zeros.T, zeros.conj().T, live.T):
        g = h.copy()
        g[1:, on] = h[:-1, on] - a[on] * h[1:, on]
        g[0, on] = -a[on] * h[0, on]
        for n in range(1, n_max + 1):
            g[n] += a_bar * g[n - 1]
        h = g
    if not np.all(np.isfinite(h)):
        raise ParameterDomainError("coefficient entries must be finite")
    return np.ascontiguousarray(h.T)


def suggested_order(f: BoundedFunction, eps: float = 1e-15) -> int:
    """Truncation order from the geometric tail rule.

    Per Blaschke-type factor with zero modulus ``q`` the rule is
    ``N >= log(eps * (1 - q)) / log(q)``, which caps the factor's
    coefficient tail by roughly ``2 * eps``.  A Blaschke product with ``k``
    zeros at the origin, the monomial ``z**k`` times the other factors,
    needs at least order ``k``.
    """
    if eps <= 0.0:
        raise ParameterDomainError("eps must be positive")

    def factor_order(q: float) -> int:
        if q <= 0.0:
            return 1
        return max(1, math.ceil(math.log(eps * (1.0 - q)) / math.log(q)))

    if isinstance(f, Polynomial):
        return len(f.coeffs) - 1
    if isinstance(f, ExtremalPsi):
        return factor_order(f.a) + f.m
    if isinstance(f, Blaschke):
        return max([f.zeros.count(0j)] + [factor_order(abs(a)) for a in f.zeros if a != 0])
    raise TypeError(f"not a bounded function: {f!r}")


def validate_membership(f: BoundedFunction, grid_size: int) -> float:
    """Max modulus over equispaced points on the circle of radius 1 - 1e-6."""
    if grid_size < 16:
        raise ParameterDomainError(f"grid_size must be >= 16, got {grid_size}")
    return max(
        abs(evaluate(f, _VALIDATION_RADIUS * cmath.exp(2j * math.pi * k / grid_size)))
        for k in range(grid_size)
    )


def schwarz_shift(f: BoundedFunction, m: int) -> BoundedFunction:
    """Divide out ``z**m`` structurally, preserving exact evaluation."""
    if m < 0:
        raise ParameterDomainError(f"m must be nonnegative, got {m}")
    if m == 0:
        return f
    if isinstance(f, Polynomial):
        if len(f.coeffs) <= m:
            if all(c == 0 for c in f.coeffs):
                return Constant(0.0)
            raise PreconditionError("polynomial has fewer leading zeros than required")
        if any(abs(c) > 1e-12 for c in f.coeffs[:m]):
            raise PreconditionError("polynomial lacks the required zero at the origin")
        return Polynomial(f.coeffs[m:])
    if isinstance(f, Blaschke):
        if f.scale == 0:
            return f  # the zero function
        at_origin = sum(1 for a in f.zeros if a == 0)
        if at_origin < m:
            raise PreconditionError(
                f"Blaschke product has {at_origin} zeros at the origin, needs {m}"
            )
        remaining = list(f.zeros)
        for _ in range(m):
            remaining.remove(0j)
        return Blaschke(tuple(remaining), f.unimodular_factor, f.scale)
    if isinstance(f, ExtremalPsi):
        if f.m < m:
            raise PreconditionError(f"psi has an {f.m}-fold zero, needs {m}")
        return ExtremalPsi(f.a, f.m - m)
    raise TypeError(f"not a bounded function: {f!r}")


def multiply_by_z(f: BoundedFunction, m: int = 1) -> BoundedFunction:
    """Multiply by ``z**m`` structurally; the result stays in the unit ball."""
    if m < 0:
        raise ParameterDomainError(f"m must be nonnegative, got {m}")
    if m == 0:
        return f
    if isinstance(f, Polynomial):
        return Polynomial((0.0,) * m + f.coeffs)
    if isinstance(f, Blaschke):
        return Blaschke(f.zeros + (0j,) * m, f.unimodular_factor, f.scale)
    if isinstance(f, ExtremalPsi):
        return ExtremalPsi(f.a, f.m + m)
    raise TypeError(f"not a bounded function: {f!r}")


_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def derive_seed(master_seed: int, index: int) -> int:
    """Per-sample seed from the splitmix64 stream at position ``index``.

    Serial and parallel sweeps agree because the mix depends only on
    ``(master_seed, index)``.
    """
    x = (master_seed + (index + 1) * _GOLDEN64) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _disk_point(rng: np.random.Generator, radius: float = 1.0) -> complex:
    # Uniform w.r.t. area on the disk of the given radius.
    r = radius * math.sqrt(rng.random())
    theta = 2.0 * math.pi * rng.random()
    return r * cmath.exp(1j * theta)


def random_schur(seed: int, max_factors: int, radius_cap: float) -> BoundedFunction:
    """Deterministically draw a member of the unit ball.

    Mixture: 1/4 constants uniform on the closed disk, 3/4 Blaschke-based
    (split evenly between pure products and products damped by a uniform
    disk constant).  Zeros are uniform on the disk of radius ``radius_cap``;
    the rotation is uniform on the circle.
    """
    if max_factors < 0:
        raise ParameterDomainError(f"max_factors must be nonnegative, got {max_factors}")
    if not 0.0 < radius_cap <= BLASCHKE_ZERO_CAP:
        raise ParameterDomainError(
            f"radius_cap must lie in (0, {BLASCHKE_ZERO_CAP}], got {radius_cap}"
        )
    rng = np.random.default_rng(seed & _MASK64)
    branch = rng.random()
    if branch < 0.25:
        return Constant(_disk_point(rng))
    n_factors = int(rng.integers(0, max_factors + 1))
    zeros = tuple(_disk_point(rng, radius_cap) for _ in range(n_factors))
    rotation = cmath.exp(2j * math.pi * rng.random())
    if branch < 0.625:
        return Blaschke(zeros, rotation)
    return Blaschke(zeros, rotation, scale=_disk_point(rng))
