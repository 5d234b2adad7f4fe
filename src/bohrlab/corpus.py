"""Concrete members of the unit ball of bounded analytic functions.

Every member is one type, ``Blaschke``: a finite Blaschke product
``c * prod_j (z - a_j) / (1 - conj(a_j) z)`` with a lead ``|c| <= 1``, which
is unimodular (a rotation) for a pure product and smaller for a damped one.
A constant is the empty product, ``Blaschke((), c)``; ``z**m`` times a member is
the member with ``m`` more zeros at the origin; and the paper's extremal
``z**m phi_a``, ``phi_a(z) = (z - a)/(1 - a z)``, is ``Blaschke((0j,) * m +
(a,))``.  The constructor is the membership check.  A member has an exact
rational point evaluator, and ``expand`` gives its Taylor coefficients,
exact up to rounding, as a ``complex128`` matrix with one row per member;
``taylor_coeffs`` is the one-row case, the plain array every series
function takes.

Verification sweeps draw random members from one counter-based stream:
uniform ``j`` of the member with seed ``s`` is ``(derive_seed(s, j) >> 11)
* 2**-53``, splitmix64 (Steele, Lea & Flood, OOPSLA 2014) at position ``j``.
The members are constants, finite Blaschke products (sup norm exactly 1 on
the circle), and Blaschke products damped by a constant of modulus at most
1.  ``random_schur_block`` draws a whole block of seeds as the block row
``(lead, zeros, live)`` that ``expand`` turns into Taylor coefficients, and
``random_schur`` is the ``Blaschke`` of its one-row block.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from . import _EXPORTS
from .errors import ParameterDomainError, PreconditionError
from .operators import BLASCHKE_ZERO_CAP, Record, check_draw

__all__ = _EXPORTS["corpus"]

class Blaschke(Record):
    """A finite Blaschke product times a lead ``scale`` of modulus at most 1.

    The lead is unimodular, a rotation, for a pure product, and smaller for
    a damped one, so that randomly drawn members need not have sup norm
    exactly 1.  With no zeros the product is the constant ``scale``.  Each
    check is written so that a NaN fails it.
    """

    __slots__ = ("zeros", "scale")

    def __init__(self, zeros: Sequence[complex], scale: complex = 1.0 + 0.0j) -> None:
        zeros, scale = tuple(complex(a) for a in zeros), complex(scale)
        for a in zeros:
            if not abs(a) < 1.0:
                raise ParameterDomainError(f"Blaschke zero must lie in the disk, got |{a}|")
        if not abs(scale) <= 1.0 + 1e-12:
            raise ParameterDomainError(f"|scale| must be <= 1, got {abs(scale)}")
        super().__init__(zeros, scale)


def evaluate(f: Blaschke, z: complex) -> complex:
    """Exact structural evaluation at a point of the open unit disk."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ParameterDomainError(f"|z| must be < 1, got {abs(z)}")
    out = f.scale
    for a in f.zeros:
        out *= (z - a) / (1.0 - a.conjugate() * z)
    return out


def taylor_coeffs(f: Blaschke, n_max: int) -> np.ndarray:
    """The first ``n_max + 1`` Taylor coefficients of ``f`` at the origin, a
    complex row: ``expand`` of the one-row block of ``f``."""
    zeros = np.array([f.zeros], dtype=np.complex128)
    h0 = np.array([f.scale], dtype=np.complex128)
    return expand(h0, zeros, np.ones(zeros.shape, dtype=bool), n_max)[0]


def expand(
    h0: np.ndarray, zeros: np.ndarray, live: np.ndarray, n_max: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Taylor coefficients ``a_0 .. a_{n_max}`` of a block of Blaschke products,
    written into ``out`` (a new matrix if None) and returned.

    Row ``i`` is ``h0[i] * prod_j (z - a_j) / (1 - conj(a_j) z)`` over the
    zeros ``a_j = zeros[i, j]`` with ``live[i, j]``; the zeros of a row come
    first and the padding is 0.  Each zero multiplies the series by
    ``(z - a)``, ``g_n = h_{n-1} - a h_n``, then divides by
    ``(1 - conj(a) z)``, ``h_n = g_n + conj(a) h_{n-1}``, with numpy over the
    rows.  The rows are taken in order of their live-zero count, most first
    (a stable sort), so the rows that hold zero ``j`` are a leading slice.
    Zeros must stay inside the modulus cap 0.95 so the coefficients decay
    geometrically.
    """
    if n_max < 0:
        raise ParameterDomainError(f"n_max must be nonnegative, got {n_max}")
    worst = np.abs(zeros).max(initial=0.0)
    if worst >= BLASCHKE_ZERO_CAP:
        raise ParameterDomainError(
            f"Blaschke zero modulus {worst} at or above the cap {BLASCHKE_ZERO_CAP}"
        )
    counts = live.sum(axis=1)
    if not np.array_equal(live, np.arange(live.shape[1]) < counts[:, None]):
        raise ParameterDomainError("the live zeros of a row must come first")
    rows = np.argsort(-counts, kind="stable")
    # Coefficient index first: one recurrence step over all rows is contiguous.
    h = np.zeros((n_max + 1, len(h0)), dtype=np.complex128)
    h[0] = h0[rows]
    # Zero j of the sorted rows, contiguous; the padding a = 0 makes the divide exact.
    column = np.ascontiguousarray(zeros[rows].T)
    for a, a_bar, held in zip(column, column.conj(), live.sum(axis=0).tolist()):
        a = a[:held]
        h[1:, :held] = h[:-1, :held] - a * h[1:, :held]
        h[0, :held] = -a * h[0, :held]
        for n in range(1, n_max + 1):
            h[n] += a_bar * h[n - 1]
    if not np.all(np.isfinite(h)):
        raise ParameterDomainError("coefficient entries must be finite")
    if out is None:
        out = np.empty((len(h0), n_max + 1), dtype=np.complex128)
    out[rows] = h.T
    return out


def schwarz_shift(f: Blaschke, m: int) -> Blaschke:
    """Divide out ``z**m`` structurally, preserving exact evaluation."""
    if m < 0:
        raise ParameterDomainError(f"m must be nonnegative, got {m}")
    if m == 0 or f.scale == 0:
        return f  # the zero function divides by any power of z
    at_origin = f.zeros.count(0j)
    if at_origin < m:
        raise PreconditionError(
            f"Blaschke product has {at_origin} zeros at the origin, needs {m}"
        )
    remaining = list(f.zeros)
    for _ in range(m):
        remaining.remove(0j)
    return Blaschke(tuple(remaining), f.scale)


def multiply_by_z(f: Blaschke, m: int = 1) -> Blaschke:
    """Multiply by ``z**m`` structurally: ``m`` more zeros at the origin."""
    if m < 0:
        raise ParameterDomainError(f"m must be nonnegative, got {m}")
    return Blaschke(f.zeros + (0j,) * m, f.scale)


_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15


def derive_seed(master_seed, index):
    """Output ``index`` of the splitmix64 stream started at ``master_seed``.

    Serial and parallel sweeps agree because the mix depends only on
    ``(master_seed, index)``.  Either argument may be a uint64 array
    instead of an int; the arrays broadcast, wrap modulo 2**64 and give the
    same bits as the ints.
    """
    x = ((master_seed & _MASK64) + (index + 1) * _GOLDEN64) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.broadcast(re, im).shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` rounded as Python's complex product, which numpy's complex
    multiply may not be: it can fuse ``ac - bd`` into one rounding."""
    return _complex(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _unit(u_angle: np.ndarray) -> np.ndarray:
    """``cmath.exp(2j * math.pi * u)``: numpy's complex ``exp`` rounds as ``cmath``."""
    return np.exp(_complex(0.0, 2.0 * math.pi * u_angle))


def _disk_points(u_radius: np.ndarray, u_angle: np.ndarray, radius: float) -> np.ndarray:
    """Points uniform by area on the disk of the given radius."""
    unit = _unit(u_angle)
    length = radius * np.sqrt(u_radius)
    return _complex(length * unit.real, length * unit.imag)


def random_schur(seed: int, max_factors: int, radius_cap: float) -> Blaschke:
    """Deterministically draw a member of the unit ball: the ``Blaschke`` of
    the one-row ``random_schur_block``.

    Mixture: 1/4 constants uniform on the closed disk, 3/4 Blaschke-based
    (split evenly between pure products and products damped by a uniform
    disk constant), with ``0 .. max_factors`` factors, uniformly.  Zeros
    are uniform on the disk of radius ``radius_cap``; the rotation is
    uniform on the circle.
    """
    (h0,), (zeros,), (live,) = random_schur_block([seed], max_factors, radius_cap)
    return Blaschke(tuple(zeros[live]), h0)


def random_schur_block(seeds: Sequence[int], max_factors: int, radius_cap: float) -> tuple:
    """The corpus members of a block of seeds as the block row ``(h0, zeros,
    live)`` that ``expand`` reads; ``seeds`` is a list of ints or a uint64 array.

    Uniform ``j`` of the member with seed ``s`` is ``(derive_seed(s, j) >>
    11) * 2**-53``.  Column 0 picks the branch, column 1 the factor count
    ``floor(u * (max_factors + 1))``, columns 2 and 3 the constant or the
    damping point (length, angle), column 4 the rotation and columns
    ``5 + 2j`` and ``6 + 2j`` zero ``j``.  The lead ``h0`` is the rotation
    times the scale, rounded as Python's complex product: a constant has
    rotation 1 and no zeros, a pure product scale 1.  Zeros come first in a
    row; the padding is 0 and not ``live``.
    """
    check_draw(max_factors, radius_cap)
    if not isinstance(seeds, np.ndarray):
        seeds = np.array([seed & _MASK64 for seed in seeds], dtype=np.uint64)
    columns = np.arange(5 + 2 * max_factors, dtype=np.uint64)
    u = (derive_seed(seeds[:, None], columns) >> 11).astype(np.float64) * 2.0**-53
    constant, pure = u[:, 0] < 0.25, (0.25 <= u[:, 0]) & (u[:, 0] < 0.625)
    counts = np.where(constant, 0, u[:, 1] * (max_factors + 1)).astype(np.intp)
    width = int(counts.max(initial=0))
    live = np.arange(width) < counts[:, None]
    zeros = _disk_points(u[:, 5 : 5 + 2 * width : 2], u[:, 6 : 6 + 2 * width : 2], radius_cap)
    rotation = np.where(constant, 1.0, _unit(u[:, 4]))
    scale = np.where(pure, 1.0, _disk_points(u[:, 2], u[:, 3], 1.0))
    return _cmul(rotation, scale), np.where(live, zeros, 0.0), live
