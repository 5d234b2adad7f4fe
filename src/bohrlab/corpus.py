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
by a constant of modulus at most 1.  ``random_schur_block`` draws the same
members for a whole block of seeds as arrays, and ``expand`` turns those
arrays into Taylor coefficients.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
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
    "random_schur_block",
    "expand",
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
    ``random_schur`` draws, and lays them out as the arrays ``expand`` reads.
    """
    for f in fs:
        if not isinstance(f, Blaschke):
            raise TypeError(f"expected a Blaschke product, got {f!r}")
    width = max((len(f.zeros) for f in fs), default=0)
    h0 = np.array([f.unimodular_factor * f.scale for f in fs], dtype=np.complex128)
    zeros = np.zeros((len(fs), width), dtype=np.complex128)
    live = np.zeros((len(fs), width), dtype=bool)
    for i, f in enumerate(fs):
        zeros[i, : len(f.zeros)] = f.zeros
        live[i, : len(f.zeros)] = True
    return expand(h0, zeros, live, n_max)


def expand(h0: np.ndarray, zeros: np.ndarray, live: np.ndarray, n_max: int) -> np.ndarray:
    """Taylor coefficients ``a_0 .. a_{n_max}`` of a block of Blaschke products.

    Row ``i`` is ``h0[i] * prod_j (z - a_j) / (1 - conj(a_j) z)`` over the
    zeros ``a_j = zeros[i, j]`` with ``live[i, j]``; the zeros of a row come
    first and the padding is 0.  Each zero multiplies the series by
    ``(z - a)``, ``g_n = h_{n-1} - a h_n``, then divides by
    ``(1 - conj(a) z)``, ``h_n = g_n + conj(a) h_{n-1}``, with numpy over the
    rows.  Zeros must stay inside the modulus cap 0.95 so the coefficients
    decay geometrically.
    """
    if n_max < 0:
        raise ParameterDomainError(f"n_max must be nonnegative, got {n_max}")
    worst = np.abs(zeros).max(initial=0.0)
    if worst >= BLASCHKE_ZERO_CAP:
        raise ParameterDomainError(
            f"Blaschke zero modulus {worst} at or above the cap {BLASCHKE_ZERO_CAP}"
        )
    # Coefficient index first: one recurrence step over all rows is contiguous.
    h = np.zeros((n_max + 1, len(h0)), dtype=np.complex128)
    h[0] = h0
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


def _check_draw(max_factors: int, radius_cap: float) -> None:
    if max_factors < 0:
        raise ParameterDomainError(f"max_factors must be nonnegative, got {max_factors}")
    if not 0.0 < radius_cap <= BLASCHKE_ZERO_CAP:
        raise ParameterDomainError(
            f"radius_cap must lie in (0, {BLASCHKE_ZERO_CAP}], got {radius_cap}"
        )


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
    _check_draw(max_factors, radius_cap)
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


# ``random_schur_block`` replays numpy's ``default_rng(seed)`` stream with
# array arithmetic over a block of seeds: the SeedSequence hash pool, PCG64
# (XSL-RR 128/64, O'Neill, HMC-CS-2014-0905) with its 128-bit state held in
# (high, low) pairs of uint64 arrays, ``random()``, and Lemire's bounded
# ``integers()`` (ACM TOMACS 29(1), 2019).  The constants are numpy's.
_M32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The running hash constant of ``count`` SeedSequence hashes, as columns.

    Hash ``i`` xors its input with row ``i`` of column 0 and multiplies by
    row ``i`` of column 1; the constant does not depend on the data.
    """
    out = []
    for _ in range(count):
        out.append((init, init * mult & _M32))
        init = out[-1][1]
    return np.array(out, dtype=np.uint32)[:, :, None]


# Pool hashes (four entropy words, then three per mixing round) and output hashes.
_POOL_HASH = _hash_consts(0x43B0D7E5, 0x931E8875, 16)
_STATE_HASH = _hash_consts(0x8B51F9DD, 0x58F38DED, 8)


def _hash(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    value = (value ^ consts[:, 0]) * consts[:, 1]
    return value ^ value >> np.uint32(16)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)``, one column per seed.

    The entropy is the seed's two 32-bit words; numpy gives a seed below
    2**32 one word and hashes the missing one as the 0 it pads the pool with.
    """
    entropy = np.zeros((4, len(seeds)), dtype=np.uint32)
    entropy[0], entropy[1] = seeds & _M32, seeds >> 32
    pool = _hash(entropy, _POOL_HASH[:4])
    # Every word is mixed with the hash of every other; a source word's three
    # hashes use consecutive constants.
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        hashed = _hash(pool[src], _POOL_HASH[4 + 3 * src : 7 + 3 * src])
        mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashed
        pool[dst] = mixed ^ mixed >> np.uint32(16)
    words = _hash(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_HASH).astype(np.uint64)
    return words[0::2] | words[1::2] << 32


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High word of the 128-bit product of uint64 arrays, from 32-bit halves."""
    a0, a1, b0, b1 = a & _M32, a >> 32, b & _M32, b >> 32
    cross_ab, cross_ba = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (cross_ab & _M32) + (cross_ba & _M32)
    return a1 * b1 + (cross_ab >> 32) + (cross_ba >> 32) + (mid >> 32)


def _mul128(a: tuple, b: tuple) -> tuple:
    """``a * b mod 2**128`` for (high, low) pairs; uint64 products wrap."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    return _mulhi64(a_lo, b_lo) + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add128(a: tuple, b: tuple) -> tuple:
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _words128(values: list) -> tuple:
    return (
        np.array([v >> 64 for v in values], dtype=np.uint64),
        np.array([v & _MASK64 for v in values], dtype=np.uint64),
    )


@lru_cache(maxsize=None)
def _pcg_sums(count: int) -> tuple:
    """``1 + A + .. + A**(j-1)`` mod 2**128 for j < count, ``A`` the multiplier.

    ``j`` steps take a state ``s`` with increment ``c`` to
    ``s + (1 + A + .. + A**(j-1)) ((A - 1) s + c)``.
    """
    sums, power, total = [], 1, 0
    for _ in range(count):
        sums.append(total)
        total = (total + power) & _MASK128
        power = power * _PCG_MULT & _MASK128
    return _words128(sums)


# Set-seq seeding starts at state 0 with increment ``c = 2 initseq + 1``,
# steps, adds ``initstate`` and steps again; the first output steps once
# more, to ``A**2 initstate + (1 + A + A**2) c``.
_SEED_POWER, _SEED_SUM, _PCG_STEP = (
    _words128([v])
    for v in (_PCG_MULT**2 & _MASK128, 1 + _PCG_MULT + _PCG_MULT**2 & _MASK128, _PCG_MULT - 1)
)


def _pcg_outputs(seeds: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` outputs of ``PCG64(seed)``, one row per seed."""
    state_hi, state_lo, seq_hi, seq_lo = (w[:, None] for w in _seed_words(seeds))
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    state = _add128(_mul128((state_hi, state_lo), _SEED_POWER), _mul128(inc, _SEED_SUM))
    step = _add128(_mul128(state, _PCG_STEP), inc)
    hi, lo = _add128(state, _mul128(step, _pcg_sums(count)))
    # XSL-RR: fold the halves, rotate right by the top six bits.
    folded, rot = hi ^ lo, hi >> 58
    return folded >> rot | folded << (64 - rot & 63)


def _uniform(raw: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of each output: its top 53 bits times 2**-53."""
    return (raw >> 11).astype(np.float64) * 2.0**-53


def _lemire_redraws(leftover: np.ndarray, k: int) -> np.ndarray:
    """Where ``integers(0, k)`` rejects its first 32-bit draw and draws again."""
    return leftover < (2**32 - k) % k


def _complex(re, im) -> np.ndarray:
    out = np.empty(np.broadcast(re, im).shape, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _cmul(a: tuple, b: tuple) -> tuple:
    """The product of (re, im) pairs, rounded as Python's complex product.

    numpy's complex multiply may fuse ``ac - bd`` into one rounding.
    """
    (a_re, a_im), (b_re, b_im) = a, b
    return a_re * b_re - a_im * b_im, a_re * b_im + a_im * b_re


def _unit(u_angle: np.ndarray) -> tuple:
    """``cmath.exp(2j * math.pi * u)`` as (re, im) arrays, (cos, sin) of ``2 pi u``."""
    unit = np.exp(_complex(0.0, 2.0 * math.pi * u_angle))
    return unit.real, unit.imag


def _disk_points(u_radius: np.ndarray, u_angle: np.ndarray, radius: float) -> tuple:
    """``_disk_point`` of the given uniforms, as (re, im) arrays."""
    return _cmul((radius * np.sqrt(u_radius), 0.0), _unit(u_angle))


def random_schur_block(seeds: Sequence[int], max_factors: int, radius_cap: float) -> tuple:
    """``random_schur`` over a block of seeds, as the arrays ``expand`` reads.

    Returns ``(h0, zeros, live)``, equal bit for bit to the arrays
    ``taylor_matrix`` builds from ``random_schur(seed, ...)`` for each seed,
    without a per-seed generator or member.  A draw reads the outputs
    ``branch``, the factor count (only when ``max_factors > 0``), two per
    zero, the rotation and, when damped, two for the scale; a constant reads
    ``branch`` and two.  A seed whose count numpy would draw twice, at odds
    of about 2**-32, is drawn by ``random_schur`` itself.
    """
    _check_draw(max_factors, radius_cap)
    if max_factors >= _M32 - 1:
        raise ParameterDomainError(f"max_factors must be below 2**32 - 1, got {max_factors}")
    first = 1 if max_factors == 0 else 2  # output index of the first zero
    u_raw = _pcg_outputs(
        np.array([seed & _MASK64 for seed in seeds], dtype=np.uint64),
        first + 2 * max_factors + 3,
    )
    u = _uniform(u_raw)
    branch = u[:, 0]
    # Lemire: the count is the high word of a 32-bit draw times k; k = 1 draws nothing.
    k = max_factors + 1
    scaled = (u_raw[:, 1] & _M32) * np.uint64(k)
    redraw = _lemire_redraws(scaled & _M32, k)
    counts = np.where((branch < 0.25) | redraw, 0, scaled >> 32).astype(np.intp)
    redrawn = {i: random_schur(seeds[i], max_factors, radius_cap) for i in np.flatnonzero(redraw)}
    width = max([int(counts.max(initial=0))] + [len(f.zeros) for f in redrawn.values()])

    stop = first + 2 * width
    live = np.arange(width) < counts[:, None]
    zeros = _disk_points(u[:, first:stop:2], u[:, first + 1 : stop : 2], radius_cap)
    zeros = np.where(live, _complex(*zeros), 0.0)
    rows, after = np.arange(len(u)), first + 2 * counts
    rotation = _unit(u[rows, after])
    constant = _cmul((1.0, 0.0), _disk_points(u[:, 1], u[:, 2], 1.0))
    pure = _cmul(rotation, (1.0, 0.0))
    damped = _cmul(rotation, _disk_points(u[rows, after + 1], u[rows, after + 2], 1.0))
    h0 = _complex(*(
        np.where(branch < 0.25, c, np.where(branch < 0.625, p, d))
        for c, p, d in zip(constant, pure, damped)
    ))
    for i, f in redrawn.items():
        h0[i] = f.unimodular_factor * f.scale
        zeros[i, : len(f.zeros)] = f.zeros
        live[i, : len(f.zeros)] = True
    return h0, zeros, live
