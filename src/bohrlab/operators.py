"""Integral operators on the unit ball: series images, certified
absolute-series (majorant) values, closed-form sup bounds, and adaptive
quadrature of the defining integrals.

Every operator is a radius family ``F`` plus an origin shift,

    K[f](z) = z**s * F[f / z**d](z),

where F is one of two families acting on f(z) = sum a_n z^n:

* ``CesaroBeta(beta)``  T_b[f](z) = integral_0^1 f(tz) (1-tz)**(-b) dt,
  with series coefficients ``(1/(n+1)) sum_{k<=n} c_{n-k}(b) a_k``.
* ``Bernardi(gamma, m)``  L_g[f](z) = integral_0^1 f(zt) t**(gamma-1) dt
  = sum_{n>=m} a_n/(n+gamma) z^n, for f with an m-fold zero and gamma > -m.

A family used on its own has ``(s, d) = (0, 0)``.  The named operators are
``Libera()`` = Bernardi(1, 0), ``Alexander()`` = Bernardi(0, 1),
``CBeta(beta)`` = ``z * T_b[f / z]`` (the variant for functions vanishing
at 0, shift (1, 1) over CesaroBeta) and ``PrimitiveI()`` = the
antiderivative ``integral_0^z f = z * L_1[f]`` (shift (1, 0) over
Bernardi(1, 0)).  ``ClassicalBohr()`` is the identity operator, the
baseline with bound 1.

Each family supplies its coefficient image, majorant weights, defining
integral, sup bound and radius equation; the module functions below apply
the shift rule once for all of them.  The absolute series of the image is
linear in ``|a_k|``, so the majorant is a weight vector:
``M(f, r) = r**s * sum_k |a_{k+d}| w_k(r)``, built once per
``(family, r, eps)`` and applied to a whole coefficient matrix.  The weight
vector is the family's one truncation decision: it ends where the partial
sum differs from the full absolute series of any unit-ball member by at
most ``eps``, using the running-sum identity ``sum_{k<=n} c_k(b) =
c_n(b+1)`` and a geometric envelope for the Cesaro family and the plain
geometric bound for the Bernardi family and the identity.  Every series
order (``series_order``, the coefficients ``verify`` samples, the extremal
members' expansions) is read off its length, and the Bernardi radius
equation is the identity ``w_m - 2 sum_{k>m} w_k`` in the same weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .corpus import BoundedFunction, evaluate, schwarz_shift
from .errors import (
    ParameterDomainError,
    PreconditionError,
    QuadratureError,
    TruncationError,
)
from .series import CoefficientSequence, binomial_coeffs

__all__ = [
    "CesaroBeta",
    "Bernardi",
    "ClassicalBohr",
    "Shifted",
    "CBeta",
    "Libera",
    "Alexander",
    "PrimitiveI",
    "OperatorKind",
    "kernel_integral",
    "cesaro_series_order",
    "series_order",
    "required_origin_zeros",
    "operator_coeffs",
    "majorant_value",
    "majorant_values",
    "bohr_majorant",
    "quadrature_value",
    "sup_bound",
    "adaptive_simpson",
    "MAX_SERIES_TERMS",
]

# Order cap for adaptive series truncation.
MAX_SERIES_TERMS = 10**6


class Unshifted:
    """A family used as an operator on its own: ``(s, d) = (0, 0)``.

    A family provides ``m`` (the origin zeros its operand needs) and the
    methods ``image``, ``weights(r, eps)`` and ``bound``; the two radius
    families add ``integral``, ``radius_equation`` and
    ``require_root_below``.  A family has no order method of its own:
    ``series_order`` reads every truncation order off the length of its
    weight vector.
    """

    s = 0
    d = 0

    @property
    def family(self):
        return self


@dataclass(frozen=True)
class CesaroBeta(Unshifted):
    """The generalized Cesaro family ``T_beta``; its operand needs no zero at 0."""

    beta: float
    m = 0  # no zero at the origin needed

    def __post_init__(self) -> None:
        object.__setattr__(self, "beta", float(self.beta))
        if self.beta <= 0.0:
            raise ParameterDomainError(f"beta must be positive, got {self.beta}")

    def image(self, a: np.ndarray, n_max: int) -> np.ndarray:
        c = binomial_coeffs(self.beta, n_max)
        return np.convolve(c, a[: n_max + 1])[: n_max + 1] / np.arange(1, n_max + 2)

    def weights(self, r: float, eps: float) -> np.ndarray:
        """``w_k = sum_j c_j(beta) r**(k+j) / (k+j+1)`` over ``k + j <= N``,
        ``N = cesaro_series_order(beta, r, eps)``, for ``k <= N``."""
        n_stop = cesaro_series_order(self.beta, r, eps)
        c = binomial_coeffs(self.beta, n_stop)
        r_pow, denom = r ** np.arange(n_stop + 1), np.arange(1, n_stop + 2)
        tails = range(n_stop + 1)
        return np.array([math.fsum(c[: n_stop + 1 - k] * r_pow[k:] / denom[k:]) for k in tails])

    def integral(self, f: BoundedFunction, z: complex, tol: float) -> complex:
        beta = self.beta
        return adaptive_simpson(
            lambda t: evaluate(f, t * z) * (1.0 - t * z) ** (-beta), 0.0, 1.0, tol
        )

    def bound(self, r: float, s: int = 0) -> float:
        """Sharp bound of ``z**s T_beta[f]`` on ``|z| = r``: ``r**(s-1) A(beta, r)``."""
        return kernel_integral(self.beta, r) / r ** (1 - s)

    def radius_equation(self, x: float, tail_eps: float) -> float:
        """``3 A(beta, x) - 2 A(beta + 1, x)`` with ``A = kernel_integral``."""
        return 3.0 * kernel_integral(self.beta, x) - 2.0 * kernel_integral(self.beta + 1.0, x)

    def require_root_below(self, ladder: Sequence[float], tail_eps: float) -> None:
        """Every Cesaro root lies in (1/3, 0.59), far below any ladder top."""


@dataclass(frozen=True)
class Bernardi(Unshifted):
    """The Bernardi family ``L_gamma`` on operands with an ``m``-fold zero at 0."""

    gamma: float
    m: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "m", int(self.m))
        if self.m < 0:
            raise ParameterDomainError(f"m must be nonnegative, got {self.m}")
        if self.gamma <= -self.m:
            raise ParameterDomainError(
                f"gamma must exceed -m, got gamma={self.gamma}, m={self.m}"
            )

    def image(self, a: np.ndarray, n_max: int) -> np.ndarray:
        out = np.zeros(n_max + 1, dtype=np.complex128)
        if n_max >= self.m:
            n = np.arange(self.m, n_max + 1, dtype=np.float64)
            out[self.m :] = a[self.m : n_max + 1] / (n + self.gamma)
        return out

    def weights(self, r: float, eps: float) -> np.ndarray:
        """``w_k = r**k / (k+gamma)`` for ``k >= m``, zero below ``m``, cut
        before the first ``k`` with ``r**k / ((k+gamma)(1-r)) <= eps``.

        For ``k > m`` we have ``k + gamma > 1``, so that ``k`` is at most
        ``max(ceil(log(eps (1-r)) / log r), m) + 1``; the scan from ``m``
        stops there, or at the order cap, where ``TruncationError`` is
        raised at once unless ``_cap_fits`` says the cut is reached by then.
        """
        cap = MAX_SERIES_TERMS - 1
        top = max(math.ceil(math.log(eps * (1.0 - r)) / math.log(r)), self.m) + 1
        if top > cap and not self._cap_fits(r, eps):
            raise TruncationError(
                f"Bernardi weights will not reach {eps} within {MAX_SERIES_TERMS} terms at r={r}"
            )
        k = np.arange(self.m, min(top, cap) + 1)
        r_pow = r**k
        done = np.flatnonzero(r_pow / ((k + self.gamma) * (1.0 - r)) <= eps)
        stop = done[0] if done.size else k.size
        w = np.zeros(self.m + stop)
        w[self.m :] = r_pow[:stop] / (k[:stop] + self.gamma)
        return w

    def integral(self, f: BoundedFunction, z: complex, tol: float) -> complex:
        """Endpoint singularities of the kernel (gamma < 1) are removed by
        splitting off the m-fold zero of the operand and substituting
        ``u = t**(m + gamma)`` when the combined exponent stays below 1."""
        gamma, m = self.gamma, self.m
        if gamma >= 1.0:
            return adaptive_simpson(
                lambda t: evaluate(f, t * z) * t ** (gamma - 1.0), 0.0, 1.0, tol
            )
        h = schwarz_shift(f, m)
        s = m + gamma
        zm = z**m
        if s >= 1.0:
            return zm * adaptive_simpson(
                lambda t: evaluate(h, t * z) * t ** (s - 1.0), 0.0, 1.0, tol
            )
        # 0 < s < 1: substitute u = t**s, which flattens the endpoint.
        inv_s = 1.0 / s
        return (
            zm
            / s
            * adaptive_simpson(lambda u: evaluate(h, u**inv_s * z), 0.0, 1.0, tol * s)
        )

    def bound(self, r: float, s: int = 0) -> float:
        """Sharp bound of ``z**s L_gamma[f]`` on ``|z| = r``: ``r**(m+s) / (m+gamma)``."""
        return r ** (self.m + s) / (self.m + self.gamma)

    def _cap_fits(self, x: float, eps: float) -> bool:
        """Whether ``weights(x, eps)`` is cut by the order cap: its tail
        bound at ``MAX_SERIES_TERMS - 1`` is at most ``eps``."""
        cap = MAX_SERIES_TERMS - 1
        return x**cap / ((cap + self.gamma) * (1.0 - x)) <= eps

    def require_root_below(self, ladder: Sequence[float], tail_eps: float) -> None:
        """Refuse parameters whose radius-equation root is certified to lie
        above every ``ladder`` point where the equation's tail can be summed.

        For ``n > m``, ``sum x**n/(n+gamma) = x**-gamma integral_0^x
        t**(m+gamma)/(1-t) dt <= -x**m log(1-x)`` because ``m + gamma > 0``,
        so the equation is at least ``x**m (1/(m+gamma) + 2 log(1-x))``, and
        its root is at least ``1 - exp(-1/(2(m+gamma)))``.  When no ladder
        point at or above that floor passes the weights' order-cap test at
        the cut ``radius_equation`` uses there, the solver would run into a
        ``TruncationError`` before it brackets the root.
        """
        s = self.m + self.gamma
        floor = -math.expm1(-0.5 / s)
        if not any(
            self._cap_fits(x, 0.5 * tail_eps * min(1.0, x**self.m / s))
            for x in ladder
            if x >= floor
        ):
            raise ParameterDomainError(
                f"m+gamma={s:g}: the radius equation's root R lies above every ladder "
                f"point its {MAX_SERIES_TERMS}-term tail can reach, since 1 - R <= "
                f"exp(-1/(2(m+gamma))) = exp({-0.5 / s:.4g}); refused"
            )

    def radius_equation(self, x: float, tail_eps: float) -> float:
        """``x**m/(m+gamma) - 2 sum_{n>m} x**n/(n+gamma)``: the weight identity
        ``w_m - 2 sum_{k>m} w_k`` of ``weights(x, tol/2)``, so the dropped
        doubled tail is at most ``tol = tail_eps * min(1, lead)``.  The cut is
        relative to the leading term ``x**m/(m+gamma)``, which sets the
        equation's scale, so a root moves by about ``tail_eps`` however small
        that scale is.  Every ``x`` is new, so the weights are not cached."""
        lead = x**self.m / (self.m + self.gamma)
        w = self.weights(x, 0.5 * tail_eps * min(1.0, lead))
        return math.fsum([lead] + (-2.0 * w[self.m + 1 :]).tolist())


@dataclass(frozen=True)
class ClassicalBohr(Unshifted):
    """The identity operator: Bohr's baseline, coefficients against the bound 1."""

    m = 0  # no zero at the origin needed

    def weights(self, r: float, eps: float) -> np.ndarray:
        """``w_k = r**k`` for ``k <= N``, cut where the tail ``r**(N+1)/(1-r)``
        of a unit-ball series is at most ``eps``."""
        n_stop = max(1, math.ceil(math.log(eps * (1.0 - r)) / math.log(r)))
        return r ** np.arange(n_stop + 1)

    def bound(self, r: float, s: int = 0) -> float:
        return 1.0


@dataclass(frozen=True)
class Shifted:
    """The operator ``K[f] = z**s * F[f / z**d]`` over a radius family ``F``."""

    family: Union[CesaroBeta, Bernardi]
    s: int
    d: int

    def __post_init__(self) -> None:
        if not 0 <= self.d <= self.s:
            raise ParameterDomainError(f"need 0 <= d <= s, got s={self.s}, d={self.d}")


def CBeta(beta: float) -> Shifted:
    """The Cesaro variant for functions vanishing at 0: ``z * T_beta[f / z]``."""
    return Shifted(CesaroBeta(beta), 1, 1)


def PrimitiveI() -> Shifted:
    """The antiderivative ``integral_0^z f = z * L_1[f]``."""
    return Shifted(Bernardi(1.0, 0), 1, 0)


def Libera() -> Bernardi:
    return Bernardi(1.0, 0)


def Alexander() -> Bernardi:
    return Bernardi(0.0, 1)


OperatorKind = Union[CesaroBeta, Bernardi, ClassicalBohr, Shifted]


def kernel_integral(beta: float, r: float) -> float:
    """``integral_0^r (1-t)**(-beta) dt``, evaluated stably.

    Uses ``-expm1((1-beta) log1p(-r)) / (1-beta)`` away from beta = 1 and
    the exact logarithmic limit when ``|1 - beta| < 1e-8``.
    """
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"r must lie in (0, 1), got {r}")
    if beta <= 0.0:
        raise ParameterDomainError(f"beta must be positive, got {beta}")
    log_base = math.log1p(-r)
    if abs(1.0 - beta) < 1e-8:
        return -log_base
    try:
        return -math.expm1((1.0 - beta) * log_base) / (1.0 - beta)
    except OverflowError:
        raise ParameterDomainError(
            f"integral_0^r (1-t)**(-beta) dt overflows a float at beta={beta}, r={r}"
        ) from None


def cesaro_series_order(beta: float, r: float, eps: float) -> int:
    """Smallest order N whose certified Cesaro-majorant tail is at most eps.

    Terms with unit-ball coefficients are dominated by
    ``t_n = c_n(beta+1) r**n / (n+1)``; past N the ratio of consecutive
    dominating terms never exceeds ``q = r * max(1, (N+1+beta)/(N+2))``, so
    the tail is at most ``t_{N+1} / (1 - q)``.  Once ``c_n(beta+1)``
    overflows a float no later term is finite, so the scan stops there with
    ``ParameterDomainError``.
    """
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"r must lie in (0, 1), got {r}")
    if eps <= 0.0:
        raise ParameterDomainError("eps must be positive")
    c_next = 1.0  # c_0(beta + 1)
    r_pow = r  # r**(n+1) while scanning n
    for n in range(MAX_SERIES_TERMS):
        c_np1 = c_next * (n + beta + 1.0) / (n + 1.0)
        if math.isinf(c_np1):
            raise ParameterDomainError(
                f"c_n(beta+1) overflows a float at n={n + 1} before the Cesaro majorant "
                f"tail reaches eps={eps} at beta={beta}, r={r}"
            )
        t_next = c_np1 * r_pow / (n + 2.0)
        q = r * max(1.0, (n + 1.0 + beta) / (n + 2.0))
        if q < 1.0 and t_next / (1.0 - q) <= eps:
            return n
        c_next = c_np1
        r_pow *= r
    raise TruncationError(
        f"Cesaro majorant tail will not reach eps={eps} within {MAX_SERIES_TERMS} terms"
    )


def required_origin_zeros(kind: OperatorKind) -> int:
    """How many leading zero coefficients the operand must carry."""
    return kind.d + kind.family.m


def _require_leading_zeros(coeffs: np.ndarray, kind: OperatorKind) -> None:
    m = required_origin_zeros(kind)
    worst = np.abs(coeffs[..., :m]).max(initial=0.0)
    if worst > 1e-12:
        raise PreconditionError(
            f"{kind!r} requires the first {m} coefficients to vanish, got modulus {worst}"
        )


def operator_coeffs(
    kind: OperatorKind, f: CoefficientSequence, n_max: int
) -> CoefficientSequence:
    """Taylor coefficients of the operator image, truncated at ``n_max``."""
    if n_max < 0:
        raise ParameterDomainError(f"n_max must be nonnegative, got {n_max}")
    if f.order < n_max:
        raise TruncationError(f"input order {f.order} is below the requested {n_max}")
    _require_leading_zeros(f.entries, kind)
    out = np.zeros(n_max + 1, dtype=np.complex128)
    if n_max >= kind.s:
        out[kind.s :] = kind.family.image(f.entries[kind.d :], n_max - kind.s)
    return CoefficientSequence(out)


@functools.lru_cache(maxsize=64)
def _weights(family, r: float, eps: float) -> np.ndarray:
    # Built once per argument tuple: a verify sweep or an a-grid reuses it.
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"r must lie in (0, 1), got {r}")
    if eps <= 0.0:
        raise ParameterDomainError("eps must be positive")
    w = family.weights(r, eps)
    w.setflags(write=False)
    return w


def series_order(family, r: float, eps: float) -> int:
    """The family's truncation order at ``(r, eps)``: the last index of its
    certified weight vector."""
    return _weights(family, r, eps).size - 1


def majorant_values(
    kind: OperatorKind, coeffs: np.ndarray, r: float, eps: float = 1e-12
) -> list:
    """Absolute series of the operator image at radius ``r`` for each row of
    ``coeffs``, each within ``eps``: ``r**s * sum_k |a_{k+d}| w_k`` with the
    family's weights.  Each row is summed by ``math.fsum``, so its value does
    not depend on the other rows.  The rows must be unit-ball members
    (``|a_k| <= 1``), which the weight cuts rely on.  Columns past the
    weight vector's cut are not read; a shorter matrix uses its own columns.
    """
    absf = np.abs(coeffs)
    if absf.max(initial=0.0) > 1.0 + 1e-9:
        raise ParameterDomainError(
            f"majorant tail bounds assume unit-ball coefficients; max |a_k| = {absf.max()}"
        )
    _require_leading_zeros(absf, kind)
    w, scale = _weights(kind.family, r, eps), r**kind.s
    shifted = absf[:, kind.d : kind.d + w.size]
    return [scale * math.fsum(row.tolist()) for row in shifted * w[: shifted.shape[1]]]


def majorant_value(
    kind: OperatorKind, f: CoefficientSequence, r: float, eps: float = 1e-12
) -> float:
    """The one-row case of ``majorant_values``."""
    return majorant_values(kind, f.entries[np.newaxis], r, eps)[0]


def bohr_majorant(f: CoefficientSequence, r: float) -> float:
    """Plain absolute series ``sum |a_n| r**n`` of the coefficients themselves."""
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"r must lie in (0, 1), got {r}")
    return math.fsum(f.abs_entries() * r ** np.arange(len(f)))


def adaptive_simpson(
    fn: Callable[[float], complex],
    a: float,
    b: float,
    tol: float,
    max_depth: int = 60,
) -> complex:
    """Adaptive Simpson quadrature with Richardson extrapolation.

    Works on complex-valued integrands of a real variable; the error
    estimate uses the modulus of the panel defect.  Raises
    ``QuadratureError`` when the subdivision budget runs out.
    """
    if tol <= 0.0:
        raise ParameterDomainError("tol must be positive")
    if a == b:
        return 0.0 + 0.0j

    def simpson(fa: complex, fm: complex, fb: complex, h: float) -> complex:
        return h / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(
        lo: float,
        hi: float,
        flo: complex,
        fmid: complex,
        fhi: complex,
        whole: complex,
        budget: float,
        depth: int,
    ) -> complex:
        mid = 0.5 * (lo + hi)
        lm = 0.5 * (lo + mid)
        rm = 0.5 * (mid + hi)
        flm = fn(lm)
        frm = fn(rm)
        left = simpson(flo, flm, fmid, mid - lo)
        right = simpson(fmid, frm, fhi, hi - mid)
        defect = left + right - whole
        if abs(defect) <= 15.0 * budget:
            return left + right + defect / 15.0
        if depth >= max_depth:
            raise QuadratureError(
                f"adaptive quadrature stalled on [{lo}, {hi}] at depth {depth}"
            )
        return recurse(lo, mid, flo, flm, fmid, left, budget / 2.0, depth + 1) + recurse(
            mid, hi, fmid, frm, fhi, right, budget / 2.0, depth + 1
        )

    fa_, fb_ = fn(a), fn(b)
    mid = 0.5 * (a + b)
    fm_ = fn(mid)
    whole = simpson(fa_, fm_, fb_, b - a)
    return recurse(a, b, fa_, fm_, fb_, whole, tol, 0)


def quadrature_value(
    kind: OperatorKind, f: BoundedFunction, z: complex, tol: float = 1e-10
) -> complex:
    """The defining integral of the operator at ``z``, to absolute ``tol``."""
    z = complex(z)
    if abs(z) >= 1.0:
        raise ParameterDomainError(f"|z| must be < 1, got {abs(z)}")
    return z**kind.s * kind.family.integral(schwarz_shift(f, kind.d), z, tol)


def sup_bound(kind: OperatorKind, r: float) -> float:
    """Sharp closed-form bound on the operator image modulus over the class.

    Over the unit ball (with the required origin zeros) and ``|z| = r``:
    the Cesaro family is bounded by ``kernel_integral(beta, r) / r``, the
    Bernardi family by ``r**m / (m + gamma)``, and a shift ``z**s`` adds
    the factor ``r**s``.
    """
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"r must lie in (0, 1), got {r}")
    return kind.family.bound(r, kind.s)
