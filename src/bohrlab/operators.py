"""Integral operators on the unit ball: series images, certified
absolute-series (majorant) values, closed-form sup bounds, and adaptive
quadrature of the defining integrals.

Every operator is a radius family ``F`` plus an origin shift,

    K[f](z) = z**s * F[f / z**d](z),

where F is one of two families acting on f(z) = sum a_n z^n:

* ``CesaroBeta(beta)``  T_b[f](z) = integral_0^1 f(tz) (1-tz)**(-b) dt,
  with series coefficients ``(1/(n+1)) sum_{k<=n} c_{n-k}(b) a_k``.
* ``Bernardi(gamma)``  L_g[f](z) = integral_0^1 f(zt) t**(gamma-1) dt
  = sum_n a_n/(n+gamma) z^n, for gamma > 0.

A family used on its own has ``(s, d) = (0, 0)``, and shifts compose.  On
f with an m-fold zero at 0 and gamma > -m, L_gamma is the origin shift
``z**m L_(m+gamma)[f / z**m]``: ``Bernardi(gamma, m)`` with ``m >= 1`` builds
``Shifted(Bernardi(m + gamma), m, m)`` and ``Alexander()`` = Bernardi(0, 1)
is ``z * L_1[f / z]``.  ``Libera()`` = Bernardi(1), ``CBeta(beta)`` = ``z *
T_b[f / z]`` and ``PrimitiveI()`` = ``integral_0^z f = z * L_1[f]``;
``ClassicalBohr()`` is the identity operator, the baseline with bound 1.

Each family supplies its coefficient image, majorant weights, defining
integral, sup bound and radius equation, and knows nothing of the shift;
the module functions below apply the shift rule once for all of them:
``sup_bound`` is ``r**s`` times the family's bound, so ``alexander`` and
``bernardi --m >= 1`` report ``r**m`` times it, as ``cbeta`` and
``primitive`` do.  The absolute series of the image is linear in ``|a_k|``,
so the majorant is a weight vector:
``M(f, r) = r**s * sum_k |a_{k+d}| w_k(r)``, built once per
``(family, r, eps)`` as a tuple of ``math`` floats and applied to a whole
coefficient matrix, each row summed by ``math.fsum``; ``verify`` takes a
block's row sums in numpy and ``fsum``s only the rows that a certified bound
on those sums cannot rule out as its maximum or a violation.  The weight
vector is the family's one truncation decision: it ends where the partial
sum is within ``eps`` of the absolute series of every unit-ball member, by
the closed-form tail ``r**N A(beta+1, r)`` of the Cesaro weights, the
moments of the kernel ``(1-t)**(-beta)``, and a plain geometric bound for
the others, at most ``MAX_SERIES_TERMS`` weights (``_require_term_cap``
refuses more, unbuilt).  Every series order
(``series_order``, the coefficients ``verify`` samples, the images
``selftest`` checks against quadrature, the extremal sums) is read off its
length, and the Bernardi radius equation is ``w_0 - 2 sum_{k>0} w_k``.
One scale rule holds: each radius equation is evaluated at unit scale (the
Cesaro one times ``(1-x)**beta``), every weight cut is ``eps * min(1,
family.bound(r))``, and a kind's weights are used only where its bound
``sup_bound(kind, r)`` is a normal float.

Every operator kind, like every result record and the corpus member, is a
``Record``: an immutable ``__slots__`` value that compares and hashes by its
type and fields, so an equal family built anew is the same weight-cache key.

A Taylor series is a 1-D ``complex128`` array ``a_0 .. a_N``, a block of
them a matrix with one row each; ``operator_coeffs`` refuses a non-finite
image and ``majorant_value`` a row outside the unit ball, NaN included.

The radius layer (``kernel_integral`` and both radius equations), the binomial
weights ``binomial_coeffs``, every family's ``weights`` and ``check_draw``,
the rule on the corpus draw's parameters that ``verify`` applies in every
mode, need only ``math``.  numpy, ``series`` and ``corpus`` are imported
inside the functions that use them, so importing this module, solving a
radius or building a weight vector loads none of them.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from bisect import bisect_left
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Sequence, Union

from . import _EXPORTS
from .errors import (
    ParameterDomainError,
    PreconditionError,
    QuadratureError,
    TruncationError,
)

if TYPE_CHECKING:
    import numpy as np

    from .corpus import Blaschke

__all__ = _EXPORTS["operators"]

# Term cap of every weight vector.
MAX_SERIES_TERMS = 10**6
# The Bernardi radius equation's tail cut, relative to its lead 1/gamma:
# a root moves by about this much.
_RADIUS_EPS = 1e-14
# Subdivision depth at which adaptive quadrature gives up.
_SIMPSON_DEPTH = 60
# Zeros at or beyond this modulus make Taylor coefficients decay too slowly
# for the truncation rules used downstream; ``corpus`` exports it.
BLASCHKE_ZERO_CAP = 0.95
# Most Blaschke factors a corpus member may draw: a block of draws holds
# ``5 + 2 * max_factors`` uniforms per member, so the cap bounds its memory.
MAX_FACTORS = 1000


def check_draw(max_factors: int, radius_cap: float) -> None:
    """Refuse corpus draw parameters: a factor count outside ``[0, MAX_FACTORS]``
    or a zero radius outside ``(0, BLASCHKE_ZERO_CAP]``."""
    if max_factors < 0:
        raise ParameterDomainError(f"max_factors must be nonnegative, got {max_factors}")
    if max_factors > MAX_FACTORS:
        raise ParameterDomainError(f"max_factors must be at most {MAX_FACTORS}, got {max_factors}")
    if not 0.0 < radius_cap <= BLASCHKE_ZERO_CAP:
        raise ParameterDomainError(
            f"radius_cap must lie in (0, {BLASCHKE_ZERO_CAP}], got {radius_cap}"
        )


class Record:
    """An immutable value with the fields ``__slots__``, built by position or
    name and printed as ``Type(field=value, ...)``; never equal to a tuple."""

    __slots__ = ()

    def __init__(self, *values, **named) -> None:
        fields = dict(zip(self.__slots__, values), **named)
        if fields.keys() != set(self.__slots__) or len(fields) != len(values) + len(named):
            raise TypeError(f"{type(self).__qualname__} takes the fields {self.__slots__}")
        for name in self.__slots__:
            object.__setattr__(self, name, fields[name])

    def __init_subclass__(cls, **kwargs) -> None:
        # A C-level field-tuple getter; attrgetter of one name returns the bare value.
        super().__init_subclass__(**kwargs)
        names = cls.__slots__
        get = attrgetter(*names) if names else (lambda self: ())
        cls._values = staticmethod(get if len(names) != 1 else lambda self: (get(self),))

    def _asdict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__'s checks
        return type(self), tuple(self._asdict().values())

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__qualname__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__


class Unshifted(Record):
    """A family used as an operator on its own: ``(s, d) = (0, 0)``.

    A family provides the methods ``image``, ``weights(r, eps)`` and
    ``bound(r)``; the two radius families add ``integral``,
    ``radius_equation`` and ``require_root_below``.  A family knows nothing
    of the shift: its operand needs no zero at 0, its bound is that of the
    unshifted family, and ``sup_bound`` applies ``r**s`` once.  A family has
    no order method of its own: ``series_order`` reads every truncation
    order off the length of its weight vector.
    """

    __slots__ = ()
    s = 0
    d = 0

    @property
    def family(self):
        return self


class CesaroBeta(Unshifted):
    """The generalized Cesaro family ``T_beta``."""

    __slots__ = ("beta",)

    def __init__(self, beta: float) -> None:
        beta = float(beta)
        if not (beta > 0.0 and math.isfinite(beta)):
            raise ParameterDomainError(f"beta must be positive and finite, got {beta}")
        super().__init__(beta)

    def image(self, a: np.ndarray, n_max: int) -> np.ndarray:
        from .series import cauchy_product

        return cauchy_product(binomial_coeffs(self.beta, n_max), a, n_max) / range(1, n_max + 2)

    def weights(self, r: float, eps: float) -> list:
        """Moments ``w_k = (1/r) integral_0^r t**k (1-t)**(-beta) dt``, ``k <= N =
        cesaro_series_order(beta, r, eps)``, by the recurrence ``k J_(k-1) = r ((k+1-beta)
        J_k + 1)`` of ``J_k = w_k r**(1-k) (1-r)**(beta-1)``, run where it damps errors:
        up from ``J_0`` (``w_0`` is the bound) while ``k (1+m) <= (beta-1) m``, ``m = r -
        1/beta`` a lower bound of ``w_k/w_(k-1)``, and down, scaled to the last of those,
        from 0 at ``max(N, beta) + log(1e-18)/log r``, where ``w_k/w_(k-1) <= r``."""
        beta, n_stop = self.beta, cesaro_series_order(self.beta, r, eps)
        m = max(0.0, r - 1.0 / beta)
        split = min(n_stop, max(0, math.floor((beta - 1.0) * m / (1.0 + m))))
        inv, bound = -1.0 / _expm1_ratio(beta - 1.0, math.log1p(-r)), self.bound(r)  # 1/J_0
        up = lambda g, k: (inv - k * g / r) / (beta - 1.0 - k)  # J_(k-1)/J_0 to J_k/J_0
        w = [bound * g * r**k for k, g in enumerate(
            itertools.accumulate(range(1, split + 1), up, initial=1.0))]
        top = max(n_stop, math.ceil(beta)) + math.ceil(math.log(1e-18) / math.log(r))
        step = lambda j, k: r * ((k + 1.0 - beta) * j + 1.0) / k  # J_k to J_(k-1)
        down = itertools.accumulate(range(top, split, -1), step, initial=0.0)
        scaled = list(itertools.islice(down, top - n_stop, None))  # J_N .. J_split
        return w + [w[split] * (j / scaled[-1]) * r**i for i, j in enumerate(scaled[-2::-1], 1)]

    def integral(self, f: Blaschke, z: complex, tol: float) -> complex:
        from .corpus import evaluate

        beta = self.beta
        return adaptive_simpson(
            lambda t: evaluate(f, t * z) * (1.0 - t * z) ** (-beta), 0.0, 1.0, tol
        )

    def bound(self, r: float) -> float:
        """Sharp bound of ``T_beta[f]`` on ``|z| = r``: ``A(beta, r) / r``."""
        return kernel_integral(self.beta, r) / r

    def radius_equation(self, x: float) -> float:
        """``(1-x)**beta (3 A(beta, x) - 2 A(beta+1, x))`` with ``A = kernel_integral``,
        at unit scale: ``3 (1-x) (1 - (1-x)**(beta-1))/(beta-1) - 2 (1 - (1-x)**beta)/beta``
        by ``_expm1_ratio``, whose limit gives ``-3 (1-x) log(1-x) - 2x`` at beta = 1."""
        beta, log_base = self.beta, math.log1p(-x)
        first = -_expm1_ratio(beta - 1.0, log_base)
        return 3.0 * (1.0 - x) * first + 2.0 * _expm1_ratio(beta, log_base)

    def require_root_below(self, ladder: Sequence[float]) -> None:
        """Every Cesaro root lies in (1/3, 0.59), far below any ladder top."""


class Bernardi(Unshifted):
    """The Bernardi family ``L_gamma``, ``gamma > 0``.  ``Bernardi(gamma, m)``
    is ``L_gamma`` on operands with an ``m``-fold zero, ``gamma > -m``: for
    ``m >= 1``, ``Shifted(Bernardi(m + gamma), m, m)``."""

    __slots__ = ("gamma",)

    def __new__(cls, gamma: float, m: int = 0):
        gamma, m = float(gamma), int(m)
        if m < 0:
            raise ParameterDomainError(f"m must be nonnegative, got {m}")
        if not math.isfinite(gamma):
            raise ParameterDomainError(f"gamma must be finite, got {gamma}")
        if gamma <= -m:
            raise ParameterDomainError(f"gamma must exceed -m, got gamma={gamma}, m={m}")
        if m:
            try:
                shifted = m + gamma
            except OverflowError:  # an int m past the float range
                shifted = math.inf
            if math.isinf(shifted):
                raise ParameterDomainError(f"m+gamma must be finite, got m={m}, gamma={gamma}")
            return Shifted(Bernardi(shifted), m, m)
        return super().__new__(cls)

    def __init__(self, gamma: float, m: int = 0) -> None:
        super().__init__(float(gamma))

    def image(self, a: np.ndarray, n_max: int) -> np.ndarray:
        import numpy as np

        return a[: n_max + 1] / (np.arange(n_max + 1, dtype=np.float64) + self.gamma)

    def weights(self, r: float, eps: float) -> list:
        """``w_k = r**k / (k+gamma)``, cut before the first ``k`` with ``r**k /
        ((k+gamma)(1-r)) <= eps``, at most ``ceil(log(eps (1-r)) / log r) + 1``
        as ``k + gamma > 1`` from ``k = 1``; the test ``_is_cut`` is monotone
        in ``k``, so bisection finds it among ``k <= MAX_SERIES_TERMS``, and a
        cut past the term cap is refused unbuilt."""
        top, gamma = math.ceil(math.log(eps * (1.0 - r)) / math.log(r)) + 1, self.gamma
        stop = bisect_left(range(min(top, MAX_SERIES_TERMS) + 1), True, key=self._is_cut(r, eps))
        _require_term_cap(stop, "Bernardi", eps, r=r)
        return [r**k / (k + gamma) for k in range(stop)]

    def _is_cut(self, r: float, eps: float) -> Callable[[int], bool]:
        """The cut test of ``weights``: is the tail from index ``k`` within ``eps``?"""
        scale, gamma = 1.0 - r, self.gamma
        return lambda k: r**k / ((k + gamma) * scale) <= eps

    def integral(self, f: Blaschke, z: complex, tol: float) -> complex:
        """The endpoint singularity of the kernel (gamma < 1) is removed by
        substituting ``u = t**gamma``."""
        from .corpus import evaluate

        gamma, inv = self.gamma, 1.0 / self.gamma
        if gamma >= 1.0:
            return adaptive_simpson(lambda t: evaluate(f, t * z) * t ** (gamma - 1), 0.0, 1.0, tol)
        return inv * adaptive_simpson(lambda u: evaluate(f, u**inv * z), 0.0, 1.0, tol * gamma)

    def bound(self, r: float) -> float:
        """Sharp bound of ``L_gamma[f]`` on ``|z| = r``: ``1 / gamma``."""
        return 1.0 / self.gamma

    def _equation_cut(self) -> float:
        """``radius_equation``'s term cut, relative to its scale ``1/gamma``."""
        return 0.5 * _RADIUS_EPS * min(1.0, 1.0 / self.gamma)

    def require_root_below(self, ladder: Sequence[float]) -> None:
        """Refuse parameters whose radius-equation root is certified to lie
        above every ``ladder`` point where the equation's tail can be summed.

        As ``sum_{n>0} x**n/(n+gamma) <= -log(1-x)``, the equation is at least
        ``1/gamma + 2 log(1-x)``, so the root is at least ``1 -
        exp(-1/(2 gamma))``.  If at the first ladder point from there
        ``_is_cut`` at ``_equation_cut`` fails at index ``MAX_SERIES_TERMS``, the
        solver would hit ``TruncationError`` before a bracket.  The message
        calls ``gamma`` ``m+gamma``, as ``Bernardi(gamma, m)`` builds it."""
        s = self.gamma
        floor = -math.expm1(-0.5 / s)
        x = next((x for x in ladder if x >= floor), None)
        if x is None or not self._is_cut(x, self._equation_cut())(MAX_SERIES_TERMS):
            raise ParameterDomainError(
                f"m+gamma={s:g}: the radius equation's root R lies above every ladder "
                f"point its {MAX_SERIES_TERMS}-term tail can reach, since 1 - R <= "
                f"exp(-1/(2(m+gamma))) = exp({-0.5 / s:.4g}); refused"
            )

    def radius_equation(self, x: float) -> float:
        """``1/gamma - 2 sum_{n>0} x**n/(n+gamma)``: the weight identity ``w_0 - 2
        sum_{k>0} w_k``, from the weights' own scan at ``_equation_cut``, so
        the dropped doubled tail is at most ``_RADIUS_EPS * min(1, 1/gamma)``.
        Every ``x`` is new, so the terms are not cached."""
        w = self.weights(x, self._equation_cut())
        w[:1] = [-0.5 / self.gamma]  # exact halves of normal floats: same bits
        return -2.0 * math.fsum(w)


class ClassicalBohr(Unshifted):
    """The identity operator: Bohr's baseline, coefficients against the bound 1."""

    __slots__ = ()

    def weights(self, r: float, eps: float) -> list:
        """``w_k = r**k`` for ``k <= N``, cut where the tail ``r**(N+1)/(1-r)``
        of a unit-ball series is at most ``eps``; refused unbuilt past the term
        cap, as every family's weights are."""
        n_stop = max(1, math.ceil(math.log(eps * (1.0 - r)) / math.log(r)))
        _require_term_cap(n_stop + 1, "Bohr", eps, r=r)
        return [r**k for k in range(n_stop + 1)]

    def bound(self, r: float) -> float:
        return 1.0


class Shifted(Record):
    """The operator ``K[f] = z**s * F[f / z**d]`` over a radius family ``F``.

    Shifts compose: over a shifted kind ``k`` it is ``Shifted(k.family, s +
    k.s, d + k.d)``."""

    __slots__ = ("family", "s", "d")

    def __init__(self, family: OperatorKind, s: int, d: int) -> None:
        if not 0 <= d <= s:
            raise ParameterDomainError(f"need 0 <= d <= s, got s={s}, d={d}")
        super().__init__(family.family, s + family.s, d + family.d)


def CBeta(beta: float) -> Shifted:
    """The Cesaro variant for functions vanishing at 0: ``z * T_beta[f / z]``."""
    return Shifted(CesaroBeta(beta), 1, 1)


def PrimitiveI() -> Shifted:
    """The antiderivative ``integral_0^z f = z * L_1[f]``."""
    return Shifted(Bernardi(1.0), 1, 0)


def Libera() -> Bernardi:
    return Bernardi(1.0)


def Alexander() -> Shifted:
    """``L_0`` on functions vanishing at 0: ``z * L_1[f / z]``."""
    return Shifted(Libera(), 1, 1)


OperatorKind = Union[CesaroBeta, Bernardi, ClassicalBohr, Shifted]


def kernel_integral(beta: float, r: float) -> float:
    """``integral_0^r (1-t)**(-beta) dt``, evaluated stably: ``-expm1(x) / (1-beta)``
    with ``x = (1-beta) log1p(-r)`` (its limit ``-log1p(-r)`` where ``x`` is not a normal
    float) while ``|x| <= 1``.  Further out the rounded ``x`` would cost ``|x|`` ulps,
    so the power is taken of ``1 - r`` split exactly as ``hi + lo``:
    ``hi**(1-beta) (1 + (1-beta) lo/hi)``."""
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"r must lie in (0, 1), got {r}")
    if not beta > 0.0:
        raise ParameterDomainError(f"beta must be positive, got {beta}")
    log_base, hi = math.log1p(-r), 1.0 - r
    try:
        if abs((1.0 - beta) * log_base) <= 1.0:
            return -_expm1_ratio(1.0 - beta, log_base)
        power = math.pow(hi, 1.0 - beta) * (1.0 + (1.0 - beta) * ((1.0 - hi) - r) / hi)
        return (power - 1.0) / (beta - 1.0)
    except OverflowError:
        raise ParameterDomainError(
            f"integral_0^r (1-t)**(-beta) dt overflows a float at beta={beta}, r={r}"
        ) from None


def _expm1_ratio(beta: float, log_base: float) -> float:
    """``expm1(beta log_base) / beta``, or its limit ``log_base`` where the product
    falls below the normal range (``-A(beta+1, r)`` at ``log_base = log1p(-r)``)."""
    product = beta * log_base
    return math.expm1(product) / beta if abs(product) >= sys.float_info.min else log_base


def binomial_coeffs(beta: float, n_max: int) -> tuple:
    """Weights ``c_n = Gamma(n+beta) / (Gamma(n+1) Gamma(beta))`` for ``n <= n_max``.

    Built by the multiplicative recurrence ``c_n = c_{n-1} * ((n-1+beta)/n)``,
    never by Gamma evaluation: the weights grow only like ``n**(beta-1)``, so
    the recurrence stays finite for orders in the thousands.
    """
    if not beta > 0.0:
        raise ParameterDomainError(f"beta must be positive, got {beta}")
    if n_max < 0:
        raise ParameterDomainError(f"n_max must be nonnegative, got {n_max}")
    c = [1.0]
    for n in range(1, n_max + 1):
        c.append(c[-1] * ((n - 1.0 + beta) / n))
    return tuple(c)


def cesaro_series_order(beta: float, r: float, eps: float) -> int:
    """Least N with ``r**N A(beta+1, r) <= eps``, ``A = kernel_integral``, taken in
    logs: summing the geometric series under the moment integral bounds the
    weights' tail ``sum_{k>N} w_k`` by it.  An order whose ``N + 1`` weights
    pass the term cap is refused."""
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"r must lie in (0, 1), got {r}")
    if not (eps > 0.0 and beta > 0.0):
        raise ParameterDomainError(f"eps and beta must be positive, got eps={eps}, beta={beta}")
    log_base = math.log1p(-r)
    log_tail = math.log(-_expm1_ratio(beta, log_base)) - beta * log_base
    n_stop = max(0, math.ceil((math.log(eps) - log_tail) / math.log(r)))
    _require_term_cap(n_stop + 1, "Cesaro", eps, beta=beta, r=r)
    return n_stop


def _require_term_cap(count: int, family: str, eps: float, **at) -> None:
    """Refuse ``count > MAX_SERIES_TERMS`` weights, unbuilt; ``at`` names the point."""
    if count > MAX_SERIES_TERMS:
        where = ", ".join(f"{name}={value}" for name, value in at.items())
        raise TruncationError(f"{family} weights will not reach {eps} within {MAX_SERIES_TERMS} "
                              f"terms at {where}")


def _require_leading_zeros(coeffs: np.ndarray, kind: OperatorKind) -> None:
    worst = abs(coeffs[..., : kind.d]).max(initial=0.0)
    if not worst <= 1e-12:
        raise PreconditionError(
            f"{kind!r} requires the first {kind.d} coefficients to vanish, got modulus {worst}"
        )


def operator_coeffs(kind: OperatorKind, a: np.ndarray, n_max: int) -> np.ndarray:
    """Taylor coefficients of the operator image of ``a``, truncated at ``n_max``;
    refused if the image is not finite or a required zero exceeds 1e-12."""
    import numpy as np

    if n_max < 0:
        raise ParameterDomainError(f"n_max must be nonnegative, got {n_max}")
    a = np.asarray(a, dtype=np.complex128)
    if len(a) <= n_max:
        raise TruncationError(f"input order {len(a) - 1} is below the requested {n_max}")
    _require_leading_zeros(a, kind)
    out = np.zeros(n_max + 1, dtype=np.complex128)
    if n_max >= kind.s:
        out[kind.s :] = kind.family.image(a[kind.d :], n_max - kind.s)
    if not np.all(np.isfinite(out)):
        raise ParameterDomainError("coefficient entries must be finite")
    return out


@functools.lru_cache(maxsize=64)
def _weights(family, r: float, eps: float) -> tuple:
    """The family's weights cut at ``eps * min(1, family.bound(r))``, so they
    never stop before ``w_0``, which is the bound or at least 1; the bound is
    checked as ``sup_bound`` checks it.  Built once per argument tuple: a
    verify sweep or an a-grid reuses them."""
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"r must lie in (0, 1), got {r}")
    if not 0.0 < eps < 1.0:
        raise ParameterDomainError(f"eps must lie in (0, 1), got {eps}")
    return tuple(family.weights(r, eps * min(1.0, sup_bound(family, r))))


def _kind_weights(kind: OperatorKind, r: float, eps: float) -> tuple:
    """``_weights`` of the kind's family, refused where ``sup_bound(kind, r)`` is."""
    w = _weights(kind.family, r, eps)
    sup_bound(kind, r)
    return w


def series_order(family, r: float, eps: float) -> int:
    """The family's truncation order at ``(r, eps)``: the last index of its
    certified weight vector, cut at ``eps`` relative to the family's bound."""
    return len(_weights(family, r, eps)) - 1


def _unit_ball_moduli(coeffs: np.ndarray) -> np.ndarray:
    """``|coeffs|``, refused unless every entry is at most 1 (a NaN fails)."""
    import numpy as np

    absf = np.abs(coeffs)
    if not absf.max(initial=0.0) <= 1.0 + 1e-9:
        raise ParameterDomainError(
            f"majorant tail bounds assume unit-ball coefficients; max |a_k| = {absf.max()}"
        )
    return absf


def _majorant_terms(kind: OperatorKind, coeffs: np.ndarray, r: float, eps: float) -> tuple:
    """``(terms, r**s)``: row ``i`` of ``terms`` holds the products ``|a_(k+d)| w_k``
    whose sum, times ``r**s``, is the majorant of row ``i`` of ``coeffs``."""
    import numpy as np

    absf = _unit_ball_moduli(coeffs)
    _require_leading_zeros(absf, kind)
    w = np.array(_kind_weights(kind, r, eps))
    if absf.shape[1] < kind.d + w.size:
        raise TruncationError(
            f"the weights read {kind.d + w.size} coefficients, the rows carry {absf.shape[1]}"
        )
    return absf[:, kind.d : kind.d + w.size] * w, r**kind.s


def _screened_majorants(
    kind: OperatorKind, coeffs: np.ndarray, r: float, eps: float, bound: float, tol: float
) -> dict:
    """The ``majorant_value`` of each row of ``coeffs`` that may hold the block's
    largest value or may exceed ``bound`` by more than ``tol`` (``value - bound >
    tol``), keyed by row index in row order; numpy's row sum ``S`` of the same
    ``n`` terms rules out every other row.  The terms are nonnegative, so ``S``
    is within ``gamma_(n-1) = (n-1) u / (1 - (n-1) u)`` of their exact sum
    ``T`` relative to it in any summation order (Higham, *Accuracy and
    Stability of Numerical Algorithms*, ch. 4), ``u = 2**-53``, and the
    ``fsum`` within ``u T`` (or half the least subnormal): the row's ``fsum``
    lies within ``(n+1) 2**-52 S + 2**-1022`` of ``S``, with a factor two to
    spare for the screen's own roundings.  Scaling by ``r**s`` and
    subtracting ``bound`` are rounded monotone maps, so a row ruled out at
    its upper end is ruled out exactly."""
    import numpy as np

    terms, scale = _majorant_terms(kind, coeffs, r, eps)
    sums = terms.sum(axis=1)
    slack = sums * ((terms.shape[1] + 1) * 2.0**-52) + 2.0**-1022
    upper = sums + slack
    # A sum past the float range has the lower end NaN, which fmax skips, and
    # the upper end inf, which keeps its row.
    top = np.fmax.reduce(sums - slack, initial=-math.inf)
    keep = (upper >= top) | (scale * upper - bound > tol)
    return {i: scale * math.fsum(terms[i].tolist()) for i in np.flatnonzero(keep).tolist()}


def majorant_value(kind: OperatorKind, a: np.ndarray, r: float, eps: float = 1e-12) -> float:
    """Absolute series ``r**s * sum_k |a_{k+d}| w_k`` of the operator image of
    ``a`` at radius ``r`` with the family's weights, within ``eps`` (times a
    family bound below 1), summed by ``math.fsum``.  ``a`` must be a unit-ball
    member (``|a_k| <= 1``, NaN fails), which the weight cuts rely on; a row
    that stops before the cut is refused with ``TruncationError``."""
    terms, scale = _majorant_terms(kind, a[None, :], r, eps)
    return scale * math.fsum(terms[0].tolist())


def bohr_majorant(a: np.ndarray, r: float) -> float:
    """Plain absolute series ``sum |a_n| r**n`` of the coefficients themselves,
    which must be unit-ball coefficients as in ``majorant_value``."""
    import numpy as np

    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"r must lie in (0, 1), got {r}")
    return math.fsum(_unit_ball_moduli(a) * r ** np.arange(len(a)))


def adaptive_simpson(fn: Callable[[float], complex], a: float, b: float, tol: float) -> complex:
    """Adaptive Simpson quadrature with Richardson extrapolation.

    Works on complex-valued integrands of a real variable; the error
    estimate uses the modulus of the panel defect.  Raises
    ``QuadratureError`` when the subdivision budget runs out.
    """
    if not tol > 0.0:
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
        if depth >= _SIMPSON_DEPTH:
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
    kind: OperatorKind, f: Blaschke, z: complex, tol: float = 1e-10
) -> complex:
    """The defining integral of the operator at ``z``, to absolute ``tol``."""
    from .corpus import schwarz_shift

    z = complex(z)
    if abs(z) >= 1.0:
        raise ParameterDomainError(f"|z| must be < 1, got {abs(z)}")
    return z**kind.s * kind.family.integral(schwarz_shift(f, kind.d), z, tol)


def sup_bound(kind: OperatorKind, r: float) -> float:
    """Sharp closed-form bound on the operator image modulus over the class.

    Over the unit ball (with the required origin zeros) and ``|z| = r``:
    the Cesaro family is bounded by ``kernel_integral(beta, r) / r``, the
    Bernardi family ``L_gamma`` by ``1 / gamma``, and a shift ``z**s`` adds
    the factor ``r**s``, applied here and nowhere else: ``Alexander()`` and
    ``Bernardi(gamma, m)`` give ``r**m / (m + gamma)``.  The bound must be a
    normal float: below ``2**-1022`` a cut or threshold relative to it
    underflows, and an infinite bound leaves no finite majorant to compare.
    """
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"r must lie in (0, 1), got {r}")
    bound = r**kind.s * kind.family.bound(r)
    if not 2.0**-1022 <= bound < math.inf:  # the normal float range
        side = "underflows" if bound < 1.0 else "overflows"
        raise ParameterDomainError(
            f"the sharp bound {bound:g} at r={r} {side} the normal float range"
        )
    return bound
