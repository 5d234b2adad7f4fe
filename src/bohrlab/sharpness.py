"""Executable sharpness arguments for the radius results.

The extremal families phi_a and psi_a_m attain the sup bounds in the limit
a -> 1, and their absolute series split into three terms:

    total = bound - (1 - a) * [radius equation at r] + remainder,

with a remainder that vanishes quadratically in (1 - a).  The deficit term
flips sign exactly at the critical radius, so for r beyond it the extremal
absolute series eventually exceeds the bound; the witness search walks
a = 1 - 2**-k until it finds such a violation.  The remainder is computed
from its own integral/series form, never as a residual, which makes the
three-term reconstruction a genuine cross-check against the independently
summed majorant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import singledispatch
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .corpus import extremal_psi, taylor_coeffs
from .errors import ParameterDomainError
from .operators import (
    Bernardi,
    CesaroBeta,
    ClassicalBohr,
    Shifted,
    adaptive_simpson,
    kernel_integral,
    majorant_value,
    required_origin_zeros,
    sup_bound,
)
from .radii import RadiusProblem, radius_equation, solve_radius

__all__ = [
    "SharpnessProblem",
    "Decomposition",
    "ViolationReport",
    "BOHR_BASELINE_RADIUS",
    "critical_radius",
    "extremal_majorant",
    "decomposition",
    "decomposition_cesaro",
    "decomposition_bernardi",
    "quadratic_remainder_check",
    "violation_search",
    "concavity_check",
]

# The classical constant for the identity operator: the absolute series of
# every unit-ball member stays at most 1 up to radius 1/3, and no further.
BOHR_BASELINE_RADIUS = 1.0 / 3.0


SharpnessProblem = Union[CesaroBeta, Bernardi, ClassicalBohr, Shifted]


@dataclass(frozen=True)
class Decomposition:
    """Three-term split of an extremal absolute series.

    ``total`` is summed independently of the other three fields, so
    ``total = bound_term - deficit_term + remainder`` holds only up to the
    numerical defect reported by ``reconstruction_error``.
    """

    bound_term: float
    deficit_term: float
    remainder: float
    total: float

    @property
    def reconstruction_error(self) -> float:
        return abs(self.total - (self.bound_term - self.deficit_term + self.remainder))


@dataclass(frozen=True)
class ViolationReport:
    """Outcome of the extremal witness scan at a fixed radius."""

    witness: Optional[float]
    majorant: float
    bound: float
    margin: float
    attempts: int

    @property
    def found(self) -> bool:
        return self.witness is not None


def _check_a_r(a: float, r: float) -> None:
    if not 0.0 <= a <= 1.0:
        raise ParameterDomainError(f"a must lie in [0, 1], got {a}")
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"r must lie in (0, 1), got {r}")


def critical_radius(problem: SharpnessProblem, tol: float = 1e-12) -> float:
    """Bohr's 1/3 for the identity baseline, the solved family radius otherwise."""
    if problem == ClassicalBohr():
        return BOHR_BASELINE_RADIUS
    return solve_radius(RadiusProblem(problem), tol).root


def extremal_majorant(
    problem: SharpnessProblem, a: float, r: float, eps: float = 1e-12
) -> float:
    """Absolute series of the problem's extremal member at radius ``r``.

    The member is ``z**m phi_a`` with ``m`` the origin zeros the operand
    needs; it is summed through the generic operator path on Taylor
    coefficients whose order keeps the omitted tail below ``eps``.
    """
    _check_a_r(a, r)
    f = extremal_psi(a, required_origin_zeros(problem))
    n_max = problem.family.series_order(r, eps) + problem.d
    return majorant_value(problem, taylor_coeffs(f, n_max), r, eps)


def decomposition_cesaro(
    beta: float, a: float, r: float, eps: float = 1e-12
) -> Decomposition:
    """Three-term split of the Cesaro extremal absolute series.

    The remainder is
    ``2(1-a)/r * [A(beta) - A(beta+1)] + (1-a^2)/r * I(a, r)`` with
    ``I(a, r) = integral_0^r t / ((1-a t)(1-t)**beta) dt`` evaluated by
    adaptive quadrature, and the deficit is ``(1-a)/r`` times the radius
    equation at ``r``.
    """
    kind = CesaroBeta(beta)
    _check_a_r(a, r)
    a_int = kernel_integral(beta, r)
    b_int = kernel_integral(beta + 1.0, r)
    bound = a_int / r
    deficit = (1.0 - a) * (3.0 * a_int - 2.0 * b_int) / r
    if a == 1.0:
        remainder = 0.0
    else:
        inner = adaptive_simpson(
            lambda t: t / ((1.0 - a * t) * (1.0 - t) ** beta), 0.0, r, eps * r
        ).real
        remainder = 2.0 * (1.0 - a) * (a_int - b_int) / r + (1.0 - a * a) / r * inner
    total = extremal_majorant(kind, a, r, eps)
    return Decomposition(bound_term=bound, deficit_term=deficit, remainder=remainder, total=total)


def decomposition_bernardi(
    gamma: float, m: int, a: float, r: float, eps: float = 1e-12
) -> Decomposition:
    """Three-term split of the Bernardi extremal absolute series.

    The remainder series is
    ``sum_{n>m} [2(a-1) + (1-a^2) a**(n-m-1)] r**n / (n+gamma)``, summed in
    the factored form ``(1-a) * ((1+a) a**(n-m-1) - 2)`` per term, which is
    exact algebraically and avoids cancellation as a -> 1.
    """
    kind = Bernardi(gamma, m)
    _check_a_r(a, r)
    problem = RadiusProblem(kind, series_tail_eps=min(1e-15, eps / 8.0))
    bound = sup_bound(kind, r)
    deficit = (1.0 - a) * radius_equation(problem, r)
    if a == 1.0:
        remainder = 0.0
    else:
        # |per-term bracket| <= 2(1-a), so the tail past n is geometric.
        remainder = math.fsum(
            (1.0 - a) * ((1.0 + a) * a ** (n - m - 1) - 2.0) * x_pow / (n + gamma)
            for n, x_pow in kind.tail(r, eps, weight=2.0 * (1.0 - a))
        )
    total = extremal_majorant(kind, a, r, eps)
    return Decomposition(bound_term=bound, deficit_term=deficit, remainder=remainder, total=total)


@singledispatch
def decomposition(problem, a: float, r: float, eps: float = 1e-12) -> Decomposition:
    """Three-term split of either family's extremal absolute series."""
    raise ParameterDomainError(f"no remainder decomposition for {problem!r}")


@decomposition.register(CesaroBeta)
def _(problem: CesaroBeta, a: float, r: float, eps: float = 1e-12) -> Decomposition:
    return decomposition_cesaro(problem.beta, a, r, eps)


@decomposition.register(Bernardi)
def _(problem: Bernardi, a: float, r: float, eps: float = 1e-12) -> Decomposition:
    return decomposition_bernardi(problem.gamma, problem.m, a, r, eps)


@decomposition.register(Shifted)
def _(problem: Shifted, a: float, r: float, eps: float = 1e-12) -> Decomposition:
    """The family's split times ``r**s``.

    The shifted extremal member has the family's coefficients behind ``d``
    zeros, so its majorant is the family's ``total`` times ``r**s``, bit
    for bit; ``total`` stays summed apart from the other three terms.
    """
    inner, scale = decomposition(problem.family, a, r, eps), r**problem.s
    return Decomposition(scale * inner.bound_term, scale * inner.deficit_term,
                         scale * inner.remainder, scale * inner.total)


def quadratic_remainder_check(
    problem: SharpnessProblem,
    r: float,
    a_list: Sequence[float],
    eps: float = 1e-12,
) -> list:
    """Ratios ``remainder / (1-a)**2`` along ``a_list``.

    The remainder vanishes quadratically as a -> 1, so the ratios should
    stabilize; acceptance asks for max/min magnitude within a factor 4 over
    a in {0.9, 0.99, 0.999}.
    """
    values = list(a_list)
    if any(not 0.0 <= a < 1.0 for a in values):
        raise ParameterDomainError("all a values must lie in [0, 1)")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ParameterDomainError("a_list must be strictly increasing")
    return [decomposition(problem, a, r, eps).remainder / (1.0 - a) ** 2 for a in values]


def violation_search(
    problem: SharpnessProblem,
    r: float,
    eps: float = 1e-12,
    max_doublings: int = 40,
    critical: Optional[float] = None,
) -> ViolationReport:
    """Scan a = 1 - 2**-k for an extremal absolute series above the bound.

    Requires ``r`` beyond the critical radius of the problem's family, which
    an origin shift leaves unchanged; a caller that has already solved it
    passes it as ``critical``, otherwise it is solved here.  A witness must
    exist once ``r`` clears the radius by more than the solver tolerance;
    coming up empty therefore signals a structural defect and is reported
    with ``witness=None`` rather than raised.
    """
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"r must lie in (0, 1), got {r}")
    if critical is None:
        critical = critical_radius(problem.family)
    if r <= critical:
        raise ParameterDomainError(f"r={r} does not exceed the critical radius {critical}")
    bound = sup_bound(problem, r)
    best_margin = -math.inf
    best_value = -math.inf
    for k in range(1, max_doublings + 1):
        a = 1.0 - 2.0**-k
        value = extremal_majorant(problem, a, r, eps)
        margin = value - bound
        if margin > best_margin:
            best_margin, best_value = margin, value
        if margin > 1e-12:
            return ViolationReport(
                witness=a, majorant=value, bound=bound, margin=margin, attempts=k
            )
    return ViolationReport(
        witness=None,
        majorant=best_value,
        bound=bound,
        margin=best_margin,
        attempts=max_doublings,
    )


def concavity_check(
    problem: SharpnessProblem, r: float, a_grid: Sequence[float]
) -> float:
    """Max centered second difference of the proof's upper envelope in ``a``.

    The envelopes are concave,

        cesaro:   (1/r) [ (a^2+a-1) A(beta) + (1-a^2) A(beta+1) ],
        bernardi: a r**m/(m+gamma) + (1-a^2) sum_{n>m} r**n/(n+gamma),

    so on a uniform grid every second difference is nonpositive up to
    rounding; the returned maximum should not exceed 1e-10.
    """
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"r must lie in (0, 1), got {r}")
    grid = np.asarray(list(a_grid), dtype=np.float64)
    if grid.size < 3:
        raise ParameterDomainError("the a-grid needs at least three points")
    if grid.min() < 0.0 or grid.max() >= 1.0:
        raise ParameterDomainError("the a-grid must lie in [0, 1)")
    steps = np.diff(grid)
    if steps.min() <= 0.0 or (steps.max() - steps.min()) > 1e-9 * max(steps.max(), 1e-30):
        raise ParameterDomainError("the a-grid must be uniform and increasing")

    envelope = _envelope(problem, r)
    values = np.array([envelope(a) for a in grid])
    second = values[2:] - 2.0 * values[1:-1] + values[:-2]
    return float(second.max())


@singledispatch
def _envelope(problem, r: float) -> Callable[[float], float]:
    raise ParameterDomainError(f"no concavity envelope for {problem!r}")


@_envelope.register(CesaroBeta)
def _(problem: CesaroBeta, r: float) -> Callable[[float], float]:
    a_int = kernel_integral(problem.beta, r)
    b_int = kernel_integral(problem.beta + 1.0, r)
    return lambda a: ((a * a + a - 1.0) * a_int + (1.0 - a * a) * b_int) / r


@_envelope.register(Bernardi)
def _(problem: Bernardi, r: float) -> Callable[[float], float]:
    gamma, m = problem.gamma, problem.m
    tail_sum = math.fsum(x_pow / (n + gamma) for n, x_pow in problem.tail(r, 1e-16))
    lead = r**m / (m + gamma)
    return lambda a: a * lead + (1.0 - a * a) * tail_sum
