"""Executable sharpness arguments for the radius results.

The extremal members ``psi_a_m(z) = z**m phi_a(z)``, with the disk
automorphism ``phi_a(z) = (z - a)/(1 - a z)``, attain the sup bounds in the
limit a -> 1, and their absolute series split into three terms:

    total = bound - (1 - a) * [radius equation at r] + remainder,

with a remainder that vanishes quadratically in (1 - a).  The deficit term
flips sign exactly at the critical radius, so for r beyond it the extremal
absolute series eventually exceeds the bound; the witness search walks
a = 1 - 2**-k until it finds such a violation.  For every family the deficit
and remainder come from one identity in the family's majorant weights, the
bound from its closed form, and ``total`` from the extremal member's Taylor
coefficients, which follow the closed real law ``-a`` at index ``m`` and
``(1 - a*a) * a**(n-1)`` at index ``m + n``; the remainder is never taken as
a residual, which makes the three-term reconstruction a genuine cross-check.
The law holds up to ``a = 1``, past the corpus's zero cap, so ``total`` sums
it against the weights directly, with no coefficient array and no ``corpus``
member.  An a-grid shares one bound and one weight vector, read by the split
and ``total`` alike.  Every sum here is a ``math.fsum`` over floats, so the
module needs no numpy.  The integral form of the Cesaro remainder is kept as
an independent oracle in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from . import _EXPORTS
from .errors import ParameterDomainError
from .operators import (
    Bernardi,
    CesaroBeta,
    ClassicalBohr,
    OperatorKind,
    Record,
    _kind_weights,
    sup_bound,
)
from .radii import _check_tol, solve_radius

__all__ = _EXPORTS["sharpness"]

# The classical constant for the identity operator: the absolute series of
# every unit-ball member stays at most 1 up to radius 1/3, and no further.
BOHR_BASELINE_RADIUS = 1.0 / 3.0

# The witness scan tries a = 1 - 2**-k for k = 1 .. _WITNESS_DOUBLINGS.
_WITNESS_DOUBLINGS = 40

# The split weights' cut: the tail they omit is at most 1e-15 * min(1, bound).
_SPLIT_EPS = 1e-15


class Decomposition(Record):
    """Three-term split of an extremal absolute series.

    ``total`` is summed independently of the other three fields, so
    ``total = bound_term - deficit_term + remainder`` holds only up to the
    numerical defect reported by ``reconstruction_error``.
    """

    __slots__ = ("bound_term", "deficit_term", "remainder", "total")

    @property
    def reconstruction_error(self) -> float:
        return abs(self.total - (self.bound_term - self.deficit_term + self.remainder))


class ViolationReport(Record):
    """Outcome of the extremal witness scan at a fixed radius."""

    __slots__ = ("witness", "majorant", "bound", "margin", "attempts")

    @property
    def found(self) -> bool:
        return self.witness is not None


def _check_a_r(a: float, r: float) -> None:
    if not 0.0 <= a <= 1.0:
        raise ParameterDomainError(f"a must lie in [0, 1], got {a}")
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"r must lie in (0, 1), got {r}")


def critical_radius(problem: OperatorKind, tol: float = 1e-12) -> float:
    """Bohr's 1/3 for the identity baseline, the solved family radius otherwise;
    ``tol`` is checked as the solver checks it for every kind."""
    _check_tol(tol)
    if problem == ClassicalBohr():
        return BOHR_BASELINE_RADIUS
    return solve_radius(problem, tol).root


def extremal_majorant(
    problem: OperatorKind, a: float, r: float, eps: float = 1e-12
) -> float:
    """Absolute series of the problem's extremal member at radius ``r``.

    The member is ``z**d phi_a`` with ``d`` the origin zeros the operand
    needs.  Its coefficient moduli follow the closed law ``a``, then
    ``(1 - a*a) * a**(n-1)``, and are summed against the family weights,
    ``r**s * fsum([a w_0] + [(1-a^2) a**(n-1) w_n])``; the weight vector's
    cut keeps the omitted tail below ``eps``.
    """
    _check_a_r(a, r)
    w = _kind_weights(problem, r, eps)
    slack = 1.0 - a * a
    terms = [a * w[0]] + [slack * a ** (n - 1) * w[n] for n in range(1, len(w))]
    return r**problem.s * math.fsum(terms)


def decompositions(problem: OperatorKind, a_values: Sequence[float], r: float) -> list:
    """Three-term splits of the extremal absolute series, one per ``a``.

    With ``lead = w_0`` and ``tail = w_1, w_2, ...``, the extremal ``z**d
    phi_a`` has ``|a_d| = a`` and ``|a_{d+k}| = (1-a^2) a**(k-1)``, so

        deficit   = (1-a) (lead - 2 sum tail),
        remainder = (1-a) sum_k ((1+a) a**(k-1) - 2) tail_k,

    the deficit being ``(1-a)`` times the radius equation at ``r`` (over ``r``
    for the Cesaro family).  ``bound`` is the closed-form sup bound and
    ``total`` the extremal member's majorant; an origin shift scales all
    four terms by ``r**s``.  Every ``a`` is checked first; one weight vector
    serves every row's split and ``total``.  A grid whose sums or terms
    overflow the float range is refused, as a bound that does is.
    """
    for a in a_values:
        _check_a_r(a, r)
    lead, *tail = _kind_weights(problem, r, _SPLIT_EPS)
    scale, bound = r**problem.s, sup_bound(problem, r)

    def split(a: float) -> Decomposition:
        bracketed = [((1.0 + a) * a**k - 2.0) * w for k, w in enumerate(tail)]
        return Decomposition(
            bound_term=bound,
            deficit_term=scale * ((1.0 - a) * unit_deficit),
            remainder=scale * ((1.0 - a) * math.fsum(bracketed)),
            total=extremal_majorant(problem, a, r, _SPLIT_EPS),
        )

    try:
        unit_deficit = lead - 2.0 * math.fsum(tail)
        splits = [split(a) for a in a_values]
        # reconstruction_error is finite only where all four terms are
        if all(math.isfinite(dec.reconstruction_error) for dec in splits):
            return splits
    except OverflowError:  # an fsum of finite terms past the float range
        pass
    raise ParameterDomainError(f"the extremal split at r={r} overflows the float range")


def decomposition_cesaro(beta: float, a: float, r: float) -> Decomposition:
    """The one-``a`` split of ``CesaroBeta(beta)``."""
    return decompositions(CesaroBeta(beta), [a], r)[0]


def decomposition_bernardi(gamma: float, m: int, a: float, r: float) -> Decomposition:
    """The one-``a`` split of ``Bernardi(gamma, m)``."""
    return decompositions(Bernardi(gamma, m), [a], r)[0]


def violation_search(
    problem: OperatorKind,
    r: float,
    eps: float = 1e-12,
    critical: Optional[float] = None,
) -> ViolationReport:
    """Scan a = 1 - 2**-k for an extremal absolute series above the bound.

    Requires ``r`` beyond the critical radius of the problem's family, which
    an origin shift leaves unchanged; a caller that has already solved it
    passes it as ``critical``, otherwise it is solved here.  A witness, a
    margin above ``1e-12 * min(1, bound)``, must exist once ``r`` clears the
    radius by more than the solver tolerance; coming up empty therefore
    signals a structural defect and is reported with ``witness=None``.
    """
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"r must lie in (0, 1), got {r}")
    if critical is None:
        critical = critical_radius(problem.family)
    if r <= critical:
        raise ParameterDomainError(f"r={r} does not exceed the critical radius {critical}")
    bound = sup_bound(problem, r)
    threshold = 1e-12 * min(1.0, bound)
    best_margin = best_value = -math.inf
    for k in range(1, _WITNESS_DOUBLINGS + 1):
        a = 1.0 - 2.0**-k
        value = extremal_majorant(problem, a, r, eps)
        margin = value - bound
        if margin > best_margin:
            best_margin, best_value = margin, value
        if margin > threshold:
            return ViolationReport(a, value, bound, margin, k)
    return ViolationReport(None, best_value, bound, best_margin, _WITNESS_DOUBLINGS)


def concavity_check(
    problem: OperatorKind, r: float, a_grid: Sequence[float]
) -> float:
    """Max centered second difference of the proof's upper envelope in ``a``.

    In the split weights of ``decompositions`` the envelope is concave,

        r**s [ a lead + (1-a^2) sum tail ],

    so on a uniform grid every second difference is nonpositive up to
    rounding; the returned maximum should not exceed 1e-10.  Every grid test
    is written so that a NaN fails it.
    """
    grid = [float(a) for a in a_grid]
    if len(grid) < 3:
        raise ParameterDomainError("the a-grid needs at least three points")
    if not all(0.0 <= a < 1.0 for a in grid):
        raise ParameterDomainError("the a-grid must lie in [0, 1)")
    steps = [b - a for a, b in zip(grid, grid[1:])]
    widest = max(steps)
    if not (min(steps) > 0.0 and widest - min(steps) <= 1e-9 * max(widest, 1e-30)):
        raise ParameterDomainError("the a-grid must be uniform and increasing")

    w = _kind_weights(problem, r, _SPLIT_EPS)
    tail_sum, scale = math.fsum(w[1:]), r**problem.s
    v = [scale * (a * w[0] + (1.0 - a * a) * tail_sum) for a in grid]
    return max((v[i + 2] - 2.0 * v[i + 1]) + v[i] for i in range(len(v) - 2))
