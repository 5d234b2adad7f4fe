"""Independent brute-force oracles for freezing expected values.

Everything here deliberately avoids the library's summation, convolution,
and recurrence paths: coefficients come from log-Gamma quotients, sums go
through math.fsum, and series are expanded by explicit double loops.

The reference implementations after them are the per-sample paths that
the batched verify sweep replaced: a Blaschke product expanded as a chain
of Cauchy products, a block of them expanded over masked rows in block
order, the corpus member of a seed drawn one uniform at a time from
splitmix64 on Python ints, and the three absolute series with their
truncation cuts; and the Bernardi radius equation over ``x**m``
summed by the plain tail loop.
They take plain numpy arrays and nothing from the library.  The one
exception is the Bernardi term loop that the library's bisection scan
replaced: it reads the family's order-cap test and raises the library's
``TruncationError``, so the two can be compared refusal for refusal.  The
last, the sharpness split of one ``a`` that ``bl.decompositions`` replaced,
reads the library's weights, bound and extremal majorant, so the two can be
compared bit for bit.

Three helpers serve the tests, not the library: ``taylor_matrix``, the
``bl.expand`` of a list of members; ``majorant_values``, every row's
majorant of a coefficient matrix summed by ``math.fsum`` from the library's
own terms, the exhaustive sum that ``verify``'s screened sum must
reproduce; and ``decomposition``, the one-``a`` call of
``bl.decompositions``.

The Cesaro majorant weights and their tail have mpmath references: each is
a Gauss hypergeometric value at 40 digits, with no recurrence of the
library's.

The four checks at the end, the boundary-grid membership of a corpus
member, the sampled sup bound, the index-shift relation between the
Cesaro forms and the quadratic decay of the sharpness remainder, are built
from the library's public functions: they test what those functions
assert about each other.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np

import bohrlab as bl
from bohrlab.errors import ParameterDomainError, TruncationError
from bohrlab.operators import MAX_SERIES_TERMS, _kind_weights, _majorant_terms
from bohrlab.sharpness import _check_a_r


def binomial_weight_lgamma(beta: float, n: int) -> float:
    """c_n(beta) via log-Gamma, independent of the production recurrence."""
    return math.exp(math.lgamma(n + beta) - math.lgamma(n + 1) - math.lgamma(beta))


def binomial_weights_rational(beta: Fraction, n_max: int) -> list:
    """Exact rational weights for rational beta."""
    out = [Fraction(1)]
    for n in range(1, n_max + 1):
        out.append(out[-1] * (n - 1 + beta) / n)
    return out


def cesaro_abs_series_bruteforce(beta: float, coeffs, r: float, n_terms: int) -> float:
    """Double-loop absolute series of the Cesaro-type image, fsum throughout.

    ``coeffs`` is any indexable of complex coefficients; terms past its
    length are treated as zero.  ``n_terms`` must be large enough that the
    geometric tail at ``r`` is negligible for the comparison at hand.
    """
    weights = [binomial_weight_lgamma(beta, n) for n in range(n_terms)]
    mags = [abs(c) for c in coeffs]
    terms = []
    for n in range(n_terms):
        inner = math.fsum(
            weights[n - k] * mags[k] for k in range(min(n, len(mags) - 1) + 1)
        )
        terms.append(inner / (n + 1) * r**n)
    return math.fsum(terms)


def cbeta_abs_series_bruteforce(beta: float, coeffs, r: float, n_terms: int) -> float:
    """Absolute series of the vanishing-at-origin Cesaro variant of g.

    ``coeffs`` are the coefficients of g itself (with g(0) = 0); the output
    series runs over z**(n+1) with the inner sum built from b_{k+1}.
    """
    weights = [binomial_weight_lgamma(beta, n) for n in range(n_terms)]
    mags = [abs(c) for c in coeffs]
    terms = []
    for n in range(n_terms):
        inner = math.fsum(
            weights[n - k] * mags[k + 1]
            for k in range(min(n, len(mags) - 2) + 1)
            if k + 1 < len(mags)
        )
        terms.append(inner / (n + 1) * r ** (n + 1))
    return math.fsum(terms)


def bernardi_abs_series_bruteforce(gamma: float, m: int, coeffs, r: float) -> float:
    """Finite absolute Bernardi series of the given coefficients."""
    return math.fsum(
        abs(coeffs[n]) / (n + gamma) * r**n for n in range(m, len(coeffs))
    )


def bohr_abs_series_bruteforce(coeffs, r: float) -> float:
    return math.fsum(abs(coeffs[n]) * r**n for n in range(len(coeffs)))


def phi_coeffs_direct(a: float, n_max: int) -> list:
    """Coefficients of (z - a)/(1 - a z) straight from the closed law."""
    out = [-a]
    for n in range(1, n_max + 1):
        out.append((1.0 - a * a) * a ** (n - 1))
    return out


def psi_coeffs_direct(a: float, m: int, n_max: int) -> list:
    base = phi_coeffs_direct(a, max(n_max - m, 0))
    out = [0.0] * m + base
    return out[: n_max + 1]


def cesaro_remainder_integral(beta: float, a: float, r: float, dps: int = 40) -> float:
    """Remainder of the Cesaro extremal split in its integral form,

        2(1-a)/r [A(beta) - A(beta+1)] + (1-a^2)/r integral_0^r t / ((1-at)(1-t)**beta) dt,

    with ``A(b) = integral_0^r (1-t)**-b dt``; all three integrals by
    ``mpmath.quad`` at ``dps`` digits.
    """
    with mpmath.workdps(dps):
        beta, a, r = (mpmath.mpf(v) for v in (beta, a, r))

        def kernel(b):
            return mpmath.quad(lambda t: (1 - t) ** -b, [0, r])

        inner = mpmath.quad(lambda t: t / ((1 - a * t) * (1 - t) ** beta), [0, r])
        value = 2 * (1 - a) / r * (kernel(beta) - kernel(beta + 1)) + (1 - a * a) / r * inner
        return float(value)


def blaschke_coeffs_reference(zeros, lead: complex, n_max: int) -> np.ndarray:
    """Coefficients of ``lead * prod (z - a) / (1 - conj(a) z)`` up to ``n_max``.

    Each factor series is the Cauchy product of ``(z - a)`` with the
    geometric series ``sum conj(a)**n z**n``; the product is built by one
    more Cauchy product per factor.
    """
    product = np.zeros(n_max + 1, dtype=np.complex128)
    product[0] = lead
    for a in zeros:
        linear = np.zeros(n_max + 1, dtype=np.complex128)
        linear[0] = -a
        if n_max >= 1:
            linear[1] = 1.0
        geometric = complex(a).conjugate() ** np.arange(n_max + 1)
        factor = np.convolve(linear, geometric)[: n_max + 1]
        product = np.convolve(product, factor)[: n_max + 1]
    return product


def expand_masked_reference(h0, zeros, live, n_max: int) -> np.ndarray:
    """The block expansion that ``corpus.expand``'s sorted rows replaced: the
    same recurrence per zero column, over the rows that hold it gathered by
    their ``live`` mask in the block's own row order."""
    h = np.zeros((n_max + 1, len(h0)), dtype=np.complex128)
    h[0] = h0
    for a, a_bar, on in zip(zeros.T, zeros.conj().T, live.T):
        h[1:, on] = h[:-1, on] - a[on] * h[1:, on]
        h[0, on] = -a[on] * h[0, on]
        for n in range(1, n_max + 1):
            h[n] += a_bar * h[n - 1]
    return np.ascontiguousarray(h.T)


def taylor_matrix(fs, n_max: int) -> np.ndarray:
    """Taylor coefficients ``a_0 .. a_{n_max}`` of each member, one row each,
    laid out as the arrays ``bl.expand`` reads."""
    width = max((len(f.zeros) for f in fs), default=0)
    h0 = np.array([f.scale for f in fs], dtype=np.complex128)
    zeros = np.zeros((len(fs), width), dtype=np.complex128)
    live = np.zeros((len(fs), width), dtype=bool)
    for i, f in enumerate(fs):
        zeros[i, : len(f.zeros)] = f.zeros
        live[i, : len(f.zeros)] = True
    return bl.expand(h0, zeros, live, n_max)


def majorant_values(kind, coeffs: np.ndarray, r: float, eps: float = 1e-12) -> list:
    """Absolute series of the operator image at radius ``r`` for each row of
    ``coeffs``: ``r**s * sum_k |a_{k+d}| w_k`` with the family's weights, each
    row summed by ``math.fsum``, so its value does not depend on the other
    rows.  Refused as ``bl.majorant_value`` refuses a row: outside the unit
    ball (NaN included), or stopping before the weight vector's cut."""
    terms, scale = _majorant_terms(kind, coeffs, r, eps)
    return [scale * math.fsum(row.tolist()) for row in terms]


def splitmix64_reference(state: int, index: int) -> int:
    """Output ``index`` of splitmix64 (Steele, Lea & Flood, OOPSLA 2014) from
    ``state``: the mix of ``state + (index + 1) * golden`` on Python ints."""
    mask = 2**64 - 1
    z = (state + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ z >> 30) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ z >> 27) * 0x94D049BB133111EB) & mask
    return z ^ z >> 31


def corpus_member_reference(seed: int, max_factors: int, radius_cap: float) -> tuple:
    """The verify corpus member of ``seed`` as ``(lead, zeros)``, one uniform at a time.

    Uniform ``j`` is the top 53 bits of splitmix64 output ``j`` from the
    seed.  Column 0 picks a constant (below 1/4), a pure product (below
    5/8) or a damped one; column 1 the factor count; columns 2 and 3 the
    constant or the damping point; column 4 the rotation; columns ``5 + 2i``
    and ``6 + 2i`` zero ``i``.  A disk point is ``length * unit`` with
    ``length = radius * sqrt(u)``, the lead ``rotation * scale``.
    """

    def u(j):
        return (splitmix64_reference(seed & 2**64 - 1, j) >> 11) * 2.0**-53

    def disk(j, radius):
        length, unit = radius * math.sqrt(u(j)), cmath.exp(2j * math.pi * u(j + 1))
        return complex(length * unit.real, length * unit.imag)

    if u(0) < 0.25:
        return complex(1.0) * disk(2, 1.0), ()
    zeros = tuple(disk(5 + 2 * i, radius_cap) for i in range(int(u(1) * (max_factors + 1))))
    scale = complex(1.0) if u(0) < 0.625 else disk(2, 1.0)
    return cmath.exp(2j * math.pi * u(4)) * scale, zeros


def cesaro_moment_mp(beta: float, r: float, k: int, dps: int = 40):
    """The Cesaro majorant weight ``w_k = (1/r) integral_0^r t**k (1-t)**(-beta) dt``
    as ``r**k / (k+1) * 2F1(beta, k+1; k+2; r)``, an mpf at ``dps`` digits."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(r)
        return x**k / (k + 1) * mpmath.hyp2f1(beta, k + 1, k + 2, x)


def cesaro_tail_mp(beta: float, r: float, n: int, dps: int = 40):
    """The weights' tail ``sum_{k>n} w_k = (1/r) integral_0^r t**(n+1) (1-t)**(-beta-1)
    dt``, ``r**(n+1) / (n+2) * 2F1(beta+1, n+2; n+3; r)``, an mpf at ``dps`` digits."""
    with mpmath.workdps(dps):
        x = mpmath.mpf(r)
        return x ** (n + 1) / (n + 2) * mpmath.hyp2f1(beta + 1, n + 2, n + 3, x)


def cesaro_abs_series_reference(beta: float, absf, r: float, n_stop: int) -> float:
    """Cesaro absolute series of the member cut at order ``n_stop`` (its later
    coefficients dropped): the image's absolute coefficients by one
    convolution, carried 400 orders past the cut, where at the sampled radii
    (below 0.6) its terms are far below rounding, then one correctly rounded
    sum."""
    n_terms = n_stop + 401
    n = np.arange(1, n_terms, dtype=np.float64)
    c = np.concatenate(([1.0], np.cumprod((n - 1.0 + beta) / n)))
    conv = np.convolve(c, np.asarray(absf)[: n_stop + 1])[:n_terms]
    return math.fsum(conv * r ** np.arange(n_terms) / np.arange(1, n_terms + 1))


def bernardi_abs_series_reference(gamma: float, m: int, absf, r: float, eps: float) -> float:
    """Bernardi absolute series over the given coefficients, stopped before
    the first ``n`` whose geometric tail bound is at most ``eps``."""
    absf = np.asarray(absf)
    n = np.arange(m, absf.size)
    r_pow = r**n
    done = np.flatnonzero(r_pow / ((n + gamma) * (1.0 - r)) <= eps)
    stop = done[0] if done.size else n.size
    return math.fsum(absf[m : m + stop] / (n[:stop] + gamma) * r_pow[:stop])


def bernardi_tail_reference(gamma: float, m: int, x: float, tol: float, weight: float,
                            cap: int) -> list:
    """The Bernardi tail loop without an early refusal: pairs ``(n, x**n)``
    for ``n > m`` until ``weight * x**n / ((n+gamma)(1-x)) <= tol``, or
    ``None`` when the bound is still above ``tol`` at ``n = cap - 1``."""
    out, x_pow = [], x ** (m + 1)
    for n in range(m + 1, cap):
        if weight * x_pow / ((n + gamma) * (1.0 - x)) <= tol:
            return out
        out.append((n, x_pow))
        x_pow *= x
    return None


def bernardi_equation_reference(gamma: float, m: int, x: float, tail_eps: float,
                                cap: int) -> float:
    """The Bernardi radius equation over ``x**m``,
    ``1/(m+gamma) - 2 sum_{n>m} x**(n-m)/(n+gamma)``, summed over the terms
    ``bernardi_tail_reference`` takes for ``m + gamma`` and ``m = 0`` at the
    cut ``tail_eps * min(1, 1/(m+gamma))``, or ``None`` when that loop
    reaches ``cap``."""
    lead = 1.0 / (m + gamma)
    terms = bernardi_tail_reference(m + gamma, 0, x, tail_eps * min(1.0, lead), 2.0, cap)
    if terms is None:
        return None
    return math.fsum([lead] + [-2.0 * x_pow / (n + m + gamma) for n, x_pow in terms])


def bernardi_terms_reference(family, r: float, eps: float) -> list:
    """``Bernardi.weights`` as the plain loop its bisection scan replaced,
    which tests each term's cut before appending it: ``r**k / (k+gamma)``
    from ``k = 0`` until ``r**k / ((k+gamma)(1-r)) <= eps``.  A loop that
    tests every ``k <= MAX_SERIES_TERMS`` without a cut raises the same
    ``TruncationError``."""
    w, scale, gamma = [], 1.0 - r, family.gamma
    for k in range(MAX_SERIES_TERMS + 1):
        r_pow, denom = r**k, k + gamma
        if r_pow / (denom * scale) <= eps:
            return w
        w.append(r_pow / denom)
    raise TruncationError(
        f"Bernardi weights will not reach {eps} within {MAX_SERIES_TERMS} terms at r={r}"
    )


def bernardi_root_reachable_reference(family, ladder) -> bool:
    """The scan ``Bernardi.require_root_below`` made before it tested one
    point: whether any ``ladder`` point at or above the root floor ``1 -
    exp(-1/(2 gamma))`` passes the weights' cap test at the equation's cut."""
    cap, gamma, cut = MAX_SERIES_TERMS, family.gamma, family._equation_cut()
    floor = -math.expm1(-0.5 / gamma)
    return any(x**cap / ((cap + gamma) * (1.0 - x)) <= cut for x in ladder if x >= floor)


def bernardi_radius_equation_loop(family, x: float) -> float:
    """``Bernardi.radius_equation`` as it was summed over the loop's terms:
    ``1/gamma`` plus each term past the first times -2, in one ``fsum``."""
    w = bernardi_terms_reference(family, x, family._equation_cut())
    return math.fsum([1.0 / family.gamma] + [-2.0 * v for v in w[1:]])


def decomposition(problem, a: float, r: float):
    """The one-``a`` case of ``bl.decompositions``."""
    return bl.decompositions(problem, [a], r)[0]


def decomposition_reference(problem, a: float, r: float):
    """``decomposition`` as it split one ``a`` before an a-grid shared one
    weight pass: it checked ``a`` and ``r``, fetched the split weights at
    ``1e-15`` and the sup bound for this row alone, and summed the deficit
    and remainder from them, and ``total`` as ``r**s`` times the family's
    extremal majorant at the same cut."""
    _check_a_r(a, r)
    family, scale = problem.family, r**problem.s
    w = _kind_weights(problem, r, 1e-15)
    lead, tail = w[0], w[1:]
    bracketed = [((1.0 + a) * a**k - 2.0) * w for k, w in enumerate(tail)]
    return bl.Decomposition(
        bound_term=bl.sup_bound(problem, r),
        deficit_term=scale * ((1.0 - a) * (lead - 2.0 * math.fsum(tail))),
        remainder=scale * ((1.0 - a) * math.fsum(bracketed)),
        total=scale * bl.extremal_majorant(family, a, r, 1e-15),
    )


def validate_membership(f, grid_size: int) -> float:
    """Max modulus of a corpus member over equispaced points on the circle
    of radius 1 - 1e-6."""
    if grid_size < 16:
        raise ParameterDomainError(f"grid_size must be >= 16, got {grid_size}")
    radius = 1.0 - 1e-6
    return max(
        abs(bl.evaluate(f, radius * cmath.exp(2j * math.pi * k / grid_size)))
        for k in range(grid_size)
    )


def sup_bound_check(kind, f, r: float, samples: int, tol: float = 1e-10) -> float:
    """Sampled excess of the integral modulus over the closed-form bound.

    Returns ``max_j |K[f](r e^{i theta_j})| - sup_bound(kind, r)`` over
    equispaced angles (theta = 0 included, where the bound is attained by
    the constant 1).  Nonpositive within 1e-9 certifies the sample check.
    """
    if not 0.0 < r < 1.0:
        raise ParameterDomainError(f"r must lie in (0, 1), got {r}")
    if samples < 8:
        raise ParameterDomainError(f"samples must be >= 8, got {samples}")
    bound = bl.sup_bound(kind, r)
    worst = -math.inf
    for j in range(samples):
        zj = r * complex(math.cos(2 * math.pi * j / samples), math.sin(2 * math.pi * j / samples))
        worst = max(worst, abs(bl.quadrature_value(kind, f, zj, tol)) - bound)
    return worst


def cbeta_relation_residual(h, beta: float, r: float, eps: float = 1e-12) -> float:
    """Defect of the index-shift relation between the two Cesaro forms.

    For g(z) = z h(z), the absolute series of the vanishing-at-origin
    variant applied to g must equal ``r`` times the absolute series of the
    plain operator applied to h; returns the difference, which is at most
    ``2 * eps``.
    """
    n_inner = bl.cesaro_series_order(beta, r, eps)
    g = bl.multiply_by_z(h)
    lhs = bl.majorant_value(bl.CBeta(beta), bl.taylor_coeffs(g, n_inner + 1), r, eps)
    rhs = r * bl.majorant_value(bl.CesaroBeta(beta), bl.taylor_coeffs(h, n_inner), r, eps)
    return abs(lhs - rhs)


def quadratic_remainder_check(problem, r: float, a_list) -> list:
    """Ratios ``remainder / (1-a)**2`` of ``decomposition`` along ``a_list``.

    The remainder vanishes quadratically as a -> 1, so the ratios should
    stabilize; acceptance asks for max/min magnitude within a factor 4 over
    a in {0.9, 0.99, 0.999}.
    """
    values = list(a_list)
    if any(not 0.0 <= a < 1.0 for a in values):
        raise ParameterDomainError("all a values must lie in [0, 1)")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ParameterDomainError("a_list must be strictly increasing")
    return [decomposition(problem, a, r).remainder / (1.0 - a) ** 2 for a in values]
