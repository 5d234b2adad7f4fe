"""Operator tests: series images, certified majorants against brute-force
oracles, quadrature of the defining integrals, and the sharp sup bounds."""

import cmath
import math
import random
import time
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bohrlab as bl
from bohrlab import operators
from bohrlab.errors import ParameterDomainError, PreconditionError, TruncationError
from bohrlab.operators import MAX_SERIES_TERMS
from oracles import (
    bernardi_abs_series_bruteforce,
    bernardi_equation_reference,
    bernardi_radius_equation_loop,
    bernardi_tail_reference,
    bernardi_terms_reference,
    cbeta_abs_series_bruteforce,
    cbeta_relation_residual,
    cesaro_abs_series_bruteforce,
    cesaro_moment_mp,
    cesaro_tail_mp,
    phi_coeffs_direct,
    sup_bound_check,
)

DELTA = np.array([1.0] + [0.0] * 16, dtype=complex)
# The delta row padded past every weight vector the majorant tests read.
DELTA_ROW = np.pad(DELTA, (0, 400))

coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    min_size=4,
    max_size=10,
)


def _corpus(seed, count, max_factors=4):
    return [bl.random_schur(bl.derive_seed(seed, i), max_factors, 0.9) for i in range(count)]


class TestOperatorCoeffs:
    def test_cesaro_one_on_delta(self):
        out = bl.operator_coeffs(bl.CesaroBeta(1.0), DELTA, 8).real
        assert np.allclose(out, [1.0 / (n + 1) for n in range(9)], rtol=0, atol=0)

    def test_cesaro_two_on_delta_is_constant(self):
        out = bl.operator_coeffs(bl.CesaroBeta(2.0), DELTA, 8).real
        assert np.allclose(out, np.ones(9), rtol=0, atol=0)

    def test_bernardi_on_all_ones(self):
        f = np.array(np.ones(9), dtype=complex)
        out = bl.operator_coeffs(bl.Bernardi(1.0, 0), f, 8).real
        assert np.allclose(out, [1.0 / (n + 1) for n in range(9)])

    def test_libera_specializes_bernardi(self):
        f = bl.taylor_coeffs(bl.Blaschke((0.4,)), 12)
        lhs = bl.operator_coeffs(bl.Libera(), f, 12)
        rhs = bl.operator_coeffs(bl.Bernardi(1.0, 0), f, 12)
        assert np.array_equal(lhs, rhs)

    def test_alexander_specializes_bernardi(self):
        f = bl.taylor_coeffs(bl.Blaschke((0j, 0.4)), 12)
        lhs = bl.operator_coeffs(bl.Alexander(), f, 12)
        rhs = bl.operator_coeffs(bl.Bernardi(0.0, 1), f, 12)
        assert np.array_equal(lhs, rhs)

    def test_primitive_is_shifted_libera(self):
        f = bl.taylor_coeffs(bl.Blaschke((0.3,)), 12)
        shifted = bl.operator_coeffs(bl.PrimitiveI(), f, 12)
        libera = bl.operator_coeffs(bl.Libera(), f, 11)
        assert shifted[0] == 0.0
        assert np.array_equal(shifted[1:], libera)

    def test_cbeta_shifts_the_plain_image(self):
        h = bl.taylor_coeffs(bl.Blaschke((0.5,)), 12)
        g = bl.taylor_coeffs(bl.Blaschke((0j, 0.5)), 12)
        lhs = bl.operator_coeffs(bl.CBeta(0.7), g, 12)
        rhs = bl.operator_coeffs(bl.CesaroBeta(0.7), h, 11)
        assert lhs[0] == 0.0
        assert np.allclose(lhs[1:], rhs)

    def test_bernardi_rejects_nonvanishing_input(self):
        with pytest.raises(PreconditionError):
            bl.operator_coeffs(bl.Bernardi(0.0, 1), DELTA, 8)

    def test_nonfinite_image_is_refused(self):
        # c_n(400) overflows a float long before order 2999
        delta = np.zeros(3000, dtype=complex)
        delta[0] = 1.0
        with pytest.raises(ParameterDomainError, match="must be finite"):
            bl.operator_coeffs(bl.CesaroBeta(400.0), delta, 2999)

    def test_nan_leading_zero_is_refused(self):
        # Alexander's image never reads a_0, so only the leading-zero check sees the NaN
        with pytest.raises(PreconditionError):
            bl.operator_coeffs(bl.Alexander(), [float("nan"), 1.0, 0.0], 2)

    def test_order_shortfall_raises(self):
        with pytest.raises(TruncationError):
            bl.operator_coeffs(bl.CesaroBeta(1.0), np.array([1.0], dtype=complex), 4)

    @given(a=coeff_lists, b=coeff_lists, scale=st.complex_numbers(max_magnitude=2.0))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, a, b, scale):
        n = min(len(a), len(b)) - 1
        u, v = np.array(a, dtype=complex), np.array(b, dtype=complex)
        combo = np.array(u[: n + 1] * scale + v[: n + 1], dtype=complex)
        kind = bl.CesaroBeta(1.3)
        lhs = bl.operator_coeffs(kind, combo, n)
        rhs = (
            scale * bl.operator_coeffs(kind, u, n)
            + bl.operator_coeffs(kind, v, n)
        )
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestMajorant:
    def test_cesaro_delta_closed_form(self):
        # image of the delta sequence sums to (1/r) log(1/(1-r))
        for r in (0.25, 0.5, 0.75):
            expected = math.log(1.0 / (1.0 - r)) / r
            assert bl.majorant_value(bl.CesaroBeta(1.0), DELTA_ROW, r, 1e-12) == pytest.approx(
                expected, abs=5e-12
            )

    def test_bernardi_delta_is_one(self):
        for r in (0.1, 0.5, 0.9):
            assert bl.majorant_value(bl.Bernardi(1.0, 0), DELTA_ROW, r) == 1.0

    def test_cesaro_extremal_against_bruteforce(self):
        r, beta = 0.5, 1.0
        n_max = bl.cesaro_series_order(beta, r, 1e-13)
        coeffs = bl.taylor_coeffs(bl.Blaschke((0.5,)), n_max)
        ours = bl.majorant_value(bl.CesaroBeta(beta), coeffs, r, 1e-13)
        ref = cesaro_abs_series_bruteforce(beta, phi_coeffs_direct(0.5, n_max), r, 400)
        assert ours == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("beta", (0.5, 2.0))
    def test_cesaro_corpus_against_bruteforce(self, beta):
        r = 0.45
        f = bl.random_schur(bl.derive_seed(17, 3), 4, 0.9)
        n_max = bl.cesaro_series_order(beta, r, 1e-13)
        coeffs = bl.taylor_coeffs(f, n_max)
        ours = bl.majorant_value(bl.CesaroBeta(beta), coeffs, r, 1e-13)
        ref = cesaro_abs_series_bruteforce(beta, coeffs, r, 500)
        assert ours == pytest.approx(ref, abs=1e-10)

    def test_bernardi_corpus_against_bruteforce(self):
        r, gamma, m = 0.6, 0.5, 1
        f = bl.multiply_by_z(bl.random_schur(bl.derive_seed(18, 5), 4, 0.9))
        kind = bl.Bernardi(gamma, m)
        coeffs = bl.taylor_coeffs(f, kind.d + bl.series_order(kind.family, r, 1e-14))
        ours = bl.majorant_value(kind, coeffs, r, 1e-14)
        ref = bernardi_abs_series_bruteforce(gamma, m, coeffs, r)
        assert ours == pytest.approx(ref, abs=1e-11)

    @pytest.mark.parametrize(
        "gamma,m,s",
        [(0.0, 1, 0), (-0.5, 2, 0), (2.0, 3, 0), (-2.85, 3, 0), (1.0, 2, 1), (0.5, 40, 0)],
    )
    def test_shifted_bernardi_corpus_against_bruteforce(self, gamma, m, s):
        # z**m L_(m+gamma)[f / z**m] is L_gamma on f, and a further shift
        # (s, s) composes with it: the majorant is r**s times L_gamma's on f / z**s.
        r = 0.6
        f = bl.multiply_by_z(bl.random_schur(bl.derive_seed(18, m), 4, 0.9), m + s)
        kind = bl.Shifted(bl.Bernardi(gamma, m), s, s)
        assert kind == bl.Shifted(bl.Bernardi(m + gamma), m + s, m + s)
        coeffs = bl.taylor_coeffs(f, kind.d + bl.series_order(kind.family, r, 1e-14))
        ours = bl.majorant_value(kind, coeffs, r, 1e-14)
        ref = r**s * bernardi_abs_series_bruteforce(gamma, m, coeffs[s:], r)
        assert ours == pytest.approx(ref, abs=1e-11)

    def test_primitive_majorant_scales_libera(self):
        f = bl.taylor_coeffs(bl.Blaschke((0.6,)), 120)
        r = 0.55
        lhs = bl.majorant_value(bl.PrimitiveI(), f, r)
        rhs = r * bl.majorant_value(bl.Libera(), f, r)
        assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_majorant_dominates_image_modulus(self):
        f = bl.random_schur(bl.derive_seed(77, 1), 4, 0.9)
        r = 0.5
        for kind in (bl.CesaroBeta(1.0), bl.CesaroBeta(0.5), bl.Bernardi(1.0, 0)):
            n_max = 200
            coeffs = bl.taylor_coeffs(f, n_max)
            image = bl.operator_coeffs(kind, coeffs, n_max)
            maj = bl.majorant_value(kind, coeffs, r, 1e-12)
            for k in range(12):
                z = r * cmath.exp(2j * math.pi * k / 12)
                assert abs(bl.horner(image, z)) <= maj + 1e-10

    def test_cut_is_relative_to_a_tiny_bound(self):
        # w_m = r**m/(m+gamma) is 7.8e-33 here; an absolute cut of 1e-12 drops it
        family, r = bl.Bernardi(1.0, 100), 0.5
        z_m = np.array([0.0] * 100 + [1.0] + [0.0] * 40, dtype=complex)
        assert bl.majorant_value(family, z_m, r) == bl.sup_bound(family, r) > 0.0

    def test_underflowing_bound_is_a_domain_error(self):
        # The family bound 1/1101 is normal; the operator's r**1100 / 1101 is not.
        kind, row = bl.Bernardi(1.0, 1100), np.zeros(1200, dtype=complex)
        with pytest.raises(ParameterDomainError, match="bound 0 .* underflows"):
            bl.sup_bound(kind, 0.5)
        with pytest.raises(ParameterDomainError, match="bound 0 .* underflows"):
            bl.majorant_value(kind, row, 0.5)
        with pytest.raises(ParameterDomainError, match="bound 0 .* underflows"):
            bl.extremal_majorant(kind, 0.5, 0.5)

    @pytest.mark.parametrize("eps", [0.0, 1.0, 2.0])
    def test_cut_outside_the_unit_interval_is_a_domain_error(self, eps):
        # a cut of eps >= 1 times the bound could drop w_m itself
        with pytest.raises(ParameterDomainError, match="eps must lie in"):
            bl.series_order(bl.Bernardi(1.0, 3).family, 0.5, eps)

    @pytest.mark.parametrize(
        "kind",
        [bl.CesaroBeta(1.0), bl.CBeta(1.0),
         pytest.param(bl.Libera(), id="Bernardi(gamma=1.0, m=0)")],
        ids=str,
    )
    def test_short_row_is_refused(self, kind):
        # Blaschke((0.9,)) at r = 0.58: the weights read more columns than 6,
        # and the row's cut-off tail would go uncounted.
        row = bl.taylor_coeffs(bl.multiply_by_z(bl.Blaschke((0.9,)), kind.d), 5 + kind.d)
        with pytest.raises(TruncationError, match="the weights read"):
            bl.majorant_value(kind, row, 0.58)

    def test_unit_ball_precondition(self):
        too_big = np.array([1.5, 0.0], dtype=complex)
        with pytest.raises(ParameterDomainError):
            bl.majorant_value(bl.CesaroBeta(1.0), too_big, 0.5)

    def test_bohr_majorant_matches_direct_sum(self):
        coeffs = bl.taylor_coeffs(bl.Blaschke((0.7,)), 300)
        r = 0.4
        direct = math.fsum(abs(coeffs[n]) * r**n for n in range(301))
        assert bl.bohr_majorant(coeffs, r) == pytest.approx(direct, abs=1e-14)

    @pytest.mark.parametrize("coeffs", [[math.nan, 0.5], [3.0]], ids=["nan", "outside"])
    def test_bohr_majorant_refuses_non_unit_ball_coefficients(self, coeffs):
        with pytest.raises(ParameterDomainError, match="unit-ball"):
            bl.bohr_majorant(np.array(coeffs), 0.5)


class TestCBetaRelation:
    def test_constant_input_closed_form(self):
        # both routes equal 2 r log 2 at r = 1/2
        r = 0.5
        res = cbeta_relation_residual(bl.Blaschke((), 1.0), 1.0, r, eps=1e-12)
        assert res <= 2e-12
        n = bl.cesaro_series_order(1.0, r, 1e-12)
        g = bl.taylor_coeffs(bl.Blaschke((0j,)), n + 1)  # z itself
        lhs = bl.majorant_value(bl.CBeta(1.0), g, r, 1e-12)
        assert lhs == pytest.approx(2.0 * r * math.log(2.0), abs=1e-11)

    def test_extremal_input(self):
        assert cbeta_relation_residual(bl.Blaschke((0.5,)), 0.5, 0.3) <= 2e-12

    def test_zero_function(self):
        assert cbeta_relation_residual(bl.Blaschke((), 0.0), 1.0, 0.5) == 0.0

    def test_shift_against_double_sum_oracle(self):
        beta, r, a = 0.8, 0.45, 0.6
        n = bl.cesaro_series_order(beta, r, 1e-13)
        g = bl.taylor_coeffs(bl.Blaschke((0j, a)), n + 1)
        ours = bl.majorant_value(bl.CBeta(beta), g, r, 1e-13)
        ref = cbeta_abs_series_bruteforce(beta, g, r, 400)
        assert ours == pytest.approx(ref, abs=1e-10)


class TestQuadrature:
    def test_cesaro_one_constant(self):
        out = bl.quadrature_value(bl.CesaroBeta(1.0), bl.Blaschke((), 1.0), 0.5, 1e-12)
        assert out.real == pytest.approx(2.0 * math.log(2.0), abs=1e-11)
        assert out.imag == pytest.approx(0.0, abs=1e-12)

    def test_bernardi_constant(self):
        out = bl.quadrature_value(bl.Bernardi(1.0, 0), bl.Blaschke((), 1.0), 0.3 + 0.1j)
        assert out == pytest.approx(1.0, abs=1e-10)

    def test_cesaro_two_constant_exact_value(self):
        out = bl.quadrature_value(bl.CesaroBeta(2.0), bl.Blaschke((), 1.0), 0.5, 1e-12)
        assert out.real == pytest.approx(2.0, abs=1e-10)

    def test_singular_kernel_agrees_with_series(self):
        # gamma < 1 exercises the endpoint substitution
        kind = bl.Bernardi(0.5, 0)
        f = bl.Blaschke((0.45,))
        z = 0.5 * cmath.exp(0.6j)
        image = bl.operator_coeffs(kind, bl.taylor_coeffs(f, 160), 160)
        assert abs(
            bl.quadrature_value(kind, f, z, 1e-12) - bl.horner(image, z)
        ) <= 1e-9

    def test_fractional_negative_gamma_with_zero(self):
        kind = bl.Bernardi(-0.5, 1)
        f = bl.Blaschke((0j, 0.3))
        z = 0.4
        image = bl.operator_coeffs(kind, bl.taylor_coeffs(f, 160), 160)
        assert abs(
            bl.quadrature_value(kind, f, z, 1e-12) - bl.horner(image, z)
        ) <= 1e-9

    def test_domain_check(self):
        with pytest.raises(ParameterDomainError):
            bl.quadrature_value(bl.CesaroBeta(1.0), bl.Blaschke((), 0.5), 1.0)

    @pytest.mark.parametrize(
        "kind",
        [
            bl.CesaroBeta(0.5),
            bl.CesaroBeta(1.0),
            bl.CesaroBeta(2.0),
            pytest.param(bl.CBeta(1.0), id="CBeta(beta=1.0)"),
            pytest.param(bl.Bernardi(1.0, 0), id="Bernardi(gamma=1.0, m=0)"),
            pytest.param(bl.Bernardi(0.5, 1), id="Bernardi(gamma=0.5, m=1)"),
            pytest.param(bl.Libera(), id="Libera()"),
            pytest.param(bl.Alexander(), id="Alexander()"),
            pytest.param(bl.PrimitiveI(), id="PrimitiveI()"),
            # family gamma 3 and 10: Bernardi.integral's direct form for
            # gamma >= 1, where the u = t**gamma substitution alone fails
            pytest.param(bl.Bernardi(2.0, 1), id="Bernardi(gamma=2.0, m=1)"),
            pytest.param(bl.Bernardi(10.0, 0), id="Bernardi(gamma=10.0, m=0)"),
        ],
        ids=str,
    )
    def test_series_image_matches_integral(self, kind):
        z = 0.5 * cmath.exp(1.1j)
        for i, f in enumerate(_corpus(7070, 4)):
            f = bl.multiply_by_z(f, kind.d)
            order = kind.s + bl.series_order(kind.family, abs(z), 1e-13)
            image = bl.operator_coeffs(kind, bl.taylor_coeffs(f, order), order)
            series_val = bl.horner(image, z)
            quad_val = bl.quadrature_value(kind, f, z, 1e-10)
            assert abs(series_val - quad_val) <= 1e-8


class TestBernardiEquation:
    @pytest.mark.parametrize(
        "gamma,m,x,tol",
        [
            (1.0, 0, 0.58, 1e-14),
            (0.06, 0, 1.0 - 2.0**-12, 1e-14),
            (0.04, 0, 1.0 - 2.0**-11, 1e-14),
            (-2.85, 3, 0.9, 1e-15),
            (2.0, 1, 0.6, 1e-12),
            (1.0, 1000, 0.3337, 1e-14),
        ],
    )
    def test_weight_identity_matches_the_plain_loop(self, gamma, m, x, tol):
        family, lead = bl.Bernardi(gamma, m).family, 1.0 / (m + gamma)
        # The equation sums L_(m+gamma)'s weight scan's terms past the lead
        # at the halved cut, one per term the plain loop takes at the full
        # cut, which is relative to the unit-scale lead 1/(m+gamma).
        cut = tol * min(1.0, lead)
        terms = bernardi_tail_reference(m + gamma, 0, x, cut, 2.0, MAX_SERIES_TERMS)
        assert len(family.weights(x, 0.5 * cut)) == 1 + len(terms)
        # The equation itself always cuts at 1e-14.  It is a difference of
        # terms of the lead's size, so its rounding is counted in ulps of the lead.
        ref = bernardi_equation_reference(gamma, m, x, 1e-14, MAX_SERIES_TERMS)
        assert abs(family.radius_equation(x) - ref) <= 4.0 * math.ulp(lead)

    def test_unreachable_cap_raises_without_building_the_weights(self):
        # `radius --op bernardi --gamma 0.04 --m 0` would walk its ladder up to
        # this point, just outside the corner refusal.
        family = bl.Bernardi(0.04, 0)
        tracemalloc.start()
        try:
            with pytest.raises(TruncationError):
                bl.radius_equation(family, 1.0 - 2.0**-16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20



def _scan_cases(count, seed=21):
    """Seeded ``(family, r, eps)`` cases for the weight scan: the family of
    ``Bernardi(gamma, m)`` for m in {0, 1, 3, 52} with gamma down to -m +
    1e-3, r uniform in (0.01, 0.99) or 1 - 2**-k for k <= 10, eps
    log-uniform in [1e-16, 1e-9]."""
    rng = random.Random(seed)
    for _ in range(count):
        m = rng.choice((0, 1, 3, 52))
        gamma = -m + 1e-3 + rng.random() ** 3 * (m + 30.0)
        r = rng.uniform(0.01, 0.99) if rng.random() < 0.7 else 1.0 - 2.0 ** -rng.randint(1, 10)
        yield bl.Bernardi(gamma, m).family, r, 10.0 ** rng.uniform(-16.0, -9.0)


class TestTermScan:
    """The bisection scan of ``Bernardi.weights`` against the loop it replaced."""

    def test_terms_and_equation_match_the_loop_bit_for_bit(self):
        for family, r, eps in _scan_cases(1500):
            assert family.weights(r, eps) == bernardi_terms_reference(family, r, eps)
            x = 0.26 + 0.73 * r  # an abscissa in (0.26, 0.99)
            assert family.radius_equation(x) == bernardi_radius_equation_loop(family, x)

    @pytest.mark.parametrize("gamma,m", [(1.0, 1), (-0.85, 1), (0.5, 3), (-2.85, 3), (1.0, 52)])
    def test_shifted_equation_is_the_family_loop_bit_for_bit(self, gamma, m):
        family = bl.Bernardi(gamma, m).family
        for k in range(1, 200):
            x = 0.26 + 0.73 * k / 200.0
            assert family.radius_equation(x) == bernardi_radius_equation_loop(family, x)

    @pytest.mark.parametrize("j", (0, 1, 10, 40))
    def test_a_term_whose_test_equals_eps_is_cut(self, j):
        family, r = bl.Bernardi(1.0, 3).family, 0.5
        eps = r**j / ((j + family.gamma) * (1.0 - r))  # the cut test's own value
        assert len(family.weights(r, eps)) == j
        assert family.weights(r, eps) == bernardi_terms_reference(family, r, eps)

    def test_past_the_order_cap_where_the_cap_fits(self):
        # the log bound lies past the cap, the cut test at the cap passes
        family, r, eps = bl.Bernardi(1.0, 0), 1.0 - 2.5e-5, 1e-9
        cap = MAX_SERIES_TERMS
        assert math.log(eps * (1.0 - r)) / math.log(r) > MAX_SERIES_TERMS
        assert r**cap / ((cap + 1.0) * (1.0 - r)) <= eps
        assert family.weights(r, eps) == bernardi_terms_reference(family, r, eps)

    def test_past_the_order_cap_where_it_does_not_fit(self):
        family, r, eps = bl.Bernardi(1.0, 0), 1.0 - 1e-6, 1e-9
        start = time.perf_counter()
        with pytest.raises(TruncationError) as scan:
            family.weights(r, eps)
        assert time.perf_counter() - start < 0.25  # refused unbuilt
        with pytest.raises(TruncationError) as loop:
            bernardi_terms_reference(family, r, eps)
        assert str(scan.value) == str(loop.value) == (
            "Bernardi weights will not reach 1e-09 within 1000000 terms at r=0.999999"
        )


@pytest.mark.parametrize("family,refusal", [
    *(pytest.param(bl.CesaroBeta(beta), f"Cesaro weights will not reach 1e-12 within {{n}} terms "
                   f"at beta={beta}, r=0.9", id=f"cesaro-{beta}") for beta in (0.25, 1.0, 3.0)),
    *(pytest.param(bl.Bernardi(gamma), "Bernardi weights will not reach 1e-12 within {n} terms "
                   "at r=0.9", id=f"bernardi-{gamma}") for gamma in (0.05, 1.0, 30.0)),
    pytest.param(bl.ClassicalBohr(), "Bohr weights will not reach 1e-12 within {n} terms at r=0.9",
                 id="bohr"),
])
def test_the_term_cap_admits_its_own_length(family, refusal, monkeypatch):
    # one rule for every family: at most MAX_SERIES_TERMS weights, tested unbuilt
    r, eps = 0.9, 1e-12
    weights = family.weights(r, eps)
    n = len(weights)
    monkeypatch.setattr(operators, "MAX_SERIES_TERMS", n)
    assert family.weights(r, eps) == weights
    monkeypatch.setattr(operators, "MAX_SERIES_TERMS", n - 1)
    with pytest.raises(TruncationError) as refused:
        family.weights(r, eps)
    assert str(refused.value) == refusal.format(n=n - 1)


class TestBohrWeights:
    def test_refused_unbuilt_near_one(self):
        # at eps = 1e-12 the cap falls near r = 0.9999622
        family = bl.ClassicalBohr()
        assert len(family.weights(0.99996, 1e-12)) == 943_924
        for r in (0.99997, 0.999999, 1.0 - 1e-12):
            start = time.perf_counter()
            with pytest.raises(TruncationError, match=f"within 1000000 terms at r={r}$"):
                family.weights(r, 1e-12)
            assert time.perf_counter() - start < 0.25


class TestSupBounds:
    def test_equality_case_at_positive_axis(self):
        # the constant 1 attains the bound at z = r
        out = sup_bound_check(bl.CesaroBeta(1.0), bl.Blaschke((), 1.0), 0.5, 8, tol=1e-12)
        assert abs(out) <= 1e-10

    def test_bernardi_corpus_stays_below_one(self):
        for f in _corpus(909, 4):
            assert sup_bound_check(bl.Bernardi(1.0, 0), f, 0.7, 16) <= 1e-9

    def test_cbeta_extremal_below_log_bound(self):
        r = 0.5
        assert bl.sup_bound(bl.CBeta(1.0), r) == pytest.approx(math.log(1.0 / (1.0 - r)))
        out = sup_bound_check(bl.CBeta(1.0), bl.Blaschke((0j, 0.9)), r, 16)
        assert out <= 1e-9

    def test_closed_forms(self):
        assert bl.sup_bound(bl.CesaroBeta(1.0), 0.5) == pytest.approx(2.0 * math.log(2.0))
        assert abs(bl.sup_bound(bl.CesaroBeta(2.0), 0.5) - 2.0) <= 1e-14
        assert bl.sup_bound(bl.Bernardi(1.0, 0), 0.37) == 1.0
        assert bl.sup_bound(bl.Alexander(), 0.37) == pytest.approx(0.37)
        assert bl.sup_bound(bl.PrimitiveI(), 0.37) == pytest.approx(0.37)

    def test_kernel_integral_overflow_is_a_domain_error(self):
        assert math.isfinite(bl.kernel_integral(1e3, 0.5))
        with pytest.raises(ParameterDomainError, match=r"beta=1100\.0, r=0\.5"):
            bl.kernel_integral(1100.0, 0.5)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: bl.kernel_integral(math.nan, 0.5),
            lambda: bl.binomial_coeffs(math.nan, 3),
            lambda: bl.cesaro_series_order(1.0, 0.5, math.nan),
            lambda: bl.cesaro_series_order(math.nan, 0.5, 1e-12),
            lambda: bl.adaptive_simpson(lambda t: t * t, 0.0, 1.0, math.nan),
        ],
        ids=["kernel_integral-beta", "binomial_coeffs-beta", "cesaro_series_order-eps",
             "cesaro_series_order-beta", "adaptive_simpson-tol"],
    )
    def test_nan_fails_the_positivity_check(self, call):
        # refused at once, not after a full order scan or a depth-60 subdivision
        with pytest.raises(ParameterDomainError, match="must be positive"):
            call()

    @pytest.mark.parametrize(
        "beta,r,eps,order",
        [(400.0, 0.3322, 1e-12, 167), (450.0, 0.3322, 1e-12, 185), (150.0, 0.97, 1e-15, 18238),
         (1.0, 0.9999, 1e-15, 437469), (2.0, 0.495, 1e-12, 40), (0.25, 0.5, 1e-15, 50)],
    )
    def test_cesaro_order_is_the_least_with_its_tail_bound_below_eps(self, beta, r, eps, order):
        # r**N A(beta+1, r) at 40 digits: the closed form has no c_n(beta+1)
        # to overflow (at beta 450) and no cap below 10**6 terms
        def bound(n):
            with mpmath.workdps(40):
                x = mpmath.mpf(r)
                return x**n * ((1 - x) ** -beta - 1) / beta

        assert bl.cesaro_series_order(beta, r, eps) == order
        assert bound(order) <= eps < bound(order - 1)

    def test_cesaro_split_near_one_solves(self):
        # order 437,469 at the split's cut, built in O(N)
        start = time.perf_counter()
        (split,) = bl.decompositions(bl.CesaroBeta(1.0), [0.5], 0.9999)
        assert time.perf_counter() - start < 5.0
        assert bl.series_order(bl.CesaroBeta(1.0), 0.9999, 1e-15) == 437469
        assert split.reconstruction_error <= 1e-12 * split.bound_term

    def test_cesaro_order_cap_is_the_term_cap(self):
        # beta = 1: the tail bound r**(N+1)/(1-r) falls with N, so the order
        # steps by one as r grows, and adjacent r straddle the cap
        def order(r):
            try:
                return bl.cesaro_series_order(1.0, r, 1e-12)
            except TruncationError:
                return None

        lo, hi = 0.99, 0.99999999
        while math.nextafter(lo, 1.0) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if order(mid) is None else (mid, hi)
        assert order(lo) == MAX_SERIES_TERMS - 1
        assert len(bl.CesaroBeta(1.0).weights(lo, 1e-12)) == MAX_SERIES_TERMS
        with pytest.raises(TruncationError) as refused:
            bl.CesaroBeta(1.0).weights(hi, 1e-12)
        assert str(refused.value) == (
            f"Cesaro weights will not reach 1e-12 within 1000000 terms at beta=1.0, r={hi}"
        )

    @pytest.mark.parametrize("r,eps", [(0.99999, 1e-15), (0.99999999, 1e-12)])
    def test_cesaro_order_past_the_cap_is_refused_in_milliseconds(self, r, eps):
        # orders of about 4.6e6 and 4.6e9, refused by the closed form unbuilt
        start = time.perf_counter()
        with pytest.raises(TruncationError, match="within 1000000 terms at beta=1.0"):
            bl.CesaroBeta(1.0).weights(r, eps)
        assert time.perf_counter() - start < 0.25


    def test_sample_floor(self):
        with pytest.raises(ParameterDomainError):
            sup_bound_check(bl.CesaroBeta(1.0), bl.Blaschke((), 1.0), 0.5, 4)


# The Cesaro weights' mpmath grid: each beta at 0.99 R and at r = 0.5.
CESARO_BETAS = (0.25, 0.5, 1.0, 2.0, 3.5, 10.0, 50.0, 500.0)


def _cesaro_radius(beta):
    return bl.solve_radius(bl.CesaroBeta(beta)).root


class TestCesaroMoments:
    """The weights are the kernel's moments, checked against 40-digit mpmath."""

    @pytest.mark.parametrize("at_radius", (True, False), ids=("0.99R", "r-0.5"))
    @pytest.mark.parametrize("beta", CESARO_BETAS)
    def test_weights_match_the_moments(self, beta, at_radius):
        r = 0.99 * _cesaro_radius(beta) if at_radius else 0.5
        w = bl.CesaroBeta(beta).weights(r, 1e-12)
        n = len(w) - 1
        # the upward run ends at split, where the downward one takes over
        m = max(0.0, r - 1.0 / beta)
        split = min(n, max(0, math.floor((beta - 1.0) * m / (1.0 + m))))
        for k in sorted({0, 1, split, min(n, split + 1), n // 2, n}):
            exact = cesaro_moment_mp(beta, r, k)
            assert abs((w[k] - exact) / exact) <= 1e-14, k
        # the tail past the cut, summed by the oracle, is within the cut
        assert cesaro_tail_mp(beta, r, n) <= 1e-12

    @pytest.mark.parametrize(
        "beta,r", [(100.0, 0.1), (100.0, 0.999), (348.03137076880034, 0.8245426062813312),
                   (1700.0, 0.3), (1700.0, 0.33)],
    )
    def test_weights_where_the_runs_meet_or_the_order_is_below_beta(self, beta, r):
        # N below beta (0.1, 0.3, 0.33) and the run near 1: by 30-digit quadrature,
        # which stays right where 2F1 at these parameters does not
        family = bl.CesaroBeta(beta)
        w = family.weights(r, 1e-12 * min(1.0, bl.sup_bound(family, r)))
        n = len(w) - 1
        m = r - 1.0 / beta
        split = min(n, math.floor((beta - 1.0) * m / (1.0 + m)))
        with mpmath.workdps(30):
            x, b = mpmath.mpf(r), mpmath.mpf(beta)
            for k in sorted({1, split, min(n, split + 1), n // 2, n}):
                exact = mpmath.quad(lambda t: t**k * (1 - t) ** -b, [0, x / 2, x * 0.99, x]) / x
                assert abs((w[k] - exact) / exact) <= 1e-14, k

    @pytest.mark.parametrize(
        "beta,r",
        [(50.0, 0.3), (300.0, 0.33), (400.0, 0.3322), (1000.0, 0.5), (1700.0, 0.33039),
         (0.5, 0.9999), (1.0 + 1e-10, 0.5), (2.0, 0.495), (1.0, 0.5)],
    )
    def test_bound_is_within_two_ulps(self, beta, r):
        # past |(1-beta) log(1-r)| = 1 the power is taken of the exact 1 - r:
        # the rounded exponent cost up to 2e-14 at beta 400
        value = bl.kernel_integral(beta, r)
        with mpmath.workdps(40):
            b, x = mpmath.mpf(beta), mpmath.mpf(r)
            exact = -mpmath.log1p(-x) if b == 1 else (1 - (1 - x) ** (1 - b)) / (1 - b)
        assert abs(value - exact) <= 2 * math.ulp(value)

    @pytest.mark.parametrize("beta", (5e-324, 1e-310, 3e-308))
    def test_underflowing_beta_takes_the_limit(self, beta):
        # beta log(1-r) below the normal range: A(beta+1, r) is -log(1-r), and
        # the radius equation is 3x + 2 log(1-x) times (1-x)**beta
        order = bl.cesaro_series_order
        assert order(beta, 0.3, 1e-12) == order(1e-300, 0.3, 1e-12)
        root = bl.solve_radius(bl.CesaroBeta(beta)).root
        assert root == pytest.approx(float(mpmath.findroot(
            lambda x: 3 * x + 2 * mpmath.log1p(-x), 0.58)), abs=1e-12)

    @pytest.mark.parametrize("beta", CESARO_BETAS)
    def test_weights_sum_to_the_radius_equation(self, beta):
        # w_0 - 2 sum_{k>0} w_k = (3 A(beta, r) - 2 A(beta+1, r))/r + 2 tail, and
        # radius_equation is r (1-r)**beta times the first term: at every grid
        # r whose bound is a float, the difference is twice the tail, within
        # 2 eps, up to the weights' 1e-14 relative error over the sums
        family, eps = bl.CesaroBeta(beta), 1e-12
        radius = _cesaro_radius(beta)
        for r in (0.1, 0.25, 1.0 / 3.0, 0.99 * radius, radius, 0.5, 0.75, 0.9):
            try:
                bl.sup_bound(family, r)
            except ParameterDomainError:
                continue
            w = family.weights(r, eps)
            scale, tail = r * (1.0 - r) ** beta, float(cesaro_tail_mp(beta, r, len(w) - 1))
            lead, rest = scale * w[0], scale * math.fsum(w[1:])
            equation = family.radius_equation(r)
            rounding = 1e-14 * (lead + 2.0 * rest + abs(equation))
            assert tail <= eps
            assert abs(lead - 2.0 * rest - equation - 2.0 * scale * tail) <= rounding, r

