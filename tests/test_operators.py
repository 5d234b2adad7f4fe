"""Operator tests: series images, certified majorants against brute-force
oracles, quadrature of the defining integrals, and the sharp sup bounds."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bohrlab as bl
from bohrlab.errors import ParameterDomainError, PreconditionError, TruncationError
from bohrlab.operators import MAX_SERIES_TERMS
from oracles import (
    bernardi_abs_series_bruteforce,
    bernardi_equation_reference,
    bernardi_tail_reference,
    cbeta_abs_series_bruteforce,
    cbeta_relation_residual,
    cesaro_abs_series_bruteforce,
    phi_coeffs_direct,
    sup_bound_check,
)

DELTA = bl.CoefficientSequence([1.0] + [0.0] * 16)

coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    min_size=4,
    max_size=10,
)


def _corpus(seed, count, max_factors=4):
    return [bl.random_schur(bl.derive_seed(seed, i), max_factors, 0.9) for i in range(count)]


class TestOperatorCoeffs:
    def test_cesaro_one_on_delta(self):
        out = bl.operator_coeffs(bl.CesaroBeta(1.0), DELTA, 8).entries.real
        assert np.allclose(out, [1.0 / (n + 1) for n in range(9)], rtol=0, atol=0)

    def test_cesaro_two_on_delta_is_constant(self):
        out = bl.operator_coeffs(bl.CesaroBeta(2.0), DELTA, 8).entries.real
        assert np.allclose(out, np.ones(9), rtol=0, atol=0)

    def test_bernardi_on_all_ones(self):
        f = bl.CoefficientSequence(np.ones(9))
        out = bl.operator_coeffs(bl.Bernardi(1.0, 0), f, 8).entries.real
        assert np.allclose(out, [1.0 / (n + 1) for n in range(9)])

    def test_libera_specializes_bernardi(self):
        f = bl.taylor_coeffs(bl.ExtremalPhi(0.4), 12)
        lhs = bl.operator_coeffs(bl.Libera(), f, 12).entries
        rhs = bl.operator_coeffs(bl.Bernardi(1.0, 0), f, 12).entries
        assert np.array_equal(lhs, rhs)

    def test_alexander_specializes_bernardi(self):
        f = bl.taylor_coeffs(bl.ExtremalPsi(0.4, 1), 12)
        lhs = bl.operator_coeffs(bl.Alexander(), f, 12).entries
        rhs = bl.operator_coeffs(bl.Bernardi(0.0, 1), f, 12).entries
        assert np.array_equal(lhs, rhs)

    def test_primitive_is_shifted_libera(self):
        f = bl.taylor_coeffs(bl.ExtremalPhi(0.3), 12)
        shifted = bl.operator_coeffs(bl.PrimitiveI(), f, 12).entries
        libera = bl.operator_coeffs(bl.Libera(), f, 11).entries
        assert shifted[0] == 0.0
        assert np.array_equal(shifted[1:], libera)

    def test_cbeta_shifts_the_plain_image(self):
        h = bl.taylor_coeffs(bl.ExtremalPhi(0.5), 12)
        g = bl.taylor_coeffs(bl.ExtremalPsi(0.5, 1), 12)
        lhs = bl.operator_coeffs(bl.CBeta(0.7), g, 12).entries
        rhs = bl.operator_coeffs(bl.CesaroBeta(0.7), h, 11).entries
        assert lhs[0] == 0.0
        assert np.allclose(lhs[1:], rhs)

    def test_bernardi_rejects_nonvanishing_input(self):
        with pytest.raises(PreconditionError):
            bl.operator_coeffs(bl.Bernardi(0.0, 1), DELTA, 8)

    def test_order_shortfall_raises(self):
        with pytest.raises(TruncationError):
            bl.operator_coeffs(bl.CesaroBeta(1.0), bl.CoefficientSequence([1.0]), 4)

    @given(a=coeff_lists, b=coeff_lists, scale=st.complex_numbers(max_magnitude=2.0))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, a, b, scale):
        n = min(len(a), len(b)) - 1
        u, v = bl.CoefficientSequence(a), bl.CoefficientSequence(b)
        combo = bl.CoefficientSequence(
            u.entries[: n + 1] * scale + v.entries[: n + 1]
        )
        kind = bl.CesaroBeta(1.3)
        lhs = bl.operator_coeffs(kind, combo, n).entries
        rhs = (
            scale * bl.operator_coeffs(kind, u, n).entries
            + bl.operator_coeffs(kind, v, n).entries
        )
        assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


class TestMajorant:
    def test_cesaro_delta_closed_form(self):
        # image of the delta sequence sums to (1/r) log(1/(1-r))
        for r in (0.25, 0.5, 0.75):
            expected = math.log(1.0 / (1.0 - r)) / r
            assert bl.majorant_value(bl.CesaroBeta(1.0), DELTA, r, 1e-12) == pytest.approx(
                expected, abs=5e-12
            )

    def test_bernardi_delta_is_one(self):
        for r in (0.1, 0.5, 0.9):
            assert bl.majorant_value(bl.Bernardi(1.0, 0), DELTA, r) == 1.0

    def test_cesaro_extremal_against_bruteforce(self):
        r, beta = 0.5, 1.0
        n_max = bl.cesaro_series_order(beta, r, 1e-13)
        coeffs = bl.taylor_coeffs(bl.ExtremalPhi(0.5), n_max)
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
        ref = cesaro_abs_series_bruteforce(beta, coeffs.entries, r, 500)
        assert ours == pytest.approx(ref, abs=1e-10)

    def test_bernardi_corpus_against_bruteforce(self):
        r, gamma, m = 0.6, 0.5, 1
        f = bl.multiply_by_z(bl.random_schur(bl.derive_seed(18, 5), 4, 0.9))
        coeffs = bl.taylor_coeffs(f, bl.series_order(bl.Bernardi(gamma, m), r, 1e-14))
        ours = bl.majorant_value(bl.Bernardi(gamma, m), coeffs, r, 1e-14)
        ref = bernardi_abs_series_bruteforce(gamma, m, coeffs.entries, r)
        assert ours == pytest.approx(ref, abs=1e-11)

    def test_primitive_majorant_scales_libera(self):
        f = bl.taylor_coeffs(bl.ExtremalPhi(0.6), 120)
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

    def test_unit_ball_precondition(self):
        too_big = bl.CoefficientSequence([1.5, 0.0])
        with pytest.raises(ParameterDomainError):
            bl.majorant_value(bl.CesaroBeta(1.0), too_big, 0.5)

    def test_bohr_majorant_matches_direct_sum(self):
        coeffs = bl.taylor_coeffs(bl.ExtremalPhi(0.7), 300)
        r = 0.4
        direct = math.fsum(abs(coeffs[n]) * r**n for n in range(301))
        assert bl.bohr_majorant(coeffs, r) == pytest.approx(direct, abs=1e-14)


class TestCBetaRelation:
    def test_constant_input_closed_form(self):
        # both routes equal 2 r log 2 at r = 1/2
        r = 0.5
        res = cbeta_relation_residual(bl.Constant(1.0), 1.0, r, eps=1e-12)
        assert res <= 2e-12
        n = bl.cesaro_series_order(1.0, r, 1e-12)
        g = bl.taylor_coeffs(bl.Polynomial((0.0, 1.0)), n + 1)  # z itself
        lhs = bl.majorant_value(bl.CBeta(1.0), g, r, 1e-12)
        assert lhs == pytest.approx(2.0 * r * math.log(2.0), abs=1e-11)

    def test_extremal_input(self):
        assert cbeta_relation_residual(bl.ExtremalPhi(0.5), 0.5, 0.3) <= 2e-12

    def test_zero_function(self):
        assert cbeta_relation_residual(bl.Constant(0.0), 1.0, 0.5) == 0.0

    def test_shift_against_double_sum_oracle(self):
        beta, r, a = 0.8, 0.45, 0.6
        n = bl.cesaro_series_order(beta, r, 1e-13)
        g = bl.taylor_coeffs(bl.ExtremalPsi(a, 1), n + 1)
        ours = bl.majorant_value(bl.CBeta(beta), g, r, 1e-13)
        ref = cbeta_abs_series_bruteforce(beta, g.entries, r, 400)
        assert ours == pytest.approx(ref, abs=1e-10)


class TestQuadrature:
    def test_cesaro_one_constant(self):
        out = bl.quadrature_value(bl.CesaroBeta(1.0), bl.Constant(1.0), 0.5, 1e-12)
        assert out.real == pytest.approx(2.0 * math.log(2.0), abs=1e-11)
        assert out.imag == pytest.approx(0.0, abs=1e-12)

    def test_bernardi_constant(self):
        out = bl.quadrature_value(bl.Bernardi(1.0, 0), bl.Constant(1.0), 0.3 + 0.1j)
        assert out == pytest.approx(1.0, abs=1e-10)

    def test_cesaro_two_constant_exact_value(self):
        out = bl.quadrature_value(bl.CesaroBeta(2.0), bl.Constant(1.0), 0.5, 1e-12)
        assert out.real == pytest.approx(2.0, abs=1e-10)

    def test_singular_kernel_agrees_with_series(self):
        # gamma < 1 exercises the endpoint substitution
        kind = bl.Bernardi(0.5, 0)
        f = bl.ExtremalPhi(0.45)
        z = 0.5 * cmath.exp(0.6j)
        image = bl.operator_coeffs(kind, bl.taylor_coeffs(f, 160), 160)
        assert abs(
            bl.quadrature_value(kind, f, z, 1e-12) - bl.horner(image, z)
        ) <= 1e-9

    def test_fractional_negative_gamma_with_zero(self):
        kind = bl.Bernardi(-0.5, 1)
        f = bl.ExtremalPsi(0.3, 1)
        z = 0.4
        image = bl.operator_coeffs(kind, bl.taylor_coeffs(f, 160), 160)
        assert abs(
            bl.quadrature_value(kind, f, z, 1e-12) - bl.horner(image, z)
        ) <= 1e-9

    def test_domain_check(self):
        with pytest.raises(ParameterDomainError):
            bl.quadrature_value(bl.CesaroBeta(1.0), bl.Constant(0.5), 1.0)

    @pytest.mark.parametrize(
        "kind",
        [
            bl.CesaroBeta(0.5),
            bl.CesaroBeta(1.0),
            bl.CesaroBeta(2.0),
            pytest.param(bl.CBeta(1.0), id="CBeta(beta=1.0)"),
            bl.Bernardi(1.0, 0),
            bl.Bernardi(0.5, 1),
            pytest.param(bl.Libera(), id="Libera()"),
            pytest.param(bl.Alexander(), id="Alexander()"),
            pytest.param(bl.PrimitiveI(), id="PrimitiveI()"),
        ],
        ids=str,
    )
    def test_series_image_matches_integral(self, kind):
        z = 0.5 * cmath.exp(1.1j)
        for i, f in enumerate(_corpus(7070, 4)):
            f = bl.multiply_by_z(f, bl.required_origin_zeros(kind))
            order = max(bl.suggested_order(f, 1e-13), 160)
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
        ],
    )
    def test_weight_identity_matches_the_plain_loop(self, gamma, m, x, tol):
        family, lead = bl.Bernardi(gamma, m), x**m / (m + gamma)
        # The equation sums the weights past w_m of the halved cut, one per
        # term the plain loop takes at the full cut.
        cut = tol * min(1.0, lead)
        terms = bernardi_tail_reference(gamma, m, x, cut, 2.0, MAX_SERIES_TERMS)
        assert len(family.weights(x, 0.5 * cut)) == m + 1 + len(terms)
        # It is a difference of terms of the lead's size, so its rounding is
        # counted in ulps of the lead.
        ref = bernardi_equation_reference(gamma, m, x, tol, MAX_SERIES_TERMS)
        assert abs(family.radius_equation(x, tol) - ref) <= 4.0 * math.ulp(lead)

    def test_unreachable_cap_raises_without_building_the_weights(self):
        # `radius --op bernardi --gamma 0.04 --m 0` would walk its ladder up to
        # this point, just outside the corner refusal.
        problem = bl.RadiusProblem(bl.Bernardi(0.04, 0))
        tracemalloc.start()
        try:
            with pytest.raises(TruncationError):
                bl.radius_equation(problem, 1.0 - 2.0**-16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestSupBounds:
    def test_equality_case_at_positive_axis(self):
        # the constant 1 attains the bound at z = r
        out = sup_bound_check(bl.CesaroBeta(1.0), bl.Constant(1.0), 0.5, 8, tol=1e-12)
        assert abs(out) <= 1e-10

    def test_bernardi_corpus_stays_below_one(self):
        for f in _corpus(909, 4):
            assert sup_bound_check(bl.Bernardi(1.0, 0), f, 0.7, 16) <= 1e-9

    def test_cbeta_extremal_below_log_bound(self):
        r = 0.5
        assert bl.sup_bound(bl.CBeta(1.0), r) == pytest.approx(math.log(1.0 / (1.0 - r)))
        out = sup_bound_check(bl.CBeta(1.0), bl.ExtremalPsi(0.9, 1), r, 16)
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

    def test_cesaro_order_stops_where_the_weights_overflow(self):
        assert bl.cesaro_series_order(400.0, 0.3322, 1e-12) == 649
        with pytest.raises(ParameterDomainError, match=r"beta=450\.0, r=0\.3322"):
            bl.cesaro_series_order(450.0, 0.3322, 1e-12)

    def test_sample_floor(self):
        with pytest.raises(ParameterDomainError):
            sup_bound_check(bl.CesaroBeta(1.0), bl.Constant(1.0), 0.5, 4)
