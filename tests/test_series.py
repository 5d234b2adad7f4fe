"""Series-core tests: binomial weights, Cauchy products and the running-sum
identity."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bohrlab as bl
from bohrlab.errors import ParameterDomainError, TruncationError
from oracles import binomial_weight_lgamma, binomial_weights_rational

BETA_GRID = (0.3, 0.5, 1.0, 2.0, 3.7, 10.0)

coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=8,
)


class TestBinomialWeights:
    def test_geometric_series_case(self):
        assert bl.binomial_coeffs(1.0, 3) == (1.0, 1.0, 1.0, 1.0)

    def test_square_kernel_case(self):
        assert bl.binomial_coeffs(2.0, 3) == (1.0, 2.0, 3.0, 4.0)

    def test_half_beta_exact_values(self):
        # Gamma(2.5) / (Gamma(3) Gamma(0.5)) = 3/8 in exact arithmetic
        assert bl.binomial_coeffs(0.5, 2) == (1.0, 0.5, 0.375)

    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ParameterDomainError):
            bl.binomial_coeffs(0.0, 4)
        with pytest.raises(ParameterDomainError):
            bl.binomial_coeffs(-1.5, 4)

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_recurrence_consistency(self, beta):
        w = bl.binomial_coeffs(beta, 500)
        assert w[0] == 1.0
        for n in range(1, 501):
            expected = w[n - 1] * (n - 1 + beta) / n
            assert abs(w[n] - expected) <= 1e-14 * expected

    @given(
        beta=st.floats(min_value=0.05, max_value=30.0),
        n=st.integers(min_value=0, max_value=400),
    )
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_log_gamma_oracle(self, beta, n):
        ours = bl.binomial_coeffs(beta, n)[n]
        ref = binomial_weight_lgamma(beta, n)
        assert ours == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize(
        "beta,trend",
        [(0.4, "down"), (0.99, "down"), (1.0, "flat"), (1.01, "up"), (5.0, "up")],
    )
    def test_monotone_growth_by_beta(self, beta, trend):
        w = bl.binomial_coeffs(beta, 200)
        diffs = np.diff(w)
        if trend == "down":
            assert np.all(diffs <= 0.0)
        elif trend == "up":
            assert np.all(diffs >= 0.0)
        else:
            assert w == (1.0,) * 201


class TestCauchyProduct:
    def test_triangle_numbers(self):
        u = np.array([1, 1, 1], dtype=complex)
        out = bl.cauchy_product(u, u, 2)
        assert out.tolist() == [1, 2, 3]

    def test_identity_element(self):
        u = np.array([2.0, -1.0j, 0.25], dtype=complex)
        one = np.array([1, 0, 0], dtype=complex)
        out = bl.cauchy_product(u, one, 2)
        assert np.allclose(out, u)

    def test_monomial_square(self):
        z = np.array([0, 1, 0], dtype=complex)
        out = bl.cauchy_product(z, z, 2)
        assert out.tolist() == [0, 0, 1]

    def test_insufficient_order_raises(self):
        u = np.array([1, 1], dtype=complex)
        with pytest.raises(TruncationError):
            bl.cauchy_product(u, u, 5)

    def test_overflowing_product_is_refused(self):
        u = np.array([1e300, 1e300])
        with pytest.raises(ParameterDomainError, match="finite"):
            bl.cauchy_product(u, u, 1)

    @given(a=coeff_lists, b=coeff_lists)
    @settings(max_examples=60, deadline=None)
    def test_commutative(self, a, b):
        n = min(len(a), len(b)) - 1
        u, v = np.array(a, dtype=complex), np.array(b, dtype=complex)
        left = bl.cauchy_product(u, v, n)
        right = bl.cauchy_product(v, u, n)
        assert np.allclose(left, right, rtol=0, atol=1e-12)

    @given(a=coeff_lists)
    @settings(max_examples=40, deadline=None)
    def test_unit_sequence_is_neutral(self, a):
        n = len(a) - 1
        u = np.array(a, dtype=complex)
        one = np.array([1.0] + [0.0] * n, dtype=complex)
        assert np.allclose(bl.cauchy_product(u, one, n), u)


class TestRunningSumIdentity:
    """Partial sums of c_n(beta) coincide with c_n(beta + 1)."""

    @pytest.mark.parametrize("beta", BETA_GRID)
    def test_residual_within_budget(self, beta):
        assert bl.cumulative_identity_residual(beta, 200) <= 1e-12

    def test_small_cases_by_hand(self):
        # all-ones weights sum to n + 1, and sum of (k+1) is the triangle number
        assert bl.cumulative_identity_residual(1.0, 10) <= 1e-13
        assert bl.cumulative_identity_residual(2.0, 10) <= 1e-13

    def test_exact_rational_oracle(self):
        beta = Fraction(37, 10)
        base = binomial_weights_rational(beta, 40)
        bumped = binomial_weights_rational(beta + 1, 40)
        running = Fraction(0)
        for n in range(41):
            running += base[n]
            assert running == bumped[n]  # identity is exact in rationals
        # and the float engine sits within 1e-13 of the exact values
        ours = bl.binomial_coeffs(3.7, 40)
        for n in range(41):
            assert abs(ours[n] - float(base[n])) <= 1e-13 * float(base[n])


def test_horner_on_known_polynomial():
    seq = np.array([1.0, 2.0, 3.0], dtype=complex)
    z = 0.5 + 0.25j
    assert bl.horner(seq, z) == pytest.approx(1.0 + 2.0 * z + 3.0 * z * z)


@given(a=coeff_lists, z=st.complex_numbers(max_magnitude=1.0, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_horner_is_a_python_complex_loop(a, z):
    """Bit for bit the Horner loop over Python ``complex`` entries."""
    acc = 0j
    for c in reversed([complex(x) for x in a]):
        acc = acc * complex(z) + c
    assert bl.horner(np.array(a, dtype=complex), z) == acc
