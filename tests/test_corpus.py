"""Corpus tests: the one member type, whose cases are the constants and
the extremal ``z**m phi_a``; Blaschke expansion; membership on a boundary
grid (``oracles.validate_membership``); the coefficient slack estimate; and
the seeded generator."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bohrlab as bl
from bohrlab.errors import ParameterDomainError, PreconditionError
from oracles import phi_coeffs_direct, psi_coeffs_direct, validate_membership

NAN = float("nan")


def psi(a, m=0):
    """The extremal z**m phi_a as a corpus member."""
    return bl.Blaschke((0j,) * m + (a,))


class TestExtremalFamilies:
    def test_phi_at_zero_parameter_is_identity_map(self):
        assert bl.taylor_coeffs(psi(0.0), 2).tolist() == [0, 1, 0]

    def test_phi_half_coefficients(self):
        out = bl.taylor_coeffs(psi(0.5), 3)
        assert np.allclose(out, [-0.5, 0.75, 0.375, 0.1875])

    def test_psi_is_shifted_phi(self):
        out = bl.taylor_coeffs(psi(0.5, 2), 3)
        assert np.allclose(out, [0.0, 0.0, -0.5, 0.75])

    def test_evaluate_examples(self):
        assert bl.evaluate(psi(0.5), 0.0) == -0.5
        assert bl.evaluate(bl.Blaschke((), 1.0), 0.3 + 0.2j) == 1.0
        assert bl.evaluate(psi(0.5), 0.5) == 0.0

    def test_parameter_domains(self):
        with pytest.raises(ParameterDomainError):
            psi(1.0)
        with pytest.raises(ParameterDomainError):
            bl.multiply_by_z(psi(0.5), -1)
        with pytest.raises(ParameterDomainError):
            bl.Blaschke((), 1.5)
        # NaN fails every check: zero and lead
        for build in (
            lambda: bl.Blaschke((), NAN),
            lambda: bl.Blaschke((complex(NAN, 0.0),)),
            lambda: bl.Blaschke((0.2,), complex(NAN, 0.0)),
            lambda: bl.Blaschke((0.2,), complex(0.5, NAN)),
        ):
            with pytest.raises(ParameterDomainError):
                build()


class TestOneMemberModel:
    """Constants and z**m phi_a are cases of the one Blaschke member type."""

    @pytest.mark.parametrize("c", [0.0, 0.5, -1.0, 0.3 - 0.4j])
    def test_constant_is_the_empty_blaschke_product(self, c):
        # with no zeros the member is the constant c: its value everywhere
        # and its Taylor row c, 0, 0, ...
        f = bl.Blaschke((), c)
        assert f.zeros == () and f.scale == complex(c)
        for z in (0.0, 0.3 + 0.2j, -0.9j):
            assert bl.evaluate(f, z) == c
        assert bl.taylor_coeffs(f, 3).tolist() == [complex(c), 0, 0, 0]

    @pytest.mark.parametrize("m", range(4))
    def test_psi_at_one_is_minus_z_to_the_m(self, m):
        # the a = 1 end of the extremal law z**m phi_a is the member -z**m
        f = bl.Blaschke((0j,) * m, -1.0)
        assert f == bl.multiply_by_z(bl.Blaschke((), -1.0), m)
        expected = [0.0] * (m + 3)
        expected[m] = -1.0
        assert bl.taylor_coeffs(f, m + 2).tolist() == expected

    def test_zero_constant_shifts_to_itself(self):
        assert bl.schwarz_shift(bl.Blaschke((), 0), 2) == bl.Blaschke((), 0)

    def test_nonzero_constant_has_no_origin_zero(self):
        with pytest.raises(PreconditionError):
            bl.schwarz_shift(bl.Blaschke((), 0.5), 1)

    def test_one_member_type(self):
        from bohrlab import corpus

        members = {name for name, obj in vars(corpus).items()
                   if isinstance(obj, type) and obj.__module__ == corpus.__name__}
        assert members == {"Blaschke"}


class TestBlaschke:
    def test_single_factor_matches_phi(self):
        # one real zero a is the disk automorphism phi_a
        a = 0.4
        for z in (0.1, 0.3 + 0.2j, -0.5j):
            assert bl.evaluate(bl.Blaschke((a,)), z) == pytest.approx((z - a) / (1 - a * z))

    def test_unit_modulus_near_boundary(self):
        f = bl.Blaschke((0.3, -0.2 + 0.4j), cmath.exp(0.7j))
        assert validate_membership(f, 64) == pytest.approx(1.0, abs=1e-5)

    def test_scale_damps_modulus(self):
        f = bl.Blaschke((0.3,), 0.5)
        assert validate_membership(f, 64) == pytest.approx(0.5, abs=1e-5)

    def test_coefficients_match_evaluation(self):
        f = bl.Blaschke((0.5, -0.3j, 0.2 + 0.1j), cmath.exp(1.2j) * 0.8)
        z = 0.5 * cmath.exp(0.9j)
        coeffs = bl.taylor_coeffs(f, bl.series_order(bl.ClassicalBohr(), abs(z), 1e-15))
        assert abs(bl.horner(coeffs, z) - bl.evaluate(f, z)) <= 1e-10

    def test_zero_cap_enforced_on_expansion(self):
        f = bl.Blaschke((0.97,))
        bl.evaluate(f, 0.5)  # evaluation is fine
        with pytest.raises(ParameterDomainError):
            bl.taylor_coeffs(f, 10)


class TestMembershipValidation:
    def test_constant(self):
        assert validate_membership(bl.Blaschke((), 0.3), 64) == pytest.approx(0.3)

    def test_grid_floor(self):
        with pytest.raises(ParameterDomainError):
            validate_membership(bl.Blaschke((), 0.1), 8)


class TestSchwarz:
    def test_structural_shift_round_trip(self):
        for f in (psi(0.3), bl.Blaschke((0.2, -0.4j)), bl.Blaschke((), 0.25)):
            g = bl.multiply_by_z(f, 2)
            h = bl.schwarz_shift(g, 2)
            for z in (0.2, -0.3 + 0.4j):
                assert bl.evaluate(h, z) == pytest.approx(bl.evaluate(f, z))

    def test_structural_shift_needs_origin_zeros(self):
        with pytest.raises(PreconditionError):
            bl.schwarz_shift(psi(0.5), 1)


class TestRandomCorpus:
    def test_same_seed_same_function(self):
        for seed in (0, 1, 987654321, 2**63):
            assert bl.random_schur(seed, 4, 0.9) == bl.random_schur(seed, 4, 0.9)

    def test_zero_factor_cap_yields_constantlike_output(self):
        for seed in range(24):
            f = bl.random_schur(bl.derive_seed(11, seed), 0, 0.9)
            assert f.zeros == ()

    def test_membership_on_dense_grid(self):
        for seed in range(40):
            f = bl.random_schur(bl.derive_seed(101, seed), 4, 0.9)
            assert validate_membership(f, 4096) <= 1.0 + 1e-9

    def test_coefficient_slack_estimate(self):
        # members with |a_0| < 1 satisfy |a_n| <= 1 - |a_0|^2 for n >= 1
        for seed in range(50):
            f = bl.random_schur(bl.derive_seed(202, seed), 4, 0.9)
            coeffs = bl.taylor_coeffs(f, 200)
            a0 = abs(coeffs[0])
            if a0 >= 1.0 - 1e-9:
                continue  # full-modulus constants carry no slack
            tail = np.abs(coeffs)[1:]
            assert tail.max() <= 1.0 - a0 * a0 + 1e-12

    def test_evaluator_and_coefficients_agree(self):
        for seed in range(25):
            f = bl.random_schur(bl.derive_seed(303, seed), 4, 0.9)
            z = 0.5 * cmath.exp(2j * math.pi * (seed / 25.0))
            coeffs = bl.taylor_coeffs(f, bl.series_order(bl.ClassicalBohr(), abs(z), 1e-15))
            assert abs(bl.horner(coeffs, z) - bl.evaluate(f, z)) <= 1e-10

    def test_radius_cap_domain(self):
        with pytest.raises(ParameterDomainError):
            bl.random_schur(1, 4, 0.96)
        with pytest.raises(ParameterDomainError):
            bl.random_schur(1, -1, 0.9)

    @given(seed=st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=25, deadline=None)
    def test_membership_quick_grid(self, seed):
        f = bl.random_schur(seed, 3, 0.9)
        assert validate_membership(f, 256) <= 1.0 + 1e-9


class TestSeedDerivation:
    def test_deterministic(self):
        assert bl.derive_seed(42, 7) == bl.derive_seed(42, 7)

    def test_disperses_indices(self):
        seeds = {bl.derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert all(0 <= s < 2**64 for s in seeds)


def test_direct_coefficient_oracles_agree():
    a = 0.62
    ours = bl.taylor_coeffs(psi(a), 9)
    assert np.allclose(ours, phi_coeffs_direct(a, 9))
    ours = bl.taylor_coeffs(psi(a, 3), 9)
    assert np.allclose(ours, psi_coeffs_direct(a, 3, 9))


def test_evaluate_requires_interior_point():
    with pytest.raises(ParameterDomainError):
        bl.evaluate(bl.Blaschke((), 0.5), 1.0)
