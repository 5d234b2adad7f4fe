"""Sharpness tests: three-term decompositions against independent series
oracles, quadratic vanishing of the remainders, violation witnesses beyond
the radii, and concavity of the proof envelopes."""

import math
import struct

import numpy as np
import pytest

import bohrlab as bl
from bohrlab import sharpness
from bohrlab.errors import ParameterDomainError, TruncationError
from bohrlab.operators import _weights
from oracles import (
    bernardi_abs_series_bruteforce,
    cesaro_abs_series_bruteforce,
    cesaro_remainder_integral,
    decomposition,
    decomposition_reference,
    phi_coeffs_direct,
    psi_coeffs_direct,
    quadratic_remainder_check,
)

A_TRIPLE = (0.9, 0.99, 0.999)


# Kinds whose operands need 0 to 3 origin zeros, shifted ones included,
# each under its test id.
EXTREMAL_KINDS = [
    pytest.param(kind, id=name)
    for kind, name in (
        (bl.CesaroBeta(1.0), "CesaroBeta(beta=1.0)"),
        (bl.Libera(), "Bernardi(gamma=1.0, m=0)"),
        (bl.PrimitiveI(), "Shifted(family=Bernardi(gamma=1.0, m=0), s=1, d=0)"),
        (bl.CBeta(2.0), "Shifted(family=CesaroBeta(beta=2.0), s=1, d=1)"),
        (bl.Alexander(), "Bernardi(gamma=0.0, m=1)"),
        (bl.Bernardi(0.5, 2), "Bernardi(gamma=0.5, m=2)"),
        (bl.Shifted(bl.Bernardi(1.0, 2), 1, 1),
         "Shifted(family=Bernardi(gamma=1.0, m=2), s=1, d=1)"),
        (bl.Bernardi(2.0, 3), "Bernardi(gamma=2.0, m=3)"),
    )
]


class TestExtremalMajorant:
    """The absolute series of z**m phi_a, summed from the closed coefficient
    law up to a = 1."""

    @pytest.mark.parametrize("kind", EXTREMAL_KINDS)
    def test_witness_scan_values_are_the_direct_law(self, kind):
        # the a = 1 - 2**-k of the witness scan, past the corpus's zero cap
        r, eps = 0.5, 1e-12
        m = kind.d
        w = _weights(kind.family, r, eps)
        for a in [1.0 - 2.0**-k for k in range(1, 41)] + [1.0]:
            c = psi_coeffs_direct(a, m, kind.d + len(w) - 1)
            direct = r**kind.s * math.fsum(abs(c[k + kind.d]) * w[k] for k in range(len(w)))
            assert bl.extremal_majorant(kind, a, r, eps) == direct

    @pytest.mark.parametrize("a", [0.0, 0.3, 0.62, 0.9])
    @pytest.mark.parametrize("kind", EXTREMAL_KINDS)
    def test_matches_the_corpus_member(self, kind, a):
        r, eps = 0.5, 1e-12
        m = kind.d
        order = kind.d + bl.series_order(kind.family, r, eps)
        member = bl.taylor_coeffs(bl.Blaschke((0j,) * m + (a,)), order)
        value = bl.extremal_majorant(kind, a, r, eps)
        assert abs(value - bl.majorant_value(kind, member, r, eps)) <= 1e-15


class TestDecompositionCesaro:
    def test_degenerate_endpoint_collapses(self):
        dec = bl.decomposition_cesaro(1.0, 1.0, 0.5)
        assert dec.deficit_term == 0.0
        assert dec.remainder == 0.0
        assert dec.total == pytest.approx(2.0 * math.log(2.0), abs=1e-11)
        assert dec.reconstruction_error <= 1e-10

    def test_remainder_scales_quadratically(self):
        near = bl.decomposition_cesaro(1.0, 0.9, 0.6).remainder
        nearer = bl.decomposition_cesaro(1.0, 0.99, 0.6).remainder
        ratio = near / nearer
        assert 50.0 <= ratio <= 200.0  # (0.1/0.01)^2 within a factor 2

    def test_total_is_the_extremal_series(self):
        dec = bl.decomposition_cesaro(0.5, 0.5, 0.3)
        direct = bl.extremal_majorant(bl.CesaroBeta(0.5), 0.5, 0.3, 1e-12)
        assert dec.total == pytest.approx(direct, abs=1e-12)
        assert dec.reconstruction_error <= 1e-10

    def test_against_double_sum_oracle(self):
        beta, a, r = 1.0, 0.7, 0.5
        dec = bl.decomposition_cesaro(beta, a, r)
        ref = cesaro_abs_series_bruteforce(beta, phi_coeffs_direct(a, 400), r, 400)
        assert dec.total == pytest.approx(ref, abs=1e-10)
        assert dec.bound_term - dec.deficit_term + dec.remainder == pytest.approx(
            ref, abs=1e-10
        )

    def test_random_triples_reconstruct(self):
        rng = np.random.default_rng(4242)
        for _ in range(40):
            beta = float(rng.uniform(0.2, 3.0))
            a = float(rng.uniform(0.0, 0.999))
            r = float(rng.uniform(0.05, 0.85))
            dec = bl.decomposition_cesaro(beta, a, r)
            assert dec.reconstruction_error <= 1e-10


class TestCesaroIntegralOracle:
    """The weight-form remainder against its integral form, summed apart."""

    @pytest.mark.parametrize("a", (0.5, 0.9, 0.999))
    @pytest.mark.parametrize("r", (0.3, 0.5))
    @pytest.mark.parametrize("beta", (0.25, 1.0, 2.0, 20.0))
    def test_remainder_matches_the_integral(self, beta, r, a):
        remainder = decomposition(bl.CesaroBeta(beta), a, r).remainder
        assert remainder == pytest.approx(cesaro_remainder_integral(beta, a, r), rel=1e-10)

    def test_forty_digit_point(self):
        # The double nearest 0.999; the decimal 0.999 gives -1.38534804119548520e-06.
        reference = cesaro_remainder_integral(1.0, 0.999, 0.5)
        assert reference == pytest.approx(-1.3853480411954876e-06, rel=1e-15)
        remainder = bl.decomposition_cesaro(1.0, 0.999, 0.5).remainder
        assert remainder == pytest.approx(reference, rel=1e-12)


class TestDecompositionBernardi:
    def test_degenerate_endpoint_collapses(self):
        dec = bl.decomposition_bernardi(1.0, 0, 1.0, 0.5)
        assert dec.deficit_term == 0.0 and dec.remainder == 0.0
        assert dec.total == pytest.approx(1.0, abs=1e-12)

    def test_remainder_scales_quadratically(self):
        mid = bl.decomposition_bernardi(1.0, 0, 0.99, 0.65).remainder
        close = bl.decomposition_bernardi(1.0, 0, 0.999, 0.65).remainder
        ratio = mid / close
        assert 50.0 <= ratio <= 200.0

    def test_total_is_the_extremal_series(self):
        dec = bl.decomposition_bernardi(0.0, 1, 0.5, 0.4)
        direct = bl.extremal_majorant(bl.Bernardi(0.0, 1), 0.5, 0.4, 1e-12)
        assert dec.total == pytest.approx(direct, abs=1e-12)
        assert dec.reconstruction_error <= 1e-10

    def test_against_direct_sum_oracle(self):
        gamma, m, a, r = 0.5, 2, 0.6, 0.5
        dec = bl.decomposition_bernardi(gamma, m, a, r)
        ref = bernardi_abs_series_bruteforce(gamma, m, psi_coeffs_direct(a, m, 300), r)
        assert dec.total == pytest.approx(ref, abs=1e-10)
        assert dec.bound_term - dec.deficit_term + dec.remainder == pytest.approx(
            ref, abs=1e-10
        )

    def test_random_tuples_reconstruct(self):
        rng = np.random.default_rng(2424)
        for _ in range(40):
            m = int(rng.integers(0, 3))
            gamma = float(rng.uniform(-m + 0.1, 4.0))
            a = float(rng.uniform(0.0, 0.999))
            r = float(rng.uniform(0.05, 0.85))
            dec = bl.decomposition_bernardi(gamma, m, a, r)
            assert dec.reconstruction_error <= 1e-10


class TestQuadraticRemainder:
    def test_cesaro_ratio_band(self):
        ratios = quadratic_remainder_check(bl.CesaroBeta(1.0), 0.6, A_TRIPLE)
        mags = [abs(x) for x in ratios]
        assert max(mags) / min(mags) <= 4.0

    def test_bernardi_ratio_band(self):
        ratios = quadratic_remainder_check(bl.Bernardi(1.0, 0), 0.7, A_TRIPLE)
        mags = [abs(x) for x in ratios]
        assert max(mags) / min(mags) <= 4.0

    def test_remainder_vanishes_at_endpoint(self):
        assert bl.decomposition_cesaro(1.0, 1.0, 0.6).remainder == 0.0
        assert bl.decomposition_bernardi(1.0, 0, 1.0, 0.6).remainder == 0.0

    def test_requires_increasing_grid(self):
        with pytest.raises(ParameterDomainError):
            quadratic_remainder_check(bl.CesaroBeta(1.0), 0.6, (0.99, 0.9))


class TestViolationSearch:
    def test_cesaro_witness_past_the_radius(self):
        report = bl.violation_search(bl.CesaroBeta(1.0), 0.55)
        assert report.found and report.witness >= 0.9
        bound = math.log(1.0 / 0.45) / 0.55
        assert report.majorant > bound + 1e-12

    def test_bernardi_witness_past_the_radius(self):
        report = bl.violation_search(bl.Bernardi(1.0, 0), 0.60)
        assert report.found
        assert report.majorant > 1.0 + 1e-12

    def test_classical_third_witness(self):
        report = bl.violation_search(bl.ClassicalBohr(), 0.40)
        assert report.found
        # the coefficient series of the witness automorphism tops 1
        assert report.majorant > 1.0 + 1e-12

    def test_witness_confirmed_by_independent_sum(self):
        report = bl.violation_search(bl.CesaroBeta(1.0), 0.55)
        ref = cesaro_abs_series_bruteforce(
            1.0, phi_coeffs_direct(report.witness, 600), 0.55, 600
        )
        assert ref > math.log(1.0 / 0.45) / 0.55

    def test_requires_r_beyond_the_radius(self):
        with pytest.raises(ParameterDomainError):
            bl.violation_search(bl.CesaroBeta(1.0), 0.5)
        with pytest.raises(ParameterDomainError):
            bl.violation_search(bl.ClassicalBohr(), 1.0 / 3.0)

    @pytest.mark.parametrize(
        "kind,r", [(bl.PrimitiveI(), 0.60), (bl.CBeta(2.0), 0.55)], ids=["primitive", "cbeta-2"]
    )
    def test_shifted_kind_reports_its_own_numbers(self, kind, r):
        # z**s F[f / z**d] has the family's radius and r**s times its values.
        family = bl.violation_search(kind.family, r)
        shifted = bl.violation_search(kind, r)
        assert shifted.bound == bl.sup_bound(kind, r) == pytest.approx(r * family.bound)
        assert shifted.witness == family.witness
        assert shifted.majorant == pytest.approx(r * family.majorant, rel=1e-13)
        with pytest.raises(ParameterDomainError):
            bl.violation_search(kind, 0.5)


class TestShiftedDecomposition:
    @pytest.mark.parametrize("a", [0.0, 0.5, 0.9, 0.999, 1.0])
    @pytest.mark.parametrize(
        "kind", [bl.CBeta(2.0), bl.CBeta(0.25), bl.PrimitiveI()],
        ids=["cbeta-2", "cbeta-0.25", "primitive"],
    )
    def test_family_split_times_r_to_the_s(self, kind, a):
        r = 0.5
        family = decomposition(kind.family, a, r)
        dec = decomposition(kind, a, r)
        assert dec.bound_term == r * family.bound_term
        assert dec.deficit_term == r * family.deficit_term
        assert dec.remainder == r * family.remainder
        assert dec.total == bl.extremal_majorant(kind, a, r, 1e-15)
        assert dec.total == pytest.approx(r * family.total, rel=1e-14)
        assert dec.reconstruction_error <= 1e-9
        # the family's one-a wrapper is the one-row call of decompositions
        if isinstance(kind.family, bl.CesaroBeta):
            wrapped = bl.decomposition_cesaro(kind.family.beta, a, r)
        else:
            wrapped = bl.decomposition_bernardi(kind.family.gamma, 0, a, r)
        assert _bits(wrapped) == _bits(bl.decompositions(kind.family, [a], r)[0])


# The benchmark's 1003-point sharpness grid and the CLI's default grid.
BENCHMARK_A_GRID = [k / 1000 for k in range(1000)] + [0.9999, 0.99999, 1.0]
DEFAULT_A_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99, 0.999, 1.0]


def _bits(dec) -> bytes:
    return struct.pack("<4d", dec.bound_term, dec.deficit_term, dec.remainder, dec.total)


class TestDecompositions:
    """One weight pass per ``(kind, r)`` for a whole a-grid, bit for bit the
    split of each ``a`` on its own."""

    @pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
    @pytest.mark.parametrize(
        "grid", [BENCHMARK_A_GRID, DEFAULT_A_GRID], ids=["benchmark-1003", "default-13"]
    )
    @pytest.mark.parametrize(
        "kind",
        [bl.CesaroBeta(0.25), bl.CesaroBeta(1.0), bl.CBeta(2.0), bl.Libera(), bl.Alexander(),
         bl.PrimitiveI(), bl.Bernardi(0.3, 0), bl.Bernardi(2.0, 1), bl.Bernardi(0.5, 3)],
        ids=str,
    )
    def test_matches_the_one_a_reference_bit_for_bit(self, kind, grid, r):
        rows = bl.decompositions(kind, grid, r)
        assert len(rows) == len(grid)
        for a, dec in zip(grid, rows):
            assert _bits(dec) == _bits(decomposition_reference(kind, a, r)), a

    @pytest.mark.parametrize("kind", [bl.CesaroBeta(1.0), bl.CBeta(2.0), bl.Bernardi(0.5, 3)],
                             ids=str)
    def test_fetches_the_split_weights_once(self, monkeypatch, kind):
        # one fetch for the split, then one per row from extremal_majorant,
        # every one at the split cut: one weight vector, one cache miss
        calls = []
        fetch = sharpness._kind_weights
        monkeypatch.setattr(
            sharpness, "_kind_weights", lambda *args: calls.append(args[2]) or fetch(*args)
        )
        _weights.cache_clear()
        bl.decompositions(kind, DEFAULT_A_GRID, 0.5)
        assert calls == [1e-15] * (1 + len(DEFAULT_A_GRID))
        assert _weights.cache_info().misses == 1
        calls.clear()
        decomposition(kind, 0.5, 0.5)
        assert calls == [1e-15, 1e-15]

    @pytest.mark.parametrize(
        "kind",
        [bl.CesaroBeta(1.0), bl.CesaroBeta(0.25), bl.CBeta(2.0), bl.Libera(), bl.Alexander(),
         bl.Bernardi(0.3, 0)],
        ids=str,
    )
    def test_reconstruction_is_rounding_on_the_benchmark_grid(self, kind):
        # total reads the split's weights, so only rounding separates it
        # from bound - deficit + remainder, never a tail cut at another eps
        for a, dec in zip(BENCHMARK_A_GRID, bl.decompositions(kind, BENCHMARK_A_GRID, 0.5)):
            assert dec.reconstruction_error <= 4.0 * math.ulp(dec.bound_term), a

    def test_checks_every_a_before_any_weight(self, monkeypatch):
        # at r = 0.99999 the Cesaro split weights are past the term cap
        def no_weights(*args):
            raise AssertionError("built weights for a refused a-grid")

        kind = bl.CesaroBeta(1.0)
        with pytest.raises(TruncationError, match="within 1000000 terms"):
            bl.decompositions(kind, [0.5], 0.99999)
        monkeypatch.setattr(sharpness, "_kind_weights", no_weights)
        with pytest.raises(ParameterDomainError, match=r"a must lie in \[0, 1\], got 2.0"):
            bl.decompositions(kind, [0.5, 2.0], 0.99999)
        with pytest.raises(ParameterDomainError, match=r"a must lie in \[0, 1\], got nan"):
            bl.decompositions(kind, [0.5, math.nan], 0.5)

    # 155.12 and 103.75: an fsum overflows; 103.4: the tail's fsum is finite,
    # twice it is not, so the deficit would read -inf
    @pytest.mark.parametrize("beta,r", [(155.12, 0.99), (103.75, 0.999), (103.4, 0.999)])
    def test_a_split_past_the_float_range_is_refused(self, beta, r):
        assert bl.sup_bound(bl.CesaroBeta(beta), r) < 2e306  # the bound itself is admitted
        with pytest.raises(ParameterDomainError,
                           match=f"^the extremal split at r={r} overflows the float range$"):
            bl.decompositions(bl.CesaroBeta(beta), [0.5, 0.9], r)


class TestDeficitSign:
    """The deficit term is the proofs' pivot: positive below the radius,
    negative above it."""

    def test_cesaro_flip(self):
        root = bl.solve_radius(bl.CesaroBeta(1.0)).root
        below = bl.decomposition_cesaro(1.0, 0.5, 0.95 * root)
        above = bl.decomposition_cesaro(1.0, 0.5, min(1.05 * root, 0.99))
        assert below.deficit_term > 0.0 > above.deficit_term

    def test_bernardi_flip(self):
        root = bl.solve_radius(bl.Bernardi(1.0, 0)).root
        below = bl.decomposition_bernardi(1.0, 0, 0.5, 0.95 * root)
        above = bl.decomposition_bernardi(1.0, 0, 0.5, min(1.05 * root, 0.99))
        assert below.deficit_term > 0.0 > above.deficit_term

    @pytest.mark.parametrize("r", (0.1, 0.3, 0.32, 0.34, 0.5, 0.9))
    def test_classical_flip_at_one_third(self, r):
        a = 0.5
        deficit = decomposition(bl.ClassicalBohr(), a, r).deficit_term
        assert deficit == pytest.approx((1.0 - a) * (1.0 - 3.0 * r) / (1.0 - r), abs=1e-14)
        assert (deficit > 0.0) == (r < 1.0 / 3.0)


class TestBelowRadiusSafety:
    @pytest.mark.parametrize(
        "problem",
        [bl.CesaroBeta(0.5), bl.CesaroBeta(1.0), bl.Bernardi(1.0, 0), bl.Bernardi(0.0, 1)],
        ids=["CesaroBeta(beta=0.5)", "CesaroBeta(beta=1.0)", "Bernardi(gamma=1.0, m=0)",
             "Bernardi(gamma=0.0, m=1)"],
    )
    def test_extremal_series_below_bound(self, problem):
        root = bl.solve_radius(problem.family).root
        r = 0.99 * root
        bound = bl.sup_bound(problem, r)
        for a in np.linspace(0.0, 1.0, 21):
            assert bl.extremal_majorant(problem, float(a), r) <= bound + 1e-9


class TestConcavity:
    GRID = [k / 100.0 for k in range(101) if k < 100]  # uniform in [0, 1)

    @pytest.mark.parametrize("beta", (0.5, 1.0, 2.0))
    @pytest.mark.parametrize("r", (0.3, 0.5, 0.8))
    def test_cesaro_envelope(self, beta, r):
        assert bl.concavity_check(bl.CesaroBeta(beta), r, self.GRID) <= 1e-10

    @pytest.mark.parametrize("gamma,m", [(1.0, 0), (0.0, 1), (2.0, 1)])
    def test_bernardi_envelope(self, gamma, m):
        assert bl.concavity_check(bl.Bernardi(gamma, m), 0.5, self.GRID) <= 1e-10

    @pytest.mark.parametrize(
        "problem", [bl.CesaroBeta(1.0), bl.Bernardi(0.0, 3)],
        ids=["CesaroBeta(beta=1.0)", "Bernardi(gamma=0.0, m=3)"],
    )
    def test_degenerate_small_radius(self, problem):
        # as r -> 0 the envelope flattens and second differences vanish;
        # Bernardi(0, 3) scales its envelope by r**3
        value = bl.concavity_check(problem, 1e-6, self.GRID)
        assert abs(value) <= 1e-10

    def test_rejects_nonuniform_grid(self):
        with pytest.raises(ParameterDomainError):
            bl.concavity_check(bl.CesaroBeta(1.0), 0.5, [0.0, 0.1, 0.3])

    @pytest.mark.parametrize(
        "grid", [[0.0, math.nan, 0.2], [math.nan, 0.1, 0.2], [0.0, 0.1, math.nan]], ids=str
    )
    def test_nan_grid_point_is_refused(self, grid):
        with pytest.raises(ParameterDomainError):
            bl.concavity_check(bl.Libera(), 0.5, grid)
