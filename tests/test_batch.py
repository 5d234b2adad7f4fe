"""The batched verify sweep against the per-sample reference paths.

``expand`` turns a block of corpus members into Taylor coefficients at
once (``oracles.taylor_matrix`` lays a list of members out as its block),
and one weight vector applies to the whole coefficient matrix
(``oracles.majorant_values`` sums every row).  Both are checked here against
``oracles``' reference implementations of the per-sample Cauchy-product
chain and absolute series, the one-row ``taylor_coeffs`` and
``majorant_value`` against their block rows bit for bit, and the ``verify``
command is checked to give the same report whatever the block size.
``verify`` sums exactly only the rows its screened numpy sum cannot rule
out; the screen is checked against ``majorant_values`` over every row, on
the verify paths and on blocks built to defeat it.
"""

import json
import math

import numpy as np
import pytest

import bohrlab as bl
from bohrlab import cli
from bohrlab.errors import ParameterDomainError, PreconditionError
from bohrlab.operators import _screened_majorants
from oracles import (
    bernardi_abs_series_reference,
    blaschke_coeffs_reference,
    bohr_abs_series_bruteforce,
    cesaro_abs_series_reference,
    majorant_values,
    taylor_matrix,
)

MAJORANT_EPS = 1e-12
NAN = float("nan")


def _product_form(f):
    """``(zeros, lead)`` of a member drawn by ``random_schur``."""
    return f.zeros, f.scale


def _corpus(seed, count, max_factors):
    return [bl.random_schur(bl.derive_seed(seed, i), max_factors, 0.9) for i in range(count)]


class TestTaylorMatrix:
    @pytest.mark.parametrize("max_factors", range(5))
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_rows_match_cauchy_product_chain(self, seed, max_factors):
        fs = _corpus(seed, 150, max_factors)
        n_max = 120
        rows = taylor_matrix(fs, n_max)
        assert rows.shape == (len(fs), n_max + 1)
        for f, row in zip(fs, rows):
            ref = blaschke_coeffs_reference(*_product_form(f), n_max)
            assert np.max(np.abs(row - ref)) <= 1e-14

    def test_taylor_coeffs_is_the_one_row_case(self):
        members = [(f, 60) for f in _corpus(5, 40, 4)]
        # members with no zeros, and order 0
        members += [(bl.Blaschke((), 0.3 - 0.4j), 60), (bl.Blaschke((0.5, -0.2j), 0.8j), 0),
                    (bl.Blaschke((), -0.7), 0)]
        for f, n_max in members:
            row = taylor_matrix([f], n_max)[0]
            assert np.array_equal(bl.taylor_coeffs(f, n_max).view(np.uint64), row.view(np.uint64))

    def test_empty_block_and_order_zero(self):
        assert taylor_matrix([], 5).shape == (0, 6)
        f = bl.Blaschke((0.5,), 1j)
        assert taylor_matrix([f], 0).tolist() == [[-0.5j]]

    def test_zero_cap_checked_over_the_block(self):
        fs = _corpus(3, 10, 2) + [bl.Blaschke((0.1, 0.97))]
        with pytest.raises(ParameterDomainError, match="cap"):
            taylor_matrix(fs, 10)


class TestMajorantValues:
    @pytest.mark.parametrize(
        "kind",
        [bl.CesaroBeta(1.0), bl.CBeta(2.0), bl.Libera(), bl.Bernardi(2.0, 1),
         bl.PrimitiveI(), bl.ClassicalBohr()],
        ids=["cesaro-1", "cbeta-2", "libera", "bernardi-2-1", "primitive", "bohr"],
    )
    def test_rows_are_the_one_row_values(self, kind):
        zeros = kind.d
        coeffs = np.zeros((30, 81 + zeros), dtype=np.complex128)
        coeffs[:, zeros:] = taylor_matrix(_corpus(9, 30, 4), 80)
        values = majorant_values(kind, coeffs, 0.4)
        for row, value in zip(coeffs, values):
            assert bl.majorant_value(kind, np.array(row, dtype=complex), 0.4) == value

    def test_unit_ball_checked_over_the_block(self):
        coeffs = np.zeros((3, 5), dtype=np.complex128)
        coeffs[2, 1] = 1.5
        with pytest.raises(ParameterDomainError):
            majorant_values(bl.CesaroBeta(1.0), coeffs, 0.5)

    @pytest.mark.parametrize(
        "kind,rows",
        [(bl.Libera(), [[0.5, NAN]]), (bl.Alexander(), [[0.0, 0.5], [0.0, NAN]])],
        ids=["libera", "alexander"],
    )
    def test_nan_coefficient_is_refused(self, kind, rows):
        # NaN compares false with every bound, so the check must be written to fail on it
        with pytest.raises(ParameterDomainError, match="unit-ball"):
            majorant_values(kind, np.array(rows), 0.5)

    def test_leading_zeros_checked_over_the_block(self):
        coeffs = np.zeros((3, 5), dtype=np.complex128)
        coeffs[1, 0] = 0.5
        with pytest.raises(PreconditionError):
            majorant_values(bl.CBeta(1.0), coeffs, 0.5)


def _reference_majorant(kind, absf, r):
    shifted = absf[kind.d :]
    family = kind.family
    if isinstance(family, bl.CesaroBeta):
        n_stop = bl.cesaro_series_order(family.beta, r, MAJORANT_EPS)
        value = cesaro_abs_series_reference(family.beta, shifted, r, n_stop)
    elif isinstance(family, bl.Bernardi):
        value = bernardi_abs_series_reference(family.gamma, 0, shifted, r, MAJORANT_EPS)
    else:
        value = bohr_abs_series_bruteforce(shifted, r)
    return r**kind.s * value


def _reference_verify(kind, report):
    """The per-sample verify loop: one draw, expansion and majorant each."""
    params, results = report["params"], report["results"]
    r, order = params["r"], results["coefficient_order"]
    zeros = kind.d
    bound = bl.sup_bound(kind, r)
    violations, first_violation, worst = 0, None, -math.inf
    for i in range(params["samples"]):
        seed = bl.derive_seed(report["seed"], i)
        f = bl.random_schur(seed, params["max_factors"], params["radius_cap"])
        coeffs = np.zeros(order + 1, dtype=np.complex128)
        coeffs[zeros:] = blaschke_coeffs_reference(*_product_form(f), order - zeros)
        excess = _reference_majorant(kind, np.abs(coeffs), r) - bound
        worst = max(worst, excess)
        if excess > 1e-9:
            violations += 1
            if first_violation is None:
                first_violation = {"index": i, "seed": seed, "excess": excess}
    return violations, first_violation, worst


# The six verify commands of the benchmark's verify-sweep workload.
VERIFY_SWEEP = (
    (("--op", "cesaro", "--beta", "1"), bl.CesaroBeta(1.0)),
    (("--op", "cbeta", "--beta", "2"), bl.CBeta(2.0)),
    (("--op", "libera"), bl.Libera()),
    (("--op", "bernardi", "--gamma", "2", "--m", "1"), bl.Bernardi(2.0, 1)),
    (("--op", "bohr"), bl.ClassicalBohr()),
    (("--op", "cesaro", "--beta", "2"), bl.CesaroBeta(2.0)),
)


def _verify(capsys, *argv):
    code = cli.main(["verify", *argv])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("seed", [1, 7, 20261])
@pytest.mark.parametrize(
    "op_flags,kind", VERIFY_SWEEP,
    ids=["cesaro-1", "cbeta-2", "libera", "bernardi-2-1", "bohr", "cesaro-2"],
)
def test_verify_matches_the_per_sample_loop(capsys, op_flags, kind, seed):
    code, out = _verify(capsys, *op_flags, "--samples", "300", "--seed", str(seed))
    report = json.loads(out)
    violations, first_violation, worst = _reference_verify(kind, report)
    results = report["results"]
    assert code == (cli.EXIT_VERIFY if violations else cli.EXIT_OK)
    assert results["violations"] == violations
    if first_violation is None:
        assert results["first_violation"] is None
    else:
        assert {k: results["first_violation"][k] for k in ("index", "seed")} == {
            k: first_violation[k] for k in ("index", "seed")
        }
        assert abs(results["first_violation"]["excess"] - first_violation["excess"]) <= 1e-13
    assert abs(results["max_excess"] - worst) <= 1e-13


class TestBlockBoundaries:
    @pytest.mark.parametrize("samples", [1, 255, 256, 257, 513])
    def test_every_sample_is_counted(self, capsys, monkeypatch, samples):
        # With a bound far below every majorant every sample is a violation.
        # (A zero bound would set a zero majorant cut, which is refused.)
        monkeypatch.setattr(cli, "sup_bound", lambda kind, r: 1e-30)
        code, out = _verify(capsys, "--op", "cbeta", "--beta", "1", "--samples", str(samples),
                            "--seed", "4")
        results = json.loads(out)["results"]
        assert code == cli.EXIT_VERIFY
        assert results["violations"] == samples
        assert results["first_violation"]["index"] == 0
        assert results["first_violation"]["seed"] == bl.derive_seed(4, 0)

    @pytest.mark.parametrize(
        "op_flags", [("--op", "cesaro", "--beta", "1"), ("--op", "alexander")],
        ids=["cesaro-1", "alexander"],
    )
    def test_report_does_not_depend_on_the_block_size(self, capsys, monkeypatch, op_flags):
        argv = (*op_flags, "--samples", "257", "--seed", "11", "--r-mode", "at")
        _, default_block = _verify(capsys, *argv)
        monkeypatch.setattr(cli, "VERIFY_BLOCK", 7)
        _, small_block = _verify(capsys, *argv)
        assert small_block == default_block


def _exhaustive(kind, coeffs, r, eps, bound, tol):
    """Block maximum and violations ``(index, excess)`` from every row's
    ``majorant_values``: what the screened sum must reproduce."""
    values = majorant_values(kind, coeffs, r, eps)
    over = [(i, v - bound) for i, v in enumerate(values) if v - bound > tol]
    return values, max(values), over


def _assert_screen_is_exhaustive(kind, coeffs, r, eps, bound, tol):
    kept = _screened_majorants(kind, coeffs, r, eps, bound, tol)
    values, top, over = _exhaustive(kind, coeffs, r, eps, bound, tol)
    assert list(kept) == sorted(kept)
    assert all(kept[i] == values[i] for i in kept)
    assert max(kept.values()) == top
    assert [(i, v - bound) for i, v in kept.items() if v - bound > tol] == over
    return kept


# The five majorant paths of the verify-sweep workload.
SCREENED_PATHS = VERIFY_SWEEP[:5]
SCREENED_IDS = ["cesaro-1", "cbeta-2", "libera", "bernardi-2-1", "bohr"]


@pytest.mark.parametrize("mode", ["below", "at"])
@pytest.mark.parametrize("seed", [1, 7, 20261])
@pytest.mark.parametrize("op_flags,kind", SCREENED_PATHS, ids=SCREENED_IDS)
def test_screened_sum_is_the_exhaustive_sum(capsys, monkeypatch, op_flags, kind, seed, mode):
    blocks = []
    screened = cli._screened_majorants

    def record(*args):
        blocks.append(args)
        _assert_screen_is_exhaustive(*args)
        return screened(*args)

    monkeypatch.setattr(cli, "_screened_majorants", record)
    code, out = _verify(capsys, *op_flags, "--samples", "600", "--seed", str(seed),
                        "--r-mode", mode)
    results = json.loads(out)["results"]
    assert len(blocks) == 3
    # The report from every row's majorant_values, block by block.
    worst, over = -math.inf, []
    for start, (kind_, coeffs, r, eps, bound, tol) in zip(range(0, 600, cli.VERIFY_BLOCK), blocks):
        assert kind_ == kind and bound == results["bound"]
        values, top, block_over = _exhaustive(kind_, coeffs, r, eps, bound, tol)
        worst = max(worst, top - bound)
        over += [(start + i, excess) for i, excess in block_over]
    assert results["max_excess"] == worst
    assert results["violations"] == len(over)
    first = results["first_violation"]
    assert (None if first is None else (first["index"], first["excess"])) == (
        over[0] if over else None)
    assert code == (cli.EXIT_VERIFY if over else cli.EXIT_OK)


class TestScreenedSumAdversarial:
    """Blocks built so that the screen's slack is all that separates rows."""

    KIND, R, EPS = bl.ClassicalBohr(), 0.5, MAJORANT_EPS  # w_0 = 1 and r**s = 1

    def _block(self, count=64, seed=3):
        order = bl.series_order(self.KIND.family, self.R, self.EPS)
        return taylor_matrix(_corpus(seed, count, 4), order)

    def _bumped(self, row, steps):
        """``row`` with ``|a_0|`` moved by whole ulps until its majorant moves by
        ``steps`` ulps (``|a_0|``'s weight is 1, so the majorant moves by at
        most one ulp per step)."""
        value = bl.majorant_value(self.KIND, row, self.R, self.EPS)
        target, row = value, row.copy()
        for _ in range(abs(steps)):
            target = math.nextafter(target, math.copysign(math.inf, steps))
        while bl.majorant_value(self.KIND, row, self.R, self.EPS) != target:
            row[0] = math.nextafter(row[0].real, math.copysign(math.inf, steps))
        return row

    def _screen(self, coeffs, bound=None, tol=None):
        bound = bl.sup_bound(self.KIND, self.R) if bound is None else bound
        tol = cli._rounding_tol(bound) if tol is None else tol
        return _assert_screen_is_exhaustive(self.KIND, coeffs, self.R, self.EPS, bound, tol)

    def _top_row(self, coeffs):
        """A row above every corpus row of ``coeffs``: ``|a_k| = 0.9`` throughout."""
        return np.full(coeffs.shape[1], 0.9, dtype=np.complex128)

    def test_duplicated_rows(self):
        coeffs = self._block()
        coeffs = np.concatenate([coeffs, coeffs[::-1], coeffs[:5]])
        kept = self._screen(coeffs)
        values = majorant_values(self.KIND, coeffs, self.R, self.EPS)
        assert len([i for i in kept if values[i] == max(values)]) >= 2

    @pytest.mark.parametrize("at", [0, 17, 63])
    def test_two_rows_one_ulp_apart_at_the_maximum(self, at):
        coeffs = self._block()
        top = self._top_row(coeffs)
        coeffs[at], coeffs[(at + 9) % len(coeffs)] = self._bumped(top, 1), top
        kept = self._screen(coeffs)
        assert kept[at] == math.nextafter(kept[(at + 9) % len(coeffs)], math.inf)

    @pytest.mark.parametrize("steps", [-1, 0, 1])
    def test_a_row_one_ulp_either_side_of_bound_plus_tol(self, steps):
        coeffs = self._block()
        row = self._top_row(coeffs)
        value = bl.majorant_value(self.KIND, row, self.R, self.EPS)
        bound = value / 2.0  # value - bound == tol exactly, so bound + tol == value
        coeffs[40] = self._bumped(row, steps)
        kept = self._screen(coeffs, bound, value - bound)
        assert (kept[40] - bound > value - bound) == (steps > 0)

    def test_a_row_whose_numpy_sum_drops_its_small_terms(self):
        # numpy sums a row of 42 terms in eight running sums and then the last
        # two: each of the six terms 2**-53 here is added to 1 and rounds away,
        # so numpy reads row 3 as 1, below row 50 (exactly 1 + 2**-52), while
        # row 3's exact sum is 1 + 3 * 2**-52.
        coeffs = 0.1 * self._block()
        coeffs[[3, 50]] = 0.0
        small = np.array([8, 16, 24, 32, 40, 41])
        coeffs[3, 0], coeffs[3, small] = 1.0, 2.0 ** (small - 53)
        coeffs[50, 0], coeffs[50, 1] = 1.0, 2.0**-51
        assert coeffs.shape[1] == 42
        assert self._screen(coeffs)[3] == 1.0 + 3 * 2.0**-52
        # Under a larger maximum, row 3 is kept as a violation alone: its
        # excess 0.5 + 3 * 2**-52 exceeds tol, numpy's excess 0.5 does not.
        coeffs[50, 1] = 1.0
        assert 3 in self._screen(coeffs, 0.5, 0.5 + 2.0**-52)

    def test_an_all_zero_block(self):
        kept = self._screen(np.zeros_like(self._block(cli.VERIFY_BLOCK)))
        assert kept == dict.fromkeys(range(cli.VERIFY_BLOCK), 0.0)

    @pytest.mark.parametrize("kind", [k for _, k in SCREENED_PATHS], ids=SCREENED_IDS)
    def test_a_block_where_every_row_violates(self, kind):
        seeds = bl.derive_seed(5, np.arange(cli.VERIFY_BLOCK, dtype=np.uint64))
        order = kind.d + bl.series_order(kind.family, 0.4, MAJORANT_EPS)
        coeffs, _ = cli._operands(seeds, 4, 0.9, kind.d, order)
        kept = _assert_screen_is_exhaustive(kind, coeffs, 0.4, MAJORANT_EPS, 1e-30,
                                            cli._rounding_tol(1e-30))
        assert len(kept) == cli.VERIFY_BLOCK
