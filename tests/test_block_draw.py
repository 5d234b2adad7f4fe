"""The verify corpus is one splitmix64 stream, drawn a block at a time.

Uniform ``j`` of the member with seed ``s`` is ``(derive_seed(s, j) >> 11)
* 2**-53``.  ``corpus.random_schur_block`` reads fixed columns of that
stream for a whole block of seeds with array arithmetic, and
``random_schur`` is its one-row case.  The tests compare the block, as
uint64 bit patterns over more than 1e4 seeds, with a scalar transcription
of the stream in ``tests/oracles.py`` (Python ints, ``math.sqrt``,
``cmath.exp``) and with ``oracles.taylor_matrix`` of the ``random_schur`` members;
they check the mixture's statistics over more than 1e5 seeds, and
``expand``'s rows, sorted by zero count, against the masked gather in
``tests/oracles.py`` bit for bit.  The same
tests run once more in a subprocess with numpy's AVX-512 dispatch disabled,
together with ``test_golden.py`` and the golden rows of
``test_cli_checks.py``, so neither the corpus nor any golden report depends
on it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bohrlab as bl
from bohrlab import cli
from bohrlab.errors import ParameterDomainError
from oracles import (
    corpus_member_reference,
    expand_masked_reference,
    splitmix64_reference,
    taylor_matrix,
)

ROOT = Path(__file__).resolve().parents[1]
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
CASES = [(mf, cap) for mf in (0, 1, 4, 7) for cap in (0.5, 0.9, 0.95)]
BLOCKS_PER_CASE = 4  # 12 cases x 4 blocks x 256 seeds = 12288 seeds


def _same_bits(got, want):
    """Same dtype, shape and bit pattern: signed zeros and NaN payloads count."""
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _block_seeds(case, block):
    seeds = [bl.derive_seed(1000 * case + block, i) for i in range(cli.VERIFY_BLOCK)]
    if block == 0:
        seeds[: len(EDGE_SEEDS)] = EDGE_SEEDS
    return seeds


def _reference_arrays(seeds, max_factors, radius_cap):
    """``(h0, zeros, live)`` of the reference members: zeros first, 0 padding."""
    members = [corpus_member_reference(s, max_factors, radius_cap) for s in seeds]
    width = max((len(zeros) for _, zeros in members), default=0)
    h0 = np.array([lead for lead, _ in members], dtype=np.complex128)
    zeros = np.zeros((len(seeds), width), dtype=np.complex128)
    live = np.zeros((len(seeds), width), dtype=bool)
    for i, (_, row) in enumerate(members):
        zeros[i, : len(row)] = row
        live[i, : len(row)] = True
    return h0, zeros, live


@pytest.mark.parametrize("master", [0, -5, 2**63, 2**64 - 1])
def test_derive_seed_array_is_the_scalar_stream(master):
    indices = list(range(300)) + [2**32 - 1, 2**32, 2**63, 2**64 - 2, 2**64 - 1]
    got = bl.derive_seed(master, np.array(indices, dtype=np.uint64))
    assert got.dtype == np.uint64
    assert got.tolist() == [bl.derive_seed(master, i) for i in indices]
    assert got.tolist() == [splitmix64_reference(master, i) for i in indices]


def test_derive_seed_broadcasts_over_masters():
    masters = np.array(EDGE_SEEDS, dtype=np.uint64)[:, None]
    got = bl.derive_seed(masters, np.arange(9, dtype=np.uint64))
    assert got.tolist() == [[bl.derive_seed(s, j) for j in range(9)] for s in EDGE_SEEDS]


@pytest.mark.parametrize("max_factors,radius_cap", CASES)
def test_block_draw_is_the_scalar_stream_bit_for_bit(max_factors, radius_cap):
    case = CASES.index((max_factors, radius_cap))
    for block in range(BLOCKS_PER_CASE):
        seeds = _block_seeds(case, block)
        drawn = bl.random_schur_block(seeds, max_factors, radius_cap)
        assert all(map(_same_bits, drawn, _reference_arrays(seeds, max_factors, radius_cap)))
        fs = [bl.random_schur(s, max_factors, radius_cap) for s in seeds]
        assert _same_bits(bl.expand(*drawn, 12), taylor_matrix(fs, 12))


def _one_count_block(max_factors, rows, count):
    """A drawn block of ``rows`` members that all hold ``count`` zeros."""
    seeds = bl.derive_seed(77 + count, np.arange(64 * rows, dtype=np.uint64))
    h0, zeros, live = bl.random_schur_block(seeds, max_factors, 0.9)
    (held,) = np.nonzero(live.sum(axis=1) == count)
    return h0[held[:rows]], zeros[held[:rows]], live[held[:rows]]


@pytest.mark.parametrize("rows", [1, 7, 256])
@pytest.mark.parametrize("max_factors", [0, 1, 4, 8])
def test_sorted_expansion_is_the_masked_gather_bit_for_bit(max_factors, rows):
    seeds = bl.derive_seed(max_factors, np.arange(rows, dtype=np.uint64))
    blocks = [bl.random_schur_block(seeds, max_factors, 0.9)]
    counts = sorted({0, max_factors // 2, max_factors})  # every row with the same count
    blocks += [_one_count_block(max_factors, rows, count) for count in counts]
    for block in blocks:
        assert len(block[0]) == rows
        for n_max in (0, 1, 44):
            want = expand_masked_reference(*block, n_max)
            assert np.array_equal(bl.expand(*block, n_max).view(np.uint64), want.view(np.uint64))
            # Written into the columns after two origin zeros, as verify's operands are.
            coeffs = np.zeros((rows, n_max + 3), dtype=np.complex128)
            assert bl.expand(*block, n_max, out=coeffs[:, 2:]).base is coeffs
            assert np.array_equal(coeffs[:, 2:].view(np.uint64), want.view(np.uint64))
            assert not coeffs[:, :2].any()


def test_live_zeros_must_lead_their_row():
    live = np.zeros((3, 2), dtype=bool)
    live[1, 1] = True  # the second zero of row 1 without its first
    with pytest.raises(ParameterDomainError, match="must come first"):
        bl.expand(np.ones(3, dtype=np.complex128), np.full((3, 2), 0.5j), live, 5)


def test_seed_array_and_list_draw_alike():
    seeds = _block_seeds(0, 0)
    from_list = bl.random_schur_block(seeds, 4, 0.9)
    from_array = bl.random_schur_block(np.array(seeds, dtype=np.uint64), 4, 0.9)
    assert all(map(_same_bits, from_array, from_list))


def test_negative_seed_is_its_residue():
    assert bl.random_schur(-5, 4, 0.9) == bl.random_schur(2**64 - 5, 4, 0.9)


@pytest.mark.parametrize("max_factors", [4, 7])
def test_mixture_statistics(max_factors):
    n, cap = 2**17, 0.9
    seeds = bl.derive_seed(99 + max_factors, np.arange(n, dtype=np.uint64))
    h0, zeros, live = bl.random_schur_block(seeds, max_factors, cap)
    # Stream column 0 picks the branch: a constant, a pure or a damped product.
    u0 = (bl.derive_seed(seeds, np.uint64(0)) >> 11).astype(np.float64) * 2.0**-53
    constant, pure = u0 < 0.25, (0.25 <= u0) & (u0 < 0.625)
    damped = ~constant & ~pure
    for got, p in zip((constant.mean(), pure.mean(), damped.mean()), (0.25, 0.375, 0.375)):
        assert abs(got - p) <= 5.0 * np.sqrt(p * (1.0 - p) / n)
    assert not live[constant].any()
    assert np.abs(np.abs(h0[pure]) - 1.0).max() <= 1e-15
    assert np.abs(h0[damped]).max() <= 1.0
    counts = np.bincount(live[~constant].sum(axis=1), minlength=max_factors + 1)
    p, rows = 1.0 / (max_factors + 1), counts.sum()
    assert counts.size == max_factors + 1
    assert np.all(np.abs(counts / rows - p) <= 5.0 * np.sqrt(p * (1.0 - p) / rows))
    assert np.abs(zeros).max() <= cap
    assert np.abs(h0).max() <= 1.0 + 1e-12


def test_count_stays_below_max_factors_plus_one():
    # floor(u * k) < k for every uniform u <= 1 - 2**-53 and k <= 2**32 - 1,
    # so the count needs no clamp.
    top = 1.0 - 2.0**-53
    for k in [1, 2, 3, 5, 8, 1000, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 3, 2**32 - 2, 2**32 - 1]:
        assert int(top * k) == k - 1


def test_empty_block():
    h0, zeros, live = bl.random_schur_block([], 4, 0.9)
    assert h0.shape == (0,) and zeros.shape == live.shape == (0, 0)
    assert bl.expand(h0, zeros, live, 5).shape == (0, 6)


def test_parameter_domain():
    for max_factors, radius_cap in ((-1, 0.9), (4, 0.96), (4, 0.0), (1001, 0.9), (2**32 - 1, 0.9)):
        with pytest.raises(ParameterDomainError):
            bl.random_schur_block([1, 2], max_factors, radius_cap)
        with pytest.raises(ParameterDomainError):
            bl.random_schur(1, max_factors, radius_cap)


def test_dispatch_is_as_requested():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
    assert not [f for f in disabled if __cpu_features__.get(f)]


def test_block_draw_without_avx512_dispatch():
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": NO_AVX512,
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        ),
    }
    # this file's tests, every golden in process, and every golden row of
    # cli_checks.CHECKS in fresh processes
    selected = ("test_block_draw.py::", "test_golden.py::",
                "test_cli_checks.py::test_cli_check[golden")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
         "tests/test_block_draw.py", "tests/test_golden.py", "tests/test_cli_checks.py",
         "-k", "not without_avx512 and "
               "(test_block_draw.py or test_golden.py or test_cli_check[golden)"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
    for name in selected:
        assert f"PASSED tests/{name}" in run.stdout
