"""The block draw replays numpy's ``default_rng`` stream bit for bit.

``corpus.random_schur_block`` rebuilds, for a whole block of seeds at once,
the arrays ``taylor_matrix`` lays out from the members ``random_schur``
draws: SeedSequence hashing, PCG64 steps, ``random()``, Lemire's bounded
``integers()`` and the disk points are all array arithmetic.  The tests
compare the two paths as uint64 bit patterns over more than 1e5 seeds, so a
numpy release that changes any of these steps fails here instead of
shifting the verify corpus in silence.  The same tests run once more in a
subprocess with numpy's AVX-512 dispatch disabled.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bohrlab as bl
from bohrlab import cli, corpus
from bohrlab.errors import ParameterDomainError

ROOT = Path(__file__).resolve().parents[1]
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"

EDGE_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1)
CASES = [(mf, cap) for mf in (0, 1, 4, 7) for cap in (0.5, 0.9, 0.95)]
BLOCKS_PER_CASE = 33  # 12 cases x 33 blocks x 256 seeds = 101376 seeds


def _same_bits(got, want):
    """Same dtype, shape and bit pattern: signed zeros and NaN payloads count."""
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _block_seeds(case, block):
    seeds = [bl.derive_seed(1000 * case + block, i) for i in range(cli.VERIFY_BLOCK)]
    if block == 0:
        seeds[: len(EDGE_SEEDS)] = EDGE_SEEDS
    return seeds


def _member_arrays(fs):
    """``(h0, zeros, live)`` of the members: lead, zeros first, 0 padding."""
    width = max((len(f.zeros) for f in fs), default=0)
    h0 = np.array([f.unimodular_factor * f.scale for f in fs], dtype=np.complex128)
    zeros = np.zeros((len(fs), width), dtype=np.complex128)
    live = np.zeros((len(fs), width), dtype=bool)
    for i, f in enumerate(fs):
        zeros[i, : len(f.zeros)] = f.zeros
        live[i, : len(f.zeros)] = True
    return h0, zeros, live


def test_pcg_stream_is_numpys():
    seeds = list(EDGE_SEEDS) + [bl.derive_seed(5, i) for i in range(5000)]
    raw = corpus._pcg_outputs(np.array(seeds, dtype=np.uint64), 9)
    expected = np.array([np.random.default_rng(s).bit_generator.random_raw(9) for s in seeds])
    assert raw.dtype == np.uint64
    assert np.array_equal(raw, expected)


@pytest.mark.parametrize("max_factors,radius_cap", CASES)
def test_block_draw_is_random_schur_bit_for_bit(max_factors, radius_cap):
    case = CASES.index((max_factors, radius_cap))
    for block in range(BLOCKS_PER_CASE):
        seeds = _block_seeds(case, block)
        fs = [bl.random_schur(s, max_factors, radius_cap) for s in seeds]
        drawn = bl.random_schur_block(seeds, max_factors, radius_cap)
        assert all(map(_same_bits, drawn, _member_arrays(fs)))
        assert _same_bits(bl.expand(*drawn, 12), bl.taylor_matrix(fs, 12))


def test_empty_block():
    h0, zeros, live = bl.random_schur_block([], 4, 0.9)
    assert h0.shape == (0,) and zeros.shape == live.shape == (0, 0)
    assert bl.expand(h0, zeros, live, 5).shape == (0, 6)


def test_parameter_domain():
    for max_factors, radius_cap in ((-1, 0.9), (4, 0.96), (4, 0.0), (2**32 - 1, 0.9)):
        with pytest.raises(ParameterDomainError):
            bl.random_schur_block([1, 2], max_factors, radius_cap)


def _numpy_redraws(low32, k):
    """Whether ``integers(0, k)`` draws again after a first output of ``low32``.

    The generator's next state is set so that its output is ``low32`` with a
    high word of 0: one 64-bit output consumed and its high word still
    buffered means numpy kept the first 32-bit draw.
    """
    mult, inc = corpus._PCG_MULT, 1
    state = (low32 - inc) * pow(mult, -1, 2**128) % 2**128  # steps to (0, low32)
    bitgen = np.random.PCG64()
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    np.random.Generator(bitgen).integers(0, k)
    after = bitgen.state
    kept = after["has_uint32"] == 1 and after["state"]["state"] == low32
    return not kept


@pytest.mark.parametrize("k", [2, 3, 5, 8, 2**31 + 1])
def test_redraw_predicate_is_numpys(k):
    rng = np.random.default_rng(k)
    lows = [0, 1, 2, 2**31, 2**32 - 1] + [int(v) for v in rng.integers(0, 2**32, 200)]
    leftovers = np.array(lows, dtype=np.uint64) * np.uint64(k) & corpus._M32
    predicted = corpus._lemire_redraws(leftovers, k)
    assert predicted.tolist() == [_numpy_redraws(v, k) for v in lows]
    if k == 3:
        assert predicted[0]  # leftover 0 < (2**32 - 3) % 3 = 1


def _every_seed_redraws(monkeypatch):
    monkeypatch.setattr(
        corpus, "_lemire_redraws", lambda leftover, k: np.ones(leftover.shape, dtype=bool)
    )


@pytest.mark.parametrize("max_factors", [0, 4])
def test_fallback_rows_are_the_block_rows(monkeypatch, max_factors):
    seeds = _block_seeds(0, 0)
    block_drawn = bl.random_schur_block(seeds, max_factors, 0.9)
    _every_seed_redraws(monkeypatch)
    assert all(map(_same_bits, bl.random_schur_block(seeds, max_factors, 0.9), block_drawn))


@pytest.mark.parametrize(
    "argv",
    [
        ("--op", "cesaro", "--beta", "1", "--samples", "600", "--seed", "3"),
        ("--op", "libera", "--samples", "300", "--max-factors", "0"),
        ("--op", "bohr", "--samples", "300", "--max-factors", "7", "--radius-cap", "0.95"),
    ],
    ids=["cesaro-1", "libera-no-factors", "bohr-7-factors"],
)
def test_verify_report_is_unchanged_when_every_seed_falls_back(capsys, monkeypatch, argv):
    assert cli.main(["verify", *argv]) == 0
    block_drawn = capsys.readouterr().out
    calls = []

    def counted(*args):
        calls.append(args[0])
        return bl.random_schur(*args)

    _every_seed_redraws(monkeypatch)
    monkeypatch.setattr(corpus, "random_schur", counted)
    assert cli.main(["verify", *argv]) == 0
    samples = int(argv[argv.index("--samples") + 1])
    assert len(calls) == samples
    assert capsys.readouterr().out == block_drawn


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
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "not without_avx512"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-2000:]
