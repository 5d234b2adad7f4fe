"""Golden reports: the README commands must keep writing the same bytes.

Each command runs in process through ``cli.main`` with ``--out`` and its
report is compared byte for byte with the committed file in ``golden/``.
A refactor that changes a report must change the golden file in the same
commit and say which field changed and why.  The goldens were written with
numpy 2.4.6 under its full x86-64 dispatch, AVX-512 included: with
``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` numpy's
``power``, ``exp``, ``expm1`` and ``log1p`` round some values differently,
and ``sharpness_cesaro.csv`` changes in its last bits.  The radius and
curve reports use no numpy, so they do not depend on the dispatch.

To regenerate after an intended change, run from the repository root:

    PYTHONPATH=src python -m tests.test_golden
"""

from pathlib import Path

import pytest

from bohrlab import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

# (golden file name, argv) for the seven commands listed in the README.
README_COMMANDS = (
    ("radius_cesaro.json", ("radius", "--op", "cesaro", "--beta", "1")),
    (
        "radius_bernardi.csv",
        ("radius", "--op", "bernardi", "--gamma", "1", "--m", "0", "--format", "csv"),
    ),
    (
        "curve_cesaro.csv",
        ("curve", "--op", "cesaro", "--grid-min", "0.5", "--grid-max", "3",
         "--grid-points", "26", "--format", "csv"),
    ),
    (
        "verify_cesaro_below.json",
        ("verify", "--op", "cesaro", "--beta", "2", "--samples", "1000", "--seed", "7",
         "--r-mode", "below"),
    ),
    ("verify_libera_above.json", ("verify", "--op", "libera", "--r-mode", "above", "--r", "0.60")),
    (
        "sharpness_cesaro.csv",
        ("sharpness", "--op", "cesaro", "--beta", "1", "--r", "0.5", "--format", "csv"),
    ),
    ("selftest.json", ("selftest",)),
)


@pytest.mark.parametrize("name,argv", README_COMMANDS, ids=[n for n, _ in README_COMMANDS])
def test_readme_report_is_byte_identical(name, argv, tmp_path):
    out = tmp_path / name
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in README_COMMANDS:
        cli.main([*argv, "--out", str(GOLDEN / name)])
