"""Golden reports: the README commands must keep writing the same bytes.

The row of ``cli_checks.CHECKS`` that writes each golden runs here in
process through ``cli.main``, once with ``--out`` and once writing to
stdout, and each report is compared byte for byte with the committed file in
``golden/``; ``test_cli_checks.py`` runs every golden row in fresh processes.
A refactor that changes a report must change the golden file in the same
commit and say which field changed and why.  The goldens were written with
numpy 2.4.6 on x86-64 with AVX2.  The radius, curve and sharpness reports
and the ``above`` witness scan use no numpy, so they hold under any
dispatch.  The ``below`` sweep and selftest do use numpy, and not every
numpy operation rounds the same under every dispatch: numpy's complex
multiply is FMA-fused under ``X86_V3`` (AVX2), where it differs from
Python's product in about 44% of random products, and ``np.abs`` of a
complex array differs from ``math.hypot`` in about 35% of values under
any dispatch.  Every golden passes under numpy's full x86-64 dispatch and
with its AVX-512 dispatch disabled, which
``test_block_draw.py::test_block_draw_without_avx512_dispatch`` checks
by running this file and the golden rows in a subprocess; with ``X86_V3``
disabled as well, ``selftest.json`` changes (its
``series-vs-quadrature`` detail reads 2.753354500040578e-14, not
2.758904216193514e-14).

To regenerate after an intended change, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import shlex
from pathlib import Path

import pytest

from bohrlab import cli
from cli_checks import CHECKS, GOLDEN

# The argv that writes each golden file: the first table row naming it.
WRITERS: dict = {}
for _row in CHECKS:
    if _row.golden is not None:
        WRITERS.setdefault(_row.golden, _row.argv)


@pytest.mark.parametrize("name,argv", WRITERS.items(), ids=list(WRITERS))
def test_readme_report_is_byte_identical(name, argv, tmp_path, capsysbinary):
    out = tmp_path / name
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()
    # Without --out the same bytes stream into stdout, which stays open.
    assert cli.main(list(argv)) == 0
    assert capsysbinary.readouterr().out == out.read_bytes()


def test_selftest_draws_and_truncates_as_verify_does(tmp_path, monkeypatch):
    # Both corpus suites build their operands from the block draw, as verify
    # does; the one-member path is not needed.
    from bohrlab import corpus

    def unused(*args, **kwargs):
        raise AssertionError("selftest left the block draw")

    for name in ("random_schur", "multiply_by_z", "taylor_coeffs"):
        monkeypatch.setattr(corpus, name, unused)
    out = tmp_path / "selftest.json"
    assert cli.main(["selftest", "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "selftest.json").read_bytes()


def test_readme_commands_are_golden_rows():
    # The command block under "## Command line" in the README.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Command line\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [tuple(shlex.split(line))[1:] for line in block.splitlines()
                if line.startswith("bohrlab ")]
    golden = {row.argv for row in CHECKS if row.golden is not None}
    assert commands and [argv for argv in commands if argv not in golden] == []


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in WRITERS.items():
        cli.main([*argv, "--out", str(GOLDEN / name)])
