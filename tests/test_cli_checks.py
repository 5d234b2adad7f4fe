"""The rows of ``cli_checks.CHECKS``, each in fresh processes, held to the
rules that module lists.

Every row runs with ``--out``.  A refused row runs again without it, so its
stdout is seen empty on its own, and a golden row runs again without it to
show its golden's bytes on stdout.  The rows of one argv share one case,
which requires one report of them all.
"""

import json

import pytest

from cli_checks import CHECKS, GOLDEN, run


def _report(row, out) -> bytes:
    """The bytes ``row`` writes to ``out``, None for a refused row, with every
    run's exit code, stdout and stderr checked."""
    expected_err = b"" if row.stderr is None else row.stderr.encode() + b"\n"

    def ran(*extra):
        proc = run((*row.argv, *extra), row.timeout, row.env)
        assert (proc.returncode, proc.stderr) == (row.exit, expected_err)
        return proc.stdout

    assert ran("--out", str(out)) == b""
    if row.exit != 0:
        assert not out.exists()
        assert ran() == b""
        return None
    report = out.read_bytes()
    if row.golden is not None:
        assert report == (GOLDEN / row.golden).read_bytes()
        assert ran() == report
    if row.rows is not None:
        rows = (len(json.loads(report)["results"]["rows"]) if report.startswith(b"{")
                else report.count(b"\n") - 1)
        assert rows == row.rows
    return report


def _id(group) -> str:
    """The argv, long words cut, after ``golden`` for a golden row."""
    words = [word if len(word) <= 24 else f"{word[:12]}...({len(word)} chars)"
             for word in group[0].argv]
    return ("golden " if group[0].golden else "") + " ".join(words)


BY_ARGV: dict = {}
for _row in CHECKS:
    BY_ARGV.setdefault(_row.argv, []).append(_row)


@pytest.mark.parametrize("group", BY_ARGV.values(), ids=_id)
def test_cli_check(group, tmp_path):
    reports = [_report(row, tmp_path / f"report{i}") for i, row in enumerate(group)]
    assert reports == reports[:1] * len(reports)
