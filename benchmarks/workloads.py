"""The benchmark's workloads: fixed lists of ``bohrlab`` commands and the
checks that every report they write must pass.

Each command is the argument list of one ``bohrlab`` invocation (without
``--out``) plus a check that parses the written report and returns the
number of items it completed: verified samples, solved radii, witness
attempts, decomposition rows or selftest suites.  A check raises
``CheckFailed`` when the report is wrong.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Callable

WORKLOADS = ("verify-sweep", "radius-sweep", "sharpness-grid")

# Published digits of the README radii; the printed root must start with them.
CESARO_ONE_RADIUS = "0.53358923"
LIBERA_RADIUS = "0.58281164"
RESIDUAL_LIMIT = 1e-12
RECONSTRUCTION_LIMIT = 1e-9


class CheckFailed(Exception):
    """A report was written but its content is wrong."""


@dataclass(frozen=True)
class Command:
    argv: tuple
    check: Callable[[str], int]


def _csv_rows(text: str) -> list:
    return list(csv.DictReader(io.StringIO(text)))


def _results(text: str) -> dict:
    return json.loads(text)["results"]


def _require(ok: bool, why: str) -> None:
    if not ok:
        raise CheckFailed(why)


def check_verify_below(text: str) -> int:
    report = json.loads(text)
    _require(report["results"]["violations"] == 0, "verify found majorant violations")
    return report["params"]["samples"]


def check_verify_above(text: str) -> int:
    results = _results(text)
    _require(results["witness"] is not None, "no violation witness above the radius")
    return results["attempts"]


def check_radius(expected_digits: str = "") -> Callable[[str], int]:
    def check(text: str) -> int:
        if text.lstrip().startswith("{"):
            results = _results(text)
            root, residual = results["root"], results["residual"]
        else:
            (row,) = _csv_rows(text)
            root, residual = float(row["root"]), float(row["residual"])
        _require(0.0 < root < 1.0, f"root {root} outside (0, 1)")
        _require(abs(residual) < RESIDUAL_LIMIT, f"residual {residual} too large")
        _require(
            f"{root:.17g}".startswith(expected_digits),
            f"root {root!r} does not match {expected_digits}",
        )
        return 1

    return check


def check_curve(points: int) -> Callable[[str], int]:
    def check(text: str) -> int:
        if text.lstrip().startswith("{"):
            rows = _results(text)["rows"]
            roots = [row["root"] for row in rows]
        else:
            roots = [float(row["root"]) for row in _csv_rows(text)]
        _require(len(roots) == points, f"{len(roots)} curve rows, expected {points}")
        _require(all(0.0 < x < 1.0 for x in roots), "a curve root lies outside (0, 1)")
        return len(roots)

    return check


def check_sharpness(text: str) -> int:
    if text.lstrip().startswith("{"):
        results = _results(text)
        worst, rows = results["max_reconstruction_error"], len(results["rows"])
    else:
        table = _csv_rows(text)
        worst = max(float(row["reconstruction_error"]) for row in table)
        rows = len(table)
    _require(worst <= RECONSTRUCTION_LIMIT, f"reconstruction error {worst}")
    return rows


def check_selftest(text: str) -> int:
    results = _results(text)
    _require(results["all_passed"] is True, "a selftest suite failed")
    return len(results["suites"])


def _cmd(check: Callable[[str], int], *argv) -> Command:
    return Command(tuple(str(a) for a in argv), check)


def _grid(lo: float, hi: float, points: int) -> tuple:
    return ("--grid-min", lo, "--grid-max", hi, "--grid-points", points)


def commands(workload: str, seed: int, toy: bool = False) -> list:
    """The command list of one workload pass.

    ``toy`` shrinks every sample count and grid to a few points while
    keeping the mix of commands; only the harness self-test uses it.
    """
    seed_flag = ("--seed", seed)
    if workload == "verify-sweep":
        samples = 20 if toy else 6000
        below = ("--r-mode", "below", "--samples", samples) + seed_flag
        return [
            _cmd(check_verify_below, "verify", "--op", "cesaro", "--beta", 1, *below),
            _cmd(check_verify_below, "verify", "--op", "cbeta", "--beta", 2, *below),
            _cmd(check_verify_below, "verify", "--op", "libera", *below),
            _cmd(check_verify_below, "verify", "--op", "bernardi", "--gamma", 2, "--m", 1, *below),
            _cmd(check_verify_below, "verify", "--op", "bohr", *below),
            # README command, with the benchmark seed in place of 7.
            _cmd(
                check_verify_below,
                "verify", "--op", "cesaro", "--beta", 2,
                "--samples", 20 if toy else 1000, "--r-mode", "below", *seed_flag,
            ),
        ]
    if workload == "radius-sweep":
        cesaro_points = 5 if toy else 2000
        bernardi_points = 5 if toy else 600
        return [
            _cmd(check_radius(CESARO_ONE_RADIUS), "radius", "--op", "cesaro", "--beta", 1, *seed_flag),
            _cmd(
                check_radius(LIBERA_RADIUS),
                "radius", "--op", "bernardi", "--gamma", 1, "--m", 0, "--format", "csv", *seed_flag,
            ),
            _cmd(
                check_curve(26),
                "curve", "--op", "cesaro", *_grid(0.5, 3, 26), "--format", "csv", *seed_flag,
            ),
            _cmd(check_curve(cesaro_points), "curve", "--op", "cesaro", *_grid(0.05, 50, cesaro_points), *seed_flag),
            _cmd(
                check_curve(bernardi_points),
                "curve", "--op", "bernardi", "--m", 0, *_grid(0.15, 8, bernardi_points), *seed_flag,
            ),
            _cmd(
                check_curve(bernardi_points),
                "curve", "--op", "bernardi", "--m", 1, *_grid(-0.85, 8, bernardi_points), *seed_flag,
            ),
            _cmd(
                check_curve(bernardi_points),
                "curve", "--op", "bernardi", "--m", 3, *_grid(-2.85, 8, bernardi_points), *seed_flag,
            ),
            # The two parameter corners: at the parent of this benchmark both
            # exit 3 after about a second each.  They stay in and count as
            # failed until the solver handles or refuses them.
            _cmd(check_radius(), "radius", "--op", "bernardi", "--gamma", "1e-9", "--m", 0, *seed_flag),
            _cmd(check_radius(), "radius", "--op", "bernardi", "--gamma", -0.999, "--m", 1, *seed_flag),
        ]
    if workload == "sharpness-grid":
        steps = 5 if toy else 1000
        a_values = ",".join([str(k / steps) for k in range(steps)] + ["0.9999", "0.99999", "1"])
        grid = ("--r", 0.5, "--a-values", a_values) + seed_flag
        above = ("--r-mode", "above") + seed_flag
        return [
            _cmd(
                check_sharpness,
                "sharpness", "--op", "cesaro", "--beta", 1, "--r", 0.5, "--format", "csv", *seed_flag,
            ),
            _cmd(check_verify_above, "verify", "--op", "libera", "--r", 0.60, *above),
            _cmd(check_selftest, "selftest", *seed_flag),
            _cmd(check_verify_above, "verify", "--op", "cesaro", "--beta", 1, "--r", 0.5336, *above),
            _cmd(check_verify_above, "verify", "--op", "libera", "--r", 0.5829, *above),
            _cmd(check_verify_above, "verify", "--op", "bernardi", "--gamma", 2, "--m", 1, *above),
            _cmd(check_verify_above, "verify", "--op", "bohr", "--r", 0.334, *above),
            _cmd(check_sharpness, "sharpness", "--op", "cesaro", "--beta", 1, *grid),
            _cmd(check_sharpness, "sharpness", "--op", "cesaro", "--beta", 0.25, *grid),
            _cmd(check_sharpness, "sharpness", "--op", "cbeta", "--beta", 2, *grid),
            _cmd(check_sharpness, "sharpness", "--op", "libera", *grid),
            _cmd(check_sharpness, "sharpness", "--op", "alexander", *grid),
            _cmd(check_sharpness, "sharpness", "--op", "bernardi", "--gamma", 0.3, "--m", 0, *grid),
        ]
    raise ValueError(f"unknown workload {workload!r}")
