"""Command-line surface: radii, parameter sweeps, verification, sharpness.

Subcommands
-----------
radius     solve the radius equation for one operator
curve      sweep a parameter grid and tabulate (param, root, residual)
verify     draw a seeded corpus and check the inequality direction, or hunt
           a violation witness beyond the radius
sharpness  emit the three-term extremal decompositions over an a-grid
selftest   run the built-in identity/concavity/coefficient/quadrature suites

One table, ``_OPS``, maps each ``--op`` to the operator flags it takes (the
first one required, any other refused) and to the operator they build; the
parser's choices, the flag checks, every command's operator and ``curve``'s
grid (each value in place of the first flag) all read it.  Every handler
returns ``(params, results, csv_header, csv_rows)`` and an exit code, and
``_emit`` streams them as the one report.

``radius``, ``curve``, ``sharpness`` and ``verify --r-mode above`` need only
the standard library.  ``verify --r-mode below|at`` imports numpy and the
corpus once it draws samples, and ``selftest`` imports both when it runs.
``main`` sets ``OPENBLAS_NUM_THREADS=1`` unless set: no command calls BLAS.
Run as the process's command (no argv), it freezes the collector as it
returns, so the interpreter's exit-time collections skip the imports.
``verify`` and ``selftest``'s corpus suites take every operand from
``_operands``, and every ``verify`` mode refuses the draw flags the corpus
would, ``above`` included.

Reports are JSON (default) or RFC-4180-style CSV with a header row (17
significant digits; JSON uses shortest round-trip floats), streamed into
``--out`` or stdout once the command has run: a parameter or solver error
writes nothing.  Identical flags and seed reproduce byte-identical output.
Exit codes: 0 ok, 1 a failed selftest suite, 2 parameter-domain error, 3
solver/summation failure, 4 verification failure, 5 reconstruction mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import os
import sys
from typing import Optional

from . import __version__
from .errors import (
    BracketError,
    ContinuityError,
    ParameterDomainError,
    PreconditionError,
    QuadratureError,
    TruncationError,
)
from .operators import (
    Alexander,
    Bernardi,
    CBeta,
    CesaroBeta,
    ClassicalBohr,
    Libera,
    OperatorKind,
    PrimitiveI,
    _screened_majorants,
    check_draw,
    operator_coeffs,
    quadrature_value,
    series_order,
    sup_bound,
)
from .radii import radius_curve, solve_radius

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_DOMAIN = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4
EXIT_SHARPNESS = 5

_SOLVER_ERRORS = (BracketError, TruncationError, QuadratureError, ContinuityError)

DEFAULT_SOLVER_TOL = 1e-12
DEFAULT_MAJORANT_EPS = 1e-12
DEFAULT_QUAD_TOL = 1e-10
MAX_GRID_POINTS = 100_000  # the most values a grid or a comma list may hold

# Samples per verify batch: one coefficient matrix and one majorant pass each.
VERIFY_BLOCK = 256


def _csv_cell(value) -> str:
    if value is None:  # an undefined number, null in JSON
        return "nan"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(
    args: argparse.Namespace, params: dict, results: dict, csv_header: tuple, csv_rows: list
) -> None:
    """Stream one command's report into ``--out`` or stdout: JSON of the parameters
    and results, or a CSV table of ``csv_rows`` (dicts keyed by ``csv_header``)."""
    with open(args.out, "wb") if args.out else contextlib.nullcontext(sys.stdout.buffer) as sink:
        fh = io.TextIOWrapper(sink, encoding="utf-8", newline="")  # few writes to any stdout
        if args.format == "csv":
            writer = csv.writer(fh)
            writer.writerow(csv_header)
            writer.writerows([_csv_cell(row[key]) for key in csv_header] for row in csv_rows)
        else:
            payload = {
                "command": args.command,
                "params": params,
                "results": results,
                "seed": args.seed,
                "version": __version__,
            }
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")
        fh.detach()  # flushes into the sink; stdout's stays open


# Each --op: the operator flags it takes, the first one required, and the
# operator they build.  Every other operator flag is refused, not ignored.
_OPS = {
    "cesaro": (("beta",), CesaroBeta),
    "cbeta": (("beta",), CBeta),
    "bernardi": (("gamma", "m"), lambda gamma, m: Bernardi(gamma, m or 0)),
    "libera": ((), Libera),
    "alexander": ((), Alexander),
    "primitive": ((), PrimitiveI),
    "bohr": ((), ClassicalBohr),
}


def _refuse_foreign_flags(args: argparse.Namespace) -> None:
    takes = _OPS[args.op][0] if hasattr(args, "op") else ()
    for flag in ("beta", "gamma", "m"):
        if getattr(args, flag, None) is not None and flag not in takes:
            names = " and ".join(f"--{name}" for name in takes) or "no operator flag"
            raise ParameterDomainError(
                f"--{flag} does not apply to --op {args.op}, which takes {names}"
            )


def _rounding_tol(bound: float) -> float:
    """How far past ``bound`` a computed value may land by rounding alone:
    1e-9 of a bound below 1, 1e-9 up to 1000 and 1e-12 of a larger bound."""
    return max(1e-9 * min(1.0, bound), 1e-12 * bound)


def _operator_kind(args: argparse.Namespace) -> OperatorKind:
    flags, build = _OPS[args.op]
    if flags and getattr(args, flags[0]) is None:
        raise ParameterDomainError(f"--{flags[0]} is required for the {args.op} operator")
    return build(*(getattr(args, flag) for flag in flags))


def _operator_params(args: argparse.Namespace) -> dict:
    return {"op": args.op, "beta": args.beta, "gamma": args.gamma, "m": args.m}


def cmd_radius(args: argparse.Namespace) -> tuple:
    family = _operator_kind(args).family
    result = solve_radius(family, args.tol)
    results = result._asdict()
    lo, hi = result.bracket
    params = {**_operator_params(args), "tol": args.tol}
    header = ("root", "residual", "bracket_lo", "bracket_hi", "iterations")
    return (params, results, header, [{**results, "bracket_lo": lo, "bracket_hi": hi}]), EXIT_OK


def _check_grid_size(points: int) -> None:
    if points > MAX_GRID_POINTS:  # refused before the list is built
        raise ParameterDomainError(f"a grid holds at most {MAX_GRID_POINTS} points, got {points}")


def _parse_floats(flag: str, text: str) -> list:
    """The comma-separated floats of ``text``, each token read by ``float``:
    blank text is the empty list, and an empty token is refused, not dropped."""
    _check_grid_size(text.count(",") + 1)
    text = text.strip()
    if not text:
        return []
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ParameterDomainError(f"{flag}: {exc}") from None


def _parse_grid(args: argparse.Namespace) -> list:
    if args.grid_values is not None:
        for bound in ("min", "max", "points"):
            if getattr(args, f"grid_{bound}") is not None:
                raise ParameterDomainError(f"--grid-{bound} does not apply with --grid-values")
        return _parse_floats("--grid-values", args.grid_values)
    if args.grid_points is None:
        raise ParameterDomainError("provide --grid-values or --grid-min/max/points")
    _check_grid_size(args.grid_points)
    if args.grid_points < 0:
        raise ParameterDomainError("--grid-points must be nonnegative")
    if args.grid_points == 0:
        return []
    if args.grid_min is None or (args.grid_max is None and args.grid_points > 1):
        raise ParameterDomainError("--grid-points needs --grid-min and --grid-max")
    for flag, value in (("--grid-min", args.grid_min), ("--grid-max", args.grid_max)):
        if value is not None and not math.isfinite(value):
            raise ParameterDomainError(f"{flag} must be finite, got {value}")
    if args.grid_points == 1:
        return [args.grid_min]
    step = (args.grid_max - args.grid_min) / (args.grid_points - 1)
    if not math.isfinite(args.grid_min + (args.grid_points - 1) * step):  # the last, extreme point
        raise ParameterDomainError("the grid from --grid-min to --grid-max overflows")
    return [args.grid_min + i * step for i in range(args.grid_points)]


def cmd_curve(args: argparse.Namespace) -> tuple:
    grid = _parse_grid(args)
    # Each grid value stands in for the operator's first flag.
    flags, build = _OPS[args.op]
    rest = [getattr(args, flag) for flag in flags[1:]]
    rows = [
        {"param": row.parameter, "root": row.root, "residual": row.residual}
        for row in radius_curve([(v, build(v, *rest).family) for v in grid], args.tol)
    ]
    params = {"op": args.op, "m": args.m, "grid": grid, "tol": args.tol}
    return (params, {"rows": rows}, ("param", "root", "residual"), rows), EXIT_OK


def _operands(seeds, max_factors: int, radius_cap: float, origin_zeros: int, order: int) -> tuple:
    """The corpus members of ``seeds`` times ``z**origin_zeros``, drawn and cut
    as ``verify`` samples them: ``(coeffs, (h0, zeros, live))``, the Taylor
    coefficients ``a_0 .. a_order`` of each member, one row each, and the
    drawn block row.  The origin zeros are leading zero columns."""
    import numpy as np

    from .corpus import expand, random_schur_block

    block = random_schur_block(seeds, max_factors, radius_cap)
    coeffs = np.zeros((len(seeds), order + 1), dtype=np.complex128)
    expand(*block, order - origin_zeros, out=coeffs[:, origin_zeros:])
    return coeffs, block


def cmd_verify(args: argparse.Namespace) -> tuple:
    from .sharpness import critical_radius, violation_search

    if args.samples < 1:
        raise ParameterDomainError(f"--samples must be >= 1, got {args.samples}")
    if args.r is not None and args.r_mode != "above":
        raise ParameterDomainError(
            f"--r belongs to --r-mode above; --r-mode {args.r_mode} sets r from the critical radius"
        )
    check_draw(args.max_factors, args.radius_cap)

    kind = _operator_kind(args)
    critical = critical_radius(kind.family, args.tol)

    if args.r_mode == "below":
        r = 0.99 * critical
    elif args.r_mode == "at":
        r = critical
    else:
        r = args.r if args.r is not None else min(critical + max(0.02, 20 * args.tol), 0.98)
        if args.r is None and r <= critical:  # a root at or above 0.98: halfway to 1
            r = 0.5 * (critical + 1.0)

    params = {
        **_operator_params(args),
        "samples": args.samples,
        "r_mode": args.r_mode,
        "r": r,
        "critical_radius": critical,
        "max_factors": args.max_factors,
        "radius_cap": args.radius_cap,
    }

    if args.r_mode == "above":
        outcome = violation_search(kind, r, eps=DEFAULT_MAJORANT_EPS, critical=critical)
        results = outcome._asdict()
        witness = "" if outcome.witness is None else outcome.witness
        header = ("r", "bound", "witness", "majorant", "margin", "attempts")
        report = (params, results, header, [{**results, "r": r, "witness": witness}])
        if not outcome.found:
            print(
                f"no violation witness for {args.op} at r={r} (margin {outcome.margin})",
                file=sys.stderr,
            )
            return report, EXIT_VERIFY
        return report, EXIT_OK

    import numpy as np

    from .corpus import derive_seed

    bound = sup_bound(kind, r)
    eps, tol = DEFAULT_MAJORANT_EPS, _rounding_tol(bound)
    # Sample every coefficient the family's weight vector reads, no more.
    order = kind.d + series_order(kind.family, r, eps)
    violations, first_violation, worst = 0, None, -math.inf
    for start in range(0, args.samples, VERIFY_BLOCK):
        indices = np.arange(start, min(start + VERIFY_BLOCK, args.samples), dtype=np.uint64)
        seeds = derive_seed(args.seed, indices)
        coeffs, _ = _operands(seeds, args.max_factors, args.radius_cap, kind.d, order)
        # The exact excess of every row that may be the block's maximum or a violation.
        kept = _screened_majorants(kind, coeffs, r, eps, bound, tol)
        excesses = {i: v - bound for i, v in kept.items()}
        worst = max(worst, *excesses.values())
        over = [(i, e) for i, e in excesses.items() if e > tol]
        violations += len(over)
        if over and first_violation is None:
            i, excess = over[0]
            first_violation = {"index": start + i, "seed": int(seeds[i]), "excess": excess}

    results = {
        "bound": bound,
        "violations": violations,
        "max_excess": worst,
        "coefficient_order": order,
        "first_violation": first_violation,
    }
    header = ("r", "bound", "samples", "violations", "max_excess")
    report = (params, results, header, [{**results, "r": r, "samples": args.samples}])
    if violations:
        print(
            f"{violations} majorant violations; first at sample "
            f"{first_violation['index']} (seed {first_violation['seed']})",
            file=sys.stderr,
        )
        return report, EXIT_VERIFY
    return report, EXIT_OK


def cmd_sharpness(args: argparse.Namespace) -> tuple:
    from .sharpness import decompositions

    kind = _operator_kind(args)
    if args.r is None:
        raise ParameterDomainError("--r is required for the sharpness command")
    a_values = _parse_floats("--a-values", args.a_values)
    if not a_values:
        raise ParameterDomainError("the a-grid is empty")
    splits = decompositions(kind, a_values, args.r)
    tol = _rounding_tol(splits[0].bound_term)  # one bound for every row
    rows = [
        {"a": a, **dec._asdict(), "reconstruction_error": dec.reconstruction_error,
         "remainder_ratio": dec.remainder / (1.0 - a) ** 2 if a < 1.0 else None}
        for a, dec in zip(a_values, splits)
    ]
    if not all(math.isfinite(row["remainder_ratio"] or 0.0) for row in rows):
        raise ParameterDomainError(f"the remainder ratio at r={args.r} overflows the float range")
    worst_recon = max(0.0, *(row["reconstruction_error"] for row in rows))
    report = (
        {**_operator_params(args), "r": args.r, "a_values": a_values},
        {"rows": rows, "max_reconstruction_error": worst_recon},
        tuple(rows[0]),
        rows,
    )
    if not all(row["reconstruction_error"] <= tol for row in rows):
        print(
            f"reconstruction mismatch {worst_recon} exceeds the rounding allowance "
            "max(1e-9 * min(1, bound), 1e-12 * bound) of its row's bound",
            file=sys.stderr,
        )
        return report, EXIT_SHARPNESS
    return report, EXIT_OK


def _selftest_suites(seed: int) -> list:
    import numpy as np

    from .corpus import Blaschke, derive_seed
    from .series import cumulative_identity_residual, horner
    from .sharpness import concavity_check

    suites = []

    worst = max(
        cumulative_identity_residual(beta, 200) for beta in (0.3, 0.5, 1.0, 2.0, 3.7, 10.0)
    )
    suites.append(
        {"suite": "weight-running-sum-identity", "passed": bool(worst <= 1e-12), "detail": float(worst)}
    )

    grid = [k / 100.0 for k in range(100)]
    families = [CesaroBeta(b) for b in (0.5, 1.0, 2.0)]
    families += [Bernardi(g, m) for g, m in ((1.0, 0), (0.0, 1), (2.0, 1))]
    worst = max(concavity_check(family, r, grid) for family in families for r in (0.3, 0.6))
    suites.append(
        {"suite": "envelope-concavity", "passed": bool(worst <= 1e-10), "detail": float(worst)}
    )

    coeffs, _ = _operands(derive_seed(seed, np.arange(24, dtype=np.uint64)), 4, 0.9, 0, 200)
    rows = np.abs(coeffs)
    slack = rows[:, 1:].max(axis=1) - (1.0 - rows[:, 0] ** 2 + 1e-12)
    # constants of full modulus carry no coefficient slack
    worst = max(0.0, slack[rows[:, 0] < 1.0 - 1e-9].max(initial=0.0))
    suites.append(
        {"suite": "coefficient-slack", "passed": bool(worst <= 0.0), "detail": float(worst)}
    )

    z = 0.5 * complex(math.cos(0.7), math.sin(0.7))
    worst = 0.0
    for i, kind in enumerate(
        (CesaroBeta(0.5), CesaroBeta(1.0), CBeta(1.0), Bernardi(1.0, 0), Alexander(), PrimitiveI())
    ):
        # The image's order is the family's own cut at |z|, shifted by z**s.
        order = kind.s + series_order(kind.family, abs(z), 1e-13)
        (row,), ((h0,), (zeros,), (live,)) = _operands(
            [derive_seed(seed, 100 + i)], 3, 0.9, kind.d, order
        )
        # The drawn zeros, then the origin zeros, in the order multiply_by_z appends them.
        f = Blaschke(tuple(zeros[live]) + (0j,) * kind.d, h0)
        series_val = horner(operator_coeffs(kind, row, order), z)
        quad_val = quadrature_value(kind, f, z, DEFAULT_QUAD_TOL)
        worst = max(worst, abs(series_val - quad_val))
    suites.append(
        {"suite": "series-vs-quadrature", "passed": bool(worst <= 1e-8), "detail": float(worst)}
    )
    return suites


def cmd_selftest(args: argparse.Namespace) -> tuple:
    suites = _selftest_suites(args.seed)
    all_pass = all(s["passed"] for s in suites)
    report = ({}, {"suites": suites, "all_passed": all_pass}, ("suite", "passed", "detail"), suites)
    return report, EXIT_OK if all_pass else EXIT_SELFTEST


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohrlab",
        description="Radii, verification sweeps, and sharpness experiments "
        "for integral operators on bounded analytic functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, solves: bool = False) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--seed", type=int, default=0)
        if solves:
            p.add_argument("--tol", type=float, default=DEFAULT_SOLVER_TOL)

    def operator_flags(p: argparse.ArgumentParser, ops: tuple) -> None:
        p.add_argument("--op", choices=ops, required=True)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--m", type=int, default=None)

    # The identity baseline has no radius equation; only verify takes it.
    radius_ops = tuple(op for op in _OPS if op != "bohr")

    p = sub.add_parser("radius", help="solve the radius equation")
    operator_flags(p, radius_ops)
    common(p, solves=True)

    p = sub.add_parser("curve", help="radius sweep over a parameter grid")
    p.add_argument("--op", choices=("cesaro", "bernardi"), required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--grid-min", type=float, default=None)
    p.add_argument("--grid-max", type=float, default=None)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--grid-values", default=None, help="comma-separated grid")
    common(p, solves=True)

    p = sub.add_parser("verify", help="inequality sweep over a seeded corpus")
    operator_flags(p, tuple(_OPS))
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--r-mode", choices=("below", "at", "above"), default="below")
    p.add_argument("--r", type=float, default=None, help="the radius of --r-mode above")
    p.add_argument("--max-factors", type=int, default=4)
    p.add_argument("--radius-cap", type=float, default=0.9)
    common(p, solves=True)

    p = sub.add_parser("sharpness", help="extremal decompositions over an a-grid")
    operator_flags(p, radius_ops)
    p.add_argument("--r", type=float, default=None)
    p.add_argument(
        "--a-values",
        default="0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,0.99,0.999,1",
        help="comma-separated a-grid",
    )
    common(p)

    p = sub.add_parser("selftest", help="run the built-in consistency suites")
    common(p)

    return parser


_HANDLERS = {
    "radius": cmd_radius,
    "curve": cmd_curve,
    "verify": cmd_verify,
    "sharpness": cmd_sharpness,
    "selftest": cmd_selftest,
}


def main(argv: Optional[list] = None) -> int:
    # Before the commands' lazy numpy import, which starts OpenBLAS's pool.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _refuse_foreign_flags(args)
        report, code = _HANDLERS[args.command](args)
    except (ParameterDomainError, PreconditionError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    else:
        _emit(args, *report)
        return code
    finally:
        if argv is None:
            # The process's own command: it exits next, and the interpreter's
            # exit-time collections would walk numpy's whole import graph for
            # nothing.  Frozen objects are skipped; an in-process caller that
            # passes argv keeps a normal collector.
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
