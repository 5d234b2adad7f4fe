"""Command-line surface: radii, parameter sweeps, verification, sharpness.

Subcommands
-----------
radius     solve the radius equation for one operator
curve      sweep a parameter grid and tabulate (param, root, residual)
verify     draw a seeded corpus and check the inequality direction, or hunt
           a violation witness beyond the radius
sharpness  emit the three-term extremal decompositions over an a-grid
selftest   run the built-in identity/concavity/coefficient/quadrature suites

``radius`` and ``curve`` need only the standard library; ``verify``,
``sharpness`` and ``selftest`` import numpy and the corpus, series and
sharpness modules when they run.

Reports are JSON (default) or RFC-4180-style CSV with a header row; numbers
are printed with 17 significant digits in CSV, and JSON uses shortest
round-trip floats.  Identical flags and seed reproduce byte-identical
output.  Exit codes: 0 ok, 1 a failed selftest suite, 2 parameter-domain
error, 3 solver/summation failure, 4 verification failure, 5 sharpness
reconstruction mismatch.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field
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
    majorant_values,
    operator_coeffs,
    quadrature_value,
    required_origin_zeros,
    series_order,
    sup_bound,
)
from .radii import RadiusProblem, radius_curve, solve_radius

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

# Samples per verify batch: one coefficient matrix and one majorant pass each.
VERIFY_BLOCK = 256


@dataclass
class RunReport:
    """One command invocation: parameters in, structured results out."""

    command: str
    params: dict
    results: dict
    seed: int
    version: str = __version__
    csv_header: tuple = field(default=(), repr=False)
    csv_rows: list = field(default_factory=list, repr=False)  # dicts keyed by the header

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "params": self.params,
            "results": self.results,
            "seed": self.seed,
            "version": self.version,
        }
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(self.csv_header)
        for row in self.csv_rows:
            writer.writerow([_csv_cell(row[key]) for key in self.csv_header])
        return buf.getvalue()


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(report: RunReport, args: argparse.Namespace) -> None:
    text = report.to_csv() if args.format == "csv" else report.to_json() + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_FIXED_KINDS = {
    "libera": Libera,
    "alexander": Alexander,
    "primitive": PrimitiveI,
    "bohr": ClassicalBohr,
}


def _rounding_tol(bound: float) -> float:
    """How far past ``bound`` a computed value may land by rounding alone.

    Absolute 1e-9, or 1e-12 of the bound once the bound passes 1000.
    """
    return max(1e-9, 1e-12 * bound)


def _operator_kind(args: argparse.Namespace) -> OperatorKind:
    op = args.op
    if op in ("cesaro", "cbeta"):
        if args.beta is None:
            raise ParameterDomainError(f"--beta is required for the {op} operator")
        return CesaroBeta(args.beta) if op == "cesaro" else CBeta(args.beta)
    if op == "bernardi":
        if args.gamma is None:
            raise ParameterDomainError("--gamma is required for the bernardi operator")
        return Bernardi(args.gamma, args.m or 0)
    if op in _FIXED_KINDS:
        return _FIXED_KINDS[op]()
    raise ParameterDomainError(f"unknown operator {op!r}")


def _operator_params(args: argparse.Namespace) -> dict:
    return {"op": args.op, "beta": args.beta, "gamma": args.gamma, "m": args.m}


def cmd_radius(args: argparse.Namespace) -> tuple:
    family = _operator_kind(args).family
    result = solve_radius(RadiusProblem(family), args.tol)
    results = asdict(result)
    lo, hi = result.bracket
    report = RunReport(
        command="radius",
        params={**_operator_params(args), "tol": args.tol},
        results=results,
        seed=args.seed,
        csv_header=("root", "residual", "bracket_lo", "bracket_hi", "iterations"),
        csv_rows=[{**results, "bracket_lo": lo, "bracket_hi": hi}],
    )
    return report, EXIT_OK


def _parse_grid(args: argparse.Namespace) -> list:
    if args.grid_values is not None:
        text = args.grid_values.strip()
        if not text:
            return []
        return [float(tok) for tok in text.split(",")]
    if args.grid_points is None:
        raise ParameterDomainError("provide --grid-values or --grid-min/max/points")
    if args.grid_points < 0:
        raise ParameterDomainError("--grid-points must be nonnegative")
    if args.grid_points == 0:
        return []
    if args.grid_points == 1:
        return [args.grid_min]
    step = (args.grid_max - args.grid_min) / (args.grid_points - 1)
    return [args.grid_min + i * step for i in range(args.grid_points)]


def cmd_curve(args: argparse.Namespace) -> tuple:
    grid = _parse_grid(args)
    if args.op == "cesaro":
        entries = [(b, RadiusProblem(CesaroBeta(b))) for b in grid]
    else:
        m = args.m or 0
        entries = [(g, RadiusProblem(Bernardi(g, m))) for g in grid]
    rows = [
        {"param": row.parameter, "root": row.root, "residual": row.residual}
        for row in radius_curve(entries, args.tol)
    ]
    report = RunReport(
        command="curve",
        params={
            "op": args.op,
            "m": args.m,
            "grid": grid,
            "tol": args.tol,
        },
        results={"rows": rows},
        seed=args.seed,
        csv_header=("param", "root", "residual"),
        csv_rows=rows,
    )
    return report, EXIT_OK


def cmd_verify(args: argparse.Namespace) -> tuple:
    import numpy as np

    from .corpus import derive_seed, expand, random_schur_block
    from .sharpness import critical_radius, violation_search

    if args.samples < 1:
        raise ParameterDomainError(f"--samples must be >= 1, got {args.samples}")

    kind = _operator_kind(args)
    critical = critical_radius(kind.family, args.tol)

    if args.r_mode == "below":
        r = 0.99 * critical
    elif args.r_mode == "at":
        r = critical
    else:
        r = args.r if args.r is not None else min(critical + max(0.02, 20 * args.tol), 0.98)

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
        results = asdict(outcome)
        witness = "" if outcome.witness is None else outcome.witness
        report = RunReport(
            command="verify",
            params=params,
            results=results,
            seed=args.seed,
            csv_header=("r", "bound", "witness", "majorant", "margin", "attempts"),
            csv_rows=[{**results, "r": r, "witness": witness}],
        )
        if not outcome.found:
            print(
                f"no violation witness for {args.op} at r={r} (margin {outcome.margin})",
                file=sys.stderr,
            )
            return report, EXIT_VERIFY
        return report, EXIT_OK

    bound = sup_bound(kind, r)
    zeros_needed = required_origin_zeros(kind)
    # A bound below 1 scales the majorant cut and the rounding allowance, so
    # that neither swallows the whole bound.
    scale = min(1.0, bound)
    eps, tol = DEFAULT_MAJORANT_EPS * scale, _rounding_tol(bound) * scale
    # Sample every coefficient the family's weight vector reads, no more; a
    # vector cut before w_m (the whole series below eps) leaves the zeros.
    order = max(kind.d + series_order(kind.family, r, eps), zeros_needed)
    violations, first_violation, worst = 0, None, -math.inf
    for start in range(0, args.samples, VERIFY_BLOCK):
        indices = np.arange(start, min(start + VERIFY_BLOCK, args.samples), dtype=np.uint64)
        seeds = derive_seed(args.seed, indices)
        h0, zeros, live = random_schur_block(seeds, args.max_factors, args.radius_cap)
        # The origin zeros the operand needs are leading zero columns.
        coeffs = np.zeros((len(seeds), order + 1), dtype=np.complex128)
        coeffs[:, zeros_needed:] = expand(h0, zeros, live, order - zeros_needed)
        excesses = [v - bound for v in majorant_values(kind, coeffs, r, eps)]
        worst = max(worst, *excesses)
        over = [(i, e) for i, e in enumerate(excesses) if e > tol]
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
    report = RunReport(
        command="verify",
        params=params,
        results=results,
        seed=args.seed,
        csv_header=("r", "bound", "samples", "violations", "max_excess"),
        csv_rows=[{**results, "r": r, "samples": args.samples}],
    )
    if violations:
        print(
            f"{violations} majorant violations; first at sample "
            f"{first_violation['index']} (seed {first_violation['seed']})",
            file=sys.stderr,
        )
        return report, EXIT_VERIFY
    return report, EXIT_OK


def _parse_a_values(text: str) -> list:
    values = [float(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise ParameterDomainError("the a-grid is empty")
    return values


def cmd_sharpness(args: argparse.Namespace) -> tuple:
    from .sharpness import decomposition

    kind = _operator_kind(args)
    if args.r is None:
        raise ParameterDomainError("--r is required for the sharpness command")
    a_values = _parse_a_values(args.a_values)
    rows = []
    worst_recon, mismatched = 0.0, False
    for a in a_values:
        dec = decomposition(kind, a, args.r, DEFAULT_MAJORANT_EPS)
        worst_recon = max(worst_recon, dec.reconstruction_error)
        mismatched |= dec.reconstruction_error > _rounding_tol(dec.bound_term)
        ratio = dec.remainder / (1.0 - a) ** 2 if a < 1.0 else float("nan")
        rows.append(
            {
                "a": a,
                **asdict(dec),
                "reconstruction_error": dec.reconstruction_error,
                "remainder_ratio": ratio,
            }
        )
    report = RunReport(
        command="sharpness",
        params={**_operator_params(args), "r": args.r, "a_values": a_values},
        results={"rows": rows, "max_reconstruction_error": worst_recon},
        seed=args.seed,
        csv_header=tuple(rows[0]),
        csv_rows=rows,
    )
    if mismatched:
        print(
            f"reconstruction mismatch {worst_recon} exceeds 1e-9 or 1e-12 of the bound",
            file=sys.stderr,
        )
        return report, EXIT_SHARPNESS
    return report, EXIT_OK


def _selftest_suites(seed: int) -> list:
    import numpy as np

    from .corpus import (
        derive_seed,
        multiply_by_z,
        random_schur,
        suggested_order,
        taylor_coeffs,
        taylor_matrix,
    )
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
    worst = max(
        [concavity_check(CesaroBeta(b), r, grid) for b in (0.5, 1.0, 2.0) for r in (0.3, 0.6)]
        + [
            concavity_check(Bernardi(g, m), r, grid)
            for (g, m) in ((1.0, 0), (0.0, 1), (2.0, 1))
            for r in (0.3, 0.6)
        ]
    )
    suites.append(
        {"suite": "envelope-concavity", "passed": bool(worst <= 1e-10), "detail": float(worst)}
    )

    fs = [random_schur(derive_seed(seed, i), 4, 0.9) for i in range(24)]
    rows = np.abs(taylor_matrix(fs, 200))
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
        f = random_schur(derive_seed(seed, 100 + i), 3, 0.9)
        f = multiply_by_z(f, required_origin_zeros(kind))
        order = max(suggested_order(f, 1e-13), 160)
        image = operator_coeffs(kind, taylor_coeffs(f, order), order)
        series_val = horner(image, z)
        quad_val = quadrature_value(kind, f, z, DEFAULT_QUAD_TOL)
        worst = max(worst, abs(series_val - quad_val))
    suites.append(
        {"suite": "series-vs-quadrature", "passed": bool(worst <= 1e-8), "detail": float(worst)}
    )
    return suites


def cmd_selftest(args: argparse.Namespace) -> tuple:
    suites = _selftest_suites(args.seed)
    all_pass = all(s["passed"] for s in suites)
    report = RunReport(
        command="selftest",
        params={},
        results={"suites": suites, "all_passed": all_pass},
        seed=args.seed,
        csv_header=("suite", "passed", "detail"),
        csv_rows=suites,
    )
    return report, EXIT_OK if all_pass else EXIT_SELFTEST


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohrlab",
        description="Radii, verification sweeps, and sharpness experiments "
        "for integral operators on bounded analytic functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=DEFAULT_SOLVER_TOL)

    def operator_flags(p: argparse.ArgumentParser, ops: tuple) -> None:
        p.add_argument("--op", choices=ops, required=True)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)
        p.add_argument("--m", type=int, default=None)

    all_ops = ("cesaro", "cbeta", "bernardi", "libera", "alexander", "primitive")

    p = sub.add_parser("radius", help="solve the radius equation")
    operator_flags(p, all_ops)
    common(p)

    p = sub.add_parser("curve", help="radius sweep over a parameter grid")
    p.add_argument("--op", choices=("cesaro", "bernardi"), required=True)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--grid-min", type=float, default=None)
    p.add_argument("--grid-max", type=float, default=None)
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--grid-values", default=None, help="comma-separated grid")
    common(p)

    p = sub.add_parser("verify", help="inequality sweep over a seeded corpus")
    operator_flags(p, all_ops + ("bohr",))
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--r-mode", choices=("below", "at", "above"), default="below")
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--max-factors", type=int, default=4)
    p.add_argument("--radius-cap", type=float, default=0.9)
    common(p)

    p = sub.add_parser("sharpness", help="extremal decompositions over an a-grid")
    operator_flags(p, all_ops)
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = _HANDLERS[args.command](args)
    except (ParameterDomainError, PreconditionError) as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except _SOLVER_ERRORS as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
