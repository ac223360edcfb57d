"""Command-line front end: counts, verification sweeps, correlations, zeta.

Exact integers are always emitted as decimal strings.  The verbs raise on bad
input; ``main`` alone writes the error to stderr and picks the exit code: 0 for
success, 1 for a verification failure, 2 for usage or validation errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import arith, asymptotics, matrices, oracle, regions
from .zeta import verify_injection


def _spec_from_args(args) -> regions.RegionSpec:
    return regions.validate(args.n, args.m, regions.parse_int_list(args.left),
                            regions.parse_int_list(args.right))


def _add_spec_arguments(parser):
    parser.add_argument("--n", type=int, required=True, help="hexagon side n (even)")
    parser.add_argument("--m", type=int, required=True, help="half the horizontal side")
    parser.add_argument("--left", default="", help="comma-separated left-hole positions")
    parser.add_argument("--right", default="", help="comma-separated right-hole positions")


def _emit(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_count(args) -> int:
    spec = _spec_from_args(args)
    result = matrices.count_region(spec, args.kind)
    _emit(result.to_json_dict())
    return 0


def cmd_formulas(args) -> int:
    value = arith.product_formula(args.which, args.n, args.m)
    _emit({"which": args.which, "n": args.n, "m": args.m, "value": str(value)})
    return 0


def cmd_verify(args) -> int:
    for flag, value, least in (("--max-n", args.max_n, 2), ("--max-m", args.max_m, 1),
                               ("--max-p", args.max_p, 0)):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    rows = []
    for spec in regions.spec_grid(args.max_n, args.max_m, args.max_p):
        formula = matrices.count_region(spec, "full").value
        got = oracle.count_tilings(regions.build_region(spec, "full"))
        rows.append((spec.to_text(), formula, got, formula == got))
    failures = sum(not match for *_, match in rows)
    width = max(len(r[0]) for r in rows)
    for text, formula, got, match in rows:
        print(f"{text:<{width}} | {formula} | {got} | {'ok' if match else 'MISMATCH'}")
    print(f"# {len(rows)} specs, {failures} mismatches")
    return 1 if failures else 0


def cmd_correlate(args) -> int:
    spec = _spec_from_args(args)
    report = asymptotics.finite_correlation(spec, args.model)
    _emit(report.__dict__)
    return 0


def cmd_sweep(args) -> int:
    try:
        xi = Fraction(args.xi)
    except (ValueError, ZeroDivisionError):
        xi = None
    if xi is None or xi <= 0:
        raise ValueError(f"--xi must be a positive rational, got {args.xi!r}")
    if bool(args.separations) == bool(args.n_values):
        raise ValueError("sweep needs exactly one of --separations and --n-values")
    given = {"--left": args.left, "--right": args.right, "--scale-holes": args.scale_holes,
             "--size": args.size is not None}
    foreign = ("--left", "--right", "--scale-holes") if args.separations else ("--size",)
    stray = [flag for flag in foreign if given[flag]]
    if stray:
        mode = "--separations" if args.separations else "--n-values"
        raise ValueError(f"a {mode} sweep does not take {', '.join(stray)}")
    fit = None
    if args.separations:
        sweep_args = (200 if args.size is None else args.size, xi,
                      regions.parse_int_list(args.separations), args.model)
        if args.fit:
            reports, slope, intercept = asymptotics.separation_sweep(*sweep_args)
            fit = f"# slope={slope!r} intercept={intercept!r}"
        else:
            reports = list(asymptotics.separation_reports(*sweep_args))
    else:
        sweep_args = (regions.parse_int_list(args.left), regions.parse_int_list(args.right), xi,
                      regions.parse_int_list(args.n_values), args.scale_holes, args.model)
        if args.fit:
            reports, trend = asymptotics.size_sweep(*sweep_args)
            fit = f"# trend={trend!r}"
        else:
            reports = list(asymptotics.size_reports(*sweep_args))
    print(asymptotics.CSV_HEADER)
    for report in reports:
        print(report.csv_row())
    if fit:
        print(fit)
    return 0


def cmd_zeta(args) -> int:
    spec = _spec_from_args(args)
    report = verify_injection(spec, args.kind)
    _emit(report)
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holeyhex",
        description="exact tiling counts and hole interactions for holey hexagons")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("count", help="exact (weighted) tiling count of a region")
    _add_spec_arguments(p)
    p.add_argument("--kind", default="full", choices=matrices.COUNT_KINDS)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("formulas", help="evaluate a classical product formula")
    p.add_argument("--which", required=True, choices=arith.PRODUCT_KINDS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_formulas)

    p = sub.add_parser("verify", help="determinant formulas against the tiling oracle")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--max-m", type=int, default=2)
    p.add_argument("--max-p", type=int, default=2)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("correlate", help="finite-size correlation report")
    _add_spec_arguments(p)
    p.add_argument("--model", default="bulk", choices=asymptotics.MODELS)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("sweep", help="correlation sweeps as CSV")
    p.add_argument("--xi", default="1", help="aspect ratio, rational like 3/2")
    p.add_argument("--model", default="bulk", choices=asymptotics.MODELS)
    p.add_argument("--size", type=int, help="hexagon side for separation sweeps (default 200)")
    p.add_argument("--separations", default="",
                   help="comma list d1,d2,...: hole pairs at -d,+d")
    p.add_argument("--n-values", default="", help="comma list of hexagon sides")
    p.add_argument("--left", default="")
    p.add_argument("--right", default="")
    p.add_argument("--scale-holes", action="store_true",
                   help="treat hole positions as quarters of n")
    p.add_argument("--fit", action="store_true", help="append the fitted exponent")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("zeta", help="exhaustive injection check of the transmission map")
    _add_spec_arguments(p)
    p.add_argument("--kind", default="lower", choices=regions.HALVES)
    p.set_defaults(func=cmd_zeta)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses its own exit codes
        return 2 if exc.code else 0
    try:
        return args.func(args)
    except regions.SpecValidationError as exc:
        for violation in exc.violations:
            print(f"invalid spec: {violation}", file=sys.stderr)
        return 2
    except matrices.RouteMismatchError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
