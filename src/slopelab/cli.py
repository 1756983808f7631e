"""Command-line front end.

Four subcommands: ``verify`` runs the three-way consistency check on
one knot, ``scan`` sweeps a family (or lists the degenerate boundary
vectors), ``qip`` solves a separable lattice minimization, and
``jones`` evaluates a colored polynomial directly.  Exit status 0
means pass/complete, 1 a failed check, 2 bad input.
"""
from __future__ import annotations

import argparse
import json
import sys

from .degrees import exceptional_scan
from .errors import SlopelabError
from .qip import SeparableQuadratic, lattice_min, varpi
from .tl import colored_jones
from .knots import parse_knot_spec
from .verify import scan, verify


def _write_json(payload, path: str):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text + "\n")


def _json_only(args) -> bool:
    """With --json - the payload owns stdout; suppress the report text."""
    return args.json == "-"


def _print_report(report):
    deg = report.degree
    print(
        f"knot {report.knot} ({report.family}, {report.crossings} crossings, "
        f"writhe {report.writhe})"
    )
    print(
        f"degree: js = {deg.js}  jx = {deg.jx}  case {deg.case}"
        + ("" if deg.strict_ok else "  [outside strict hypotheses]")
    )
    print(
        f"surface: {report.degree.surface_hint}  M = {report.surface.M}  "
        f"slope {report.slope}  2chi/M {report.euler}  {report.verdict}"
    )
    for check in report.oracle:
        state = "ok" if check.match else "MISMATCH"
        print(
            f"oracle color {check.color}: minimal degree "
            f"{check.measured_min_degree} (predicted "
            f"{check.predicted_min_degree}) {state}"
        )
    for reason in report.reasons:
        print(f"reason: {reason}")
    print("PASS" if report.passed else "FAIL")


def _cmd_verify(args) -> int:
    report = verify(args.knot, oracle_colors=args.oracle_n, force=args.force)
    if not _json_only(args):
        _print_report(report)
    if args.json:
        _write_json(report.to_json_dict(), args.json)
    return 0 if report.passed else 1


def _cmd_scan(args) -> int:
    counts = tuple(args.m) if args.m else (2,)
    if args.exceptional:
        found = exceptional_scan(
            q0_min=args.q0_min, qi_max=args.qi_max, ms=counts if args.m else (2, 3)
        )
        if not _json_only(args):
            for q in found:
                print("exceptional:", ",".join(str(v) for v in q))
            print(f"{len(found)} degenerate twist vectors")
        if args.json:
            _write_json([list(q) for q in found], args.json)
        return 0
    reports = scan(
        q0_min=args.q0_min,
        qi_max=args.qi_max,
        tangle_counts=counts,
        oracle_colors=args.oracle_n,
        force=args.force,
    )
    failed = 0
    for report in reports:
        status = "PASS" if report.passed else "FAIL"
        failed += not report.passed
        if not _json_only(args):
            print(
                f"{status} {report.knot}: slope {report.slope}, "
                f"2chi/M {report.euler}, {report.verdict}"
            )
    if not _json_only(args):
        print(f"{len(reports)} knots checked, {failed} failures")
    if args.json:
        _write_json([r.to_json_dict() for r in reports], args.json)
    return 1 if failed else 0


def _cmd_qip(args) -> int:
    a = [int(v) for v in args.a.split(",")]
    b = [int(v) for v in args.b.split(",")]
    f = SeparableQuadratic(tuple(a), tuple(b))
    opt = lattice_min(f, args.t)
    payload = {
        "minimizer": list(opt.minimizer),
        "value": opt.value,
        "certificate_checked": opt.certificate_checked,
        "period": varpi(f),
    }
    if not _json_only(args):
        print(f"minimizer {opt.minimizer}")
        print(f"value {opt.value}")
        print(f"certificate_checked {opt.certificate_checked}")
        print(f"period {payload['period']}")
    if args.json:
        _write_json(payload, args.json)
    return 0


def _cmd_jones(args) -> int:
    knot = parse_knot_spec(args.knot)
    poly = colored_jones(knot, args.n)
    pairs = sorted((e, c) for e, c in poly.coeffs.items())
    if not _json_only(args):
        print(f"color {args.n}: degrees [{poly.min_degree()}, {poly.degree()}]")
        print(poly)
        for exp, coeff in pairs:
            print(f"{exp} {coeff}")
    if args.json:
        _write_json({"color": args.n, "coefficients": pairs}, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopelab",
        description="Degree growth, candidate surfaces, and direct "
        "polynomial checks for pretzel-like knots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="three-way check of one knot")
    p_verify.add_argument("knot", help="knot spec, e.g. p:-7,5,7,3,5 or m:-46/327,1/5")
    p_verify.add_argument(
        "--oracle-n",
        type=int,
        default=None,
        help="top color for direct evaluation (default picked by diagram size)",
    )
    p_verify.add_argument(
        "--force",
        action="store_true",
        help="evaluate formulas outside their proven hypotheses",
    )
    p_verify.add_argument("--json", help="write the JSON report here ('-' = stdout)")
    p_verify.set_defaults(func=_cmd_verify)

    p_scan = sub.add_parser("scan", help="verify a family of strict twist vectors")
    p_scan.add_argument("--q0-min", type=int, default=-9)
    p_scan.add_argument("--qi-max", type=int, default=9)
    p_scan.add_argument(
        "--m",
        type=int,
        action="append",
        help="positive tangle count (repeatable; default 2)",
    )
    p_scan.add_argument("--oracle-n", type=int, default=None)
    p_scan.add_argument("--force", action="store_true")
    p_scan.add_argument(
        "--exceptional",
        action="store_true",
        help="list degenerate boundary vectors instead of verifying",
    )
    p_scan.add_argument("--json", help="write JSON results here ('-' = stdout)")
    p_scan.set_defaults(func=_cmd_scan)

    p_qip = sub.add_parser("qip", help="minimize a separable quadratic on a simplex slice")
    p_qip.add_argument("--a", required=True, help="comma-separated positive leads")
    p_qip.add_argument("--b", required=True, help="comma-separated linear terms")
    p_qip.add_argument("--t", type=int, required=True, help="coordinate sum")
    p_qip.add_argument("--json", help="write JSON result here ('-' = stdout)")
    p_qip.set_defaults(func=_cmd_qip)

    p_jones = sub.add_parser("jones", help="evaluate one colored polynomial")
    p_jones.add_argument("knot")
    p_jones.add_argument("--n", type=int, default=2, help="color (default 2)")
    p_jones.add_argument("--json", help="write JSON result here ('-' = stdout)")
    p_jones.set_defaults(func=_cmd_jones)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SlopelabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
