"""Command-line front end.

Four subcommands: ``verify`` runs the three-way consistency check on
one knot, ``scan`` sweeps a family (or lists the degenerate boundary
vectors), ``qip`` solves a separable lattice minimization, and
``jones`` evaluates a colored polynomial directly.  Each command
returns its exit status, its report lines and its JSON payload, and
``main`` prints the lines, writes the payload, or both.  Exit status 0
means pass/complete, 1 a failed check, 2 bad input.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache

from .degrees import exceptional_scan
from .errors import SlopelabError
from .qip import SeparableQuadratic, lattice_min, varpi
from .tl import colored_jones
from .knots import parse_knot_spec
from .verify import scan, verify


def _report_lines(report) -> list:
    deg = report.degree
    lines = [
        f"knot {report.knot} ({report.family}, {report.crossings} crossings, "
        f"writhe {report.writhe})",
        f"degree: js = {deg.js}  jx = {deg.jx}  case {deg.case}"
        + ("" if deg.strict_ok else "  [outside strict hypotheses]"),
        f"surface: {report.degree.surface_hint}  M = {report.surface.M}  "
        f"slope {report.slope}  2chi/M {report.euler}  {report.verdict}",
    ]
    for check in report.oracle:
        state = "ok" if check.match else "MISMATCH"
        lines.append(
            f"oracle color {check.color}: minimal degree "
            f"{check.measured_min_degree} (predicted "
            f"{check.predicted_min_degree}) {state}"
        )
    lines += [f"reason: {reason}" for reason in report.reasons]
    lines.append("PASS" if report.passed else "FAIL")
    return lines


def _cmd_verify(args):
    report = verify(args.knot, oracle_colors=args.oracle_n, force=args.force)
    return 0 if report.passed else 1, _report_lines(report), report.to_json_dict()


def _cmd_scan(args):
    counts = tuple(args.m) if args.m else (2,)
    if args.exceptional:
        found = exceptional_scan(
            q0_min=args.q0_min, qi_max=args.qi_max, ms=counts if args.m else (2, 3)
        )
        lines = ["exceptional: " + ",".join(str(v) for v in q) for q in found]
        lines.append(f"{len(found)} degenerate twist vectors")
        return 0, lines, [list(q) for q in found]
    reports = scan(
        q0_min=args.q0_min,
        qi_max=args.qi_max,
        tangle_counts=counts,
        oracle_colors=args.oracle_n,
        force=args.force,
    )
    failed = sum(not r.passed for r in reports)
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.knot}: slope {r.slope}, "
        f"2chi/M {r.euler}, {r.verdict}"
        for r in reports
    ]
    lines.append(f"{len(reports)} knots checked, {failed} failures")
    return 1 if failed else 0, lines, [r.to_json_dict() for r in reports]


def _cmd_qip(args):
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
    lines = [
        f"minimizer {opt.minimizer}",
        f"value {opt.value}",
        f"certificate_checked {opt.certificate_checked}",
        f"period {payload['period']}",
    ]
    return 0, lines, payload


def _cmd_jones(args):
    knot = parse_knot_spec(args.knot)
    poly = colored_jones(knot, args.n)
    pairs = sorted((e, c) for e, c in poly.coeffs.items())
    lines = [f"color {args.n}: degrees [{poly.min_degree()}, {poly.degree()}]"]
    lines += [str(poly)] + [f"{exp} {coeff}" for exp, coeff in pairs]
    return 0, lines, {"color": args.n, "coefficients": pairs}


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared: every
    ``main`` call in a process parses with the same one."""
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
        help="tangle count, repeatable: even (default 2), or any positive with --exceptional",
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


def _print(text: str) -> None:
    """Print text to stdout.  A reader that has gone away (a closed
    pipe, as under ``| head -1``) only ends the printing: stdout is
    pointed at os.devnull, so later prints and Python's flush at exit
    write nowhere instead of failing, and the command keeps its status."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status, lines, payload = args.func(args)
        # with --json - the payload owns stdout; the report comes first
        # otherwise, so an unwritable path still prints it
        if args.json != "-":
            _print("\n".join(lines))
        if args.json:
            text = json.dumps(payload, indent=2, sort_keys=True)
            if args.json == "-":
                _print(text)
            else:
                with open(args.json, "w", encoding="ascii") as fh:
                    fh.write(text + "\n")
        return status
    except (SlopelabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
