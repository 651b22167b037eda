"""Command-line front end: compute invariants, dump expansions, verify.

Each choice has one option: `compute --format` selects which of five
outputs it prints, and `verify --fixtures` names the fixture directory
(the package's own by default).  All data goes to stdout in deterministic
order; diagnostics go to stderr.  Exit codes, for every command: 0 success,
1 verification failure or a fixture error, 2 usage/parse error, 3 engine
failure (a typed arithmetic error, reported by `main` alone), 141 stdout
closed before the output was written (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .partitions import CompositeDiagram, parse_weight
from .qexact import (
    InexactDivisionError,
    IntegralityError,
    ResidualRankError,
    dumps_poly,
    render_quotient,
)
from .rosso import TorusKnot, braiding_eigenvalue, composite_homfly, quantum_dimension
from .symfunc import AbacusError, composite_adams, format_expansion
from . import verify

_ENGINE_ERRORS = (ResidualRankError, InexactDivisionError, IntegralityError, AbacusError)


def _parse_color(args):
    if args.weight:
        left, sep, right = args.weight.partition("|")
        if not sep:
            raise ValueError("weight color needs a '|': %r" % args.weight)
        return CompositeDiagram(parse_weight(left), parse_weight(right))
    return CompositeDiagram.parse(args.color)


def cmd_compute(args):
    try:
        knot = TorusKnot.parse(args.knot)
        color = _parse_color(args)
    except ValueError as err:
        print("argument error: %s" % err, file=sys.stderr)
        return 2
    lam, mu = color
    result = composite_homfly(knot, lam, mu)
    poly = result.normalized
    if args.format == "terms":
        # table rows as printed in the source: the color's own row first
        # (needed for normalization even at coefficient 0), then the
        # expansion keys with their raw eigenvalues and dimensions
        rows = [(lam, mu, 0)] if not any(
            (t.beta, t.gamma) == (lam, mu) for t in result.terms
        ) else []
        rows.extend((t.beta, t.gamma, t.coefficient) for t in result.terms)
        for beta, gamma, coeff in rows:
            print(
                "%s|%s\ttheta=%s\tc=%d\tdim=%s"
                % (
                    beta,
                    gamma,
                    braiding_eigenvalue(beta, gamma).render_power(),
                    coeff,
                    render_quotient(*quantum_dimension(beta, gamma)),
                )
            )
    elif args.format == "unnormalized":
        for term in result.terms:
            print(term.render())
    elif args.format == "term-file":
        sys.stdout.write(dumps_poly(poly, {"knot": str(knot), "color": str(color)}))
    elif args.format == "summary":
        print(
            json.dumps(
                {
                    "knot": str(knot),
                    "color": str(color),
                    "terms": len(poly.terms),
                    "a_degree": str(poly.degree("a")),
                    "polynomial": str(poly),
                },
                sort_keys=True,
            )
        )
    else:
        print(poly)
    return 0


def cmd_expand(args):
    try:
        lam, mu = _parse_color(args)
        r = int(args.r)
        if r < 1:
            raise ValueError("r must be >= 1")
    except ValueError as err:
        print("argument error: %s" % err, file=sys.stderr)
        return 2
    text = format_expansion(composite_adams(lam, mu, r))
    if text:
        print(text)
    return 0


def cmd_verify(args):
    try:
        reports = verify.run_suite(args.suite, verify.load_fixtures(args.fixtures))
    except verify.FixtureError as err:
        print("fixture error: %s" % err, file=sys.stderr)
        return 1
    for report in reports:
        print(report.line())
        if report.status == "FAIL":
            print("  left:  %s" % report.left, file=sys.stderr)
            print("  right: %s" % report.right, file=sys.stderr)
    counts = verify.summarize(reports)
    print("SUMMARY %s" % json.dumps(counts, sort_keys=True))
    return 1 if counts.get("FAIL") else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="comphomfly",
        description="Exact composite torus-knot polynomials and their verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="normalized invariant of a torus knot")
    compute.add_argument("--knot", required=True, help="torus knot as 'r,s'")
    expand = sub.add_parser("expand", help="composite Adams expansion of a color")
    for command in (compute, expand):
        color = command.add_mutually_exclusive_group(required=True)
        color.add_argument("--color", help="composite diagram 'lam|mu', rows comma-separated, 0 for empty")
        color.add_argument("--weight", help="fundamental-weight form, e.g. '2w1+w3|w1'")
    compute.add_argument(
        "--format",
        choices=("text", "term-file", "summary", "terms", "unnormalized"),
        default="text",
        help="the normalized polynomial as text, a term file or a JSON summary; "
        "the factored expansion table; or the factored unnormalized sum",
    )
    compute.set_defaults(func=cmd_compute)
    expand.add_argument("--r", required=True, help="Adams direction, a positive integer")
    expand.set_defaults(func=cmd_expand)

    check = sub.add_parser("verify", help="run the fixture verification suites")
    check.add_argument(
        "--suite",
        default="all",
        choices=(*verify.SUITES, "all"),
    )
    check.add_argument("--fixtures", help="fixture directory")
    check.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader surfaces here, not at exit
        return code
    except _ENGINE_ERRORS as err:
        print("engine failure: %s" % err, file=sys.stderr)
        return 3
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
