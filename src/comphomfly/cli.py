"""Command-line front end: compute invariants, dump expansions, verify.

All data goes to stdout in deterministic order; diagnostics go to stderr.
Exit codes: 0 success, 1 verification failure, 2 usage/parse error,
3 engine failure (a typed arithmetic error).
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
)
from .rosso import TorusKnot, composite_homfly
from .symfunc import composite_adams, format_expansion
from . import verify


def _parse_color(args):
    if args.weight:
        left, sep, right = args.weight.partition("|")
        if not sep:
            raise ValueError("weight color needs a '|': %r" % args.weight)
        return parse_weight(left), parse_weight(right)
    return CompositeDiagram.parse(args.color)


def cmd_compute(args):
    try:
        knot = TorusKnot.parse(args.knot)
        lam, mu = _parse_color(args)
    except (ValueError, KeyError) as err:
        print("argument error: %s" % err, file=sys.stderr)
        return 2
    try:
        result = composite_homfly(knot, lam, mu)
    except (ResidualRankError, InexactDivisionError, IntegralityError) as err:
        print("engine failure: %s" % err, file=sys.stderr)
        return 3
    if args.show_terms:
        # table rows as printed in the source: the color's own row first
        # (needed for normalization even at coefficient 0), then the
        # expansion keys with their raw eigenvalues and dimensions
        from .rosso import braiding_eigenvalue, quantum_dimension

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
                    braiding_eigenvalue(beta, gamma).render(),
                    coeff,
                    quantum_dimension(beta, gamma).render(),
                )
            )
        return 0
    if args.unnormalized:
        for term in result.terms:
            print(term.render())
        return 0
    poly = result.normalized
    if args.format == "term-file":
        sys.stdout.write(
            dumps_poly(poly, {"knot": str(knot), "color": "%s|%s" % (lam, mu)})
        )
    elif args.format == "summary":
        print(
            json.dumps(
                {
                    "knot": str(knot),
                    "color": "%s|%s" % (lam, mu),
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
    except (ValueError, KeyError) as err:
        print("argument error: %s" % err, file=sys.stderr)
        return 2
    expansion = composite_adams(lam, mu, r)
    text = format_expansion(expansion)
    if text:
        print(text)
    return 0


def cmd_verify(args):
    root = args.fixtures or os.environ.get("COMPHOMFLY_FIXTURES")
    try:
        fixtures = verify.load_fixtures(root)
    except (FileNotFoundError, ValueError) as err:
        print("fixture error: %s" % err, file=sys.stderr)
        return 2 if args.strict else 1
    try:
        reports = verify.run_suite(args.suite, fixtures)
    except KeyError as err:
        print("argument error: %s" % err, file=sys.stderr)
        return 2
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
    color = compute.add_mutually_exclusive_group(required=True)
    color.add_argument("--color", help="composite diagram 'lam|mu', rows comma-separated, 0 for empty")
    color.add_argument("--weight", help="fundamental-weight form, e.g. '2w1+w3|w1'")
    compute.add_argument("--show-terms", action="store_true", help="print the factored expansion table")
    compute.add_argument("--unnormalized", action="store_true", help="print the factored unnormalized sum")
    compute.add_argument(
        "--format", choices=("text", "term-file", "summary"), default="text"
    )
    compute.set_defaults(func=cmd_compute)

    expand = sub.add_parser("expand", help="composite Adams expansion of a color")
    xcolor = expand.add_mutually_exclusive_group(required=True)
    xcolor.add_argument("--color")
    xcolor.add_argument("--weight")
    expand.add_argument("--r", required=True, help="Adams direction, a positive integer")
    expand.set_defaults(func=cmd_expand)

    check = sub.add_parser("verify", help="run the fixture verification suites")
    check.add_argument(
        "--suite",
        default="all",
        choices=("connection", "duality", "evaluation", "exceptional", "oracle", "all"),
    )
    check.add_argument("--fixtures", help="fixture directory override")
    check.add_argument("--strict", action="store_true", help="exit 2 when fixtures are missing")
    check.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
