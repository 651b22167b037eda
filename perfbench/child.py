"""One benchmark child: a fresh interpreter that sets up and runs one pass.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the checkout root, whether to load fixtures as part of
set-up, the cases to run in order (empty for a set-up-only child) and
whether to install the tracing wrappers. Around the cases it times a fixed
reference kernel (see `reference`). The child writes one JSON object to its
standard output; everything the cases print is captured and returned in
that object.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from fractions import Fraction

REFERENCE_LOOPS = 20000  # about 0.1 to 0.2 s on a 2.1 GHz Xeon


def reference():
    """Time a fixed amount of stdlib-only work: Fraction-keyed dict updates.

    It shares no code with comphomfly, so only the machine's speed at that
    moment changes it. Runs before the first operation and after each one.
    """
    t0 = time.perf_counter()
    acc = {}
    for i in range(REFERENCE_LOOPS):
        key = (Fraction(i % 37, 2), Fraction(i % 11, 2))
        acc[key] = acc.get(key, 0) + i
    return time.perf_counter() - t0


def run_case(case):
    """Run one operation through a public entry point; time only the call."""
    from comphomfly import cli, rosso
    from comphomfly.partitions import CompositeDiagram
    from comphomfly.qexact import dumps_poly

    out, err = io.StringIO(), io.StringIO()
    code, error, poly = 0, None, None
    if case["kind"] == "oracle":
        diagram = CompositeDiagram.parse(case["color"])
        args = (rosso.TorusKnot.parse(case["knot"]), diagram.lam, diagram.mu, case["N"])
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if case["kind"] == "cli":
                code = cli.main(case["argv"])
            else:
                poly = rosso.finite_N_oracle(*args)
    except Exception:
        error = traceback.format_exc(limit=-3)
    seconds = time.perf_counter() - t0
    if poly is not None:
        meta = {"knot": case["knot"], "color": case["color"], "N": case["N"]}
        out.write(dumps_poly(poly, meta))
    return {
        "id": case["id"],
        "s": seconds,
        "exit": code,
        "error": error,
        "out": out.getvalue(),
        "stderr": err.getvalue()[-2000:],
    }


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)

    import comphomfly.cli  # set-up: what every CLI invocation pays

    if spec["fixtures"]:
        comphomfly.verify.load_fixtures()
    result = {"ready": time.monotonic(), "module": os.path.abspath(comphomfly.__file__)}
    if not result["module"].startswith(os.path.abspath(src) + os.sep):
        raise SystemExit("comphomfly imported from outside the checkout: %s" % result["module"])

    if spec["cases"]:
        tracer = None
        if spec["trace"]:
            import tracing

            tracer = tracing.install()
        ops, before = [], reference()
        for case in spec["cases"]:
            op = run_case(case)
            after = reference()
            op["ref_s"] = (before + after) / 2
            ops.append(op)
            before = after
        result["ops"] = ops
        if tracer:
            result["layers"] = tracer.metrics()
        import tracing  # only to scan; an untraced child must find no wrapper

        result["wrapped"] = tracing.count_wrapped()
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
