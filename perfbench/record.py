"""Record the output checksums that the benchmark gates on.

Usage: python3 perfbench/record.py

Runs every workload's cases once, untraced and in the listed order, and
writes expected.json. Run it only on a commit whose outputs are known to be
right: later runs of the benchmark fail any output that differs.
"""

from __future__ import annotations

import json
import sys

import run


def main():
    expected = {}
    for name, work in run.WORKLOADS.items():
        child, _ = run.spawn({"fixtures": work["fixtures"], "cases": work["cases"], "trace": False}, 600)
        if child is None:
            sys.exit("%s: child failed" % name)
        for op in child["ops"]:
            if op["error"] or op["exit"] != 0:
                sys.exit("%s: %s failed: %s" % (name, op["id"], op["error"] or op["exit"]))
        if name == run.GATED_BY_FAIL_LINES:
            summary = child["ops"][0]["out"].strip().splitlines()[-1]
            expected[name] = json.loads(summary.split(" ", 1)[1])
        else:
            expected[name] = {op["id"]: run.digest(op["out"]) for op in child["ops"]}
    with open(run.EXPECTED, "w") as f:
        json.dump(expected, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
