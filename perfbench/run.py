"""Cold-start benchmark of comphomfly: compute, oracle, verify and expand.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload engine-ladder --seed 1 --seconds 25 --trace 0

Every pass runs in a fresh interpreter, one operation at a time, through the
public entry points `cli.main` and `rosso.finite_N_oracle`, because a user
pays the cold cost on every CLI invocation. The seed permutes the case order
of each pass. Every output is checked against the checksums in
expected.json, recorded from the program as it was when the benchmark was
written. Each operation's time is also divided by a reference kernel timed
right before and after it, which cancels most of the drift in the shared
machine's speed (README.md). `--trace 0` prints the end-to-end metrics;
`--trace 1` alternates untraced and traced passes and prints the per-layer
metrics. The metric names and units come from BENCHMARK.json. The last line
of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
EXPECTED = os.path.join(HERE, "expected.json")

SETUP_PER_PASS = 4  # set-up-only children before each pass
MIN_PASSES = 2
DEADLINE_S = 170  # the whole run, including set-up, ends within this


def _compute(knot, color):
    return {
        "id": "compute T(%s) [%s]" % (knot, color),
        "kind": "cli",
        "argv": ["compute", "--knot", knot, "--color", color, "--format", "term-file"],
    }


def _expand(color):
    return {
        "id": "expand [%s] r=3" % color,
        "kind": "cli",
        "argv": ["expand", "--color", color, "--r", "3"],
    }


def _oracle(N):
    return {
        "id": "oracle T(3,2) [2,1|2,1] N=%d" % N,
        "kind": "oracle",
        "knot": "3,2",
        "color": "2,1|2,1",
        "N": N,
    }


# why each workload is there is written in BENCHMARK.json and README.md
WORKLOADS = {
    "engine-ladder": {
        "fixtures": False,
        "cases": [
            _compute(k, c)
            for k, c in (
                ("3,2", "1|1"),
                ("5,2", "2|1"),
                ("4,3", "1|1"),
                ("4,3", "2|1"),
                ("3,2", "2|2,1"),
                ("4,3", "2|2"),
                ("3,2", "2,1|2,1"),
            )
        ],
    },
    "oracle-ranks": {"fixtures": False, "cases": [_oracle(N) for N in (4, 5, 6, 7)]},
    "verify-all": {
        "fixtures": True,
        "cases": [{"id": "verify --suite all", "kind": "cli", "argv": ["verify", "--suite", "all"]}],
    },
    "expand-adams": {
        "fixtures": False,
        "cases": [_expand(c) for c in ("2,1|2,1", "2,2|2", "3,1|2,1", "2,2|2,2")],
    },
}

# verify-all is gated on its exit code and on FAIL lines, not on a checksum:
# its PASS/SKIP split may legitimately change when a check is repaired
GATED_BY_FAIL_LINES = "verify-all"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def spawn(spec, timeout):
    """Run one child to completion; returns (parsed output, spawn time)."""
    # no inherited PYTHON* settings; a fixed hash seed removes one source of
    # timing differences between children
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONHASHSEED"] = "0"
    spec = dict(spec, root=ROOT)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, json.dumps(spec)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1),
        )
    except subprocess.TimeoutExpired:
        return None, t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        return None, t0
    return json.loads(proc.stdout.splitlines()[-1]), t0


def judge(workload, op, expected):
    """Why an operation failed, or None when its output is correct."""
    if op.get("error"):
        return "raised: %s" % op["error"].strip().splitlines()[-1]
    if op["exit"] != 0:
        return "exit code %s" % op["exit"]
    if workload == GATED_BY_FAIL_LINES:
        fails = [line for line in op["out"].splitlines() if line.startswith("FAIL")]
        return "%d FAIL lines" % len(fails) if fails else None
    if digest(op["out"]) != expected.get(op["id"]):
        return "output checksum mismatch"
    return None


def judge_pass(workload, child, traced, cases, expected, first_digests):
    """Failure reasons of one pass, one entry per attempted operation.

    `first_digests` maps case id to the output digest of the first pass that
    produced it; every later pass, traced or not, must reproduce it.
    """
    if child is None:
        return [(case["id"], "child process failed or timed out") for case in cases]
    wrapped = child["wrapped"]
    if traced and not wrapped:
        return [(op["id"], "traced child installed no wrappers") for op in child["ops"]]
    if not traced and wrapped:
        return [(op["id"], "tracing wrappers in an untraced child") for op in child["ops"]]
    reasons = []
    for op in child["ops"]:
        why = judge(workload, op, expected)
        first = first_digests.setdefault(op["id"], digest(op["out"]))
        if why is None and digest(op["out"]) != first:
            why = "output differs from an earlier pass"
        reasons.append((op["id"], why))
    return reasons


def tally(passes):
    """Attempted operations and the failed ones, as (pass, case id, reason)."""
    attempted, failures = 0, []
    for i, reasons in enumerate(passes):
        attempted += len(reasons)
        failures.extend((i, cid, why) for cid, why in reasons if why)
    return attempted, failures


# printed beside the end-to-end metrics: the raw times the normalized ones
# come from
RAW_UNITS = {"wall_s": "s", "max_case_s": "s", "ref_s": "s"}


def pass_samples(children):
    """Per-pass samples of the raw and reference-normalized pass times.

    The machine this runs on changes speed by tens of percent within
    seconds, because other tenants share it. Each operation's time is
    divided by the reference kernel timed right before and after it, which
    cancels most of that drift; the quotient is in units of the kernel.
    """
    out = {name: [] for name in ("wall_s", "max_case_s", "ref_s", "wall_ref", "max_case_ref")}
    for child in children:
        ops = child["ops"]
        out["wall_s"].append(sum(op["s"] for op in ops))
        out["max_case_s"].append(max(op["s"] for op in ops))
        out["ref_s"].append(statistics.median(op["ref_s"] for op in ops))
        out["wall_ref"].append(sum(op["s"] / op["ref_s"] for op in ops))
        out["max_case_ref"].append(max(op["s"] / op["ref_s"] for op in ops))
    return out


def environment(args):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def git_commit():
    """The checkout's commit read from .git, or None outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def describe(samples, unit):
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    text = "median=%.6g %s n=%d" % (statistics.median(ordered), unit, n)
    if n >= 11:
        k = n - 11  # 0-based index with n - 1 - k = 10 samples above it
        text += " p%d=%.6g %s" % (100 * (k + 1) // n, ordered[k], unit)
    else:
        text += " (no percentile has 10 samples beyond it)"
    return text


def load_config():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "comphomfly", "__init__.py")):
        raise BenchError("no comphomfly sources under %s" % os.path.join(ROOT, "src"))
    try:
        with open(path) as f:
            config = json.load(f)
        with open(EXPECTED) as f:
            expected = json.load(f)
    except (OSError, ValueError) as err:
        raise BenchError("cannot read benchmark configuration: %s" % err)
    return config, expected


def run(args, config, expected):
    start = time.monotonic()
    deadline = start + DEADLINE_S
    work = WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    def remaining():
        return deadline - time.monotonic()

    # the first child compiles the sources to bytecode, as an install would
    setup_only = {"fixtures": work["fixtures"], "cases": [], "trace": False}
    if spawn(setup_only, remaining())[0] is None:
        raise BenchError("the program does not import")

    setups = []
    passes = []  # (traced, child or None, failure reasons)
    first_digests = {}
    begin = time.monotonic()
    while True:
        # set-up samples are spread over the run, as the machine's speed drifts
        for _ in range(SETUP_PER_PASS):
            child, t0 = spawn(setup_only, remaining())
            if child is None:
                raise BenchError("a set-up child failed")
            setups.append(child["ready"] - t0)
        traced = bool(args.trace) and len(passes) % 2 == 1
        order = list(work["cases"])
        rng.shuffle(order)
        spec = {"fixtures": work["fixtures"], "cases": order, "trace": traced}
        child, t0 = spawn(spec, remaining())
        if child is not None:
            setups.append(child["ready"] - t0)
        reasons = judge_pass(args.workload, child, traced, order, expected[args.workload], first_digests)
        passes.append((traced, child, reasons))
        elapsed = time.monotonic() - begin
        mean = elapsed / len(passes)
        # a pass may start if at most half of it would run past --seconds
        if len(passes) >= MIN_PASSES and elapsed + mean / 2 > args.seconds:
            break
        if child is None or mean > remaining():
            break

    plain = [c for t, c, _ in passes if not t and c is not None]
    traced_children = [c for t, c, _ in passes if t and c is not None]
    attempted, failures = tally(reasons for _, _, reasons in passes)

    samples = {"setup_s": setups}
    if plain:
        samples.update(pass_samples(plain))
        samples["peak_rss_mb"] = [c["rss_kb"] / 1024 for c in plain]
    print("env %s" % json.dumps(environment(args), sort_keys=True))
    units = dict(RAW_UNITS, **{spec["name"]: spec["unit"] for spec in config["end_to_end"]})
    for name in sorted(samples):
        print("sample %s %s" % (name, describe(samples[name], units[name])))
    for case in work["cases"]:
        times = [op["s"] for c in plain for op in c["ops"] if op["id"] == case["id"]]
        if times:
            print("case %-26s %s" % (case["id"], describe(times, "s")))
    if args.workload == GATED_BY_FAIL_LINES and plain:
        summary = plain[0]["ops"][0]["out"].strip().splitlines()[-1]
        print("verify %s (recorded: %s)" % (summary, json.dumps(expected[args.workload], sort_keys=True)))
    for i, cid, why in failures:
        print("FAILED pass %d %s: %s" % (i, cid, why))
    print("fail_frac %d/%d = %.6g" % (len(failures), attempted, len(failures) / attempted))

    metrics = {}
    if args.trace:
        if not plain or not traced_children:
            raise BenchError("no complete untraced and traced pass pair")
        for spec in config["per_layer"]:
            name = spec["name"]
            if name == "trace_overhead_frac":
                traced_wall = statistics.median(pass_samples(traced_children)["wall_ref"])
                value = traced_wall / statistics.median(samples["wall_ref"]) - 1
            else:
                value = statistics.median_low(c["layers"][name] for c in traced_children)
            metrics[name] = {"value": value, "unit": spec["unit"]}
    else:
        for spec in config["end_to_end"]:
            if spec["name"] not in samples:
                raise BenchError("no complete pass to measure %s" % spec["name"])
            metrics[spec["name"]] = {
                "value": statistics.median(samples[spec["name"]]),
                "unit": spec["unit"],
            }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        config, expected = load_config()
        result = run(args, config, expected)
    except BenchError as err:
        print("benchmark error: %s" % err, file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
