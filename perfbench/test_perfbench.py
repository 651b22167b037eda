"""Tests of the benchmark's own correctness gate and tracing.

Run from the root of a checkout: python3 -m pytest perfbench -q
Each test spawns at most a few children on the cheapest case.
"""

from __future__ import annotations

import json
import os

import run

EXPECTED = json.load(open(run.EXPECTED))
CHEAP = run.WORKLOADS["engine-ladder"]["cases"][0]  # T(3,2) [1|1], ~0.02 s


def one_pass(cases, traced=False):
    child, _ = run.spawn({"fixtures": False, "cases": cases, "trace": traced}, 120)
    assert child is not None
    return child


def flip_first_coefficient(text):
    lines = text.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    coeff, rest = lines[i].split("\t", 1)
    lines[i] = "%d\t%s" % (-int(coeff), rest)
    return "".join(lines)


def test_correct_output_passes_the_gate():
    child = one_pass([CHEAP])
    assert child["ops"][0]["ref_s"] > 0
    reasons = run.judge_pass("engine-ladder", child, False, [CHEAP], EXPECTED["engine-ladder"], {})
    assert run.tally([reasons]) == (1, [])


def test_flipped_coefficient_counts_as_failed():
    child = one_pass([CHEAP])
    child["ops"][0]["out"] = flip_first_coefficient(child["ops"][0]["out"])
    reasons = run.judge_pass("engine-ladder", child, False, [CHEAP], EXPECTED["engine-ladder"], {})
    attempted, failures = run.tally([reasons])
    assert (attempted, len(failures)) == (1, 1)
    assert failures[0][2] == "output checksum mismatch"


def test_raising_operation_counts_as_failed():
    below_rank = dict(run.WORKLOADS["oracle-ranks"]["cases"][0], N=3)  # [2,1|2,1] needs N >= 4
    child = one_pass([below_rank])
    reasons = run.judge_pass("oracle-ranks", child, False, [below_rank], EXPECTED["oracle-ranks"], {})
    attempted, failures = run.tally([reasons])
    assert (attempted, len(failures)) == (1, 1)
    assert "RankTooSmallError" in failures[0][2]


def test_fail_lines_fail_verify_all():
    op = {"id": "verify --suite all", "error": None, "exit": 0,
          "out": "PASS a\nFAIL b\nSUMMARY {}\n"}
    assert run.judge("verify-all", op, EXPECTED["verify-all"]) == "1 FAIL lines"
    op["out"] = "PASS a\nSKIP b\nSUMMARY {}\n"
    assert run.judge("verify-all", op, EXPECTED["verify-all"]) is None


def test_tracing_is_installed_only_in_the_traced_child_and_changes_no_output():
    plain, traced = one_pass([CHEAP]), one_pass([CHEAP], traced=True)
    assert plain["wrapped"] == 0 and "layers" not in plain
    assert traced["wrapped"] > 0
    first_digests = {}
    for child, is_traced in ((plain, False), (traced, True)):
        reasons = run.judge_pass("engine-ladder", child, is_traced, [CHEAP], EXPECTED["engine-ladder"], first_digests)
        assert run.tally([reasons]) == (1, [])
    # a child whose wrapper state contradicts its role fails every operation
    traced["wrapped"] = 0
    reasons = run.judge_pass("engine-ladder", traced, True, [CHEAP], EXPECTED["engine-ladder"], {})
    assert len(run.tally([reasons])[1]) == 1


def test_engine_time_is_accounted_for_by_its_layers():
    layers = one_pass([CHEAP], traced=True)["layers"]
    parts = (
        layers["symfunc.composite_adams.s"]
        + layers["rosso.terms.s"]
        + layers["rosso.assemble.self_s"]
        + layers["rosso.normalize.s"]
    )
    assert abs(parts - layers["rosso.engine.s"]) < 1e-6
    assert layers["rosso.engine.calls"] == 1
    declared = {m["name"] for m in json.load(open(os.path.join(run.ROOT, "BENCHMARK.json")))["per_layer"]}
    assert declared == set(layers) | {"trace_overhead_frac"}
    assert layers["rosso.out_terms"] == 16
