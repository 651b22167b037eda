import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from comphomfly import cli, verify
from comphomfly.partitions import CompositeDiagram
from comphomfly.qexact import ResidualRankError, dumps_poly
from comphomfly.rosso import TorusKnot, finite_N_oracle


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_fundamental(capsys):
    code, out, err = run(capsys, "compute", "--knot", "3,2", "--color", "0|1")
    assert code == 0
    assert out.strip() == "q^-1*a + q*a - a^2"


def test_compute_is_deterministic(capsys):
    first = run(capsys, "compute", "--knot", "3,2", "--color", "2,1|1")
    second = run(capsys, "compute", "--knot", "3,2", "--color", "2,1|1")
    assert first == second


def test_compute_show_terms_table(capsys):
    code, out, err = run(
        capsys, "compute", "--knot", "3,2", "--color", "1|1", "--show-terms"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # the color row plus five expansion rows
    assert lines[0] == "1|1\ttheta=a^(-1)\tc=0\tdim=[N-1][N+1]"
    assert lines[-1] == "0|0\ttheta=1\tc=1\tdim=1"
    assert "theta=a^(-2)*q^(-2)\tc=1\tdim=[N-1][N]^2[N+3]/[2]^2" in lines[1]
    # the full factored tables pin the term order, which is descending
    # tuple order on (beta, gamma)
    for flag, count, digest in (
        (
            "--show-terms",
            67,
            "cbeb24002fc8f189fe95b1647be91a193bdf33caf3bf9247f05b907ad9ab8259",
        ),
        (
            "--unnormalized",
            66,
            "d339b9d6584831fd407d002c805893a4a31c09fd2478f362141f5c66d2b7bbe8",
        ),
    ):
        code, out, err = run(capsys, "compute", "--knot", "3,2", "--color", "2,1|2,1", flag)
        assert code == 0
        assert len(out.splitlines()) == count
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_compute_unknot(capsys):
    code, out, _ = run(capsys, "compute", "--knot", "2,1", "--color", "1|1")
    assert code == 0 and out.strip() == "1"


def test_compute_weight_form_and_formats(capsys):
    code, out, _ = run(
        capsys, "compute", "--knot", "3,2", "--weight", "w1|w1", "--format", "summary"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["color"] == "1|1" and payload["a_degree"] == "5"
    code, out, _ = run(
        capsys, "compute", "--knot", "3,2", "--color", "0|1", "--format", "term-file"
    )
    assert code == 0
    assert out.startswith("#vars q a\n")
    assert "#checksum sha256:" in out


def test_compute_parse_errors(capsys):
    code, _, err = run(capsys, "compute", "--knot", "3,2", "--color", "nonsense")
    assert code == 2 and "argument error" in err
    code, _, err = run(capsys, "compute", "--knot", "4,2", "--color", "0|1")
    assert code == 2
    code, _, err = run(capsys, "compute", "--knot", "3,2", "--weight", "w1")
    assert code == 2


def test_compute_engine_failure_exit_code(capsys, monkeypatch):
    def boom(knot, lam, mu):
        raise ResidualRankError("synthetic cancellation failure")

    monkeypatch.setattr(cli, "composite_homfly", boom)
    code, _, err = run(capsys, "compute", "--knot", "3,2", "--color", "0|1")
    assert code == 3 and "engine failure" in err


OPTIMIZED_FAILURES = """
import sys
from fractions import Fraction
from comphomfly import cli, macdonald, rosso, symfunc
from comphomfly.partitions import EMPTY, Partition
from comphomfly.qexact import (
    InexactDivisionError, IntegralityError, SymExponent, SymMonomial,
    exact_divide, parse_expr,
)

assert not __debug__, "must run under python -O"
try:
    exact_divide(parse_expr("1+t^2"), parse_expr("1+t"))
    sys.exit("inexact division passed")
except InexactDivisionError:
    pass
# with c_lam = 1 the solve must divide (1+q)(1-t) by 1-qt for P_[2]
macdonald._integral_constant = lambda lam: macdonald.Laurent.one(macdonald.QT)
macdonald._p_coefficients.cache_clear()
try:
    macdonald.macdonald_p(Partition((2,)), 2)
    sys.exit("non-integral Macdonald solve passed")
except InexactDivisionError:
    pass
lam = Partition((1,))
shifted = rosso.braiding_eigenvalue(EMPTY, lam) * SymMonomial(
    1, SymExponent.make(e0=Fraction(1, 7))
)
try:
    expansion = symfunc.composite_adams(EMPTY, lam, 2)
    rosso._assemble(rosso.TorusKnot(3, 2), EMPTY, lam, expansion, shifted)
    sys.exit("fractional normalized exponents passed")
except IntegralityError:
    pass
true_zclass = symfunc.zclass
symfunc.zclass = lambda mu: true_zclass(mu) + 1
try:
    rosso.finite_N_oracle(rosso.TorusKnot(3, 2), EMPTY, Partition((2,)), 3)
    sys.exit("non-integer finite-rank expansion passed")
except IntegralityError as exc:
    if str(exc) != "non-integer finite-rank expansion":
        sys.exit("wrong integrality error: %s" % exc)
sys.exit(cli.main(["compute", "--knot", "3,2", "--color", "0|2"]))
"""


def test_typed_errors_survive_python_O():
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_FAILURES],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 3, proc.stderr
    assert "engine failure: non-integer Adams coefficient" in proc.stderr


def test_expand(capsys):
    code, out, _ = run(capsys, "expand", "--color", "0|1", "--r", "2")
    assert code == 0
    assert out.splitlines() == ["0|2\t1", "0|1,1\t-1"]
    code, out, _ = run(capsys, "expand", "--color", "1|1", "--r", "2")
    assert "0|0\t1" in out.splitlines()
    code, out, _ = run(capsys, "expand", "--color", "0|3,1", "--r", "1")
    assert out.splitlines() == ["0|3,1\t1"]
    code, _, err = run(capsys, "expand", "--color", "0|1", "--r", "0")
    assert code == 2


def test_verify_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "exceptional")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("SUMMARY ")
    counts = json.loads(lines[-1].split(" ", 1)[1])
    assert counts["FAIL"] == 0 and counts["PASS"] >= 8
    statuses = {line.split()[0] for line in lines[:-1]}
    assert statuses <= {"PASS", "SKIP"}


LADDER = [
    ("3,2", "1|1"),
    ("5,2", "2|1"),
    ("4,3", "1|1"),
    ("4,3", "2|1"),
    ("3,2", "2|2,1"),
    ("4,3", "2|2"),
    ("3,2", "2,1|2,1"),
]


def recorded_checksums(workload):
    # sha256 sums of a benchmark workload's outputs, recorded next to the
    # benchmark
    root = pathlib.Path(__file__).resolve().parents[1]
    return json.loads((root / "perfbench" / "expected.json").read_text())[workload]


def test_ladder_term_files_match_recorded_checksums(capsys):
    # the benchmark ladder's term files, byte for byte
    recorded = recorded_checksums("engine-ladder")
    assert len(recorded) == len(LADDER)
    for knot, color in LADDER:
        code, out, _ = run(
            capsys, "compute", "--knot", knot, "--color", color, "--format", "term-file"
        )
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == recorded["compute T(%s) [%s]" % (knot, color)], (knot, color)


EXPAND_COLORS = ("2,1|2,1", "2,2|2", "3,1|2,1", "2,2|2,2")


def test_expand_outputs_match_recorded_checksums(capsys):
    # the benchmark's composite Adams expansions at 6 to 8 boxes, byte for byte
    recorded = recorded_checksums("expand-adams")
    assert len(recorded) == len(EXPAND_COLORS)
    for color in EXPAND_COLORS:
        code, out, _ = run(capsys, "expand", "--color", color, "--r", "3")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == recorded["expand [%s] r=3" % color], color


def test_oracle_outputs_match_recorded_checksums():
    # the benchmark's finite-rank oracle runs, term files byte for byte
    recorded = recorded_checksums("oracle-ranks")
    assert len(recorded) == 4
    knot, color = "3,2", "2,1|2,1"
    diagram = CompositeDiagram.parse(color)
    for N in (4, 5, 6, 7):
        poly = finite_N_oracle(TorusKnot.parse(knot), diagram.lam, diagram.mu, N)
        out = dumps_poly(poly, {"knot": knot, "color": color, "N": N})
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == recorded["oracle T(%s) [%s] N=%d" % (knot, color, N)], N


TRACED_COMPUTE = """
import sys
sys.path[:0] = sys.argv[1:]
import tracing
from comphomfly import cli, rosso
from comphomfly.partitions import Partition
tracer = tracing.install()
code = cli.main(["compute", "--knot", "3,2", "--color", "1|1"])
one = Partition((1,))
rosso.finite_N_oracle(rosso.TorusKnot(3, 2), one, one, 3)
metrics = tracer.metrics()
names = ("rosso.engine.calls", "rosso.out_terms", "rosso.oracle.calls",
         "symfunc.adams_at_rank.calls", "symfunc.adams_at_rank.keys")
print(code, *(metrics[name] for name in names))
"""


def test_benchmark_tracing_wraps_the_engine():
    # the benchmark's tracer patches functions of the package by name, so a
    # rename in the package must fail here, not only in the benchmark's tests;
    # the oracle's T(3,2) [1|1] at N = 3 has 4 Adams keys
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_COMPUTE, str(root / "src"), str(root / "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["0", "1", "16", "1", "1", "4"]


def test_verify_connection_has_eight_passes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "connection")
    assert code == 0
    passes = [l for l in out.splitlines() if l.startswith("PASS connection:")]
    assert len(passes) == 8


def test_verify_failure_exit_code(capsys, tmp_path):
    from comphomfly.qexact import loads_poly

    src = verify.fixture_root()
    dst = tmp_path / "fixtures"
    shutil.copytree(src, dst)
    target = dst / "3_2" / "hd_1__1.poly"
    poly, meta = loads_poly(target.read_text())
    key = next(iter(poly.terms))
    damaged = dict(poly.terms)
    damaged[key] += 1
    from comphomfly.qexact import Laurent

    damaged = Laurent(poly.vars, damaged, poly.den)
    before, after = dict(poly.sorted_terms()), dict(damaged.sorted_terms())
    changed = [e for e in before.keys() | after.keys() if before.get(e) != after.get(e)]
    assert len(changed) == 1
    meta.pop("checksum", None)
    target.write_text(dumps_poly(damaged, meta))
    code, out, err = run(
        capsys, "verify", "--suite", "connection", "--fixtures", str(dst)
    )
    assert code == 1
    assert any(line.startswith("FAIL") for line in out.splitlines())
    assert "left:" in err and "right:" in err


def test_verify_missing_fixtures(capsys, tmp_path):
    code, _, err = run(
        capsys, "verify", "--suite", "connection", "--fixtures", str(tmp_path), "--strict"
    )
    assert code == 2
    code, _, err = run(
        capsys, "verify", "--suite", "connection", "--fixtures", str(tmp_path)
    )
    assert code == 1


def test_verify_env_override(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("COMPHOMFLY_FIXTURES", str(tmp_path))
    code, _, err = run(capsys, "verify", "--suite", "duality")
    assert code == 1  # empty directory from the environment override
