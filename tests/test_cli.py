import argparse
import ast
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

from comphomfly import cli, verify
from comphomfly.partitions import CompositeDiagram, RankTooSmallError
from comphomfly.qexact import InexactDivisionError, ResidualRankError, dumps_poly
from comphomfly.rosso import TorusKnot, finite_N_oracle


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_star_import_binds_every_public_name():
    # a stale __all__ entry makes the star import raise AttributeError
    import comphomfly

    namespace = {}
    exec("from comphomfly import *", namespace)
    assert [name for name in comphomfly.__all__ if name not in namespace] == []


def package_nodes():
    """(file name, node) for every ast node of the package's modules."""
    package = pathlib.Path(cli.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            yield path.name, node


def test_package_is_stdlib_only():
    # the runtime imports only the standard library, declares no
    # dependencies and never runs text as code
    imported, called = set(), set()
    for _, node in package_nodes():
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            imported.add(node.module.split(".")[0])
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            called.add(node.func.id)
    assert imported and imported <= sys.stdlib_module_names, imported
    assert not called & {"eval", "exec", "compile"}
    pyproject = pathlib.Path(cli.__file__).parents[2] / "pyproject.toml"
    assert "dependencies = []" in pyproject.read_text().splitlines()


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so an invariant the package relies
    # on must raise a typed error instead
    found = [
        "%s:%d" % (name, node.lineno)
        for name, node in package_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def identifiers(node):
    """Every name, attribute and string constant under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def test_package_holds_only_reachable_definitions():
    # walk from cli.main, verify's top-level definitions and the names the
    # benchmark's tracer wraps, following every identifier to the top-level
    # functions, classes and assignments of that name; a definition nothing
    # reaches fails here (test-only code lives in tests/), and so does an
    # __all__ name the walk does not reach. A method is reached if it is a
    # dunder or the package reads its name as an attribute somewhere.
    import comphomfly

    root = pathlib.Path(cli.__file__).parents[2]
    tracing = ast.parse((root / "perfbench" / "tracing.py").read_text())
    install = next(n for n in tracing.body if getattr(n, "name", None) == "install")
    roots = ["main", *identifiers(install)]
    defs, bodies, methods = set(), {}, set()
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
                defs.add("%s.%s" % (path.stem, node.name))
                if path.stem == "verify":
                    roots.append(node.name)
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                bodies.setdefault(name, []).append(("%s.%s" % (path.stem, name), node))
            if isinstance(node, ast.ClassDef):
                methods.update(
                    (path.stem, node.name, n.name)
                    for n in node.body
                    if isinstance(n, ast.FunctionDef)
                )
    reached = set()
    while roots:
        for key, node in bodies.get(roots.pop(), ()):
            if key not in reached:
                reached.add(key)
                roots.extend(identifiers(node))
    attributes = {node.attr for _, node in package_nodes() if isinstance(node, ast.Attribute)}
    unread = [
        "%s.%s.%s" % method
        for method in sorted(methods)
        if not (method[2].startswith("__") and method[2].endswith("__"))
        and method[2] not in attributes
    ]
    assert sorted(defs - reached) == []
    assert sorted(set(comphomfly.__all__) - {key.split(".")[1] for key in reached}) == []
    assert unread == []


def test_package_imports_neither_dataclasses_nor_importlib():
    # records are NamedTuples and the fixtures are found beside the package
    # file: the two modules and what they load cost most of the benchmark's
    # setup_s, `import comphomfly.cli`
    found = []
    for name, node in package_nodes():
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [
            "%s:%d" % (name, node.lineno)
            for module in modules
            if module.split(".")[0] in {"dataclasses", "importlib"}
        ]
    assert found == []


def test_package_caches_in_one_place():
    # caching in one place: these five module-level lru_caches and no other
    # functools cache, decorated or called; a table built for one call is a
    # local dict
    names = {"lru_cache", "cache", "cached_property"}
    decorated = sorted(
        "%s.%s" % (name[:-3], node.name)
        for name, node in package_nodes()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        for decorator in node.decorator_list
        if names & set(identifiers(decorator))
    )
    uses = [
        "%s:%d" % (name, node.lineno)
        for name, node in package_nodes()
        if isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.Attribute) and node.attr in names
    ]
    assert decorated == [
        "qexact.bracket",
        "symfunc.adams_coefficients",
        "symfunc.skew_row",
        "symfunc.subpartitions",
        "verify.engine",
    ]
    assert len(uses) == len(decorated), uses


def test_package_imports_no_private_name_across_modules():
    # a `_`-prefixed name belongs to its module, and the format it stands
    # for is known there only: no package module imports one from another
    found = [
        "%s:%d %s" % (name, node.lineno, alias.name)
        for name, node in package_nodes()
        if isinstance(node, ast.ImportFrom)
        and (node.level or node.module.split(".")[0] == "comphomfly")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert found == []


def test_package_reads_no_environment():
    # every choice is a command-line option: no module reads os.environ or
    # calls os.getenv
    found = [
        "%s:%d" % (name, node.lineno)
        for name, node in package_nodes()
        if isinstance(node, ast.Attribute)
        and node.attr in {"environ", "getenv"}
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    ]
    assert found == []


def test_parser_option_strings():
    # one option per choice: a new option has to change this test, and the
    # spellings it replaced are usage errors
    sub = next(
        action
        for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    options = {
        name: [
            option
            for action in parser._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        ]
        for name, parser in sub.choices.items()
    }
    assert options == {
        "compute": ["--knot", "--color", "--weight", "--format"],
        "expand": ["--color", "--weight", "--r"],
        "verify": ["--suite", "--fixtures"],
    }
    for argv in (
        ["compute", "--knot", "3,2", "--color", "1|1", "--show-terms"],
        ["compute", "--knot", "3,2", "--color", "1|1", "--unnormalized"],
        ["verify", "--strict"],
    ):
        assert cli.main(argv) == 2, argv


def test_package_has_no_floats():
    # exactness has tolerance zero: no float literal and no float() call
    found = [
        "%s:%d" % (name, node.lineno)
        for name, node in package_nodes()
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "float"
    ]
    assert found == []


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
        capsys, "compute", "--knot", "3,2", "--color", "1|1", "--format", "terms"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6  # the color row plus five expansion rows
    assert lines[0] == "1|1\ttheta=a^(-1)\tc=0\tdim=[N-1][N+1]"
    assert lines[-1] == "0|0\ttheta=1\tc=1\tdim=1"
    assert "theta=a^(-2)*q^(-2)\tc=1\tdim=[N-1][N]^2[N+3]/[2]^2" in lines[1]
    # the full factored tables pin the term order, which is descending
    # tuple order on (beta, gamma); the unbalanced [2|2,1] prints eigenvalues
    # with a 1/N part, as in q^(-1 + 1/2/N)
    for color, form, count, digest in (
        (
            "2,1|2,1",
            "terms",
            67,
            "cbeb24002fc8f189fe95b1647be91a193bdf33caf3bf9247f05b907ad9ab8259",
        ),
        (
            "2,1|2,1",
            "unnormalized",
            66,
            "d339b9d6584831fd407d002c805893a4a31c09fd2478f362141f5c66d2b7bbe8",
        ),
        (
            "2|2,1",
            "terms",
            31,
            "013af8857829df56ea09d8fada0818c66f404c2d9b96a6be528d210133abe1cb",
        ),
        (
            "2|2,1",
            "unnormalized",
            30,
            "a5735e4105b45cbae9711ccf5612d6ce25b350800240a0e2cd1119490e646840",
        ),
    ):
        code, out, err = run(
            capsys, "compute", "--knot", "3,2", "--color", color, "--format", form
        )
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
    # the weight form writes the same term file, #color header included
    term_files = [
        run(capsys, "compute", "--knot", "3,2", option, color, "--format", "term-file")
        for option, color in (("--weight", "2w1|w1"), ("--color", "2|1"))
    ]
    assert term_files[0] == term_files[1] and term_files[0][0] == 0
    assert "#color 2|1\n" in term_files[0][1]
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
    for weight in ("w0|w1", "2w0+w1|w1"):
        code, out, err = run(capsys, "compute", "--knot", "3,2", "--weight", weight)
        assert code == 2 and out == "" and "argument error" in err, weight
    # a zero between rows is refused, not dropped to make another partition
    for color, rows in (("1,0,1|0", "(1, 0, 1)"), ("0,1|1", "(0, 1)")):
        code, out, err = run(capsys, "compute", "--knot", "3,2", "--color", color)
        assert (code, out) == (2, "") and err == (
            "argument error: rows not weakly decreasing: %s\n" % rows
        ), color


def test_compute_engine_failure_exit_code(capsys, monkeypatch):
    def boom(knot, lam, mu):
        raise ResidualRankError("synthetic cancellation failure")

    monkeypatch.setattr(cli, "composite_homfly", boom)
    code, out, err = run(capsys, "compute", "--knot", "3,2", "--color", "0|1")
    assert (code, out, err) == (3, "", "engine failure: synthetic cancellation failure\n")


def test_verify_engine_failure_exit_code(capsys, monkeypatch):
    # main maps a typed engine error to exit 3 for verify as for compute
    def inexact(knot, lam, mu):
        raise InexactDivisionError("synthetic inexact division")

    monkeypatch.setattr(verify, "engine", inexact)
    code, out, err = run(capsys, "verify", "--suite", "connection")
    assert (code, out, err) == (3, "", "engine failure: synthetic inexact division\n")


OPTIMIZED_FAILURES = """
import pathlib
import sys
import tempfile
import macdonald
from oracles import kernel_rows, parse_expr
from comphomfly import cli, rosso, symfunc, verify
from comphomfly.partitions import EMPTY, Partition
from comphomfly.qexact import (
    Bracket, InexactDivisionError, IntegralityError, ResidualRankError, exact_divide,
)

assert not __debug__, "must run under python -O"
try:
    exact_divide(parse_expr("1+t^2"), parse_expr("1+t"))
    sys.exit("inexact division passed")
except InexactDivisionError:
    pass
# the canceling check substitutes, which tests divisibility only over
# integer exponents
had = verify.Fixture("3_2:had", rosso.TorusKnot(3, 2), "", parse_expr("1 + q^(1/2)*t"), "")
try:
    verify.check_canceling(had, 3)
    sys.exit("fractional canceling fixture passed")
except verify.FixtureError:
    pass
# a fixture with no terms, or with an a-exponent that the signed
# substitutions of a cannot take, is refused before any check runs
half_a = verify.Fixture("3_2:had", rosso.TorusKnot(3, 2), "", parse_expr("1 + a^(1/2)"), "")
try:
    verify.get_fixture({half_a.id: half_a}, half_a.id)
    sys.exit("fractional a-exponent fixture passed")
except verify.FixtureError:
    pass
with tempfile.TemporaryDirectory() as root:
    headers_only = pathlib.Path(root, "3_2", "hd_2__1.poly")
    headers_only.parent.mkdir()
    headers_only.write_text("#vars q t a\\n#knot 3,2\\n")
    try:
        verify.load_fixtures(root)
        sys.exit("fixture with no terms passed")
    except ValueError:
        pass
# every bracket division runs through bracket_sum; 1/[2] is no polynomial,
# and a row must be balanced for its unit brackets to cancel
one = parse_expr("1", ("q", "a"))
try:
    rosso.bracket_sum(*kernel_rows([(one, [Bracket(0, 1)], [Bracket(0, 2)])]))
    sys.exit("inexact bracket sum passed")
except InexactDivisionError:
    pass
try:
    rosso.bracket_sum(*kernel_rows([(one, [], [Bracket(0, 2)])]))
    sys.exit("unbalanced bracket row passed")
except ValueError:
    pass
# its rows' exponents are ints over one positive den
try:
    rosso.bracket_sum([(1, 1, 0, [Bracket(0, 2)], [Bracket(0, 1)])], -2)
    sys.exit("negative exponent den passed")
except ValueError:
    pass
# (q^(1/2) - 1)/[N - 1] multiplies back to its packed sum; only the
# quotient's q-window shows it inexact
window = parse_expr("q^(1/2) - 1", ("q", "a"))
try:
    rosso.bracket_sum(*kernel_rows([(window, [Bracket(0, 1)], [Bracket(1, -1)])]))
    sys.exit("bracket sum outside the q-window passed")
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
# every eigenvalue shifted by the doubled parts `by`: a twist moves by
# r*(1 - s^2)/(2s) times each shift, -9/4 on T(3,2)
lam = Partition((1,))
true_doubled = rosso._doubled_eigenvalue


def shift_doubled(*by):
    rosso._doubled_eigenvalue = lambda lam, mu: tuple(
        x + d for x, d in zip(true_doubled(lam, mu), by)
    )


# a shift by q^(1/2) leaves fractional exponents
shift_doubled(0, 1, 0)
try:
    rosso.composite_homfly(rosso.TorusKnot(3, 2), EMPTY, lam)
    sys.exit("fractional normalized exponents passed")
except IntegralityError:
    pass
# a shift by q^(1/(2N)) leaves a 1/N part that no twist cancels
shift_doubled(0, 0, 1)
try:
    rosso.composite_homfly(rosso.TorusKnot(3, 2), EMPTY, lam)
    sys.exit("residual 1/N exponents passed")
except ResidualRankError as exc:
    if "retains rank-dependent parts" not in str(exc):
        sys.exit("wrong residual rank error: %s" % exc)
rosso._doubled_eigenvalue = true_doubled
# a skew row one box too big places r-quotient beads that do not strip back
true_skew_row = symfunc.skew_row
symfunc.skew_row = lambda eta, alpha: tuple(
    (Partition((beta.width + 1,) + beta[1:]), c) for beta, c in true_skew_row(eta, alpha)
)
try:
    rosso.finite_N_oracle(rosso.TorusKnot(3, 2), EMPTY, Partition((2,)), 3)
    sys.exit("misplaced r-quotient beads passed")
except symfunc.AbacusError as exc:
    if str(exc) != "r-quotient beads do not strip to the packed beads":
        sys.exit("wrong abacus error: %s" % exc)
for argv in (["expand", "--color", "0|2", "--r", "2"], ["verify", "--suite", "connection"]):
    code = cli.main(argv)
    if code != 3:
        sys.exit("%s exited %r on misplaced r-quotient beads" % (argv[0], code))
sys.exit(cli.main(["compute", "--knot", "3,2", "--color", "0|2"]))
"""


def test_typed_errors_survive_python_O():
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    tests = str(pathlib.Path(__file__).resolve().parent)  # the Macdonald checker, the parser
    path = filter(None, [src, tests, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_FAILURES],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
    # one line each from expand, verify and compute
    message = "engine failure: r-quotient beads do not strip to the packed beads\n"
    assert proc.stderr.count(message) == 3


PACKAGE_MODULES = {
    "comphomfly",
    "comphomfly.cli",
    "comphomfly.partitions",
    "comphomfly.qexact",
    "comphomfly.rosso",
    "comphomfly.symfunc",
    "comphomfly.verify",
}


def test_cli_import_loads_exactly_the_package_modules():
    # the benchmark's setup_s times `import comphomfly.cli`; a new module, or
    # a test-only one moved back into the package, changes this set
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, comphomfly.cli; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
        check=True,
    )
    loaded = ast.literal_eval(proc.stdout)
    assert {m for m in loaded if m.split(".")[0] == "comphomfly"} == PACKAGE_MODULES


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_exits_141_quietly(buffered):
    # a reader that stops early (`comphomfly ... | head`) is no verification
    # failure: every command exits 128 + SIGPIPE with nothing on stderr,
    # whether the broken pipe shows at a print or at the final flush
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (
        ["compute", "--knot", "3,2", "--color", "1|1"],
        ["expand", "--color", "2,1|1", "--r", "2"],
        ["verify", "--suite", "duality"],
    ):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the first write
        proc = subprocess.Popen(
            [sys.executable, "-m", "comphomfly.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
        )
        os.close(write)
        _, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (141, b""), (argv, err)


def test_stdout_ignores_hash_seed():
    # the benchmark pins PYTHONHASHSEED=0, so its checksums cannot see a
    # result that follows set iteration order
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    commands = (
        ["expand", "--color", "2,1|2,1", "--r", "3"],
        ["verify", "--suite", "duality"],
    )
    for argv in commands:
        outputs = {
            subprocess.run(
                [sys.executable, "-m", "comphomfly.cli", *argv],
                capture_output=True,
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
                timeout=120,
                check=True,
            ).stdout
            for seed in ("0", "1")
        }
        assert len(outputs) == 1, argv


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


def test_term_files_beyond_the_ladder_match_recorded_checksums(capsys):
    # larger colors than the ladder's, with more common brackets and with
    # rows whose unit brackets [1] do not cancel
    for knot, color, lines, recorded in [
        ("4,3", "2,1|2,1", 874, "691e246fa9bcc8a25dd0edb43b5e30b1793554ddf8583dbfcd1872e18104b85c"),
        ("5,3", "2,2|2,1", 1688, "ca99c5f0e56c5ff30b4f6f26d5f8f962db83b9704d4060096aa796a5cd5fe80d"),
    ]:
        code, out, _ = run(
            capsys, "compute", "--knot", knot, "--color", color, "--format", "term-file"
        )
        assert code == 0 and out.count("\n") == lines, (knot, color)
        assert hashlib.sha256(out.encode()).hexdigest() == recorded, (knot, color)


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
    # beyond the benchmark's sizes, at 15 to 25 boxes, where LR
    # multiplicities above 1 are common; the last three were recorded when
    # the Adams images were skewed, not the small shapes
    for color, r, recorded in [
        ("2,2|2,2", "4", "24559cd9520f1bf422d13cba320606537398fc4e66aed33ba9fca4019ad3e3a9"),
        ("3|2,1", "5", "3053f07c5fbdeb044b341b70e6c5a584903577d2b4e76a2d76c9dcc07fe2c4df"),
        ("2,2|2,2", "5", "888b6836447f031f8fdbb757396764cde7026e635ca8ed80940ab9111e81e1a9"),
        ("3,2|3,2", "3", "389db7524983ba3754667853753ab2221c4f6c2bab0524255243a07e10c64a32"),
        ("3,2|3,2", "5", "5364c772f8e3a91b0fd602bb3a1abd684f463fba2db06848ac6183cb07b3b4f5"),
    ]:
        code, out, _ = run(capsys, "expand", "--color", color, "--r", r)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == recorded, (color, r)


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


VERIFY_ALL_SHA256 = "bcf50d4b49114e552276f8c44cf7ae71314093e431013f7f8e32baa93d10061b"


def test_verify_all_output_matches_recorded_checksum(capsys):
    # every report line on the package fixtures, byte for byte: order, ids,
    # statuses and notes, then the summary line
    code, out, err = run(capsys, "verify", "--suite", "all")
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 103
    assert lines[-1] == 'SUMMARY {"FAIL": 0, "PASS": 90, "SKIP": 12}'
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256


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
         "symfunc.adams_at_rank.calls", "symfunc.adams_at_rank.keys",
         "rosso.qdim_at_rank.calls")
print(code, *(metrics[name] for name in names))
"""


def test_benchmark_tracing_wraps_the_engine():
    # the benchmark's tracer patches functions of the package by name, so a
    # rename in the package must fail here, not only in the benchmark's tests;
    # the oracle's T(3,2) [1|1] at N = 3 has 4 Adams keys, and it reads the
    # Weyl numerator of zeta and of each key
    root = pathlib.Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_COMPUTE, str(root / "src"), str(root / "perfbench")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].split() == ["0", "1", "16", "1", "1", "4", "5"]


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


def test_verify_missing_fixtures(capsys, monkeypatch, tmp_path):
    code, _, err = run(
        capsys, "verify", "--suite", "connection", "--fixtures", str(tmp_path)
    )
    assert code == 1
    with pytest.raises(verify.FixtureError, match="^no fixtures found under "):
        verify.load_fixtures(tmp_path)
    # load_fixtures alone picks the package fixtures, and an empty
    # --fixtures names the working directory, not the default
    assert cli.build_parser().parse_args(["verify"]).fixtures is None
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "verify", "--fixtures", "")
    assert (code, out, err) == (1, "", "fixture error: no fixtures found under .\n")


def replace_fixture(tmp_path, name, poly=None):
    """A copy of the fixture directory whose 3_2/<name>.poly keeps its
    headers and holds poly, none of its terms if poly is None."""
    from comphomfly.qexact import loads_poly

    dst = tmp_path / "fixtures"
    shutil.copytree(verify.fixture_root(), dst)
    target = dst / "3_2" / name
    old, meta = loads_poly(target.read_text())
    meta.pop("checksum")
    if poly is None:
        text = "".join("#%s %s\n" % item for item in {"vars": " ".join(old.vars), **meta}.items())
    else:
        text = dumps_poly(poly(old), meta)
    target.write_text(text)
    return dst, target


def test_verify_refuses_a_fixture_with_no_terms(capsys, tmp_path):
    # a term file of headers only would reach the checks as zero
    dst, target = replace_fixture(tmp_path, "hd_2__1.poly")
    message = "fixture error: fixture %s: no terms\n" % target
    assert run(capsys, "verify", "--fixtures", str(dst)) == (1, "", message)


def test_verify_refuses_a_fractional_a_exponent(capsys, tmp_path):
    # the exceptional checks substitute a = -t^nu before the canceling
    # check's own integer test runs, so get_fixture refuses a^(1/2)
    from comphomfly.qexact import Laurent

    dst, _ = replace_fixture(
        tmp_path, "had.poly", lambda had: had + Laurent.monomial(had.vars, 1, a=Fraction(1, 2))
    )
    message = "fixture error: fixture 3_2:had: the checks need integer a-exponents\n"
    assert run(capsys, "verify", "--fixtures", str(dst)) == (1, "", message)


def test_verify_fails_a_fixture_that_vanishes_at_q1(capsys, tmp_path):
    # q - 1 is zero at q = 1: a FAIL, not a traceback
    from comphomfly.qexact import Laurent

    dst, _ = replace_fixture(
        tmp_path,
        "hd_2__1.poly",
        lambda old: Laurent.monomial(old.vars, 1, q=1) - Laurent.one(old.vars),
    )
    code, out, err = run(capsys, "verify", "--fixtures", str(dst))
    assert code == 1
    lines = out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    at_q1 = fails.index("FAIL q1-eval:3_2:hd_2__1")
    assert err.splitlines()[2 * at_q1] == "  left:  0"
    assert lines[-1].startswith("SUMMARY")


def test_verify_partial_fixtures(capsys, tmp_path):
    # a fixture file without a #knot header, a directory that lacks the
    # fixtures the suite needs, a needed fixture whose #color does not parse,
    # one whose #vars are not the ones its checks read, two files with one
    # #id, and a repeated header line: a fixture error line each time, no
    # traceback; a row's own #vars or #id line replaces the default one
    target, twin = tmp_path / "3_2" / "x.poly", tmp_path / "3_2" / "y.poly"
    target.parent.mkdir()
    bad_color = "fixture 3_2:hd_1__1: bad #color '1x|1': %s" % (
        "invalid literal for int() with base 10: '1x'"
    )
    term, zero_den = "1\t0\t0\t0", "1\t1/0\t0\t0"
    needed = "#knot 3,2\n#color 1|1\n#id 3_2:hd_1__1\n"
    wrong_vars = "fixture 3_2:hd_1__1: #vars q t b, the checks read q t a"
    twice = "fixture %s: #id 3_2:hd_1__1 is also in %s" % (twin, target)
    one, both = (target,), (target, twin)
    cases = (
        (one, "", term, "fixture %s: no #knot header" % target),
        (one, "#knot 3,2\n#color 1|1\n", term, "missing fixture 3_2:hd_1__1"),
        (one, "#knot 3,2\n#color 1x|1\n#id 3_2:hd_1__1\n", term, bad_color),
        (one, "#knot 3,2\n", zero_den, "fixture %s: bad term line: %r" % (target, zero_den)),
        (one, "#vars q t b\n" + needed, term, wrong_vars),
        (both, needed, term, twice),
        (one, "#knot 3,2\n#knot 3,2\n", term, "fixture %s: repeated #knot header" % target),
    )
    defaults = ("#vars q t a\n", "#id x\n")
    for paths, header, body, message in cases:
        kept = "".join(line for line in defaults if line.split()[0] + " " not in header)
        for path in paths:
            path.write_text(kept + header + body + "\n")
        result = run(capsys, "verify", "--fixtures", str(tmp_path), "--suite", "oracle")
        assert result == (1, "", "fixture error: %s\n" % message)


def test_verify_leaves_engine_errors_unlabeled(capsys, monkeypatch):
    # RankTooSmallError is a ValueError, but it is not the fixture's fault
    def failing_engine(knot, lam, mu):
        raise RankTooSmallError("engine refused %s|%s" % (lam, mu))

    monkeypatch.setattr(verify, "engine", failing_engine)
    with pytest.raises(RankTooSmallError, match="engine refused"):
        cli.main(["verify", "--suite", "connection"])
    assert "fixture error" not in capsys.readouterr().err


def test_verify_ignores_the_environment(capsys, monkeypatch, tmp_path):
    # --fixtures is the one way to name another fixture directory
    monkeypatch.setenv("COMPHOMFLY_FIXTURES", str(tmp_path))
    code, _, err = run(capsys, "verify", "--suite", "duality")
    assert (code, err) == (0, "")
