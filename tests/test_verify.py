import pathlib
import shutil
from fractions import Fraction

import pytest

from comphomfly.partitions import Partition
from comphomfly.qexact import Laurent, dumps_poly, loads_poly, tilde_normalize
from comphomfly import cli, qexact, rosso, verify

P = Partition.parse
QA = ("q", "a")
QTA = ("q", "t", "a")


@pytest.fixture(scope="module")
def fixtures():
    return verify.load_fixtures()


def test_fixture_inventory(fixtures):
    assert len(fixtures) == 22
    # one file per id, and each fixture has the vars its checks read
    assert len(list(verify.fixture_root().glob("*/*.poly"))) == 22
    for fid, fixture in fixtures.items():
        assert fid.partition(":")[2].split("_")[0] in verify.FIXTURE_VARS, fid
        assert verify.get_fixture(fixtures, fid) is fixture
        assert fixture.source, fixture.id
        assert fixture.poly
    assert "3_2:hd_1-1__1-1" in fixtures
    assert "4_3:had" in fixtures


def test_fixtures_reparse_bit_exactly(fixtures):
    root = verify.fixture_root()
    for path in sorted(root.glob("*/*.poly")):
        text = path.read_text()
        poly, meta = loads_poly(text)
        meta.pop("checksum", None)
        assert dumps_poly(poly, meta) == text, path


def test_hd_fixtures_a0_tilde_normalized(fixtures):
    for fid in verify.HD_FIXTURE_IDS:
        poly = fixtures[fid].poly
        i = poly.vars.index("a")
        a0_terms = {e[:i] + e[i + 1 :]: c for e, c in poly.terms.items() if e[i] == 0}
        a0 = Laurent(poly.vars[:i] + poly.vars[i + 1 :], a0_terms, poly.den)
        norm = tilde_normalize(a0)
        assert norm == a0, fid
        constant = norm.terms.get(tuple([0] * len(norm.vars)))
        assert constant == 1, fid


def test_connection_suite(fixtures):
    reports = verify.suite_connection(fixtures)
    # eight colors, six printed two-variable fixtures, the annulus bridge
    assert len(reports) == 15
    assert all(r.status == "PASS" for r in reports), [r.line() for r in reports]
    printed = [r for r in reports if "printed" in r.note]
    assert len(printed) == 6
    direct = [r.check_id for r in reports if r.check_id.startswith("printed:")]
    assert direct == ["printed:%s" % fid for fid in verify.PRINTED_HOMFLY_IDS]


def test_every_fixture_is_read_by_a_check(fixtures, monkeypatch):
    # each .poly file is read by a suite that emits a non-SKIP check
    read, readers = set(), {}
    get_fixture = verify.get_fixture

    def recording(fixture_set, fid):
        read.add(fid)
        return get_fixture(fixture_set, fid)

    monkeypatch.setattr(verify, "get_fixture", recording)
    for name, suite in verify.SUITES.items():
        read.clear()
        checked = [r.check_id for r in suite(fixtures) if r.status != "SKIP"]
        for fid in read:
            readers.setdefault(fid, []).extend(checked)
    on_disk = {
        loads_poly(path.read_text())[1]["id"]
        for path in verify.fixture_root().glob("*/*.poly")
    }
    assert len(on_disk) == 22
    assert not [fid for fid in on_disk if not readers.get(fid)]


def test_printed_check_fails_on_a_flipped_coefficient(fixtures):
    for fid in verify.PRINTED_HOMFLY_IDS:
        original = fixtures[fid]
        assert verify.check_printed(original).status == "PASS"
        terms = dict(original.poly.terms)
        key = next(iter(terms))
        terms[key] = -terms[key]
        poly = Laurent(original.poly.vars, terms, original.poly.den)
        report = verify.check_printed(original._replace(poly=poly))
        assert report.status == "FAIL" and report.left and report.right, fid


def test_duality_suite(fixtures):
    reports = verify.suite_duality(fixtures)
    statuses = {r.check_id: r.status for r in reports}
    # (q, t) -> (1/t, 1/q) fixes the slice t = q^-1, so that check cannot fail
    assert statuses.pop("color-exchange:3_2:w2w2~2w12w1") == "SKIP"
    assert all(s == "PASS" for s in statuses.values()), [r.line() for r in reports]
    # a PASS that no fixture perturbation can flip is not a check
    assert "color-exchange:3_2:negative-control" not in statuses


def test_evaluation_suite(fixtures):
    reports = verify.suite_evaluation(fixtures)
    failures = [r for r in reports if r.status == "FAIL"]
    assert not failures, [r.line() for r in failures]
    skips = [r.check_id for r in reports if r.status == "SKIP"]
    # one factor not printed, and four fixtures that are their own factor
    assert skips == [
        "q1-eval:3_2:hd_1__1-1-1",
        "q1-eval:3_2:hd_0__1",
        "t1-eval:3_2:hd_0__1",
        "q1-eval:3_2:hd_0__1-1",
        "t1-eval:3_2:hd_0__2",
    ]
    degrees = {
        r.check_id: r for r in reports if r.check_id.startswith("a-degree")
    }
    assert all(r.conjecture for r in degrees.values())
    # the explicitly stated degree values
    for fid, value in [
        ("3_2:hd_1__1", 3),
        ("3_2:hd_1__1-1-1", 5),
        ("3_2:hd_1-1__2", 5),
        ("3_2:hd_1-1__1-1", 6),
    ]:
        assert fixtures[fid].poly.degree("a") == value


def test_exceptional_suite(fixtures):
    reports = verify.suite_exceptional(fixtures)
    by_id = {r.check_id: r for r in reports}
    assert by_id["exceptional:3_2:had:E8"].status == "PASS"
    assert by_id["exceptional:3_2:had:E7"].status == "PASS"
    assert by_id["exceptional:3_2:had:A2"].status == "PASS"
    assert by_id["exceptional:3_2:had:A1"].status == "PASS"
    assert by_id["exceptional:3_2:had:D4"].status == "SKIP"
    assert by_id["exceptional:3_2:had:E6"].status == "SKIP"
    assert by_id["exceptional:4_3:had:E8"].status == "SKIP"
    assert by_id["exceptional:4_3:had:A1"].status == "PASS"
    assert by_id["canceling:3_2:had"].status == "PASS"
    assert by_id["canceling:4_3:had"].status == "PASS"
    assert not any(r.status == "FAIL" for r in reports)


def test_exceptional_series_nu_values():
    values = {e.tag: e.nu for e in verify.EXCEPTIONAL_SERIES}
    from fractions import Fraction

    assert values == {
        "A1": Fraction(1, 3),
        "A2": Fraction(1, 2),
        "D4": Fraction(1),
        "E6": Fraction(2),
        "E7": Fraction(3),
        "E8": Fraction(5),
    }


def changed_exponents(p, r):
    """Exponents (as Fractions) whose coefficients differ between p and r."""
    a, b = dict(p.sorted_terms()), dict(r.sorted_terms())
    return {e for e in a.keys() | b.keys() if a.get(e) != b.get(e)}


def test_perturbed_fixture_fails_with_diff(fixtures):
    original = fixtures["3_2:hd_1__1"]
    damaged_terms = dict(original.poly.terms)
    key = next(iter(damaged_terms))
    damaged_terms[key] += 1
    poly = Laurent(original.poly.vars, damaged_terms, original.poly.den)
    assert len(changed_exponents(poly, original.poly)) == 1
    damaged = verify.Fixture(
        id=original.id,
        knot=original.knot,
        color=original.color,
        poly=poly,
        source=original.source,
    )
    report = verify.check_connection(damaged, (2, -2))
    assert report.status == "FAIL"
    assert report.left and report.right


def test_evaluation_fails_on_a_raised_factor_source(fixtures):
    # hd_0__1 is the one-box factor at q = 1 and at t = 1, so a wrong
    # coefficient in it must break the checks whose product it enters
    targets = ("q1-eval:3_2:hd_0__2", "t1-eval:3_2:hd_0__1-1")

    def statuses(fixture_set):
        reports = verify.suite_evaluation(fixture_set)
        return [r.status for r in reports if r.check_id in targets]

    assert statuses(fixtures) == ["PASS", "PASS"]
    original = fixtures["3_2:hd_0__1"]
    raised_terms = dict(original.poly.terms)
    key = next(iter(raised_terms))
    raised_terms[key] += 1
    poly = Laurent(original.poly.vars, raised_terms, original.poly.den)
    assert len(changed_exponents(poly, original.poly)) == 1
    damaged = dict(fixtures)
    damaged[original.id] = original._replace(poly=poly)
    assert statuses(damaged) == ["FAIL", "FAIL"]


def test_color_exchange_ordering_fails_on_flipped_coefficient(fixtures):
    def ordering(fixture_set):
        reports = verify.check_color_exchange(fixture_set)
        (report,) = [r for r in reports if r.check_id == "color-exchange:3_2:ordering"]
        return report

    assert ordering(fixtures).status == "PASS"
    original = fixtures["3_2:hd_1-1__2"]
    damaged_terms = dict(original.poly.terms)
    key = next(iter(damaged_terms))
    damaged_terms[key] = -damaged_terms[key]
    poly = Laurent(original.poly.vars, damaged_terms, original.poly.den)
    assert len(changed_exponents(poly, original.poly)) == 1
    damaged = dict(fixtures)
    damaged[original.id] = verify.Fixture(
        id=original.id,
        knot=original.knot,
        color=original.color,
        poly=poly,
        source=original.source,
    )
    report = ordering(damaged)
    assert report.status == "FAIL"
    assert report.left and report.right


def test_corrupted_fixture_file_detected(tmp_path):
    src = verify.fixture_root()
    dst = tmp_path / "fixtures"
    shutil.copytree(src, dst)
    target = dst / "3_2" / "hd_0__1.poly"
    original = target.read_text().splitlines()
    lines = list(original)
    lines[-1] = lines[-1].replace("1", "2", 1)
    target.write_text("\n".join(lines) + "\n")
    with pytest.raises(verify.FixtureError, match="checksum"):
        verify.load_fixtures(dst)
    # the checksum covers the terms only; a file with no #knot is refused too
    target.write_text("".join(l + "\n" for l in original if not l.startswith("#knot ")))
    with pytest.raises(verify.FixtureError, match="no #knot header"):
        verify.load_fixtures(dst)


CANCELING_PIVOTS = {"3_2:had": 3, "4_3:had": 7}
INDIVISIBLE = "indivisible by 1 - q t^-1 a^6"


def test_canceling_fails_one_step_off_the_pivot(fixtures):
    # the value at (t=1, a=-1) does not see the pivot, so a pivot one q-power
    # off reaches the divisibility branch; what is left at q = t a^-6 is the
    # two pivots' difference there
    at_root = {"q": (1, {"t": 1, "a": -6})}
    for fid, pivot in CANCELING_PIVOTS.items():
        had = fixtures[fid]
        assert verify.check_canceling(had, pivot).status == "PASS", fid
        for off in (pivot - 1, pivot + 1):
            report = verify.check_canceling(had, off)
            moved = Laurent.monomial(QTA, 1, q=pivot, t=-1, a=6)
            moved = moved - Laurent.monomial(QTA, 1, q=off, t=-1, a=6)
            assert (report.status, report.note, report.right) == ("FAIL", INDIVISIBLE, "0")
            assert report.left == str(moved.substitute(at_root)), (fid, off)


def test_canceling_refuses_a_fractional_exponent(fixtures, tmp_path, capsys):
    # substitution tests divisibility only over integer exponents
    had = fixtures["3_2:had"]
    poly = had.poly + Laurent.monomial(QTA, 1, t=Fraction(1, 2))
    message = "fixture 3_2:had: the canceling check needs integer exponents"
    with pytest.raises(verify.FixtureError, match=message):
        verify.check_canceling(had._replace(poly=poly), 3)
    dst = tmp_path / "fixtures"
    shutil.copytree(verify.fixture_root(), dst)
    target = dst / "3_2" / "had.poly"
    meta = loads_poly(target.read_text())[1]
    meta.pop("checksum")
    target.write_text(dumps_poly(poly, meta))
    code = cli.main(["verify", "--fixtures", str(dst), "--suite", "exceptional"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "fixture error: %s\n" % message)


def test_hyperpolynomial_reconstruction_from_refined_pair(fixtures):
    """Rebuild the trefoil hyperpolynomial from the two refined fixtures.

    Within each q-block the two refined polynomials pair term by term in
    t-lexicographic order with matching signs; the a-power of each pair is
    the unique solution of t8 - 5x = t7 - 3x.  The rebuilt polynomial must
    equal the transcribed hyperpolynomial exactly, which cross-validates
    all three transcriptions at once.
    """
    from fractions import Fraction

    e8 = fixtures["3_2:jd_e8"].poly
    e7 = fixtures["3_2:jd_e7"].poly
    had = fixtures["3_2:had"].poly

    def by_q(p):
        out = {}
        for (qe, te), c in p.sorted_terms():
            out.setdefault(qe, []).append((te, c))
        return {k: sorted(v) for k, v in out.items()}

    g8, g7 = by_q(e8), by_q(e7)
    assert set(g8) == set(g7)
    rebuilt = Laurent(("q", "t", "a"))
    for qe in g8:
        assert len(g8[qe]) == len(g7[qe]), qe
        for (t8, c8), (t7, c7) in zip(g8[qe], g7[qe]):
            assert c8 == c7, (qe, t8, t7)
            x = Fraction(t8 - t7, 2)
            assert x.denominator == 1 and x >= 0
            sign = c8 * (1 if int(x) % 2 == 0 else -1)
            rebuilt = rebuilt + Laurent.monomial(
                ("q", "t", "a"), sign, q=qe, t=t8 - 5 * x, a=x
            )
    assert rebuilt == had


def test_run_suite_all_deterministic(fixtures):
    first = [r.line() for r in verify.run_suite("all", fixtures)]
    second = [r.line() for r in verify.run_suite("all", fixtures)]
    assert first == second
    counts = verify.summarize(verify.run_suite("all", fixtures))
    assert counts["FAIL"] == 0
    with pytest.raises(KeyError):
        verify.run_suite("bogus", fixtures)


def test_run_suite_reads_only_the_fixtures_passed():
    # no fallback to the package fixtures: an empty table is missing the
    # first fixture the first suite reads
    with pytest.raises(verify.FixtureError, match="^missing fixture 3_2:hd_1__1$"):
        verify.run_suite("all", {})
    with pytest.raises(TypeError):
        verify.run_suite("all")


def test_run_suite_all_needs_no_polynomial_division(fixtures, monkeypatch):
    # the checks divide only through the engine's bracket sums
    expected = verify.run_suite("all", fixtures)

    def refuse(num, den):
        raise AssertionError("exact_divide called")

    for module in (qexact, rosso, verify):
        monkeypatch.setattr(module, "exact_divide", refuse)
    verify.engine.cache_clear()  # recompute the engine's results under the patch
    assert verify.run_suite("all", fixtures) == expected


def changed_first_coefficient(step):
    """The change of a polynomial that maps its first stored coefficient c
    to step(c)."""

    def change(poly):
        terms = dict(poly.terms)
        key = next(iter(terms))
        terms[key] = step(terms[key])
        return Laurent(poly.vars, terms, poly.den)

    return change


NEGATED = changed_first_coefficient(lambda c: -c)
RAISED = changed_first_coefficient(lambda c: c + 1)


def higher_a_power(poly):
    return poly + Laurent.monomial(poly.vars, 1, a=poly.degree("a") + 1)


def damaged(fid, change):
    """A mutation that replaces fixture fid's polynomial by change(poly)."""

    def mutate(fixtures, monkeypatch):
        out = dict(fixtures)
        out[fid] = fixtures[fid]._replace(poly=change(fixtures[fid].poly))
        return out

    return mutate


def shifted_engine(fixtures, monkeypatch):
    """A mutation that adds 1 to the engine's normalized output of every color."""
    engine = verify.engine

    def shifted(knot, lam, mu):
        return engine(knot, lam, mu) + Laurent.one(QA)

    monkeypatch.setattr(verify, "engine", shifted)
    return fixtures

# check kind -> (the one suite that reads the mutated input, mutation); the
# fixture mutations are those of the negative controls above where one exists
MUTATIONS = {
    "a-degree": ("evaluation", damaged("3_2:hd_1__1", higher_a_power)),
    "canceling": ("exceptional", damaged("3_2:had", NEGATED)),
    "color-exchange": ("duality", damaged("3_2:hd_1-1__2", NEGATED)),
    "connection": ("connection", damaged("3_2:hd_1__1", RAISED)),
    "exceptional": ("exceptional", damaged("3_2:had", NEGATED)),
    "hm-bridge": ("connection", shifted_engine),
    "oracle": ("oracle", shifted_engine),
    "printed": ("connection", damaged("3_2:homfly_1__1", NEGATED)),
    "q1-eval": ("evaluation", damaged("3_2:hd_0__1", RAISED)),
    "superduality": ("duality", damaged("3_2:hd_2__1", NEGATED)),
    "t1-eval": ("evaluation", damaged("3_2:hd_0__1", RAISED)),
}


def test_every_passing_check_kind_can_fail(fixtures, monkeypatch):
    # each kind that passes on the shipped fixtures has a mutation turning
    # at least one of its ids to FAIL; a kind missing from the table fails
    reports = verify.run_suite("all", fixtures)
    kinds = {r.check_id.split(":")[0] for r in reports if r.status == "PASS"}
    assert kinds == set(MUTATIONS)
    for kind, (suite, mutate) in MUTATIONS.items():
        with monkeypatch.context() as patch:
            mutated = verify.SUITES[suite](mutate(fixtures, patch))
        failed = [r for r in mutated if r.status == "FAIL" and r.check_id.startswith(kind + ":")]
        assert failed, kind


def test_each_connection_and_printed_id_fails_on_its_own_fixture(fixtures, monkeypatch):
    # per id, not per kind: raising one coefficient of a fixture turns
    # exactly that fixture's check to FAIL and leaves every other id passing
    table = [("connection", fid) for fid, _ in verify.CONNECTION_TABLE]
    table += [("printed", fid) for fid in verify.PRINTED_HOMFLY_IDS]
    assert len(table) == 14
    for kind, fid in table:
        mutated = verify.suite_connection(damaged(fid, RAISED)(fixtures, monkeypatch))
        failed = [r.check_id for r in mutated if r.status == "FAIL"]
        assert failed == ["%s:%s" % (kind, fid)], (fid, failed)


def assert_each_id_fails_on_a_fixture_it_reads(suite, change, table, fixtures, monkeypatch):
    """Per id: change(poly) on one fixture turns to FAIL exactly the ids
    that read it, in the order the suite reports them, and together the
    fixtures reach every PASS id of suite."""
    passing = {r.check_id for r in suite(fixtures) if r.status == "PASS"}
    assert set().union(*table.values()) == passing
    for fid, expected in table.items():
        mutated = suite(damaged(fid, change)(fixtures, monkeypatch))
        failed = [r.check_id for r in mutated if r.status == "FAIL"]
        assert failed == expected, (fid, failed)
    return len(passing)


def test_each_exceptional_id_fails_on_a_fixture_it_reads(fixtures, monkeypatch):
    had32 = ["exceptional:3_2:had:%s" % tag for tag in ("A1", "A2", "E7", "E8")]
    had43 = ["exceptional:4_3:had:%s" % tag for tag in ("A1", "A2")]
    table = {
        "3_2:jd_e8": ["exceptional:3_2:had:E8"],
        "3_2:jd_e7": ["exceptional:3_2:had:E7"],
        "3_2:hd_1__1": ["exceptional:3_2:had:A2"],
        "3_2:hd_0__2": ["exceptional:3_2:had:A1"],
        "4_3:hd_1__1": had43,
        "3_2:had": had32 + ["canceling:3_2:had"],
        "4_3:had": had43 + ["canceling:4_3:had"],
    }
    suite = verify.suite_exceptional
    assert assert_each_id_fails_on_a_fixture_it_reads(suite, RAISED, table, fixtures, monkeypatch) == 8


def test_each_duality_id_fails_on_a_fixture_it_reads(fixtures, monkeypatch):
    # a super-duality pair fails on either fixture; the color-exchange
    # ordering reads the [w2, 2w1] fixture
    own = "superduality:%s~%s"
    table = {
        "3_2:hd_1__1": [own % ("3_2:hd_1__1", "3_2:hd_1__1")],
        "4_3:hd_1__1": [own % ("4_3:hd_1__1", "4_3:hd_1__1")],
        "3_2:hd_2-1__1": [own % ("3_2:hd_2-1__1", "3_2:hd_2-1__1")],
        "3_2:hd_2__1": [own % ("3_2:hd_2__1", "3_2:hd_1__1-1")],
        "3_2:hd_1__1-1": [own % ("3_2:hd_2__1", "3_2:hd_1__1-1")],
        "3_2:hd_1-1__2": [own % ("3_2:hd_1-1__2", "3_2:hd_1-1__2"), "color-exchange:3_2:ordering"],
        "3_2:hd_0__2": [own % ("3_2:hd_0__2", "3_2:hd_0__1-1")],
        "3_2:hd_0__1-1": [own % ("3_2:hd_0__2", "3_2:hd_0__1-1")],
    }
    suite = verify.suite_duality
    assert assert_each_id_fails_on_a_fixture_it_reads(suite, RAISED, table, fixtures, monkeypatch) == 7


def evaluation_ids(kinds, fid):
    return ["%s:%s" % (kind, fid) for kind in kinds]


def test_each_evaluation_id_fails_on_a_fixture_it_reads(fixtures, monkeypatch):
    # a term one a-power above the top raises a zero coefficient, so the
    # a-degree moves too; every hd fixture fails its own checks, and a factor
    # source fails every evaluation that reads its factor
    both, every = ("q1-eval", "t1-eval"), ("q1-eval", "t1-eval", "a-degree")
    table = {
        "3_2:hd_0__1": [
            *evaluation_ids(both, "3_2:hd_1__1"),
            *evaluation_ids(both, "3_2:hd_2__1"),
            *evaluation_ids(both, "3_2:hd_1__1-1"),
            "t1-eval:3_2:hd_1__1-1-1",
            *evaluation_ids(both, "3_2:hd_2-1__1"),
            "t1-eval:3_2:hd_1-1__1-1",
            *evaluation_ids(both, "3_2:hd_1-1__2"),
            "a-degree:3_2:hd_0__1",
            "t1-eval:3_2:hd_0__1-1",
            "q1-eval:3_2:hd_0__2",
        ],
        "3_2:hd_0__1-1": [
            "q1-eval:3_2:hd_1__1-1",
            "q1-eval:3_2:hd_2-1__1",
            "q1-eval:3_2:hd_1-1__1-1",
            "q1-eval:3_2:hd_1-1__2",
            "t1-eval:3_2:hd_0__1-1",
            "a-degree:3_2:hd_0__1-1",
        ],
        "3_2:hd_0__2": [
            "t1-eval:3_2:hd_2__1",
            "t1-eval:3_2:hd_2-1__1",
            "t1-eval:3_2:hd_1-1__2",
            "q1-eval:3_2:hd_0__2",
            "a-degree:3_2:hd_0__2",
        ],
        "3_2:hd_1__1-1-1": ["t1-eval:3_2:hd_1__1-1-1", "a-degree:3_2:hd_1__1-1-1"],
        "4_3:factor_t1_row1": evaluation_ids(both, "4_3:hd_1__1"),
    }
    for fid in ("3_2:hd_1__1", "3_2:hd_2__1", "3_2:hd_1__1-1", "3_2:hd_2-1__1",
                "3_2:hd_1-1__1-1", "3_2:hd_1-1__2", "4_3:hd_1__1"):
        table[fid] = evaluation_ids(every, fid)
    suite = verify.suite_evaluation
    passing = assert_each_id_fails_on_a_fixture_it_reads(
        suite, higher_a_power, table, fixtures, monkeypatch
    )
    assert passing == 28


def times_t(poly):
    return poly * Laurent.monomial(poly.vars, 1, t=1)


def test_q1_eval_fails_on_a_monomial_shift(fixtures, monkeypatch):
    # a factor t is 1 at t = 1 and leaves the a-degree alone, so only the
    # exact comparison at q = 1 sees it; tilde normalization would hide it
    mutated = verify.suite_evaluation(damaged("3_2:hd_2__1", times_t)(fixtures, monkeypatch))
    failed = [r.check_id for r in mutated if r.status == "FAIL"]
    assert failed == ["q1-eval:3_2:hd_2__1"]


def test_evaluation_skips_a_part_with_no_printed_factor(fixtures):
    # the trefoil factors are printed for parts of one and two boxes; a row
    # of three has none at t = 1, and a column of three none at q = 1
    wide = dict(fixtures)
    wide["3_2:hd_1__1"] = fixtures["3_2:hd_1__1"]._replace(color="3|1")
    reports = {r.check_id: (r.status, r.note) for r in verify.suite_evaluation(wide)}
    assert reports["t1-eval:3_2:hd_1__1"] == ("SKIP", "row factor not printed")
    assert reports["q1-eval:3_2:hd_1__1-1-1"] == ("SKIP", "column factor not printed")
