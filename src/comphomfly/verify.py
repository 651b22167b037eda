"""Transcribed fixtures and the symmetry checks that tie them to the engine.

Fixtures are three-variable superpolynomials, two-variable printed torus-knot
polynomials, and the two exceptional hyperpolynomials, all stored in the
term-file format with source tags and checksums.  The checks below compare
them with each other and with the engine through connection, super-duality,
q = 1 / t = 1 factorizations, the a-degree conjecture, exceptional-series
specializations, canceling differentials, and the finite-rank oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import itemgetter, mod
from pathlib import Path
from typing import NamedTuple

from .partitions import CompositeDiagram, Partition, conjugate, join
from .qexact import exact_divide  # noqa: F401  wrapped by name in perfbench/tracing.py
from .qexact import Laurent, loads_poly, tilde_normalize
from .rosso import TorusKnot, composite_homfly, finite_N_oracle

QA = ("q", "a")
QTA = ("q", "t", "a")


class FixtureError(ValueError):
    """A fixture file is damaged, or a fixture the checks need is missing or
    has a header that is not what they read."""


class Fixture(NamedTuple):
    """A transcribed polynomial with provenance."""

    id: str
    knot: TorusKnot
    color: str
    poly: Laurent
    source: str

    def diagram(self):
        try:
            return CompositeDiagram.parse(self.color)
        except ValueError as err:
            raise FixtureError(
                "fixture %s: bad #color %r: %s" % (self.id, self.color, err)
            ) from None


class CheckReport(NamedTuple):
    """Verdict of one check; failing reports carry both sides verbatim."""

    check_id: str
    status: str  # PASS | FAIL | SKIP
    note: str = ""
    left: str = ""
    right: str = ""
    conjecture: bool = False

    @classmethod
    def compare(cls, check_id, left, right, note="", conjecture=False):
        if left == right:
            return cls(check_id, "PASS", note, conjecture=conjecture)
        return cls(
            check_id, "FAIL", note, left=str(left), right=str(right), conjecture=conjecture
        )

    def line(self):
        tail = "  # %s" % self.note if self.note else ""
        return "%s %s%s" % (self.status, self.check_id, tail)


class ExceptionalSeriesEntry(NamedTuple):
    """One member of the exceptional chain with its a-specialization slope."""

    tag: str
    nu: Fraction


EXCEPTIONAL_SERIES = (
    ExceptionalSeriesEntry("A1", Fraction(1, 3)),  # weight 2w1
    ExceptionalSeriesEntry("A2", Fraction(1, 2)),  # weight w1+w2
    ExceptionalSeriesEntry("D4", Fraction(1)),  # weight w2
    ExceptionalSeriesEntry("E6", Fraction(2)),  # weight w2
    ExceptionalSeriesEntry("E7", Fraction(3)),  # weight w1
    ExceptionalSeriesEntry("E8", Fraction(5)),  # weight w8
)


# ---------------------------------------------------------------------------
# fixture loading


def fixture_root():
    return Path(__file__).parent / "fixtures"


def load_fixtures(root=None):
    """Load every .poly file under root (the package's fixtures if None) by its
    unique id; a damaged file, a repeated #id or no file is a FixtureError."""
    root = fixture_root() if root is None else Path(root)
    out, paths = {}, {}
    for path in sorted(root.glob("*/*.poly")):
        try:
            poly, meta = loads_poly(path.read_text())
            if "knot" not in meta:
                raise ValueError("no #knot header")
            if not poly:
                raise ValueError("no terms")
            knot = TorusKnot.parse(meta["knot"])
        except ValueError as err:
            raise FixtureError("fixture %s: %s" % (path, err)) from None
        fid = meta.get("id", path.stem)
        if fid in paths:
            raise FixtureError("fixture %s: #id %s is also in %s" % (path, fid, paths[fid]))
        paths[fid] = path
        out[fid] = Fixture(
            id=fid,
            knot=knot,
            color=meta.get("color", ""),
            poly=poly,
            source=meta.get("source", ""),
        )
    if not out:
        raise FixtureError("no fixtures found under %s" % root)
    return out


# the variables the checks read from a fixture, by the kind that starts its name
FIXTURE_VARS = {"hd": QTA, "had": QTA, "homfly": QA, "factor": QA, "jd": ("q", "t")}


def get_fixture(fixtures, fid):
    """The fixture with id fid; FixtureError if it is missing, its vars are
    not the ones its checks read, or an a-exponent is not an integer."""
    if fid not in fixtures:
        raise FixtureError("missing fixture %s" % fid)
    have = fixtures[fid].poly.vars
    want = FIXTURE_VARS.get(fid.partition(":")[2].split("_")[0], have)
    if have != want:
        raise FixtureError(
            "fixture %s: #vars %s, the checks read %s" % (fid, " ".join(have), " ".join(want))
        )
    # a is substituted with a sign (a -> -a, a = -t^nu), which needs integer exponents
    poly = fixtures[fid].poly
    column = map(itemgetter(have.index("a")), poly.terms) if "a" in have else ()
    if any(map(mod, column, repeat(poly.den))):
        raise FixtureError("fixture %s: the checks need integer a-exponents" % fid)
    return fixtures[fid]


# the engine's normalized polynomial is a pure function of the color; share it
@lru_cache(maxsize=None)
def engine(knot, lam, mu):
    normalized, _ = composite_homfly(knot, lam, mu)
    return normalized


# the composite fixtures with a defined engine color; prefactor exponents
# (apow, qpow) are the printed connection normalizations, None means the
# auto (tilde-normalize both sides) mode
CONNECTION_TABLE = (
    ("3_2:hd_1__1", (2, -2)),
    ("3_2:hd_2__1", (3, -3)),
    ("3_2:hd_1__1-1", (3, -5)),
    ("3_2:hd_1__1-1-1", (4, -10)),
    ("3_2:hd_2-1__1", (4, -6)),
    ("3_2:hd_1-1__1-1", None),
    ("3_2:hd_1-1__2", None),
    ("4_3:hd_1__1", (6, -6)),
)

# the printed two-variable HOMFLY-PT polynomials, each equal to the engine's
# normalized output as transcribed
PRINTED_HOMFLY_IDS = (
    "3_2:homfly_1__1",
    "3_2:homfly_2__1",
    "3_2:homfly_1__1-1",
    "3_2:homfly_1__1-1-1",
    "3_2:homfly_2-1__1",
    "4_3:homfly_1__1",
)

SUPERDUALITY_TABLE = (
    # (fixture A, fixture B, printed (tpow, qpow) or None)
    ("3_2:hd_1__1", "3_2:hd_1__1", (-2, 2)),
    ("4_3:hd_1__1", "4_3:hd_1__1", (-6, 6)),
    ("3_2:hd_2-1__1", "3_2:hd_2-1__1", (-6, 6)),
    ("3_2:hd_2__1", "3_2:hd_1__1-1", None),
    ("3_2:hd_1-1__2", "3_2:hd_1-1__2", None),
    ("3_2:hd_0__2", "3_2:hd_0__1-1", None),
)

HD_FIXTURE_IDS = (
    "3_2:hd_1__1",
    "3_2:hd_2__1",
    "3_2:hd_1__1-1",
    "3_2:hd_1__1-1-1",
    "3_2:hd_2-1__1",
    "3_2:hd_1-1__1-1",
    "3_2:hd_1-1__2",
    "3_2:hd_0__1",
    "3_2:hd_0__1-1",
    "3_2:hd_0__2",
    "4_3:hd_1__1",
)


def _sub_connection(poly):
    """t -> q, a -> -a."""
    return poly.substitute({"t": (1, {"q": 1}), "a": (-1, {"a": 1})})


def _sub_duality(poly):
    """q -> 1/t, t -> 1/q."""
    return poly.substitute({"q": (1, {"t": -1}), "t": (1, {"q": -1})})


# ---------------------------------------------------------------------------
# checks


def check_connection(fixture, prefactor=None):
    """Substituted fixture against the engine polynomial, exactly.

    Printed mode multiplies by the stated (apow, qpow) as a^apow q^qpow;
    auto mode, prefactor None, tilde-normalizes both sides.
    """
    diagram = fixture.diagram()
    eng = engine(fixture.knot, diagram.lam, diagram.mu)
    specialized = _sub_connection(fixture.poly)
    cid = "connection:%s" % fixture.id
    if prefactor is not None:
        apow, qpow = prefactor
        shifted = specialized * Laurent.monomial(QA, 1, a=apow, q=qpow)
        return CheckReport.compare(
            cid, shifted, eng, note="printed prefactor a^%s q^%s" % (apow, qpow)
        )
    return CheckReport.compare(
        cid, tilde_normalize(specialized), tilde_normalize(eng), note="auto prefactor"
    )


def check_printed(fixture):
    """A printed two-variable fixture against the engine, exactly."""
    diagram = fixture.diagram()
    eng = engine(fixture.knot, diagram.lam, diagram.mu)
    return CheckReport.compare("printed:%s" % fixture.id, fixture.poly, eng)


def check_superduality(fa, fb, printed=None):
    """fa(q,t,a) against fb(1/t,1/q,a) up to a q,t-monomial.

    fb's color must be the slotwise transpose of fa's.  When the source
    prints the exact monomials, that stricter form is asserted too.
    """
    cid = "superduality:%s~%s" % (fa.id, fb.id)
    flipped = _sub_duality(fb.poly)
    report = CheckReport.compare(
        cid, tilde_normalize(fa.poly), tilde_normalize(flipped), note="auto"
    )
    if report.status != "PASS" or printed is None:
        return report
    tpow, qpow = printed
    lhs = fa.poly * Laurent.monomial(QTA, 1, t=tpow)
    rhs = flipped * Laurent.monomial(QTA, 1, q=qpow)
    return CheckReport.compare(
        cid, lhs, rhs, note="printed monomials t^%s / q^%s" % (tpow, qpow)
    )


# the part a factor belongs to when var is set to 1, and the trefoil
# fixtures printed for one such part of k boxes; each is the factor for k,
# so checking it against its own factor would compare the fixture with itself
FACTOR_SOURCES = {
    "q": ("column", {1: "3_2:hd_0__1", 2: "3_2:hd_0__1-1"}),
    "t": ("row", {1: "3_2:hd_0__1", 2: "3_2:hd_0__2"}),
}


def _factors_at_1(fixtures, knot_tag, var):
    """The factors at var = 1 by part size, from printed data only."""
    if knot_tag == "3_2":
        return {
            k: get_fixture(fixtures, fid).poly.substitute({var: (1, {})})
            for k, fid in FACTOR_SOURCES[var][1].items()
        }
    # 4,3: the printed t = 1 row factor, at q = 1 carried through super-duality
    factor = get_fixture(fixtures, "4_3:factor_t1_row1").poly
    if var == "q":
        factor = tilde_normalize(factor.substitute({"q": (1, {"t": -1})}))
    return {1: factor}


def check_eval(fixture, var, factors):
    """Fixture at var = 1 against the product of its per-part factors,
    exactly: one factor per column of [lam, mu] at q = 1, per row at t = 1."""
    part, sources = FACTOR_SOURCES[var]
    cid = "%s1-eval:%s" % (var, fixture.id)
    if fixture.id in sources.values():
        return CheckReport(cid, "SKIP", note="factor source")
    lam, mu = fixture.diagram()
    parts = conjugate(lam) + conjugate(mu) if var == "q" else lam + mu
    if not factors.keys() >= set(parts):
        return CheckReport(cid, "SKIP", note="%s factor not printed" % part)
    start = Laurent.one(factors[1].vars)
    target = math.prod(map(factors.__getitem__, parts), start=start)
    return CheckReport.compare(cid, fixture.poly.substitute({var: (1, {})}), target)


def check_adeg(fixture):
    """a-degree against s(|lam| + |mu|) - |join|; a conjecture, not a theorem."""
    cid = "a-degree:%s" % fixture.id
    diagram = fixture.diagram()
    expected = fixture.knot.s * (
        diagram.lam.size() + diagram.mu.size()
    ) - join(diagram.lam, diagram.mu).size()
    actual = fixture.poly.degree("a")
    return CheckReport.compare(
        cid, actual, expected, note="conjectural degree bound", conjecture=True
    )


def check_exceptional(had, entry, target):
    """Hyperpolynomial at a = -t^nu against the series member's polynomial."""
    cid = "exceptional:%s:%s" % (had.id, entry.tag)
    if target is None:
        return CheckReport(cid, "SKIP", note="series target not printed")
    value = had.poly.substitute({"a": (-1, {"t": entry.nu})})
    return CheckReport.compare(
        cid, tilde_normalize(value), tilde_normalize(target), note="a = -t^%s" % entry.nu
    )


def check_canceling(had, pivot_qpow):
    """The two canceling-differential structures of a hyperpolynomial:
    value 1 at (t=1, a=-1), and exact divisibility of poly - pivot by
    1 - q t^{-1} a^6.  Over integer exponents that binomial is linear in q,
    so it divides f exactly when f vanishes at q = t a^-6; a fixture with a
    fractional exponent raises FixtureError instead."""
    cid = "canceling:%s" % had.id
    if not had.poly.has_integer_exponents():
        raise FixtureError("fixture %s: the canceling check needs integer exponents" % had.id)
    unit = had.poly.substitute({"t": (1, {}), "a": (-1, {})})
    if unit != Laurent.one(("q",)):
        return CheckReport(cid, "FAIL", note="value at t=1,a=-1", left=str(unit), right="1")
    pivot = Laurent.monomial(QTA, 1, q=pivot_qpow, t=-1, a=6)
    rest = (had.poly - pivot).substitute({"q": (1, {"t": 1, "a": -6})})
    if rest:
        return CheckReport(
            cid, "FAIL", note="indivisible by 1 - q t^-1 a^6", left=str(rest), right="0"
        )
    return CheckReport(cid, "PASS", note="unit at (t=1,a=-1); pivot q^%d" % pivot_qpow)


def check_hm_bridge():
    """The annulus-variable bridge: the (z, v) satellite polynomial of the
    adjoint trefoil, under v = a^{-1/2} and z = q^{1/2} - q^{-1/2} and an a^5
    shift, equals the engine output exactly."""
    cid = "hm-bridge:3_2"

    def vpow(k):
        return Laurent.monomial(QA, 1, a=-Fraction(k, 2))

    z2 = Laurent(QA, {(1, 0): 1, (0, 0): -2, (-1, 0): 1})
    transcribed = (
        vpow(2) - 4 * vpow(4) + 4 * vpow(6)
        + z2 * (Laurent.one(QA) + 2 * vpow(2) - 7 * vpow(4) + 4 * vpow(6))
        + z2 * z2 * (vpow(2) - 2 * vpow(4) + vpow(6))
    )
    shifted = transcribed * Laurent.monomial(QA, 1, a=5)
    eng = engine(TorusKnot(3, 2), Partition((1,)), Partition((1,)))
    return CheckReport.compare(cid, shifted, eng, note="v=a^-1/2, z=q^1/2-q^-1/2, a^5 shift")


def check_color_exchange(fixtures):
    """The unit-slope color-exchange instance at t = q^{-1}.

    The two-row/two-row polynomial would come from the two-column fixture
    via super-duality, but at t = q^{-1} the two sides agree for any
    polynomial, since (q, t) -> (1/t, 1/q) fixes that slice, so the unit
    slope is reported SKIP.  The ordering check compares the [w2, 2w1]
    fixture under the connection substitution with the engine's reversed
    color [2w1, w2].
    """
    swapped = get_fixture(fixtures, "3_2:hd_1-1__2")
    diagram = swapped.diagram()
    reordered = engine(swapped.knot, diagram.mu, diagram.lam)
    return [
        CheckReport(
            "color-exchange:3_2:w2w2~2w12w1", "SKIP", note="identity on t = q^-1"
        ),
        CheckReport.compare(
            "color-exchange:3_2:ordering",
            tilde_normalize(_sub_connection(swapped.poly)),
            tilde_normalize(reordered),
            note="[w2,2w1] vs [2w1,w2] via ordering symmetry",
        ),
    ]


def check_stabilization(knot, lam, mu):
    """Engine output at a = q^N against the finite-rank oracle, four ranks."""
    reports = []
    eng = engine(knot, lam, mu)
    base = max(len(lam) + len(mu), 1)
    for N in range(base, base + 4):
        cid = "oracle:%s:%s|%s:N=%d" % (knot, lam, mu, N)
        specialized = eng.substitute({"a": (1, {"q": N})})
        oracle = finite_N_oracle(knot, lam, mu, N)
        reports.append(CheckReport.compare(cid, specialized, oracle))
    return reports


# ---------------------------------------------------------------------------
# suites


def suite_connection(fixtures):
    reports = []
    for fid, prefactor in CONNECTION_TABLE:
        reports.append(check_connection(get_fixture(fixtures, fid), prefactor))
    for fid in PRINTED_HOMFLY_IDS:
        reports.append(check_printed(get_fixture(fixtures, fid)))
    reports.append(check_hm_bridge())
    return reports


def suite_duality(fixtures):
    reports = []
    for fa, fb, printed in SUPERDUALITY_TABLE:
        pair = get_fixture(fixtures, fa), get_fixture(fixtures, fb)
        reports.append(check_superduality(*pair, printed))
    reports.extend(check_color_exchange(fixtures))
    return reports


def suite_evaluation(fixtures):
    reports, factors = [], {}  # knot tag -> {var: factors at var = 1}
    for fid in HD_FIXTURE_IDS:
        fixture = get_fixture(fixtures, fid)
        tag = fid.split(":", 1)[0]
        if tag not in factors:
            factors[tag] = {var: _factors_at_1(fixtures, tag, var) for var in FACTOR_SOURCES}
        for var, at_1 in factors[tag].items():
            reports.append(check_eval(fixture, var, at_1))
        reports.append(check_adeg(fixture))
    return reports


def suite_exceptional(fixtures):
    reports = []
    targets32 = {
        "E8": get_fixture(fixtures, "3_2:jd_e8").poly,
        "E7": get_fixture(fixtures, "3_2:jd_e7").poly,
        "A2": get_fixture(fixtures, "3_2:hd_1__1").poly.substitute({"a": (-1, {"t": 3})}),
        "A1": get_fixture(fixtures, "3_2:hd_0__2").poly.substitute({"a": (-1, {"t": 2})}),
    }
    targets43 = {
        "A2": get_fixture(fixtures, "4_3:hd_1__1").poly.substitute({"a": (-1, {"t": 3})}),
        "A1": get_fixture(fixtures, "4_3:hd_1__1").poly.substitute({"a": (-1, {"t": 2})}),
    }
    for had_id, targets, pivot in (
        ("3_2:had", targets32, 3),
        ("4_3:had", targets43, 7),
    ):
        had = get_fixture(fixtures, had_id)
        for entry in EXCEPTIONAL_SERIES:
            reports.append(check_exceptional(had, entry, targets.get(entry.tag)))
        reports.append(check_canceling(had, pivot))
    return reports


def suite_oracle(fixtures):
    reports = []
    for fid, _ in CONNECTION_TABLE:
        fixture = get_fixture(fixtures, fid)
        diagram = fixture.diagram()
        reports.extend(check_stabilization(fixture.knot, diagram.lam, diagram.mu))
    return reports


SUITES = {
    "connection": suite_connection,
    "duality": suite_duality,
    "evaluation": suite_evaluation,
    "exceptional": suite_exceptional,
    "oracle": suite_oracle,
}


def run_suite(name, fixtures):
    """Run one suite, or 'all' in name order; reports come suite by suite."""
    if name == "all":
        reports = []
        for key in sorted(SUITES):
            reports.extend(SUITES[key](fixtures))
        return reports
    if name not in SUITES:
        raise KeyError("unknown suite %r" % name)
    return SUITES[name](fixtures)


def summarize(reports):
    counts = Counter({"PASS": 0, "FAIL": 0, "SKIP": 0})
    counts.update(report.status for report in reports)
    return counts
