"""Transcribed fixtures and the symmetry checks that tie them to the engine.

Fixtures are three-variable superpolynomials, two-variable printed torus-knot
polynomials, and the two exceptional hyperpolynomials, all stored in the
term-file format with source tags and checksums.  The checks below compare
them with each other and with the engine through connection, super-duality,
q = 1 / t = 1 factorizations, the a-degree conjecture, exceptional-series
specializations, canceling differentials, and the finite-rank oracle.
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from .partitions import CompositeDiagram, Partition, conjugate, join
from .qexact import (
    InexactDivisionError,
    Laurent,
    exact_divide,
    loads_poly,
    tilde_normalize,
)
from .rosso import TorusKnot, composite_homfly, finite_N_oracle

QA = ("q", "a")
QTA = ("q", "t", "a")


@dataclass(frozen=True)
class Fixture:
    """A transcribed polynomial with provenance."""

    id: str
    knot: TorusKnot
    color: str
    poly: Laurent
    source: str

    def diagram(self):
        return CompositeDiagram.parse(self.color)


@dataclass
class CheckReport:
    """Verdict of one check; failing reports carry both sides verbatim."""

    check_id: str
    status: str  # PASS | FAIL | SKIP
    note: str = ""
    left: str = ""
    right: str = ""
    extracted: tuple = ()
    conjecture: bool = False

    @classmethod
    def compare(cls, check_id, left, right, note="", conjecture=False, extracted=()):
        if left == right:
            return cls(check_id, "PASS", note, conjecture=conjecture, extracted=extracted)
        return cls(
            check_id,
            "FAIL",
            note,
            left=str(left),
            right=str(right),
            conjecture=conjecture,
            extracted=extracted,
        )

    def line(self):
        tail = "  # %s" % self.note if self.note else ""
        return "%s %s%s" % (self.status, self.check_id, tail)


@dataclass(frozen=True)
class ExceptionalSeriesEntry:
    """One member of the exceptional chain with its a-specialization slope."""

    tag: str
    nu: Fraction
    weight: str


EXCEPTIONAL_SERIES = (
    ExceptionalSeriesEntry("A1", Fraction(1, 3), "2w1"),
    ExceptionalSeriesEntry("A2", Fraction(1, 2), "w1+w2"),
    ExceptionalSeriesEntry("D4", Fraction(1), "w2"),
    ExceptionalSeriesEntry("E6", Fraction(2), "w2"),
    ExceptionalSeriesEntry("E7", Fraction(3), "w1"),
    ExceptionalSeriesEntry("E8", Fraction(5), "w8"),
)


# ---------------------------------------------------------------------------
# fixture loading


def fixture_root():
    return Path(importlib.resources.files("comphomfly") / "fixtures")


def load_fixtures(root=None):
    """Load every .poly file under the fixture directory, keyed by id."""
    root = Path(root) if root else fixture_root()
    out = {}
    for path in sorted(root.glob("*/*.poly")):
        poly, meta = loads_poly(path.read_text())
        fid = meta.get("id", path.stem)
        out[fid] = Fixture(
            id=fid,
            knot=TorusKnot.parse(meta["knot"]),
            color=meta.get("color", ""),
            poly=poly,
            source=meta.get("source", ""),
        )
    if not out:
        raise FileNotFoundError("no fixtures found under %s" % root)
    return out


# engine results are pure functions of the color; share them across checks
@lru_cache(maxsize=None)
def engine(knot, lam, mu):
    return composite_homfly(knot, lam, mu)


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


def check_connection(fixture, prefactor="auto"):
    """Substituted fixture against the engine polynomial, exactly.

    Printed mode multiplies by the stated a^i q^j; auto mode
    tilde-normalizes both sides and reports the extracted monomials.
    """
    diagram = fixture.diagram()
    eng = engine(fixture.knot, diagram.lam, diagram.mu).normalized
    specialized = _sub_connection(fixture.poly)
    cid = "connection:%s" % fixture.id
    if prefactor not in (None, "auto"):
        apow, qpow = prefactor
        shifted = specialized * Laurent.monomial(QA, 1, a=apow, q=qpow)
        return CheckReport.compare(
            cid, shifted, eng, note="printed prefactor a^%s q^%s" % (apow, qpow)
        )
    left, lex = tilde_normalize(specialized)
    right, rex = tilde_normalize(eng)
    return CheckReport.compare(
        cid, left, right, note="auto prefactor", extracted=(lex, rex)
    )


def check_superduality(fa, fb, printed=None):
    """fa(q,t,a) against fb(1/t,1/q,a) up to a q,t-monomial.

    fb's color must be the slotwise transpose of fa's.  When the source
    prints the exact monomials, that stricter form is asserted too.
    """
    cid = "superduality:%s~%s" % (fa.id, fb.id)
    flipped = _sub_duality(fb.poly)
    left, lex = tilde_normalize(fa.poly)
    right, rex = tilde_normalize(flipped)
    report = CheckReport.compare(cid, left, right, note="auto", extracted=(lex, rex))
    if report.status != "PASS" or printed is None:
        return report
    tpow, qpow = printed
    lhs = fa.poly * Laurent.monomial(QTA, 1, t=tpow)
    rhs = flipped * Laurent.monomial(QTA, 1, q=qpow)
    return CheckReport.compare(
        cid, lhs, rhs, note="printed monomials t^%s / q^%s" % (tpow, qpow)
    )


def _column_factors_q1(fixtures, knot_tag):
    """Column factors HD(omega_i; q=1, t, a), from printed data only."""
    if knot_tag == "3_2":
        return {
            1: fixtures["3_2:hd_0__1"].poly.substitute({"q": (1, {})}),
            2: fixtures["3_2:hd_0__1-1"].poly.substitute({"q": (1, {})}),
        }
    # 4,3: the printed t=1 row factor, carried through super-duality
    factor = fixtures["4_3:factor_t1_row1"].poly.substitute({"q": (1, {"t": -1})})
    factor, _ = tilde_normalize(factor)
    return {1: factor}


def _row_factors_t1(fixtures, knot_tag):
    """Row factors HD(k omega_1; q, t=1, a), from printed data only."""
    if knot_tag == "3_2":
        return {
            1: fixtures["3_2:hd_0__1"].poly.substitute({"t": (1, {})}),
            2: fixtures["3_2:hd_0__2"].poly.substitute({"t": (1, {})}),
        }
    return {1: fixtures["4_3:factor_t1_row1"].poly}


def _product_over(parts, factors):
    vars = None
    for f in factors.values():
        vars = f.vars
        break
    out = Laurent.one(vars)
    for k in parts:
        if k not in factors:
            return None
        out = out * factors[k]
    return out


def check_q1_eval(fixture, factors):
    """Fixture at q = 1 against the product of per-column factors."""
    cid = "q1-eval:%s" % fixture.id
    diagram = fixture.diagram()
    columns = []
    for side in (diagram.lam, diagram.mu):
        columns.extend(conjugate(side))
    target = _product_over(columns, factors)
    if target is None:
        return CheckReport(cid, "SKIP", note="column factor not printed")
    value = fixture.poly.substitute({"q": (1, {})})
    left, lex = tilde_normalize(value)
    right, rex = tilde_normalize(target)
    return CheckReport.compare(cid, left, right, extracted=(lex, rex))


def check_t1_eval(fixture, factors):
    """Fixture at t = 1 against the product of per-row factors."""
    cid = "t1-eval:%s" % fixture.id
    diagram = fixture.diagram()
    rows = diagram.lam + diagram.mu
    target = _product_over(rows, factors)
    if target is None:
        return CheckReport(cid, "SKIP", note="row factor not printed")
    value = fixture.poly.substitute({"t": (1, {})})
    return CheckReport.compare(cid, value, target)


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
    left, lex = tilde_normalize(value)
    right, rex = tilde_normalize(target)
    return CheckReport.compare(
        cid, left, right, note="a = -t^%s" % entry.nu, extracted=(lex, rex)
    )


def check_canceling(had, pivot_qpow):
    """The two canceling-differential structures of a hyperpolynomial:
    value 1 at (t=1, a=-1), and exact divisibility of poly - pivot by
    1 - q t^{-1} a^6."""
    cid = "canceling:%s" % had.id
    unit = had.poly.substitute({"t": (1, {}), "a": (-1, {})})
    if unit != Laurent.one(("q",)):
        return CheckReport(cid, "FAIL", note="value at t=1,a=-1", left=str(unit), right="1")
    pivot = Laurent.monomial(QTA, 1, q=pivot_qpow, t=-1, a=6)
    modulus = Laurent.one(QTA) - Laurent.monomial(QTA, 1, q=1, t=-1, a=6)
    try:
        exact_divide(had.poly - pivot, modulus)
    except InexactDivisionError as err:
        return CheckReport(
            cid,
            "FAIL",
            note="indivisible by 1 - q t^-1 a^6",
            left=str(err.remainder),
            right="0",
        )
    return CheckReport(cid, "PASS", note="unit at (t=1,a=-1); pivot q^%d" % pivot_qpow)


def check_hm_bridge():
    """The annulus-variable bridge: the (z, v) satellite polynomial of the
    adjoint trefoil, under v = a^{-1/2} and z = q^{1/2} - q^{-1/2} and an a^5
    shift, equals the engine output exactly."""
    cid = "hm-bridge:3_2"
    half = Fraction(1, 2)

    def vpow(k):
        return Laurent.monomial(QA, 1, a=-Fraction(k, 2))

    z2 = Laurent(
        QA, {(Fraction(1), Fraction(0)): 1, (Fraction(0), Fraction(0)): -2, (Fraction(-1), Fraction(0)): 1}
    )
    transcribed = (
        vpow(2) - 4 * vpow(4) + 4 * vpow(6)
        + z2 * (Laurent.one(QA) + 2 * vpow(2) - 7 * vpow(4) + 4 * vpow(6))
        + z2 * z2 * (vpow(2) - 2 * vpow(4) + vpow(6))
    )
    shifted = transcribed * Laurent.monomial(QA, 1, a=5)
    eng = engine(TorusKnot(3, 2), Partition((1,)), Partition((1,))).normalized
    return CheckReport.compare(cid, shifted, eng, note="v=a^-1/2, z=q^1/2-q^-1/2, a^5 shift")


def check_color_exchange(fixtures):
    """The unit-slope color-exchange instance at t = q^{-1}.

    The two-row/two-row polynomial is constructed from the two-column
    fixture via super-duality, both sides are specialized to t = q^{-1} and
    compared after tilde-normalization; a wrong-slope control at t = q^{-2}
    must mismatch.  The ordering check compares the [w2, 2w1] fixture under
    the connection substitution with the engine's reversed color [2w1, w2].
    """
    w2w2 = fixtures["3_2:hd_1-1__1-1"].poly
    r2r2 = _sub_duality(w2w2)  # the [2|2]-colored polynomial, up to a monomial

    def at_slope(poly, k):
        value = poly.substitute({"t": (1, {"q": -k})})
        out, _ = tilde_normalize(value)
        return out

    reports = []
    left, right = at_slope(w2w2, 1), at_slope(r2r2, 1)
    reports.append(
        CheckReport.compare(
            "color-exchange:3_2:w2w2~2w12w1", left, right, note="t = q^-1"
        )
    )
    swapped = fixtures["3_2:hd_1-1__2"]
    diagram = swapped.diagram()
    reordered = engine(swapped.knot, diagram.mu, diagram.lam).normalized
    reports.append(
        CheckReport.compare(
            "color-exchange:3_2:ordering",
            tilde_normalize(_sub_connection(swapped.poly))[0],
            tilde_normalize(reordered)[0],
            note="[w2,2w1] vs [2w1,w2] via ordering symmetry",
        )
    )
    control_l, control_r = at_slope(w2w2, 2), at_slope(r2r2, 2)
    if control_l == control_r:
        reports.append(
            CheckReport(
                "color-exchange:3_2:negative-control",
                "FAIL",
                note="t = q^-2 unexpectedly satisfied the exchange",
            )
        )
    else:
        reports.append(
            CheckReport(
                "color-exchange:3_2:negative-control",
                "PASS",
                note="t = q^-2 mismatches, as the slope hypothesis requires",
            )
        )
    return reports


def check_stabilization(knot, lam, mu, span=4):
    """Engine output at a = q^N against the finite-rank oracle."""
    reports = []
    eng = engine(knot, lam, mu).normalized
    base = len(lam) + len(mu)
    for N in range(base, base + span):
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
        reports.append(check_connection(fixtures[fid], prefactor or "auto"))
    reports.append(check_hm_bridge())
    return reports


def suite_duality(fixtures):
    reports = []
    for fa, fb, printed in SUPERDUALITY_TABLE:
        reports.append(check_superduality(fixtures[fa], fixtures[fb], printed))
    reports.extend(check_color_exchange(fixtures))
    return reports


def suite_evaluation(fixtures):
    reports = []
    for fid in HD_FIXTURE_IDS:
        fixture = fixtures[fid]
        tag = fid.split(":", 1)[0]
        reports.append(check_q1_eval(fixture, _column_factors_q1(fixtures, tag)))
        reports.append(check_t1_eval(fixture, _row_factors_t1(fixtures, tag)))
        reports.append(check_adeg(fixture))
    return reports


def suite_exceptional(fixtures):
    reports = []
    targets32 = {
        "E8": fixtures["3_2:jd_e8"].poly,
        "E7": fixtures["3_2:jd_e7"].poly,
        "A2": fixtures["3_2:hd_1__1"].poly.substitute({"a": (-1, {"t": 3})}),
        "A1": fixtures["3_2:hd_0__2"].poly.substitute({"a": (-1, {"t": 2})}),
    }
    targets43 = {
        "A2": fixtures["4_3:hd_1__1"].poly.substitute({"a": (-1, {"t": 3})}),
        "A1": fixtures["4_3:hd_1__1"].poly.substitute({"a": (-1, {"t": 2})}),
    }
    for had_id, targets, pivot in (
        ("3_2:had", targets32, 3),
        ("4_3:had", targets43, 7),
    ):
        had = fixtures[had_id]
        for entry in EXCEPTIONAL_SERIES:
            reports.append(check_exceptional(had, entry, targets.get(entry.tag)))
        reports.append(check_canceling(had, pivot))
    return reports


def suite_oracle(fixtures):
    reports = []
    seen = set()
    for fid, _ in CONNECTION_TABLE:
        fixture = fixtures[fid]
        diagram = fixture.diagram()
        key = (fixture.knot, diagram)
        if key in seen:
            continue
        seen.add(key)
        reports.extend(check_stabilization(fixture.knot, diagram.lam, diagram.mu))
    return reports


SUITES = {
    "connection": suite_connection,
    "duality": suite_duality,
    "evaluation": suite_evaluation,
    "exceptional": suite_exceptional,
    "oracle": suite_oracle,
}


def run_suite(name, fixtures=None):
    """Run one suite (or 'all'); returns reports sorted by check id."""
    fixtures = fixtures or load_fixtures()
    if name == "all":
        reports = []
        for key in sorted(SUITES):
            reports.extend(SUITES[key](fixtures))
        return reports
    if name not in SUITES:
        raise KeyError("unknown suite %r" % name)
    return SUITES[name](fixtures)


def summarize(reports):
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    for report in reports:
        counts[report.status] = counts.get(report.status, 0) + 1
    return counts
