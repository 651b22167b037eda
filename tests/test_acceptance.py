"""Acceptance gate: one test per criterion, each timed against its budget.

Every comparison is exact integer-coefficient polynomial equality; there are
no tolerances anywhere.  Each test prints a single criterion verdict line.
"""

import random
import time
from fractions import Fraction

import pytest

from comphomfly.partitions import EMPTY, Partition, compose_at_N
from comphomfly.qexact import (
    Bracket,
    Laurent,
    SymExponent,
    UNIT_BRACKET,
    bracket_numerator,
    exact_divide,
    render_quotient,
)
from comphomfly.rosso import (
    TorusKnot,
    braiding_eigenvalue,
    composite_homfly,
    quantum_dimension,
)
from comphomfly import symfunc as sf
from comphomfly import verify

import macdonald as md
from oracles import (
    composite_schur_at_rank,
    monomial_to_schur,
    parse_expr,
    partitions_of,
    reduce_columns,
    schur_monomials,
)

P = Partition.parse
QA = ("q", "a")
TREFOIL = TorusKnot(3, 2)
T43 = TorusKnot(4, 3)


def _verdict(name, budget, started):
    elapsed = time.time() - started
    assert elapsed < budget, "%s exceeded budget: %.1fs >= %ss" % (name, elapsed, budget)
    print("ACCEPT %s: PASS (%.2fs, budget %ss)" % (name, elapsed, budget))


@pytest.fixture(scope="module")
def fixtures():
    return verify.load_fixtures()


def test_criterion_1_table_reproduction():
    started = time.time()

    sym = SymExponent.make

    def dim(beta, gamma):
        return render_quotient(*quantum_dimension(P(beta), P(gamma)))

    # single-diagram table: eigenvalues, Adams column, dimensions
    assert braiding_eigenvalue(EMPTY, P("1")) == sym(Fraction(-1, 2), 0, Fraction(1, 2))
    assert braiding_eigenvalue(EMPTY, P("2")) == sym(-1, -1, 2)
    assert braiding_eigenvalue(EMPTY, P("1,1")) == sym(-1, 1, 2)
    assert sf.adams_coefficients(P("1"), 2) == {P("2"): 1, P("1,1"): -1}
    assert dim("0", "1") == "[N]"
    assert dim("0", "2") == "[N][N+1]/[2]"
    assert dim("0", "1,1") == "[N-1][N]/[2]"

    # composite table: eigenvalues, Adams coefficients, dimensions
    assert braiding_eigenvalue(P("1"), P("1")) == sym(-1)
    assert braiding_eigenvalue(P("2"), P("2")) == sym(-2, -2)
    assert braiding_eigenvalue(P("2"), P("1,1")) == sym(-2)
    assert braiding_eigenvalue(P("1,1"), P("2")) == sym(-2)
    assert braiding_eigenvalue(P("1,1"), P("1,1")) == sym(-2, 2)
    assert braiding_eigenvalue(EMPTY, EMPTY) == sym()
    assert sf.composite_adams(P("1"), P("1"), 2) == {
        (P("2"), P("2")): 1,
        (P("2"), P("1,1")): -1,
        (P("1,1"), P("2")): -1,
        (P("1,1"), P("1,1")): 1,
        (EMPTY, EMPTY): 1,
    }
    assert dim("1", "1") == "[N-1][N+1]"
    assert dim("2", "2") == "[N-1][N]^2[N+3]/[2]^2"
    assert dim("2", "1,1") == "[N-2][N-1][N+1][N+2]/[2]^2"
    assert dim("1,1", "1,1") == "[N-3][N]^2[N+1]/[2]^2"
    _verdict("criterion-1 table reproduction", 1, started)


def test_criterion_2_worked_examples():
    started = time.time()
    assert composite_homfly(TREFOIL, EMPTY, P("1")).normalized == parse_expr(
        "a*q^-1 - a^2 + a*q", QA
    )
    assert composite_homfly(TREFOIL, P("1"), P("1")).normalized == parse_expr(
        "a^2*(q^-2+q^2+2) + a^3*(-2*q^-2+q^-1+q-2*q^2-2)"
        "+ a^4*(q^-2-2*q^-1-2*q+q^2+3) + a^5*(q^-1+q-2)",
        QA,
    )
    _verdict("criterion-2 worked examples", 1, started)


def test_criterion_3_t43_adjoint(fixtures):
    started = time.time()
    engine = composite_homfly(T43, P("1"), P("1")).normalized
    assert engine == fixtures["4_3:homfly_1__1"].poly
    _verdict("criterion-3 T(4,3) adjoint", 2, started)


def test_criterion_4_connection_suite(fixtures):
    started = time.time()
    reports = verify.suite_connection(fixtures)
    connection = [r for r in reports if r.check_id.startswith("connection:")]
    assert len(connection) == 8
    assert all(r.status == "PASS" for r in connection), [r.line() for r in connection]
    printed = [r for r in connection if "printed" in r.note]
    assert len(printed) == 6
    _verdict("criterion-4 connection suite", 2, started)


def test_criterion_5_finite_rank_oracle(fixtures):
    started = time.time()
    reports = verify.suite_oracle(fixtures)
    assert len(reports) == 32  # eight colors, four ranks each
    assert all(r.status == "PASS" for r in reports), [
        r.line() for r in reports if r.status != "PASS"
    ]
    _verdict("criterion-5 stabilization oracle", 2, started)


def test_criterion_6_symmetry_suite(fixtures):
    started = time.time()
    duality = verify.suite_duality(fixtures)
    statuses = {r.check_id: r.status for r in duality}
    # the unit slope is an identity of the duality map, reported SKIP
    assert statuses.pop("color-exchange:3_2:w2w2~2w12w1") == "SKIP"
    assert all(s == "PASS" for s in statuses.values()), [r.line() for r in duality]
    evaluation = verify.suite_evaluation(fixtures)
    assert not any(r.status == "FAIL" for r in evaluation), [
        r.line() for r in evaluation
    ]
    # engine-level ordering symmetry
    assert (
        composite_homfly(TREFOIL, P("1,1"), P("2")).normalized
        == composite_homfly(TREFOIL, P("2"), P("1,1")).normalized
    )
    _verdict("criterion-6 symmetry suite", 2, started)


def test_criterion_7_a_degree_conjecture(fixtures):
    started = time.time()
    reports = [
        verify.check_adeg(fixtures[fid]) for fid in verify.HD_FIXTURE_IDS
    ]
    assert all(r.conjecture for r in reports)
    failures = [r.line() for r in reports if r.status != "PASS"]
    # reported, and in fact clean on every transcribed polynomial
    assert not failures, failures
    stated = {
        "3_2:hd_1__1": 3,
        "3_2:hd_1__1-1-1": 5,
        "3_2:hd_1-1__2": 5,
        "3_2:hd_1-1__1-1": 6,
    }
    for fid, value in stated.items():
        assert fixtures[fid].poly.degree("a") == value
    _verdict("criterion-7 a-degree conjecture", 2, started)


def test_criterion_8_exceptional_suite(fixtures):
    started = time.time()
    reports = verify.suite_exceptional(fixtures)
    by_id = {r.check_id: r for r in reports}
    for cid in (
        "exceptional:3_2:had:E8",
        "exceptional:3_2:had:E7",
        "exceptional:3_2:had:A2",
        "exceptional:3_2:had:A1",
        "exceptional:4_3:had:A2",
        "exceptional:4_3:had:A1",
        "canceling:3_2:had",
        "canceling:4_3:had",
    ):
        assert by_id[cid].status == "PASS", by_id[cid].line()
    for cid in ("exceptional:3_2:had:D4", "exceptional:3_2:had:E6"):
        assert by_id[cid].status == "SKIP"
    _verdict("criterion-8 exceptional suite", 2, started)


def test_criterion_9_macdonald_checks():
    started = time.time()
    for size in range(0, 5):
        for lam in partitions_of(size):
            for n in range(max(1, len(lam)), 4):
                p = md.macdonald_p(lam, n)
                s = md.schur_restricted(lam, n)
                for key in set(p) | set(s):
                    a = p.get(key, md.QTF_ZERO)
                    b = s.get(key, md.QTF_ZERO)
                    lhs = (a.num * b.den).substitute({"t": (1, {"q": 1})})
                    rhs = (b.num * a.den).substitute({"t": (1, {"q": 1})})
                    assert lhs == rhs, (lam, n, key)
            for n in range(max(1, len(lam)), 4):
                if size:
                    report = md.duality_check(lam, n)
                    assert report.ok, (lam, n)
            for rank in range(max(1, len(lam)), 4):
                if size and rank + 1 <= md.MAX_VARIABLES:
                    lhs = md.principal_specialization(
                        md.macdonald_p(lam, rank + 1), rank + 1
                    )
                    assert lhs == md.evaluation_formula(lam, rank), (lam, rank)
    _verdict("criterion-9 Macdonald checks", 3, started)


def test_criterion_10_property_suites():
    started = time.time()
    rng = random.Random(2024)

    def random_laurent(terms):
        out = Laurent(QA)
        for _ in range(terms):
            exps = {
                v: Fraction(rng.randint(-6, 6), 2) for v in QA
            }
            out = out + Laurent.monomial(QA, rng.randint(-4, 4), **exps)
        return out

    # ring axioms
    for _ in range(40):
        a, b, c = (random_laurent(4) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)

    # division round trips
    done = 0
    while done < 500:
        a, b = random_laurent(rng.randint(1, 5)), random_laurent(rng.randint(1, 4))
        if not a or not b:
            continue
        done += 1
        assert exact_divide(a * b, b) == a

    # bracket finite-rank consistency
    unit_q = bracket_numerator(UNIT_BRACKET).substitute({"a": (1, {})})
    for u, v in [(0, 2), (1, 0), (1, -2), (1, 2)]:
        for N in range(2, 7):
            numer = bracket_numerator(Bracket(u, v)).substitute({"a": (1, {"q": N})})
            m = u * N + v  # positive on this grid
            qint = Laurent(("q",), {(Fraction(m - 1 - 2 * k, 2),): 1 for k in range(m)})
            assert exact_divide(numer, unit_q) == qint

    # plethysm brute-force oracle, |lam| <= 3, r <= 3
    for size in range(0, 4):
        for lam in partitions_of(size):
            for r in (1, 2, 3):
                monomials = schur_monomials(lam, 4)
                scaled = {
                    tuple(r * e for e in exps): c for exps, c in monomials.items()
                }
                expected = monomial_to_schur(scaled, 4)
                full = sf.adams_coefficients(lam, r)
                assert {n: c for n, c in full.items() if len(n) <= 4} == expected

    # composite Adams against the finite-rank expansion, |lam|,|mu| <= 2, r <= 3
    shapes = [EMPTY, P("1"), P("2"), P("1,1")]
    for lam in shapes:
        for mu in shapes:
            base = max(len(lam) + len(mu), 1)
            for r in (1, 2, 3):
                expansion = sf.composite_adams(lam, mu, r)
                for N in range(base, base + 4):
                    zeta = compose_at_N(lam, mu, N)
                    direct = {}
                    for nu, c in sf.adams_at_rank(zeta, r, N).items():
                        key = reduce_columns(nu, N)
                        direct[key] = direct.get(key, 0) + c
                    direct = {k: v for k, v in direct.items() if v}
                    assembled = {}
                    for (beta, gamma), c in expansion.items():
                        for key, k in composite_schur_at_rank(beta, gamma, N).items():
                            assembled[key] = assembled.get(key, 0) + c * k
                    assembled = {k: v for k, v in assembled.items() if v}
                    assert assembled == direct, (lam, mu, r, N)
    _verdict("criterion-10 property suites", 10, started)
