import random
from fractions import Fraction

import pytest

from comphomfly import qexact, rosso, verify
from comphomfly.partitions import (
    EMPTY,
    Partition,
    RankTooSmallError,
    compose_at_N,
    conjugate,
    kappa,
)
from comphomfly.qexact import (
    Bracket,
    InexactDivisionError,
    Laurent,
    SymExponent,
    UNIT_BRACKET as UNIT,
    exact_divide,
    render_quotient,
)
from comphomfly.rosso import (
    TorusKnot,
    braiding_eigenvalue,
    bracket_sum,
    composite_homfly,
    finite_N_oracle,
    qdim_at_rank,
    quantum_dimension,
)

from oracles import classical_homfly, exponent_at_rank, kernel_rows, parse_expr, partitions_of

P = Partition.parse
QA = ("q", "a")

TREFOIL = TorusKnot(3, 2)
T43 = TorusKnot(4, 3)

FUNDAMENTAL = parse_expr("a*q^-1 - a^2 + a*q", QA)
ADJOINT32 = parse_expr(
    "a^2*(q^-2+q^2+2) + a^3*(-2*q^-2+q^-1+q-2*q^2-2)"
    "+ a^4*(q^-2-2*q^-1-2*q+q^2+3) + a^5*(q^-1+q-2)",
    QA,
)


sym = SymExponent.make


def test_torus_knot_validation():
    assert TorusKnot(2, 3) == TorusKnot(3, 2)
    assert TorusKnot.parse("3,2").r == 3
    swapped = TorusKnot(2, 3)  # the larger number is stored first
    assert (swapped.r, swapped.s) == (3, 2)
    assert str(swapped) == "3,2"
    assert repr(swapped) == "TorusKnot(r=3, s=2)"
    with pytest.raises(ValueError):
        TorusKnot(4, 2)
    with pytest.raises(ValueError):
        TorusKnot(1, 1)


def test_braiding_eigenvalue_single_table():
    assert braiding_eigenvalue(EMPTY, P("1")) == sym(Fraction(-1, 2), 0, Fraction(1, 2))
    assert braiding_eigenvalue(EMPTY, P("2")) == sym(-1, -1, 2)
    assert braiding_eigenvalue(EMPTY, P("1,1")) == sym(-1, 1, 2)


def test_braiding_eigenvalue_composite_table():
    assert braiding_eigenvalue(P("1"), P("1")) == sym(-1)
    assert braiding_eigenvalue(P("2"), P("2")) == sym(-2, -2)
    assert braiding_eigenvalue(P("2"), P("1,1")) == sym(-2)
    assert braiding_eigenvalue(P("1,1"), P("2")) == sym(-2)
    assert braiding_eigenvalue(P("1,1"), P("1,1")) == sym(-2, 2)
    assert braiding_eigenvalue(EMPTY, EMPTY) == sym()


def test_braiding_eigenvalue_matches_finite_rank():
    # the closed form against the rank-N exponent of the composed diagram,
    # on random colors with up to five boxes per slot
    rng = random.Random(23)
    for _ in range(120):
        lam, mu = (rng.choice(partitions_of(rng.randrange(6))) for _ in range(2))
        theta = braiding_eigenvalue(lam, mu)
        base = max(len(lam) + len(mu), 1)
        for N in range(base, base + 5):
            zeta = compose_at_N(lam, mu, N)
            n = zeta.size()
            direct = Fraction(-(kappa(zeta) + n * N), 2) + Fraction(n * n, 2 * N)
            assert exponent_at_rank(theta, N) == direct, (lam, mu, N)


ONE_Q = Laurent.one(("q",))


def dim_at(dim, N):
    """A (num, den) pair of equally long bracket lists at rank N, as a
    Laurent in q^{1/2}: each [uN + v] becomes the constant bracket [uN + v],
    and num over den is one row summed over (q, a), a dropped."""
    num, den = ([Bracket(0, b.u * N + b.v) for b in side] for side in dim)
    return bracket_sum(*kernel_rows([(Laurent.one(QA), num, den)])).substitute({"a": (1, {})})


def quantum_integer(m):
    """[m] as the explicit sum of q^{(m-1-2k)/2} over 0 <= k < m, for m > 0."""
    return Laurent(("q",), {(Fraction(m - 1 - 2 * k, 2),): 1 for k in range(m)})


def test_bracket_sum_matches_quantum_integers():
    # independent reference: the rank-N Weyl product in explicit quantum
    # integers, numerators multiplied, denominators divided out one at a time
    for shape in (s for n in range(5) for s in partitions_of(n)):
        for N in range(len(shape), 7):
            pairs = [(i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1)]
            direct = ONE_Q
            for i, j in pairs:
                direct = direct * quantum_integer(shape.row(i) - shape.row(j) + j - i)
            for i, j in pairs:
                direct = exact_divide(direct, quantum_integer(j - i))
            weyl = qdim_at_rank(shape, N), qdim_at_rank(EMPTY, N)
            assert dim_at(weyl, N) == direct, (shape, N)


def test_bracket_sum_negative_controls():
    # 1/[2] is no polynomial
    with pytest.raises(InexactDivisionError):
        bracket_sum(*kernel_rows([(Laurent.one(QA), [UNIT], [Bracket(0, 2)])]))
    # exact where no single term is a polynomial: (q^{1/2} + q^{-1/2})/[2] = 1
    halves = [
        (Laurent.monomial(QA, 1, q=Fraction(e, 2)), [UNIT], [Bracket(0, 2)]) for e in (1, -1)
    ]
    assert bracket_sum(*kernel_rows(halves)) == Laurent.one(QA)


def test_bracket_sums_use_one_division_primitive(monkeypatch):
    # the engine, the oracle and a sum that needs the second digit width
    # all run on the packed kernel alone: no exact_divide, no binomial
    # polynomial and no product of two polynomials
    colors = [(TREFOIL, "1", "1"), (TREFOIL, "2,1", "2,1"), (T43, "2", "2")]
    engine = [composite_homfly(knot, P(lam), P(mu)).normalized for knot, lam, mu in colors]
    oracle = finite_N_oracle(TREFOIL, P("2,1"), P("2,1"), 4)
    # at N = 6 the dimension of [2|2,1] is [4][5][6][7][9]/[2][3]
    wide = quantum_dimension(P("2"), P("2,1"))
    wide_at_6 = dim_at(wide, 6)

    def refuse(*args):
        raise AssertionError("a bracket sum left the packed kernel")

    plain_mul = Laurent.__mul__

    def scalar_mul(self, other):
        if isinstance(other, Laurent):
            refuse()
        return plain_mul(self, other)

    for module in (qexact, rosso):
        monkeypatch.setattr(module, "exact_divide", refuse)
        monkeypatch.setattr(module, "bracket_numerator", refuse)
    monkeypatch.setattr(Laurent, "__mul__", scalar_mul)
    for (knot, lam, mu), want in zip(colors, engine):
        assert composite_homfly(knot, P(lam), P(mu)).normalized == want
    assert finite_N_oracle(TREFOIL, P("2,1"), P("2,1"), 4) == oracle
    assert dim_at(wide, 6) == wide_at_6


def test_hot_paths_render_no_quotient(monkeypatch):
    # the engine and the oracle hand bracket_sum raw bracket lists;
    # render_quotient only prints a dimension
    colors = [(TREFOIL, "1", "1"), (TREFOIL, "2,1", "2,1"), (T43, "2", "1,1")]
    engine = [composite_homfly(knot, P(lam), P(mu)).normalized for knot, lam, mu in colors]
    oracle = [finite_N_oracle(knot, P(lam), P(mu), 4) for knot, lam, mu in colors]
    assert engine[0] == ADJOINT32

    def refuse(*args):
        raise AssertionError("a hot path rendered a bracket quotient")

    for module in (qexact, rosso):
        monkeypatch.setattr(module, "render_quotient", refuse)
    with pytest.raises(AssertionError, match="rendered a bracket quotient"):
        composite_homfly(TREFOIL, P("1"), P("1")).terms[0].render()
    for (knot, lam, mu), want, at_4 in zip(colors, engine, oracle):
        assert composite_homfly(knot, P(lam), P(mu)).normalized == want
        assert finite_N_oracle(knot, P(lam), P(mu), 4) == at_4


DIMENSION_TABLE = {
    ("0", "0"): "1",
    ("0", "1"): "[N]",
    ("0", "2"): "[N][N+1]/[2]",
    ("0", "1,1"): "[N-1][N]/[2]",
    ("1", "1"): "[N-1][N+1]",
    ("2", "2"): "[N-1][N]^2[N+3]/[2]^2",
    ("2", "1,1"): "[N-2][N-1][N+1][N+2]/[2]^2",
    ("1,1", "1,1"): "[N-3][N]^2[N+1]/[2]^2",
}


def rendered_dimensions():
    return {
        (beta, gamma): render_quotient(*quantum_dimension(P(beta), P(gamma)))
        for beta, gamma in DIMENSION_TABLE
    }


def test_quantum_dimension_tables():
    assert rendered_dimensions() == DIMENSION_TABLE


def test_hot_paths_build_each_bracket_once(monkeypatch):
    # the engine and the oracle take their brackets from the bracket table:
    # over a whole compute and an oracle call, no (u, v) is built twice,
    # whether or not earlier calls filled the table
    built = []
    new = Bracket.__new__

    def spy(cls, *args):
        built.append(args)
        return new(cls, *args)

    monkeypatch.setattr(Bracket, "__new__", spy)
    composite_homfly(TREFOIL, P("2,1"), P("2,1"))
    finite_N_oracle(TREFOIL, P("2,1"), P("2,1"), 7)
    assert len(built) == len(set(built))
    # equal brackets are one object, and dimensions print as before
    once, again = (sum(quantum_dimension(P("2"), P("2")), []) for _ in range(2))
    assert once == again and all(x is y for x, y in zip(once, again))
    assert rendered_dimensions() == DIMENSION_TABLE


def test_quantum_dimension_bracket_shapes():
    # every bracket is [N + v] or a positive constant [v], as bracket_sum
    # requires; checked on each (beta, gamma) with at most 3 boxes per slot
    shapes = [shape for n in range(4) for shape in partitions_of(n)]
    assert len(shapes) == 7
    for beta in shapes:
        for gamma in shapes:
            num, den = quantum_dimension(beta, gamma)
            for b in num + den:
                assert b.u in (0, 1) and (b.u or b.v > 0), (beta, gamma, b)


def test_quantum_dimension_finite_rank():
    # every (beta, gamma) with at most 3 boxes per slot, at three ranks each
    shapes = [shape for n in range(4) for shape in partitions_of(n)]
    cases = [(beta, gamma) for beta in shapes for gamma in shapes]
    assert len(cases) == 49
    for beta, gamma in cases:
        dim = quantum_dimension(beta, gamma)
        base = len(beta) + len(gamma) + 1
        for N in range(base, base + 3):
            direct = qdim_at_rank(compose_at_N(beta, gamma, N), N), qdim_at_rank(EMPTY, N)
            assert dim_at(dim, N) == dim_at(direct, N), (beta, gamma, N)


def test_worked_examples():
    assert composite_homfly(TREFOIL, EMPTY, P("1")).normalized == FUNDAMENTAL
    assert composite_homfly(TREFOIL, P("1"), P("1")).normalized == ADJOINT32


def test_classical_collapse_term_for_term():
    for knot, lam in [(TREFOIL, P("1")), (TREFOIL, P("2")), (T43, P("1,1"))]:
        classical = classical_homfly(knot, lam)
        composite = composite_homfly(knot, EMPTY, lam)
        assert classical.normalized == composite.normalized
        assert classical.terms == composite.terms


def test_order_symmetry():
    for lam, mu in [(P("1"), P("2")), (P("1,1"), P("2")), (P("2,1"), P("1"))]:
        assert (
            composite_homfly(TREFOIL, lam, mu).normalized
            == composite_homfly(TREFOIL, mu, lam).normalized
        )


def test_empty_color_and_unknot():
    one = parse_expr("1", QA)
    assert composite_homfly(TREFOIL, EMPTY, EMPTY).normalized == one
    assert composite_homfly(T43, EMPTY, EMPTY).normalized == one
    unknot = TorusKnot(2, 1)
    for lam, mu in [(EMPTY, P("1")), (P("1"), P("1")), (P("2,1"), P("1,1"))]:
        assert composite_homfly(unknot, lam, mu).normalized == one


def test_rank_cancellation_per_term():
    # each term's twist is its printed eigenvalue to the power r/s times the
    # color's to the power -r*s, scaled here in Fractions, with the 1/N part
    # cancelled; on the grid knots for every color with |lam|+|mu| <= 3
    colors = [
        (lam, mu)
        for n in range(4)
        for a in range(n + 1)
        for lam in partitions_of(a)
        for mu in partitions_of(n - a)
    ]
    assert len(colors) == 18
    for knot in GRID_KNOTS:
        r, s = knot.r, knot.s
        for lam, mu in colors:
            color = braiding_eigenvalue(lam, mu)
            for term in composite_homfly(knot, lam, mu).terms:
                own = braiding_eigenvalue(term.beta, term.gamma)
                expected = [Fraction(r, s) * x - r * s * y for x, y in zip(own, color)]
                assert term.twist == SymExponent(*expected), (knot, lam, mu, term)
                assert term.twist.em1 == 0


def test_normalization_identity():
    # normalized * dim[lam,mu] == sum of c * twist * dim[beta,gamma], checked
    # at ranks where no bracket of any term vanishes
    for lam, mu in [(EMPTY, P("2")), (P("1"), P("1")), (P("1,1"), P("2"))]:
        result = composite_homfly(TREFOIL, lam, mu)
        dim = quantum_dimension(lam, mu)
        rows = max(len(t.beta) + len(t.gamma) for t in result.terms)
        rows = max(rows, len(lam) + len(mu))
        for N in range(rows + 1, rows + 4):
            lhs = result.normalized.substitute({"a": (1, {"q": N})}) * dim_at(dim, N)
            rhs = Laurent(("q",))
            for t in result.terms:
                twist = Laurent(("q",), {(exponent_at_rank(t.twist, N),): t.coefficient})
                rhs = rhs + twist * dim_at(quantum_dimension(t.beta, t.gamma), N)
            assert lhs == rhs, (lam, mu, N)


def test_finite_N_oracle_contract():
    with pytest.raises(RankTooSmallError):
        finite_N_oracle(TREFOIL, P("1"), P("1"), 1)
    # rank 0 is not a rank, even for the empty color, whose rows fit in it;
    # the stabilization check starts at N = 1 there
    with pytest.raises(RankTooSmallError, match="N must be at least 1"):
        finite_N_oracle(TREFOIL, EMPTY, EMPTY, 0)
    with pytest.raises(RankTooSmallError, match=r"^2,1,1 does not fit in rank 2$"):
        qdim_at_rank(P("2,1,1"), 2)
    reports = verify.check_stabilization(TREFOIL, EMPTY, EMPTY)
    assert [r.line() for r in reports] == ["PASS oracle:3,2:0|0:N=%d" % N for N in range(1, 5)]
    one_q = parse_expr("1", ("q",))
    assert finite_N_oracle(TREFOIL, EMPTY, EMPTY, 3) == one_q
    # sl_2 Jones of the trefoil via the engine and via the oracle
    jones = FUNDAMENTAL.substitute({"a": (1, {"q": 2})})
    assert finite_N_oracle(TREFOIL, EMPTY, P("1"), 2) == jones


def test_t52_fundamental_matches_sl2_oracle():
    knot = TorusKnot(5, 2)
    engine = classical_homfly(knot, P("1")).normalized
    specialized = engine.substitute({"a": (1, {"q": 2})})
    assert specialized == finite_N_oracle(knot, EMPTY, P("1"), 2)


def test_stabilization_off_fixture_colors():
    # knots and colors beyond the fixture set, exercising deeper telescopes
    cases = [
        (TorusKnot(5, 2), P("1"), P("1")),
        (TorusKnot(5, 3), P("1"), P("1")),
        (TorusKnot(3, 2), P("2,1"), P("2,1")),
        (TorusKnot(3, 2), P("2,2"), P("1")),
    ]
    for knot, lam, mu in cases:
        engine = composite_homfly(knot, lam, mu).normalized
        base = len(lam) + len(mu)
        for N in range(base, base + 2):
            specialized = engine.substitute({"a": (1, {"q": N})})
            assert specialized == finite_N_oracle(knot, lam, mu, N), (knot, lam, mu, N)


def test_concurrent_evaluation_is_deterministic():
    # pure computation over immutable inputs plus memoized skew rows and
    # Adams expansions: concurrent runs must reproduce the serial results exactly
    from concurrent.futures import ThreadPoolExecutor

    from comphomfly import symfunc

    colors = [
        (TREFOIL, P("1"), P("1")),
        (TREFOIL, P("1,1"), P("2")),
        (TREFOIL, P("2"), P("1")),
        (T43, P("1"), P("1")),
    ]
    serial = [composite_homfly(k, l, m).normalized for k, l, m in colors]
    symfunc.skew_row.cache_clear()
    symfunc.adams_coefficients.cache_clear()
    with ThreadPoolExecutor(max_workers=4) as pool:
        futures = [
            pool.submit(lambda c: composite_homfly(*c).normalized, c)
            for c in colors * 3
        ]
        results = [f.result() for f in futures]
    assert results == (serial * 3)


def test_stabilization_spot_checks():
    for knot, lam, mu in [
        (TREFOIL, P("1"), P("1")),
        (TREFOIL, P("2"), P("1")),
        (T43, P("1"), P("1")),
    ]:
        engine = composite_homfly(knot, lam, mu).normalized
        base = len(lam) + len(mu)
        for N in range(base, base + 3):
            specialized = engine.substitute({"a": (1, {"q": N})})
            assert specialized == finite_N_oracle(knot, lam, mu, N), (knot, lam, mu, N)


GRID_KNOTS = [TorusKnot(r, s) for r, s in ((3, 2), (5, 2), (7, 2), (4, 3), (5, 3), (5, 4))]
GRID_COLORS = [
    "1|1", "2|1", "1,1|1", "1|2", "1|1,1",
    "1|", "2|", "1,1|", "3|", "2,1|", "1,1,1|",
]


def stabilized_engine(knot, lam, mu):
    """The engine's normalized invariant, checked at a = q^N against the
    finite-rank oracle at four ranks from the smallest one the color fits."""
    engine = composite_homfly(knot, lam, mu).normalized
    base = max(len(lam) + len(mu), 2)
    for N in range(base, base + 4):
        specialized = engine.substitute({"a": (1, {"q": N})})
        assert specialized == finite_N_oracle(knot, lam, mu, N), (knot, lam, mu, N)
    return engine


@pytest.mark.slow
def test_stabilization_grid():
    # every color with |lam|+|mu| <= 3 on six torus knots, plus two larger
    # colors on the trefoil
    cases = [(knot, color) for knot in GRID_KNOTS for color in GRID_COLORS]
    cases += [(TREFOIL, "2,1|2,1"), (TREFOIL, "2,2|1")]
    results = {}
    for knot, color in cases:
        lam, mu = (P(side) if side else EMPTY for side in color.split("|"))
        results[knot, color] = stabilized_engine(knot, lam, mu)
    # the two slots may be exchanged, and [lam|] is the classical path's lam
    for knot in GRID_KNOTS:
        assert results[knot, "2|1"] == results[knot, "1|2"], knot
        assert results[knot, "1,1|1"] == results[knot, "1|1,1"], knot
        for color in GRID_COLORS:
            lam, _, mu = color.partition("|")
            if not mu:
                classical = classical_homfly(knot, P(lam)).normalized
                assert classical == results[knot, color], (knot, color)
    swapped = composite_homfly(TREFOIL, P("1"), P("2,2")).normalized
    assert swapped == results[TREFOIL, "2,2|1"]


def check_grid_boxes(boxes):
    """Every color with |lam|+|mu| = boxes on the six knots of the grid: the
    engine against the oracle at four ranks, the two slots exchanged,
    transposition (q -> 1/q holds, q -> -1/q fails) and, for [lam|], the
    classical path."""
    colors = [
        (lam, mu)
        for a in range(boxes + 1)
        for lam in partitions_of(a)
        for mu in partitions_of(boxes - a)
    ]
    assert len(colors) == {4: 20, 5: 36}[boxes]
    for knot in GRID_KNOTS:
        results = {(lam, mu): stabilized_engine(knot, lam, mu) for lam, mu in colors}
        for (lam, mu), poly in results.items():
            assert results[mu, lam] == poly, (knot, lam, mu)
            transposed = results[conjugate(lam), conjugate(mu)]
            assert transposed == poly.substitute({"q": (1, {"q": -1})}), (knot, lam, mu)
            assert transposed != poly.substitute({"q": (-1, {"q": -1})}), (knot, lam, mu)
            if not mu:
                assert classical_homfly(knot, lam).normalized == poly, (knot, lam)


@pytest.mark.slow
def test_stabilization_grid_four_boxes():
    check_grid_boxes(4)


@pytest.mark.slow
def test_stabilization_grid_five_boxes():
    check_grid_boxes(5)


def test_transposition_symmetry():
    # H_[lam',mu'](q, a) = H_[lam,mu](1/q, a) for every color with
    # |lam|+|mu| <= 4; the sign-twisted form q -> -1/q fails on each of them
    colors = [
        (lam, mu)
        for n in range(1, 5)
        for a in range(n + 1)
        for lam in partitions_of(a)
        for mu in partitions_of(n - a)
    ]
    assert len(colors) == 37
    for knot in (TREFOIL, T43, TorusKnot(5, 2)):
        results = {color: composite_homfly(knot, *color).normalized for color in colors}
        for (lam, mu), poly in results.items():
            transposed = results[conjugate(lam), conjugate(mu)]
            assert transposed == poly.substitute({"q": (1, {"q": -1})}), (knot, lam, mu)
            assert transposed != poly.substitute({"q": (-1, {"q": -1})}), (knot, lam, mu)


def test_diagnostics_present():
    result = composite_homfly(TREFOIL, P("1"), P("1"))
    lines = [
        "term %s|%s c=%d exponent %s" % (t.beta, t.gamma, t.coefficient, t.twist.render())
        for t in result.terms
    ]
    assert lines == [
        "term 2|2 c=1 exponent 3*N - 3",
        "term 2|1,1 c=-1 exponent 3*N",
        "term 1,1|2 c=-1 exponent 3*N",
        "term 1,1|1,1 c=1 exponent 3*N + 3",
        "term 0|0 c=1 exponent 6*N",
    ]
