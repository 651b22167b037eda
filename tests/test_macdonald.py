import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from comphomfly.partitions import Partition
from comphomfly.qexact import exact_divide

import macdonald as md
from oracles import monomial_power_matrix, parse_expr, partitions_of

P = Partition.parse
QT = ("q", "t")


def test_p1_is_the_monomial_sum():
    p = md.macdonald_p(P("1"), 3)
    assert set(p) == {(1, 0, 0)}
    assert p[(1, 0, 0)] == md.QTF_ONE


def test_p2_two_variables():
    p = md.macdonald_p(P("2"), 2)
    expected = md.QTFraction(parse_expr("(1+q)*(1-t)", QT), parse_expr("1-q*t", QT))
    assert p[(2, 0)] == md.QTF_ONE
    assert p[(1, 1)] == expected


def test_elementary_at_t_eq_q():
    # P_[1,1] is e_2 = s_[1,1] identically (its single coefficient is 1)
    p = md.macdonald_p(P("1,1"), 2)
    assert set(p) == {(1, 1)}
    assert p[(1, 1)] == md.QTF_ONE


def _t_eq_q_equal(a, b):
    lhs = (a.num * b.den).substitute({"t": (1, {"q": 1})})
    rhs = (b.num * a.den).substitute({"t": (1, {"q": 1})})
    return lhs == rhs


def test_schur_degeneration():
    for size in range(0, 5):
        for lam in partitions_of(size):
            for n in range(max(1, len(lam)), 5):
                p = md.macdonald_p(lam, n)
                s = md.schur_restricted(lam, n)
                for key in set(p) | set(s):
                    assert _t_eq_q_equal(
                        p.get(key, md.QTF_ZERO),
                        s.get(key, md.QTF_ZERO),
                    ), (lam, n, key)


def test_triangularity_and_orthogonality():
    for size in range(1, 5):
        for lam in partitions_of(size):
            p = md._restrict(lam, size)
            for key in p:
                mu = Partition(int(e) for e in key)
                assert md._dominates(lam, mu)
            for mu in partitions_of(size):
                if mu == lam or not md._dominates(lam, mu):
                    continue
                assert not md.pairing_with_monomial(p, mu), (lam, mu)


def test_symmetric_dicts_store_no_zero_coefficient():
    # dict equality decides duality_check, which needs every stored value nonzero
    for size in range(5):
        for lam in partitions_of(size):
            for n in range(max(1, len(lam)), 5):
                for poly in (
                    md.macdonald_p(lam, n),
                    md._restrict(lam, n),
                    md.schur_restricted(lam, n),
                ):
                    assert poly and all(poly.values()), (lam, n)
                    assert all(len(key) == n for key in poly), (lam, n)


def test_principal_specialization_rejects_a_wrong_key_length():
    with pytest.raises(ValueError, match="variable count"):
        md.principal_specialization(md.macdonald_p(P("1"), 3), 2)
    with pytest.raises(ValueError, match="variable count"):
        md.principal_specialization({(0, 0): md.QTF_ONE}, 3)


def test_evaluation_formula_examples():
    assert md.evaluation_formula(P("0") if False else Partition(), 2) == md.QTF_ONE
    v = md.evaluation_formula(P("1"), 1)
    assert v == md.QTFraction(
        parse_expr("t^(-1/2)*(1-t^2)", QT), parse_expr("1-t", QT)
    )
    cross = md.principal_specialization(md.macdonald_p(P("1"), 3), 3)
    assert cross == md.evaluation_formula(P("1"), 2)


def test_principal_specialization_examples():
    one = {(0, 0): md.QTF_ONE}
    assert md.principal_specialization(one, 2) == md.QTF_ONE
    p1 = md.principal_specialization(md.macdonald_p(P("1"), 2), 2)
    assert p1 == md.QTFraction(parse_expr("t^(1/2) + t^(-1/2)", QT))
    p2 = md.principal_specialization(md.macdonald_p(P("2"), 2), 2)
    assert p2 == md.evaluation_formula(P("2"), 1)


def test_evaluation_against_specialization_full_range():
    for size in range(1, 5):
        for lam in partitions_of(size):
            for rank in range(max(1, len(lam)), 4):
                n = rank + 1
                if n > md.MAX_VARIABLES:
                    continue
                lhs = md.principal_specialization(md.macdonald_p(lam, n), n)
                rhs = md.evaluation_formula(lam, rank)
                assert lhs == rhs, (lam, rank)


def test_duality_full_range():
    for size in range(1, 5):
        for lam in partitions_of(size):
            for n in range(max(1, len(lam)), 4):
                report = md.duality_check(lam, n)
                assert report.ok, (lam, n, report.detail)


def test_rank_bounds():
    with pytest.raises(md.RankBoundError):
        md.macdonald_p(P("5"), 4)
    with pytest.raises(md.RankBoundError):
        md.macdonald_p(P("1"), 5)
    with pytest.raises(md.RankBoundError):
        md.macdonald_p(P("1,1,1"), 2)
    with pytest.raises(md.RankBoundError):
        md.evaluation_formula(P("1"), 4)


def test_qtfraction_reduction_and_equality():
    a = md.QTFraction(parse_expr("1 - q^2", QT), parse_expr("1 - q", QT))
    assert a == md.QTFraction(parse_expr("1 + q", QT))
    b = md.QTFraction(parse_expr("(1+q)*(1-t^2)", QT), parse_expr("(1-t)*(1+q)", QT))
    assert b == md.QTFraction(parse_expr("1 + t", QT))
    c = md.QTFraction(parse_expr("1 - q*t", QT), parse_expr("1 - t", QT))
    assert c + (-c) == md.QTF_ZERO
    assert c * md.QTFraction(parse_expr("1 - t", QT)) == md.QTFraction(
        parse_expr("1 - q*t", QT)
    )


def test_duality_check_fails_on_a_wrong_dual(monkeypatch):
    true_dual = md.dual_at_N

    def wrong_dual(lam, n):
        return P("1") if (lam, n) == (P("1"), 3) else true_dual(lam, n)

    monkeypatch.setattr(md, "dual_at_N", wrong_dual)
    report = md.duality_check(P("1"), 3)
    assert report.inversion_ok is False
    assert report.evaluation_ok is True
    assert not report.ok and report.detail
    assert md.duality_check(P("2"), 3).ok


def test_evaluation_formula_rejects_a_mismatched_weight():
    # same-size weights of A_2; a weight and its dual share the evaluation
    for size in range(2, 5):
        weights = [lam for lam in partitions_of(size) if len(lam) <= 2]
        for lam in weights:
            p = md.principal_specialization(md.macdonald_p(lam, 3), 3)
            for other in weights:
                if other != lam:
                    assert p != md.evaluation_formula(other, 2), (lam, other)


def test_qtfraction_sum_lifts_to_a_dividing_denominator():
    import random

    rng = random.Random(5)
    one = parse_expr("1", QT)

    def binomials(k):
        out = one
        for _ in range(k):
            a, b = rng.randint(0, 2), rng.randint(1, 2)
            out = out * parse_expr("1 - q^%d*t^%d" % (a, b), QT)
        return out

    def numerator():
        out = one
        for _ in range(3):
            c, a, b = rng.randint(-3, 3), rng.randint(0, 2), rng.randint(0, 2)
            out = out + parse_expr("%d*q^%d*t^%d" % (c, a, b), QT)
        return out or one

    for _ in range(60):
        small = binomials(rng.randint(0, 2))
        dividing = rng.random() < 0.5
        large = small * binomials(rng.randint(1, 2)) if dividing else binomials(2)
        a = md.QTFraction(numerator(), small)
        b = md.QTFraction(numerator(), large)
        for x, y in ((a, b), (b, a)):
            total = x + y
            assert total == md.QTFraction(x.num * y.den + y.num * x.den, x.den * y.den)
            if dividing:
                # the lifted sum never needs more than the larger denominator
                exact_divide(large, total.den)


def _monomial_at(mu, x):
    """m_mu at the point x, summed over the distinct exponent vectors."""
    padded = tuple(mu) + (0,) * (len(x) - len(mu))
    return sum(
        math.prod(xi**e for xi, e in zip(x, perm))
        for perm in set(permutations(padded))
    )


def test_operator_matrix_matches_the_operator_at_rational_points():
    # D acts on m_mu at a rational point exactly as the matrix row says
    rng = random.Random(12)
    for n in range(1, 5):
        x = [Fraction(k, rng.randint(1, 9)) for k in rng.sample(range(1, 60), n)]
        q, t = Fraction(rng.randint(2, 9), 7), Fraction(rng.randint(2, 9), 5)
        for degree in range(5):
            matrix = md._operator_matrix(degree, n)
            for mu in partitions_of(degree):
                if len(mu) > n:
                    continue
                lhs = 0
                for i in range(n):
                    factor = math.prod(
                        (t * x[i] - x[j]) / (x[i] - x[j]) for j in range(n) if j != i
                    )
                    shifted = x[:i] + [q * x[i]] + x[i + 1 :]
                    lhs += factor * _monomial_at(mu, shifted)
                rhs = 0
                for nu, c in matrix[mu].items():
                    assert c.den == 1
                    value = sum(k * q**a * t**b for (a, b), k in c.terms.items())
                    rhs += value * _monomial_at(nu, x)
                assert lhs == rhs, (n, mu)


def test_monomial_power_matrix_at_rational_points():
    # m_mu(x) = sum_rho M[mu][rho] p_rho(x) at a seeded rational point
    rng = random.Random(13)
    for degree in range(6):
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)]
        power = {k: sum(xi**k for xi in x) for k in range(1, degree + 1)}
        for mu, row in monomial_power_matrix(degree).items():
            expanded = sum(c * math.prod(power[k] for k in rho) for rho, c in row.items())
            assert _monomial_at(mu, x) == expanded, mu
