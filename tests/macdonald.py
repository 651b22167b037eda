"""Small-rank Macdonald polynomials and their evaluation/duality identities.

A checker for the tests, not a production Macdonald engine: the refined
engine it would serve is out of scope, so no `compute`, `expand` or
`verify` path reaches it, and it lives beside the tests rather than in the
package.  Polynomials are built as eigenfunctions of the first Macdonald
q-difference operator, which is
dominance-triangular on monomial symmetric functions with polynomial
entries; the only divisions are by eigenvalue differences.  Its matrix
comes from the operator's alternant form (Macdonald, Symmetric Functions
and Hall Polynomials, VI (3.4)): each term a_{beta+delta}/a_delta is a
signed Schur function, read off its Kostka row.  The solve runs on the
integral form J_lam = c_lam P_lam, whose monomial coefficients are
polynomials in (q, t) (VI (8.11)), so every step is one
qexact.exact_divide and a failure of the theorem raises
InexactDivisionError.  P_lam's coefficients are J_lam's over c_lam,
reduced without a gcd.  The defining power-sum-pairing orthogonality
<P_lam, m_mu> = 0 for mu < lam is verified by the test suite rather than
used for construction; the pairing writes m_mu in power sums through the
Schur basis and the character table.  Hard degree and rank caps keep
everything at desk scale.

A symmetric polynomial in n variables is a plain dict from dominant
exponent tuples (length n, weakly decreasing), each standing for its
monomial orbit, to QTFraction coefficients.  No coefficient is stored as
zero, so two polynomials are equal exactly when their dicts are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from comphomfly.partitions import Partition, conjugate, dual_at_N
from comphomfly.qexact import InexactDivisionError, Laurent, exact_divide

from oracles import (
    exponent_range,
    monomial_power_matrix,
    partitions_of,
    schur_monomials,
    zclass,
)

QT = ("q", "t")

MAX_VARIABLES = 4
MAX_WEIGHT = 4
MAX_INTERNAL_DEGREE = 8


class RankBoundError(ValueError):
    """Inputs exceed the desk-scale caps of this checker module."""


def _mono(**exps):
    return Laurent.monomial(QT, 1, **exps)


_ONE = Laurent.one(QT)


class QTFraction:
    """Exact rational function in (q, t) over integer-coefficient Laurent
    polynomials.  Reduction is opportunistic, with no gcd: shared integer
    content, shared monomial content, and one exact-division attempt;
    equality is decided by cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = num * _ONE
        if den is None:
            den = _ONE
        elif isinstance(den, int):
            den = den * _ONE
        if not den:
            raise ZeroDivisionError("QTFraction with zero denominator")
        self.num, self.den = self._reduce(num, den)

    @staticmethod
    def _reduce(num, den):
        if not num:
            return num, _ONE
        try:
            return exact_divide(num, den), _ONE
        except InexactDivisionError:
            pass
        content = math.gcd(*num.terms.values(), *den.terms.values())
        ranges = zip(exponent_range(num), exponent_range(den))
        low = [min(a, b) for (a, _), (b, _) in ranges]
        if content > 1 or any(low):
            common = Laurent.monomial(num.vars, content, **dict(zip(num.vars, low)))
            num, den = exact_divide(num, common), exact_divide(den, common)
        if den.sorted_terms()[-1][1] < 0:  # the highest term's coefficient
            num, den = -num, -den
        return num, den

    @classmethod
    def of(cls, value):
        if isinstance(value, QTFraction):
            return value
        if isinstance(value, Fraction):
            return cls(value.numerator * _ONE, value.denominator * _ONE)
        return cls(value)

    def __add__(self, other):
        other = QTFraction.of(other)
        if self.den == other.den:
            return QTFraction(self.num + other.num, self.den)
        # without a gcd, only a denominator that divides the other keeps
        # repeated sums from multiplying their denominators together
        for small, large in ((self, other), (other, self)):
            try:
                lift = exact_divide(large.den, small.den)
            except InexactDivisionError:
                continue
            return QTFraction(small.num * lift + large.num, large.den)
        return QTFraction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return QTFraction(-self.num, self.den)

    def __mul__(self, other):
        other = QTFraction.of(other)
        return QTFraction(self.num * other.num, self.den * other.den)

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = QTFraction.of(other)
        return self.num * other.den == other.num * self.den

    def __str__(self):
        if self.den == _ONE:
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    __repr__ = __str__


QTF_ZERO = QTFraction(0)
QTF_ONE = QTFraction(1)


# ---------------------------------------------------------------------------
# the q-difference operator on monomial symmetric functions


@lru_cache(maxsize=None)
def _operator_matrix(degree, n):
    """Matrix of the first Macdonald operator on {m_mu : mu |- degree}.

    Returns {mu: {nu: Laurent in (q, t)}} reading D m_mu = sum_nu c[mu][nu] m_nu.
    The operator is sum_i prod_{j != i} (t x_i - x_j)/(x_i - x_j) shift_i
    with shift_i: x_i -> q x_i.  In alternant form (Macdonald VI (3.4)),
    with delta = (n-1, ..., 0),
        D m_mu = sum over beta in S_n mu of
                 (sum_i q^{beta_i} t^{n-i}) a_{beta+delta} / a_delta,
    and a_{beta+delta} / a_delta is 0 when beta+delta repeats an entry, else
    sign(sigma) s_kappa, where sigma sorts beta+delta decreasingly and
    kappa = sorted(beta+delta) - delta; s_kappa is read off its Kostka row.
    """
    delta = tuple(range(n - 1, -1, -1))
    out = {}
    for mu in partitions_of(degree):
        if len(mu) > n:
            continue
        row = {}
        for beta in set(permutations(mu + (0,) * (n - len(mu)))):
            shifted = [b + d for b, d in zip(beta, delta)]
            if len(set(shifted)) < n:
                continue
            sign = (-1) ** sum(a < b for a, b in combinations(shifted, 2))
            kappa = Partition(
                e - d for e, d in zip(sorted(shifted, reverse=True), delta)
            )
            for exps, k in schur_monomials(kappa, n).items():
                if list(exps) != sorted(exps, reverse=True):
                    continue
                terms = row.setdefault(Partition(exps), {})
                for b, d in zip(beta, delta):
                    terms[b, d] = terms.get((b, d), 0) + sign * k
        out[mu] = {nu: c for nu, terms in row.items() if (c := Laurent(QT, terms))}
    return out


def _eigenvalue(lam, n):
    """sum_i q^{lam_i} t^{n-i}, the operator eigenvalue on P_lam."""
    out = Laurent(QT)
    for i in range(1, n + 1):
        out = out + _mono(q=lam.row(i), t=n - i)
    return out


def _integral_constant(lam):
    """c_lam = prod over boxes s of (1 - q^{arm(s)} t^{leg(s)+1})."""
    cols = conjugate(lam)
    out = _ONE
    for i, row in enumerate(lam, start=1):
        for j in range(1, row + 1):
            out = out * (_ONE - _mono(q=row - j, t=cols.row(j) - i + 1))
    return out


@lru_cache(maxsize=None)
def _p_coefficients(lam, n):
    """Expansion of P_lam over m_nu in n variables, by triangular solve.

    J_lam's coefficient u_nu is (sum over mu strictly above nu of
    c[mu][nu] u_mu) divided exactly by eig(lam) - eig(nu).
    """
    if lam.size() > MAX_INTERNAL_DEGREE:
        raise RankBoundError("degree %d beyond the desk-scale cap" % lam.size())
    matrix = _operator_matrix(lam.size(), n)
    eig_lam = _eigenvalue(lam, n)
    order = sorted(
        (mu for mu in partitions_of(lam.size()) if len(mu) <= n),
        reverse=True,
    )
    c_lam = _integral_constant(lam)
    coeffs = {lam: c_lam}
    for nu in order:
        if nu == lam or not _dominates(lam, nu):
            continue
        rhs = Laurent(QT)
        for mu, u in coeffs.items():
            c = matrix[mu].get(nu)
            if c:
                rhs = rhs + u * c
        if rhs:
            coeffs[nu] = exact_divide(rhs, eig_lam - _eigenvalue(nu, n))
    return {nu: QTFraction(u, c_lam) for nu, u in coeffs.items()}


def _dominates(lam, mu):
    """lam >= mu in the dominance order (equal sizes)."""
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam.row(i + 1)
        acc_m += mu.row(i + 1)
        if acc_l < acc_m:
            return False
    return True


def macdonald_p(lam, n):
    """Macdonald polynomial P_lam in n variables, monic on m_lam.

    Dominance-triangular and orthogonal to every strictly lower monomial
    under the (q, t) power-sum pairing (the tested characterization); at
    t = q it degenerates to the Schur polynomial.
    """
    lam = Partition(lam)
    if n > MAX_VARIABLES or n < 1:
        raise RankBoundError("variable count %d outside 1..%d" % (n, MAX_VARIABLES))
    if lam.size() > MAX_WEIGHT:
        raise RankBoundError("|%s| beyond the cap %d" % (lam, MAX_WEIGHT))
    if len(lam) > n:
        raise RankBoundError("%s needs more than %d variables" % (lam, n))
    return _restrict(lam, n)


def _restrict(lam, n):
    if not lam:
        return {(0,) * n: QTF_ONE}
    return {nu + (0,) * (n - len(nu)): u for nu, u in _p_coefficients(lam, n).items()}


def schur_restricted(lam, n):
    """Schur polynomial in n variables, from the tableau-counted Kostka row."""
    return {
        exps: QTFraction(k)
        for exps, k in schur_monomials(lam, n).items()
        if list(exps) == sorted(exps, reverse=True)
    }


# ---------------------------------------------------------------------------
# the power-sum pairing (used by the verification suite)


@lru_cache(maxsize=None)
def _power_norm(rho):
    """<p_rho, p_rho> = z_rho prod_i (1 - q^{rho_i})/(1 - t^{rho_i})."""
    num = zclass(rho) * _ONE
    den = _ONE
    for part in rho:
        num = num * (_ONE - _mono(q=part))
        den = den * (_ONE - _mono(t=part))
    return QTFraction(num, den)


@lru_cache(maxsize=None)
def monomial_pairing(mu, nu):
    """<m_mu, m_nu> under the (q, t)-deformed power-sum pairing."""
    if mu.size() != nu.size():
        return QTF_ZERO
    to_p = monomial_power_matrix(mu.size())
    total = QTF_ZERO
    for rho in partitions_of(mu.size()):
        a = to_p[mu].get(rho)
        b = to_p[nu].get(rho)
        if a and b:
            total = total + _power_norm(rho) * (a * b)
    return total


def pairing_with_monomial(poly, mu):
    """<poly, m_mu> for a symmetric polynomial with partition keys (faithful range)."""
    total = QTF_ZERO
    for key, u in poly.items():
        nu = Partition(int(e) for e in key)
        total = total + u * monomial_pairing(nu, mu)
    return total


# ---------------------------------------------------------------------------
# evaluation formulas


def _rho_point(n):
    """The principal point: x_i = t^{(n+1-2i)/2}, i = 1..n."""
    return [Fraction(n + 1 - 2 * i, 2) for i in range(1, n + 1)]


def _principal_value(poly, point):
    """Evaluate at x_i = t^{point[i]} as a QTFraction."""
    total = QTF_ZERO
    for key, v in poly.items():
        orbit = Laurent(QT)
        for perm in set(permutations(key)):
            orbit = orbit + _mono(t=sum(p * pt for p, pt in zip(perm, point)))
        total = total + v * QTFraction(orbit)
    return total


def principal_specialization(poly, n):
    """Evaluate an n-variable symmetric polynomial at the centered principal point."""
    if any(len(key) != n for key in poly):
        raise ValueError("variable count mismatch")
    return _principal_value(poly, _rho_point(n))


def evaluation_formula(b, rank):
    """Closed principal evaluation for the A_rank weight with diagram b.

    t^{-(rho,b)} times the product over positive roots alpha and
    0 <= j < (alpha_check, b) of
    (1 - q^j t^{(rho,alpha)+1}) / (1 - q^j t^{(rho,alpha)}).
    """
    b = Partition(b)
    if rank >= MAX_VARIABLES or rank < 1:
        raise RankBoundError("rank %d outside 1..%d" % (rank, MAX_VARIABLES - 1))
    if len(b) > rank:
        raise RankBoundError("weight %s too long for A_%d" % (b, rank))
    nvars = rank + 1
    rho_b = Fraction(0)
    for i in range(1, nvars):
        bi = b.row(i) - b.row(i + 1)
        rho_b += Fraction(i * (nvars - i), 2) * bi
    value = QTFraction(_mono(t=-rho_b))
    for i in range(1, nvars + 1):
        for j in range(i + 1, nvars + 1):
            height = j - i  # (rho, alpha) for alpha = e_i - e_j
            for jj in range(b.row(i) - b.row(j)):
                value = value * QTFraction(
                    _ONE - _mono(q=jj, t=height + 1),
                    _ONE - _mono(q=jj, t=height),
                )
    return value


# ---------------------------------------------------------------------------
# duality


@dataclass(frozen=True)
class DualityReport:
    """Outcome of the inversion/evaluation identities for one weight."""

    lam: Partition
    n: int
    inversion_ok: bool
    evaluation_ok: bool
    detail: str = ""

    @property
    def ok(self):
        return self.inversion_ok and self.evaluation_ok


def duality_check(lam, n):
    """Verify P_lam(X^{-1}) (x_1...x_n)^{lam_1} = P_{lam*} with lam* the
    rank-n dual diagram, and the equality of the two principal evaluations,
    both as exact identities of rational functions."""
    lam = Partition(lam)
    if n > MAX_VARIABLES or len(lam) > n:
        raise RankBoundError("duality check outside desk bounds")
    p = macdonald_p(lam, n)
    dual_diagram = dual_at_N(lam, n)
    if dual_diagram.size() > MAX_INTERNAL_DEGREE:
        raise RankBoundError("dual diagram %s too large" % (dual_diagram,))
    dual = _restrict(dual_diagram, n)
    # x -> 1/x reverses each dominant key; (x_1...x_n)^{lam_1} adds lam_1
    lhs = {tuple(lam.width - e for e in reversed(key)): v for key, v in p.items()}
    inversion_ok = lhs == dual
    point = _rho_point(n)
    ev_plus = _principal_value(p, point)
    ev_minus = _principal_value(p, [-x for x in point])
    evaluation_ok = ev_plus == ev_minus
    detail = "" if inversion_ok and evaluation_ok else "lhs=%s dual=%s" % (lhs, dual)
    return DualityReport(lam, n, inversion_ok, evaluation_ok, detail)
