"""Small-rank Macdonald polynomials and their evaluation/duality identities.

A checker layer, not a production Macdonald engine.  Polynomials are built
as eigenfunctions of the first Macdonald q-difference operator, which is
dominance-triangular on monomial symmetric functions with polynomial
entries; the only divisions are by eigenvalue differences.  The solve runs
on the integral form J_lam = c_lam P_lam, whose monomial coefficients are
polynomials in (q, t) (Macdonald, Symmetric Functions and Hall Polynomials,
VI (8.11)), so every step is one qexact.exact_divide and a failure of the
theorem raises InexactDivisionError.  P_lam's coefficients are J_lam's
over c_lam, reduced without a gcd.  The defining
power-sum-pairing orthogonality <P_lam, m_mu> = 0 for mu < lam is verified
by the test suite rather than used for construction.  Hard degree and rank
caps keep everything at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations

from .partitions import Partition, conjugate, dual_at_N
from .qexact import InexactDivisionError, Laurent, common_terms, exact_divide
from .symfunc import (
    monomial_power_matrix,
    partitions_of,
    schur_in_monomials,
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
        nterms, dterms, scale = common_terms(num, den)
        content = math.gcd(*nterms.values(), *dterms.values())
        shift = [min(col) for col in zip(*nterms, *dterms)]
        if content > 1 or any(shift):

            def shifted(terms):
                return {
                    tuple(e - s for e, s in zip(exps, shift)): c // content
                    for exps, c in terms.items()
                }

            num = Laurent(num.vars, shifted(nterms), scale)
            den = Laurent(den.vars, shifted(dterms), scale)
        if den.leading()[1] < 0:
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

    __radd__ = __add__

    def __neg__(self):
        return QTFraction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-QTFraction.of(other))

    def __mul__(self, other):
        other = QTFraction.of(other)
        return QTFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

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


def _embed(p, vars):
    """Reinterpret a Laurent over a subset of `vars` as one over `vars`."""
    if p.vars == tuple(vars):
        return p
    idx = [p.vars.index(v) if v in p.vars else None for v in vars]
    terms = {
        tuple(exps[i] if i is not None else 0 for i in idx): c
        for exps, c in p.terms.items()
    }
    return Laurent(vars, terms, p.den)


QTF_ZERO = QTFraction(0)
QTF_ONE = QTFraction(1)


class SymLaurent:
    """Symmetric Laurent polynomial in n variables over QTFraction.

    Stored on dominant representatives: keys are length-n exponent tuples
    sorted decreasingly, each standing for its full monomial orbit.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = {}
        for key, value in (coeffs or {}).items():
            key = tuple(key)
            if len(key) != n or tuple(sorted(key, reverse=True)) != key:
                raise ValueError("non-dominant key %r" % (key,))
            value = QTFraction.of(value)
            if value:
                self.coeffs[key] = value

    def __eq__(self, other):
        if not isinstance(other, SymLaurent) or self.n != other.n:
            return False
        keys = set(self.coeffs) | set(other.coeffs)
        return all(
            self.coeffs.get(k, QTF_ZERO) == other.coeffs.get(k, QTF_ZERO)
            for k in keys
        )

    def scaled(self, factor):
        factor = QTFraction.of(factor)
        return SymLaurent(self.n, {k: v * factor for k, v in self.coeffs.items()})

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            w = out.get(k, QTF_ZERO) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        result = SymLaurent(self.n)
        result.coeffs = out
        return result

    def __sub__(self, other):
        return self + other.scaled(-1)

    def inverted(self):
        """Substitute every variable by its inverse."""
        return SymLaurent(
            self.n,
            {
                tuple(sorted((-e for e in key), reverse=True)): v
                for key, v in self.coeffs.items()
            },
        )

    def shifted(self, c):
        """Multiply by (x_1 ... x_n)^c."""
        return SymLaurent(
            self.n, {tuple(e + c for e in key): v for key, v in self.coeffs.items()}
        )

    def monomials(self):
        """Expand orbits into an explicit exponent-vector dict."""
        out = {}
        for key, v in self.coeffs.items():
            for perm in set(permutations(key)):
                out[perm] = v
        return out

    def principal_value(self, point):
        """Evaluate at x_i = t^{point[i]} as a QTFraction."""
        total = QTF_ZERO
        for key, v in self.coeffs.items():
            orbit = Laurent.zero(QT)
            for perm in set(permutations(key)):
                e = sum((Fraction(p) * pt for p, pt in zip(perm, point)), Fraction(0))
                orbit = orbit + _mono(t=e)
            total = total + v * QTFraction(orbit)
        return total

    def __str__(self):
        bits = []
        for key in sorted(self.coeffs, reverse=True):
            bits.append("(%s)*m%s" % (self.coeffs[key], list(key)))
        return " + ".join(bits) if bits else "0"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# the q-difference operator on monomial symmetric functions


def _xvars(n):
    return QT + tuple("x%d" % i for i in range(1, n + 1))


def _monomial_sym(mu, n):
    """m_mu as an explicit polynomial in x1..xn (coefficients in q, t)."""
    vars = _xvars(n)
    padded = mu + (0,) * (n - len(mu))
    out = Laurent.zero(vars)
    for perm in set(permutations(padded)):
        out = out + Laurent.monomial(
            vars, 1, **{"x%d" % (i + 1): e for i, e in enumerate(perm)}
        )
    return out


@lru_cache(maxsize=None)
def _operator_matrix(degree, n):
    """Matrix of the first Macdonald operator on {m_mu : mu |- degree}.

    Returns {mu: {nu: Laurent in (q, t)}} reading D m_mu = sum_nu c[mu][nu] m_nu.
    The operator is sum_i prod_{j != i} (t x_i - x_j)/(x_i - x_j) shift_i
    with shift_i: x_i -> q x_i; the rational pieces are summed over the
    Vandermonde common denominator and divided out exactly.
    """
    vars = _xvars(n)
    x = ["x%d" % i for i in range(1, n + 1)]
    vandermonde = Laurent.one(vars)
    for i in range(n):
        for j in range(i + 1, n):
            vandermonde = vandermonde * (
                Laurent.var(vars, x[i]) - Laurent.var(vars, x[j])
            )
    cofactors = []
    for i in range(n):
        denom = Laurent.one(vars)
        numer = Laurent.one(vars)
        for j in range(n):
            if j == i:
                continue
            denom = denom * (Laurent.var(vars, x[i]) - Laurent.var(vars, x[j]))
            numer = numer * (
                Laurent.monomial(vars, 1, t=1, **{x[i]: 1}) - Laurent.var(vars, x[j])
            )
        cofactors.append((numer, exact_divide(vandermonde, denom)))
    out = {}
    for mu in partitions_of(degree):
        if len(mu) > n:
            continue
        f = _monomial_sym(mu, n)
        total = Laurent.zero(vars)
        for i in range(n):
            shifted = f.substitute({x[i]: (1, {"q": 1, x[i]: 1})})
            shifted = _embed(shifted, vars)
            numer, cof = cofactors[i]
            total = total + numer * shifted * cof
        action = exact_divide(total, vandermonde)
        row = {}
        xslice = slice(2, 2 + n)
        for exps, coeff in action.terms.items():
            xs = exps[xslice]
            if tuple(sorted(xs, reverse=True)) != xs:
                continue
            nu = Partition(e // action.den for e in xs)
            entry = row.setdefault(nu, Laurent.zero(QT))
            row[nu] = entry + Laurent(QT, {exps[:2]: coeff}, action.den)
        out[mu] = {nu: c for nu, c in row.items() if c}
    return out


def _eigenvalue(lam, n):
    """sum_i q^{lam_i} t^{n-i}, the operator eigenvalue on P_lam."""
    out = Laurent.zero(QT)
    for i in range(1, n + 1):
        out = out + _mono(q=lam.row(i), t=n - i)
    return out


def _integral_constant(lam):
    """c_lam = prod over boxes s of (1 - q^{arm(s)} t^{leg(s)+1})."""
    cols = conjugate(lam)
    out = _ONE
    for i, j in lam.boxes():
        out = out * (_ONE - _mono(q=lam.row(i) - j, t=cols.row(j) - i + 1))
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
        rhs = Laurent.zero(QT)
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
        return SymLaurent(n, {(0,) * n: QTF_ONE})
    out = {}
    for nu, u in _p_coefficients(lam, n).items():
        out[nu + (0,) * (n - len(nu))] = u
    return SymLaurent(n, out)


def schur_restricted(lam, n):
    """Schur polynomial as a SymLaurent, from the character-based Kostka row."""
    out = {}
    for mu, k in schur_in_monomials(lam).items():
        if len(mu) <= n:
            out[mu + (0,) * (n - len(mu))] = QTFraction(k)
    return SymLaurent(n, out)


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
    """<poly, m_mu> for a SymLaurent with partition keys (faithful range)."""
    total = QTF_ZERO
    for key, u in poly.coeffs.items():
        nu = Partition(int(e) for e in key)
        total = total + u * monomial_pairing(nu, mu)
    return total


# ---------------------------------------------------------------------------
# evaluation formulas


def _rho_point(n):
    """The principal point: x_i = t^{(n+1-2i)/2}, i = 1..n."""
    return [Fraction(n + 1 - 2 * i, 2) for i in range(1, n + 1)]


def principal_specialization(poly, n):
    """Evaluate a SymLaurent at the centered principal point."""
    if poly.n != n:
        raise ValueError("variable count mismatch")
    return poly.principal_value(_rho_point(n))


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
    lhs = p.inverted().shifted(lam.width)
    inversion_ok = lhs == dual
    point = _rho_point(n)
    ev_plus = p.principal_value(point)
    ev_minus = p.principal_value([-x for x in point])
    evaluation_ok = ev_plus == ev_minus
    detail = "" if inversion_ok and evaluation_ok else "lhs=%s dual=%s" % (lhs, dual)
    return DualityReport(lam, n, inversion_ok, evaluation_ok, detail)
