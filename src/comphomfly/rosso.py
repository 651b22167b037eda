"""The composite torus-knot engine.

Assembles normalized and unnormalized HOMFLY-PT polynomials of torus knots
from three symbolic ingredients: braiding eigenvalues with rank-dependent
exponents, composite Adams coefficients, and stable quantum dimensions in
factored bracket form.  A separate finite-rank code path recomputes the same
invariant at a concrete rank and is used as the stabilization oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .partitions import (
    EMPTY,
    Partition,
    RankTooSmallError,
    compose_at_N,
    kappa,
    reduce_columns,
)
from .qexact import (
    Bracket,
    BracketProduct,
    IntegralityError,
    Laurent,
    SymExponent,
    SymMonomial,
    UNIT_BRACKET,
    bracket_numerator,
    exact_divide,
    sym_to_qa,
)
from .symfunc import adams_at_rank, adams_coefficients, composite_adams


@dataclass(frozen=True)
class TorusKnot:
    """The (r, s) torus knot; stored with r > s >= 1 and gcd(r, s) = 1."""

    r: int
    s: int

    def __post_init__(self):
        r, s = self.r, self.s
        if r < s:
            r, s = s, r
        if s < 1 or r < 2:
            raise ValueError("torus knot needs r >= 2, s >= 1")
        if math.gcd(r, s) != 1:
            raise ValueError("(%d, %d) is a link, not a knot" % (r, s))
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    @classmethod
    def parse(cls, text):
        r, _, s = text.partition(",")
        return cls(int(r), int(s))

    def __str__(self):
        return "%d,%d" % (self.r, self.s)


def braiding_eigenvalue(lam, mu):
    """Braiding eigenvalue of the composite diagram [lam, mu].

    At rank N the eigenvalue is q to the power -(kappa + c*N - c^2/N)/2,
    with kappa twice the content sum and c the box count of the composed
    diagram:

        kappa = -lam_1*N^2 + (lam_1^2 + 2|lam|)*N + kappa_lam + kappa_mu
                + 2*lam_1*(|mu| - |lam|)
        c     = lam_1*N + |mu| - |lam|

    The N^2 parts cancel inside every eigenvalue, leaving

        -(|lam| + |mu|)/2 * N - (kappa_lam + kappa_mu)/2 + (|mu| - |lam|)^2/(2N);

    the 1/N parts cancel only after the full torus-knot combination.
    """
    m, n = lam.size(), mu.size()
    exponent = SymExponent.make(
        0,
        Fraction(-(m + n), 2),
        Fraction(-(kappa(lam) + kappa(mu)), 2),
        Fraction((n - m) ** 2, 2),
    )
    return SymMonomial(1, exponent)


def quantum_dimension(beta, gamma):
    """Stable quantum dimension of [beta, gamma] as a bracket product.

    The positive-root pairs (i, j) of the rank-N root system split by the
    row regions of the composed diagram: gamma's rows on top, a flat block
    in the middle, the dual of beta at the bottom.  Head-head and tail-tail
    pairs give constant brackets, head-middle and middle-tail telescopes
    leave one bracket per box of gamma resp. beta, head-tail pairs give one
    bracket each, and middle-middle pairs cancel outright.  Every surviving
    bracket is [N + const] or a constant, independent of N.
    """
    h, t = len(gamma), len(beta)
    num, den = [], []
    for i in range(1, h + 1):
        for j in range(i + 1, h + 1):
            num.append(Bracket(0, gamma.row(i) - gamma.row(j) + j - i))
            den.append(Bracket(0, j - i))
    for rr in range(1, t + 1):
        for p in range(rr + 1, t + 1):
            num.append(Bracket(0, beta.row(rr) - beta.row(p) + p - rr))
            den.append(Bracket(0, p - rr))
    for i in range(1, h + 1):
        for p in range(1, t + 1):
            num.append(Bracket(1, gamma.row(i) + beta.row(p) + 1 - p - i))
            den.append(Bracket(1, 1 - p - i))
    for i in range(1, h + 1):
        for k in range(1, gamma.row(i) + 1):
            num.append(Bracket(1, k - t - i))
            den.append(Bracket(0, h - i + k))
    for p in range(1, t + 1):
        for k in range(1, beta.row(p) + 1):
            num.append(Bracket(1, k - p - h))
            den.append(Bracket(0, t - p + k))
    return BracketProduct(SymMonomial.one(), num, den)


@dataclass(frozen=True)
class FactoredTerm:
    """One summand of the unnormalized expansion, kept in factored form."""

    beta: Partition
    gamma: Partition
    coefficient: int
    twist: SymMonomial  # combined eigenvalue monomial, rank parts cancelled
    dimension: BracketProduct

    def render(self):
        return "%d * %s * %s  [%s|%s]" % (
            self.coefficient,
            self.twist.render(),
            self.dimension.render(),
            self.beta,
            self.gamma,
        )


@dataclass
class InvariantResult:
    """Engine output: the normalized polynomial and the factored expansion.

    `terms` holds the unnormalized summands c * twist * dim[beta, gamma];
    `normalized` times the color's quantum dimension equals their sum.
    """

    knot: TorusKnot
    lam: Partition
    mu: Partition
    normalized: Laurent
    terms: list = field(default_factory=list)

    def diagnostics_text(self):
        lines = [
            "knot %s color %s|%s: %d terms" % (self.knot, self.lam, self.mu, len(self.terms))
        ]
        lines.extend(
            "term %s|%s c=%d exponent %s"
            % (t.beta, t.gamma, t.coefficient, t.twist.exponent.render())
            for t in self.terms
        )
        return "\n".join(lines)


def _bracket_fraction(dim):
    """Bracket multisets (num, den) with dim = prod num / prod den as
    polynomials: each bracket [b] is bracket_numerator(b) over the unit
    bracket's numerator, and the unit brackets cancel like any other."""
    num = Counter(dim.num) + Counter({UNIT_BRACKET: len(dim.den)})
    den = Counter(dim.den) + Counter({UNIT_BRACKET: len(dim.num)})
    return num - den, den - num


def _assemble(knot, lam, mu, expansion, theta_color):
    """Twist each term and normalize it at the bracket level.

    Each term's dimension is divided by the color's as a bracket product,
    so shared brackets cancel as multisets before any polynomial work.  The
    numerators are summed over the multiset-max common denominator, which
    is then divided out one bracket at a time with exact division.
    """
    r, s = knot.r, knot.s
    power = Fraction(r, s)  # the fractional eigenvalue power max/min
    pref = theta_color.power(-r * s)
    color_dim = quantum_dimension(lam, mu)
    terms = []
    fractions = []
    for beta, gamma in sorted(expansion, reverse=True):
        coeff = expansion[(beta, gamma)]
        twist = pref * braiding_eigenvalue(beta, gamma).power(power)
        term = FactoredTerm(beta, gamma, coeff, twist, quantum_dimension(beta, gamma))
        terms.append(term)
        ratio = term.dimension / color_dim
        num, den = _bracket_fraction(ratio)
        fractions.append((sym_to_qa(twist * ratio.prefactor) * coeff, num, den))

    common = Counter()
    for _, _, den in fractions:
        common |= den
    total = Laurent.zero(("q", "a"))
    for piece, num, den in fractions:
        for b in sorted((num + common - den).elements()):
            piece = piece * bracket_numerator(b)
        total = total + piece
    for b in sorted(common.elements()):
        total = exact_divide(total, bracket_numerator(b))
    if not total.has_integer_exponents():
        raise IntegralityError("normalized output must be integral")
    return InvariantResult(
        knot=knot,
        lam=lam,
        mu=mu,
        normalized=total,
        terms=terms,
    )


def composite_homfly(knot, lam, mu):
    """Normalized composite HOMFLY-PT polynomial of a torus knot.

    Adams expansion runs in the min(r, s) direction with fractional
    eigenvalue power max/min; the two directions agree, and the small one
    keeps the expansion shallow.
    """
    expansion = composite_adams(lam, mu, knot.s)
    return _assemble(knot, lam, mu, expansion, braiding_eigenvalue(lam, mu))


def classical_homfly(knot, lam):
    """Single-diagram HOMFLY-PT via the classical expansion.

    Kept as an independent code path; collapsing composite_homfly with an
    empty first slot must reproduce it term for term (tested).
    """
    expansion = {
        (EMPTY, nu): c for nu, c in adams_coefficients(lam, knot.s).items()
    }
    return _assemble(knot, EMPTY, lam, expansion, braiding_eigenvalue(EMPTY, lam))


# ---------------------------------------------------------------------------
# finite-rank oracle


def _theta_exponent_at_rank(shape, N):
    """Exponent of the rank-N braiding eigenvalue of a single diagram."""
    n = shape.size()
    return Fraction(-(kappa(shape) + n * N), 2) + Fraction(n * n, 2 * N)


def qdim_at_rank(shape, N):
    """Quantum dimension at rank N, an exact Laurent in q^{1/2}.

    Direct product over positive-root pairs; equal integers between
    numerator and denominator cancel before any polynomial work.
    """
    if len(shape) > N:
        raise RankTooSmallError("%s does not fit in rank %d" % (shape, N))
    num, den = [], []
    for i in range(1, N + 1):
        for j in range(i + 1, N + 1):
            num.append(Bracket(0, shape.row(i) - shape.row(j) + j - i))
            den.append(Bracket(0, j - i))
    return BracketProduct(None, num, den).at_rank(N)


def finite_N_oracle(knot, lam, mu, N):
    """Normalized invariant of the materialized diagram at concrete rank N.

    Fully finite computation: the rank-N Adams expansion (character route),
    concrete eigenvalue exponents, and direct Weyl-product dimensions, with
    a = q^N built in.  Shares no code with the symbolic engine's expansion,
    eigenvalue, or dimension steps.
    """
    if N < len(lam) + len(mu):
        raise RankTooSmallError(
            "rank %d < %d for [%s|%s]" % (N, len(lam) + len(mu), lam, mu)
        )
    r, s = knot.r, knot.s
    power = Fraction(r, s)
    zeta = compose_at_N(lam, mu, N)
    if not zeta:
        return Laurent.one(("q",))
    total = Laurent.zero(("q",))
    for nu, coeff in adams_at_rank(zeta, knot.s, N).items():
        reduced = reduce_columns(nu, N)
        exponent = _theta_exponent_at_rank(nu, N) * power
        mono = Laurent(("q",), {(exponent,): coeff})
        total = total + mono * qdim_at_rank(reduced, N)
    lead = Laurent(
        ("q",), {(-_theta_exponent_at_rank(zeta, N) * r * s,): 1}
    )
    return exact_divide(total * lead, qdim_at_rank(zeta, N))
