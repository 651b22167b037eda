"""The composite torus-knot engine.

Assembles normalized and unnormalized HOMFLY-PT polynomials of torus knots
from three symbolic ingredients: braiding eigenvalues with rank-dependent
exponents, composite Adams coefficients, and stable quantum dimensions in
factored bracket form.  A separate finite-rank code path, the stabilization
oracle, recomputes the same invariant at a concrete rank with its own
composite expansion, eigenvalues and dimensions.  Both build each term's
twist as one int exponent over 2s (the oracle's over 2N*s), take psi^r
from `symfunc.adams_at_rank`, Littlewood's r-quotient sum of LR rows on the
r-abacus, and sum with `qexact.bracket_sum`, the one exact route for
bracket quotients, over rows of one int monomial over that exponent den
and balanced {bracket: multiplicity} counts, merged, packed and divided
2-adically.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .partitions import (
    Partition,
    RankTooSmallError,
    compose_at_N,
    conjugate,
    kappa,
)
from .qexact import (
    IntegralityError,
    Laurent,
    ResidualRankError,
    SymExponent,
    bracket,
    bracket_numerator,  # noqa: F401  wrapped by name in perfbench/tracing.py
    bracket_sum,
    exact_divide,  # noqa: F401  wrapped by name in perfbench/tracing.py
    render_quotient,
)
from .symfunc import adams_at_rank, composite_adams


class TorusKnot(NamedTuple("TorusKnot", [("r", int), ("s", int)])):
    """The (r, s) torus knot; stored with r > s >= 1 and gcd(r, s) = 1."""

    __slots__ = ()

    def __new__(cls, r, s):
        if r < s:
            r, s = s, r
        if s < 1 or r < 2:
            raise ValueError("torus knot needs r >= 2, s >= 1")
        if math.gcd(r, s) != 1:
            raise ValueError("(%d, %d) is a link, not a knot" % (r, s))
        return super().__new__(cls, r, s)

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

        -(|lam| + |mu|)/2 * N - (kappa_lam + kappa_mu)/2 + (|mu| - |lam|)^2/(2N).

    The 1/N part survives here.  It cancels in each twisted term, where the
    term's eigenvalue to the power r/s meets the color's eigenvalue to the
    power -r*s, and `_assemble` raises ResidualRankError if it does not.
    This is the printed form that `compute --format terms` shows; `_assemble`
    reads the doubled ints of `_doubled_eigenvalue` instead.
    """
    return SymExponent.make(*(Fraction(x, 2) for x in _doubled_eigenvalue(lam, mu)))


def _doubled_eigenvalue(lam, mu):
    """Twice the (e1, e0, em1) parts of `braiding_eigenvalue`, as ints."""
    m, n = lam.size(), mu.size()
    return -(m + n), -(kappa(lam) + kappa(mu)), (n - m) ** 2


def _slot(shape, other):
    """The slot of shape beside a slot of `other` rows: shape's dimension at
    rank N - other, a bracket [N - other + j - i] over its hook for each box
    (i, j), as num and den lists."""
    cols = conjugate(shape)
    num, den = [], []
    for i, row in enumerate(shape, start=1):
        num += [bracket(1, j - i - other) for j in range(1, row + 1)]
        den += [bracket(0, row - j + cols[j - 1] - i + 1) for j in range(1, row + 1)]
    return num, den


def _cross(beta, gamma):
    """[N + gamma_i + beta_p + 1 - p - i] over [N + 1 - p - i] for each pair
    of rows (i, p), as num and den lists."""
    num, den = [], []
    for i, g in enumerate(gamma, start=1):
        for p, b in enumerate(beta, start=1):
            num.append(bracket(1, g + b + 1 - p - i))
            den.append(bracket(1, 1 - p - i))
    return num, den


def quantum_dimension(beta, gamma):
    """Stable quantum dimension of [beta, gamma] as equally long, uncancelled
    num and den bracket lists, the form `render_quotient` prints.

    Three hook-content factors: gamma's dimension at rank N - len(beta),
    beta's at rank N - len(gamma) (each `_slot`), and the cross pairs of
    rows (`_cross`).  Every bracket is [N + const] or a positive constant
    [v], taken from the bracket table `qexact.bracket`, so a pass over many
    terms builds each distinct bracket once.
    """
    parts = _slot(gamma, len(beta)), _slot(beta, len(gamma)), _cross(beta, gamma)
    return [b for num, _ in parts for b in num], [b for _, den in parts for b in den]


def _counts(row, num, den):
    """Add num's brackets to the {bracket: multiplicity} dict row, subtract
    den's, and return row."""
    get = row.get
    for b in num:
        row[b] = get(b, 0) + 1
    for b in den:
        row[b] = get(b, 0) - 1
    return row


class FactoredTerm(NamedTuple):
    """One summand of the unnormalized expansion, kept in factored form:
    coefficient * q^((e1*N + e0)/den) * dim[beta, gamma]."""

    beta: Partition
    gamma: Partition
    coefficient: int
    e1: int
    e0: int
    den: int

    @property
    def twist(self):
        """The q-exponent as a SymExponent, its 1/N part cancelled; built
        only when read, since only the printed forms read it."""
        return SymExponent(Fraction(self.e1, self.den), Fraction(self.e0, self.den), Fraction(0))

    def render(self):
        return "%d * %s * %s  [%s|%s]" % (
            self.coefficient,
            self.twist.render_power(),
            render_quotient(*quantum_dimension(self.beta, self.gamma)),
            self.beta,
            self.gamma,
        )


class InvariantResult(NamedTuple):
    """Engine output: the normalized polynomial and the factored expansion.

    `terms` holds the unnormalized summands c * twist * dim[beta, gamma];
    `normalized` times the color's quantum dimension equals their sum.
    """

    normalized: Laurent
    terms: list


def _assemble(knot, lam, mu, expansion):
    """Twist each term and normalize it at the bracket level.

    A term's twist is its eigenvalue to the power r/s times the color
    [lam, mu]'s to the power -r*s.  With d the doubled int parts of
    `_doubled_eigenvalue`, that is r*(d(beta, gamma) - s^2*d(lam, mu)) over
    2s, the oracle's form over 2N*s; a nonzero 1/N part raises
    ResidualRankError.  Its row is the coefficient, the q- and a-exponents
    e0 and e1, and its dimension over the color's as one {bracket:
    multiplicity} dict, merged from four parts: the color's counts, negated
    and made once; the two slots, each from a table local to this call,
    keyed by (shape, rows of the other slot) and filled from `_slot`; and
    the term's cross pairs.  A slot beside k rows is the slot beside none
    with each [N + v] moved to [N + v - k], so `_slot` and `conjugate` run
    once per shape.  One `bracket_sum` over 2s cancels each row's shared
    brackets and adds the twisted terms.
    """
    r, s = knot.r, knot.s
    lead = [x * s * s for x in _doubled_eigenvalue(lam, mu)]
    slots = {}

    def slot(shape, other):
        counts = slots.get((shape, other))
        if counts is None:
            if other:
                counts = {bracket(b.u, b.v - b.u * other): m for b, m in slot(shape, 0).items()}
            else:
                counts = _counts({}, *_slot(shape, 0))
            slots[shape, other] = counts
        return counts

    def add_dimension(row, beta, gamma):  # quantum_dimension(beta, gamma), counted
        get = row.get
        for part in (slot(gamma, len(beta)), slot(beta, len(gamma))):
            for b, m in part.items():
                row[b] = get(b, 0) + m
        return _counts(row, *_cross(beta, gamma))

    color = {b: -m for b, m in add_dimension({}, lam, mu).items() if m}
    terms, rows = [], []
    for (beta, gamma), coefficient in sorted(expansion.items(), reverse=True):
        e1, e0, em1 = (r * (x - y) for x, y in zip(_doubled_eigenvalue(beta, gamma), lead))
        if em1:
            twist = SymExponent(*(Fraction(e, 2 * s) for e in (e1, e0, em1)))
            raise ResidualRankError(
                "exponent %s retains rank-dependent parts" % (twist.render(),)
            )
        terms.append(FactoredTerm(beta, gamma, coefficient, e1, e0, 2 * s))
        rows.append((coefficient, e0, e1, add_dimension(dict(color), beta, gamma)))
    total = bracket_sum(rows, 2 * s)
    if not total.has_integer_exponents():
        raise IntegralityError("normalized output must be integral")
    return InvariantResult(total, terms)


def composite_homfly(knot, lam, mu):
    """Normalized composite HOMFLY-PT polynomial of a torus knot.

    Adams expansion runs in the min(r, s) direction with fractional
    eigenvalue power max/min; the two directions agree, and the small one
    keeps the expansion shallow.
    """
    return _assemble(knot, lam, mu, composite_adams(lam, mu, knot.s))


# ---------------------------------------------------------------------------
# finite-rank oracle


def qdim_at_rank(shape, N):
    """The Weyl numerator of shape at rank N: the constant brackets
    [shape_i - shape_j + j - i] over the positive-root pairs i < j <= N,
    each the gap between two of the N beads shape_i + N - i.  The empty
    shape's is the Weyl denominator, so the quantum dimension at rank N is
    qdim_at_rank(shape, N) over qdim_at_rank(EMPTY, N).  The brackets come
    from the bracket table `qexact.bracket`, so the oracle's N(N-1)/2
    brackets per shape are looked up, not built."""
    if len(shape) > N:
        raise RankTooSmallError("%s does not fit in rank %d" % (shape, N))
    beads = [shape.row(i) + N - i for i in range(1, N + 1)]
    return [bracket(0, b - c) for i, b in enumerate(beads) for c in beads[i + 1 :]]


def finite_N_oracle(knot, lam, mu, N):
    """Normalized invariant of the materialized diagram at concrete rank N.

    Fully finite computation: the rank-N Adams expansion of the composed
    diagram, concrete eigenvalue exponents, and direct Weyl-product
    dimensions.  Of the engine's steps it shares only the single-shape
    psi^r, `adams_at_rank`, the r-quotient sum at N beads (tested against
    the tests' monomial `brute_force_adams` and character double sum
    `reference_adams`); Koike's sum with K^r against the rank-N shape of
    `compose_at_N`, the eigenvalues and the dimensions stay independent.
    The term q^{theta(nu) r/s - theta(zeta) rs} c * qdim(nu)/qdim(zeta) is a
    row of c, its q-exponent as an int over 2N*s and a-exponent 0, and the
    Weyl numerators of nu over zeta, the shared Weyl denominator never
    built.  Its brackets are constants [m] with a-exponent 0, so a is
    dropped from the (q,) result of `bracket_sum` over 2N*s.
    """
    r, s = knot.r, knot.s

    def theta(shape):  # 2N times the rank-N eigenvalue exponent of shape
        n = shape.size()
        return n * n - (kappa(shape) + n * N) * N

    zeta = compose_at_N(lam, mu, N)
    lead = theta(zeta) * s * s
    under = _counts({}, (), qdim_at_rank(zeta, N))
    rows = []
    for nu, coeff in adams_at_rank(zeta, s, N).items():
        row = _counts(dict(under), qdim_at_rank(nu, N), ())
        rows.append((coeff, r * (theta(nu) - lead), 0, row))
    return bracket_sum(rows, 2 * N * s).substitute({"a": (1, {})})
