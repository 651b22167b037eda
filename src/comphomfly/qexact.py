"""Exact multivariate Laurent arithmetic and the symbolic-rank exponent type.

Polynomials live over arbitrary-precision integer coefficients with exact
rational exponents (halves come from brackets, smaller denominators from the
exceptional-series substitutions).  A polynomial stores int exponent tuples
over one positive denominator, which is whatever common denominator its
operation produced, not necessarily the lowest.  The ring operations and
exact division never touch a Fraction; Fractions appear only where exponents
cross the boundary (term files, printing, inspection and substitution
arguments, and the `SymExponent` a twist is printed as), and a float
exponent or coefficient raises TypeError.  Engine output uses variables
(q, a), fixtures (q, t, a), finite-rank cross-checks (q,).  The printed term
order is lexicographic on (a-exponent, q-exponent, t-exponent), which makes
every printed or serialized form deterministic; the ring operations and
exact division never consult it.  Whole-polynomial maps (substitution,
tilde normalization, rescaling, term-file loading and printing) run on the
exponent columns, one map per column, not one term at a time.  A sum of
bracket quotients, the engine's hot path, has one exact route,
`bracket_sum`: one packed integer of merged rows, divided 2-adically by
one binomial at a time.  A row is one signed monomial, an int coefficient
and int q- and a-exponents over the one den the caller passes, times a
bracket quotient given as {bracket: multiplicity} counts; rows are merged
on their nonzero (bracket, multiplicity) items, and the engine and the
oracle take every bracket from one table, `bracket`, so equal brackets are
one object.
"""

from __future__ import annotations

import hashlib
import heapq
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, repeat
from operator import add, and_, attrgetter, floordiv, itemgetter, mod, mul, neg, sub
from typing import NamedTuple


class InexactDivisionError(ArithmeticError):
    """Polynomial division left a nonzero remainder; upstream formula bug."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class ResidualRankError(ArithmeticError):
    """A symbolic exponent kept a 1/N part where it must cancel."""


class IntegralityError(ArithmeticError):
    """A value the theory makes integral came out fractional; a formula bug."""


class SignedExponentError(ValueError):
    """(-1)^k is undefined for a non-integer exponent k."""


_PRIORITY = {"a": 0, "q": 1, "t": 2}
_STORAGE = {"q": 0, "t": 1, "a": 2}


def _var_rank(name):
    """Term-order priority: a outranks q outranks t."""
    return _PRIORITY.get(name, 3 + ord(name[0]))


def _storage_rank(name):
    """Variable-tuple layout: q, t, a (the term-file column order), then the
    other names in string order, so the layout never depends on set order."""
    return _STORAGE.get(name, 3), name


class Laurent:
    """Laurent polynomial with rational exponents over fixed variables.

    `vars` is a tuple of variable names.  `terms` maps int exponent tuples
    (aligned with `vars`) to nonzero ints, and `den` is one positive int
    for the whole polynomial: the true exponent of a key entry k is k/den.
    The den is not reduced: an operation keeps the lcm of its operands'
    dens, so one polynomial has many (terms, den) forms, and equality
    compares the terms rescaled to a common den.  Values are treated as
    immutable: every operation returns a fresh instance.
    """

    __slots__ = ("vars", "terms", "den")

    def __init__(self, vars, terms=None, den=1):
        """Key entries must be ints or Fractions and coefficients ints (not
        bools), else TypeError; each key entry means entry/den."""
        if not isinstance(den, int) or den < 1:
            raise ValueError("den must be a positive int, got %r" % (den,))
        self.vars = tuple(vars)
        terms, scale = terms or {}, 1
        # int keys stay; any other entry puts every column on one int grid
        if {*map(type, chain.from_iterable(terms))} - {int}:
            try:
                scale = math.lcm(*map(attrgetter("denominator"), chain.from_iterable(terms)))
            except AttributeError:
                raise TypeError("exponents must be ints or Fractions") from None
            grid = [map(int, map(mul, c, repeat(scale))) for c in _columns(terms, len(self.vars))]
            terms = dict(zip(_keys(grid, len(terms)), terms.values()))
        if {*map(type, terms.values())} - {int}:  # exactly int: a bool is refused
            coeff = next(c for c in terms.values() if type(c) is not int)
            raise TypeError("coefficient must be an int, got %r" % (coeff,))
        self.terms, self.den = _nonzero(terms), den * scale

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, vars):
        return cls(vars, {(0,) * len(tuple(vars)): 1})

    @classmethod
    def monomial(cls, vars, coeff, **exps):
        vars = tuple(vars)
        unknown = set(exps) - set(vars)
        if unknown:
            raise ValueError("unknown variables %s" % sorted(unknown))
        key = tuple(_fraction(exps.get(v, 0)) for v in vars)
        return cls(vars, {key: coeff})

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        mine, theirs, den = common_terms(self, other)
        terms = dict(mine)
        for exps, c in theirs.items():
            nc = terms.get(exps, 0) + c
            if nc:
                terms[exps] = nc
            else:
                del terms[exps]
        return _build(self.vars, terms, den)

    def __neg__(self):
        return _build(self.vars, dict(zip(self.terms, map(neg, self.terms.values()))), self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return Laurent(self.vars)
            scaled = map(mul, self.terms.values(), repeat(other))
            return _build(self.vars, dict(zip(self.terms, scaled)), self.den)
        small, large, den = common_terms(self, other)
        if len(small) > len(large):
            small, large = large, small
        acc = {}
        get = acc.get
        for k1, c1 in small.items():
            for k2, c2 in large.items():
                key = tuple(map(add, k1, k2))
                acc[key] = get(key, 0) + c1 * c2
        return _build(self.vars, {k: c for k, c in acc.items() if c}, den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Laurent) or self.vars != other.vars:
            return False
        mine, theirs, _ = common_terms(self, other)
        return mine == theirs

    def __bool__(self):
        return bool(self.terms)

    # -- inspection (exponents come out as Fractions) -------------------------

    def sorted_terms(self):
        columns, coeffs = _ordered(self)
        exps = [map(Fraction, col, repeat(self.den)) for col in columns]
        return list(zip(_keys(exps, len(coeffs)), coeffs))

    def degree(self, name):
        i = self.vars.index(name)
        if not self.terms:
            raise ValueError("the zero polynomial has no %s-degree" % name)
        return Fraction(max(map(itemgetter(i), self.terms)), self.den)

    def has_integer_exponents(self):
        return not any(map(mod, chain.from_iterable(self.terms), repeat(self.den)))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(self.vars, exps):
                if e == 0:
                    continue
                if e == 1:
                    factors.append(name)
                elif e.denominator == 1:
                    factors.append("%s^%s" % (name, e))
                else:
                    factors.append("%s^(%s)" % (name, e))
            body = "*".join(factors)
            mag = abs(coeff)
            if not body:
                piece = str(mag)
            elif mag == 1:
                piece = body
            else:
                piece = "%s*%s" % (mag, body)
            bits.append(("- " if coeff < 0 else "+ ") + piece)
        text = " ".join(bits)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    __repr__ = __str__

    # -- substitution -----------------------------------------------------

    def substitute(self, assignments):
        """Exact substitution of variables by signed monomials.

        `assignments` maps a variable name to (sign, {target: exponent}).
        A sign of -1 requires the substituted variable to appear with
        integer exponents only, else (-1)^k is undefined.
        """
        for name in assignments:
            if name not in self.vars:
                raise ValueError("substituting absent variable %r" % name)
        targets = {v for v in self.vars if v not in assignments}
        for sign, mono in assignments.values():
            if sign not in (1, -1):
                raise ValueError("sign must be +-1")
            targets.update(mono)
        new_vars = tuple(sorted(targets, key=_storage_rank))
        # one scale puts every target exponent on the int grid
        scale = math.lcm(
            *(_fraction(e).denominator for _, m in assignments.values() for e in m.values())
        )
        # target columns sum source columns times int factors; signed ones flip signs
        den, n = self.den, len(self.terms)
        sums, signed = dict.fromkeys(new_vars), []
        for name, col in zip(self.vars, _columns(self.terms, len(self.vars))):
            sign, mono = assignments.get(name, (1, {name: 1}))
            if sign == -1:
                signed.append((next(compress(range(n), map(mod, col, repeat(den))), n), name, col))
            for t, e in mono.items():
                f = int(Fraction(e) * scale)
                part = col if f == 1 else map(mul, col, repeat(f))
                sums[t] = part if sums[t] is None else map(add, sums[t], part)
        coeffs = self.terms.values()
        if signed:
            first, name, col = min(signed, key=itemgetter(0))
            if first < n:
                raise SignedExponentError(
                    "(-1)^(%s) undefined substituting %s" % (Fraction(col[first], den), name)
                )
            steps = [col if den == 1 else map(floordiv, col, repeat(den)) for _, _, col in signed]
            odd = map(and_, map(sum, zip(*steps)), repeat(1))
            coeffs = map(mul, coeffs, map(pow, repeat(-1), odd))
        acc = {}
        get = acc.get
        for key, c in zip(_keys(list(sums.values()), n), coeffs):
            acc[key] = get(key, 0) + c
        return _build(new_vars, _nonzero(acc), den * scale)


def _fraction(x):
    """x as a Fraction.  A float is refused: its binary value is not the
    decimal it prints as, so Fraction(0.1) has a 2^55 denominator."""
    if isinstance(x, float):
        raise TypeError("exponent must be an int or Fraction, got float %r" % (x,))
    return Fraction(x)


def _ordered(p):
    """p's exponent columns and coefficients, each in the printed term order."""
    columns, coeffs = _columns(p.terms, len(p.vars)), list(p.terms.values())
    by_rank = [columns[p.vars.index(v)] for v in sorted(p.vars, key=_var_rank)]
    at = sorted(range(len(coeffs)), key=list(_keys(by_rank, len(coeffs))).__getitem__)
    return [list(map(col.__getitem__, at)) for col in columns], list(map(coeffs.__getitem__, at))


def _build(vars, terms, den):
    """A Laurent from int-keyed terms with nonzero coefficients over den."""
    out = Laurent.__new__(Laurent)
    out.vars = vars
    out.terms, out.den = terms, den
    return out


def _columns(terms, k):
    """The k exponent columns of terms, one map each; zip(*terms) makes an iterator per term."""
    return [tuple(map(itemgetter(i), terms)) for i in range(k)]


def _keys(columns, n):
    """The n keys of a list of exponent columns: n keys () if it is empty."""
    return zip(*columns) if columns else repeat((), n)


def _nonzero(terms):
    """A fresh copy of terms without its zero coefficients."""
    return {e: c for e, c in terms.items() if c} if 0 in terms.values() else dict(terms)


def _rescaled(p, k):
    if k == 1:
        return p.terms
    columns = [map(mul, col, repeat(k)) for col in _columns(p.terms, len(p.vars))]
    return dict(zip(_keys(columns, len(p.terms)), p.terms.values()))


def common_terms(p, r):
    """The term dicts of p and r rescaled to the lcm of their dens, and that lcm."""
    if not isinstance(r, Laurent):
        raise TypeError("expected Laurent, got %r" % (r,))
    if r.vars != p.vars:
        raise ValueError("variable mismatch: %s vs %s" % (p.vars, r.vars))
    if p.den == r.den:
        return p.terms, r.terms, p.den
    den = math.lcm(p.den, r.den)
    return _rescaled(p, den // p.den), _rescaled(r, den // r.den), den


def exact_divide(num, den):
    """Quotient num/den with zero remainder, else InexactDivisionError.

    Lowest-term elimination in the raw order of the int exponent keys, a
    monomial order like any other, so the quotient is the same in every
    order; every division in the engine is exact by theory, so a remainder
    always signals a bug.  The candidate quotient exponents are boxed by the
    factorization bounds min(num)-min(den) .. max(num)-max(den) per
    variable, which makes non-divisibility detection terminate.  The
    remainder is updated in place; a min-heap holds its raw keys, and keys
    whose term has since cancelled are skipped when popped.  Everything runs
    on the int keys over the two operands' common denominator.
    """
    if not isinstance(num, Laurent) or not isinstance(den, Laurent):
        raise TypeError("exact_divide wants Laurent arguments")
    if num.vars != den.vars:
        raise ValueError("variable mismatch in division")
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    if not num:
        return Laurent(num.vars)
    rem, divisor, scale = common_terms(num, den)
    rem = dict(rem)
    columns = zip(_columns(rem, len(num.vars)), _columns(divisor, len(num.vars)))
    box = [(min(n) - min(d), max(n) - max(d)) for n, d in columns]
    pivot = min(divisor)
    pivot_coeff = divisor[pivot]
    tail = [(e, c) for e, c in divisor.items() if e != pivot]
    heap = list(rem)
    heapq.heapify(heap)
    quotient = {}
    while heap:
        rexps = heapq.heappop(heap)
        rcoeff = rem.get(rexps)
        if rcoeff is None:
            continue
        qexps = tuple(map(sub, rexps, pivot))
        if rcoeff % pivot_coeff or any(
            not (lo <= e <= hi) for e, (lo, hi) in zip(qexps, box)
        ):
            raise InexactDivisionError(
                "inexact polynomial division", _build(num.vars, rem, scale)
            )
        qc = rcoeff // pivot_coeff
        quotient[qexps] = qc
        del rem[rexps]
        for dexps, dc in tail:
            k = tuple(map(add, qexps, dexps))
            old = rem.get(k)
            nc = (old or 0) - qc * dc
            if not nc:
                del rem[k]
                continue
            if old is None:
                heapq.heappush(heap, k)
            rem[k] = nc
    return _build(num.vars, quotient, scale)


def tilde_normalize(p):
    """p with its per-variable lowest monomial divided out; zero stays zero.

    Whether the result has nonnegative exponents and unit constant term is
    the caller's claim to assert, not enforced here.
    """
    if not p:
        return p
    columns = [map(sub, col, repeat(min(col))) for col in _columns(p.terms, len(p.vars))]
    return _build(p.vars, dict(zip(_keys(columns, len(p.terms)), p.terms.values())), p.den)


# ---------------------------------------------------------------------------
# symbolic-rank exponents


class SymExponent(NamedTuple):
    """q-exponent of the shape e1*N + e0 + em1/N with exact parts: the
    printed form of an eigenvalue or a twist, never an engine operand."""

    e1: Fraction
    e0: Fraction
    em1: Fraction

    @classmethod
    def make(cls, e1=0, e0=0, em1=0):
        return cls(_fraction(e1), _fraction(e0), _fraction(em1))

    def render(self):
        """Human form e1*N + e0 + em1/N, leaving out zero parts."""
        bits = []
        if self.e1:
            bits.append({1: "N", -1: "-N"}.get(self.e1, "%s*N" % self.e1))
        if self.e0:
            bits.append(str(self.e0))
        if self.em1:
            bits.append("%s/N" % self.em1)
        return " + ".join(bits).replace("+ -", "- ") if bits else "0"

    def render_power(self):
        """Human form of q^(self) with q^N written as a: a^{e1} q^{e0 + em1/N}."""
        bits = []
        if self.e1:
            bits.append("a" if self.e1 == 1 else "a^%s" % _fmt_frac(self.e1))
        if self.em1:
            bits.append("q^(%s)" % self._replace(e1=0).render())
        elif self.e0:
            bits.append("q" if self.e0 == 1 else "q^%s" % _fmt_frac(self.e0))
        return "*".join(bits) if bits else "1"


def _fmt_frac(f):
    return str(f) if f.denominator == 1 and f >= 0 else "(%s)" % f


# ---------------------------------------------------------------------------
# q,a-integers (brackets)


class Bracket(NamedTuple):
    """The q,a-integer [u*N + v]."""

    u: int
    v: int

    def render(self):
        if self.u == 0:
            return "[%d]" % self.v
        npart = "N" if self.u == 1 else "%dN" % self.u
        if self.v == 0:
            return "[%s]" % npart
        return "[%s%+d]" % (npart, self.v)


@lru_cache(maxsize=None)
def bracket(u, v):
    """The bracket table: the one Bracket [u*N + v], built on first use, so
    equal brackets are one object and the hot paths build none twice."""
    return Bracket(u, v)


UNIT_BRACKET = bracket(0, 1)


def render_quotient(num, den):
    """The printed quotient of two bracket lists, as in "[3][N+1]/[N-1]^2".

    Equal brackets cancel and unit brackets drop; each side is sorted, a
    repeated bracket written as a power, and an empty numerator as 1.
    Entries are checked as in `bracket_sum`.
    """
    _check((*num, *den))
    count = Counter(num)
    count.subtract(den)
    del count[UNIT_BRACKET]
    num, den = +count, -count

    def block(side):
        return "".join(
            b.render() + ("^%d" % k if k > 1 else "") for b, k in sorted(side.items())
        )

    text = block(num) or "1"
    return text + "/" + block(den) if den else text


def bracket_numerator(b):
    """a^{u/2} q^{v/2} - a^{-u/2} q^{-v/2} over (q, a).  A constant bracket
    [v] has a-exponent 0, so at a concrete rank it is q^{v/2} - q^{-v/2}."""
    return _build(("q", "a"), {(b.v, b.u): 1, (-b.v, -b.u): -1}, 2)


# ---------------------------------------------------------------------------
# bracket sums (Kronecker substitution)


def bracket_sum(rows, den):
    """Exact sum of c q^(i/den) a^(j/den) * num/under over (c, i, j, counts)
    rows, over (q, a): c, i and j ints (else TypeError) and den a positive
    int (else ValueError).  counts maps each Bracket of the quotient to its
    multiplicity, num's counted up and under's down; the multiplicities
    sum to zero, as num and under are equally long, else ValueError.  Every
    bracket counts names, at multiplicity 0 too, is a Bracket (else
    TypeError) with a positive leading part (else ValueError).  As [b] is
    bracket_numerator(b) over the unit bracket's, a row is its num
    binomials over its under's.  A row is keyed on its nonzero (bracket,
    multiplicity) items, so equal brackets cancel within it, and rows with
    one key merge by adding the c of equal (i, j).  C is the unders'
    multiset max, P = sum(c q^i a^j * num * C/under), B = prod(C), and the
    sum is P/B.  C is a {bracket: multiplicity} max, and a row's
    multiplier C * num/under is C plus its key, expanded to repeated
    shifts only for `_pack`.

    Kronecker substitution (D. Harvey, arXiv:0712.4046): every key goes on
    the grid 2h = lcm(2, den), where a bracket numerator is the monomial
    a^(-uh) q^(-vh) times (a^(2uh) q^(2vh) - 1).  The keys and the
    binomials' exponents span a lattice, made unit steps; then
    a -> X^width, with width > the q-span of P and > every binomial's
    q-steps, and X -> 2^k.  A binomial is a positive digit shift s, and
    multiplying by it is F = (F << k*s) - F.  Q is P(2^k) divided by each
    binomial in turn modulo 2^n (T. Jebelean, "An algorithm for exact
    division", 1993): 2^(k*s) - 1 is odd, with inverse -(1 + 2^(k*s))
    (1 + 2^(2k*s))...  B(2^k) >= 2^sum(k*s - 1) puts an exact Q below
    2^(n-2) in size, n = bitlen(P) - sum(k*s - 1) + 2, so Q is the balanced
    residue, and its k-bit digits come from one to_bytes.  Q is accepted
    only if
      1. multiplying Q back by every binomial gives P(2^k);
      2. ||Q||_1 * 2^len(C) < 2^(k-1);
      3. every q-step of Q lies in [-B_lo, span - B_hi], B_lo and B_hi
         being the lowest and highest q-steps of B's monomials.
    Then Q is exact: let Q' be the polynomial its digits spell.  By 3, Q'*B
    lies, like P, in the box where (q, a) -> X is injective.  By 2, and as
    k >= bitlen(bound) + 2 with bound = sum(|merged c| * 2^(binomials
    applied)) >= ||P||_1, the coefficients of Q'*B and of P are below
    2^(k-1) in size.  By 1, Q*B = P as integers: Q'*B and P agree at X =
    2^k, and a polynomial with coefficients below 2^k in size that
    vanishes at 2^k is zero, so Q'*B = P.

    k1, the smallest multiple of 8 >= bitlen(bound) + len(C) + 2, bounds P,
    not Q.  Only if a check fails there is k2 tried, the same with
    bound * G, G = prod over C of (d // s + 1), where d bounds P's digit
    degree: an exact Q is P * B^-1 in Z[[X]], B^-1 = (-1)^len(C) times the
    product of sum_t X^(t*s), so ||Q||_1 <= ||P||_1 * G and Q passes all
    three checks at k2.  A check failing there proves the sum inexact, and
    InexactDivisionError is raised with no remainder polynomial.
    """
    if not isinstance(den, int) or den < 1:
        raise ValueError("den must be a positive int, got %r" % (den,))
    merged, seen = {}, set()
    for c, i, j, counts in rows:
        if not (isinstance(c, int) and isinstance(i, int) and isinstance(j, int)):
            raise TypeError("row coefficient and exponents must be ints, got %r" % ((c, i, j),))
        balance = sum(counts.values())
        if balance:
            raise ValueError("bracket row of multiplicities summing to %d, not 0" % balance)
        seen.update(counts)
        terms = merged.setdefault(frozenset(filter(itemgetter(1), counts.items())), {})
        terms[i, j] = terms.get((i, j), 0) + c
    _check(seen)
    cancelled = [(terms, key) for key, terms in merged.items() if any(terms.values())]
    common = {}  # C: each bracket at its largest under multiplicity
    for _, key in cancelled:
        for b, m in key:
            if -m > common.get(b, 0):
                common[b] = -m
    scale = 1 + den % 2  # onto the grid lcm(2, den)
    den *= scale
    h = den // 2
    # a row's brackets are C plus its key: sum v, u and the negative v's of C
    # once, then add each key's (bracket, multiplicity) items
    cv = sum(b.v * m for b, m in common.items())
    cu = sum(b.u * m for b, m in common.items())
    cneg = sum(b.v * m for b, m in common.items() if b.v < 0)
    keyed, lows, highs, norms = [], [], [], 0
    for terms, key in cancelled:
        vs, us, neg = cv, cu, cneg
        for b, m in key:
            vs += b.v * m
            us += b.u * m
            if b.v < 0:
                neg += b.v * m
        oq, oa = -h * vs, -h * us
        keys = {(i * scale + oq, j * scale + oa): c for (i, j), c in terms.items() if c}
        (qlo, qhi), (alo, _) = ((min(col), max(col)) for col in _columns(keys, 2))
        lows.append((qlo + 2 * h * neg, alo))
        highs.append(qhi + 2 * h * (vs - neg))
        keyed.append((keys, key))
        norms += sum(map(abs, keys.values()))
    bound = norms << sum(common.values())  # a balanced row holds |C| brackets
    qlo = min((q for q, _ in lows), default=0)
    alo = min((a for _, a in lows), default=0)
    every = common.keys() | {b for _, key in keyed for b, _ in key}
    gq = math.gcd(
        *(i - qlo for keys, _ in keyed for i, _ in keys), *(2 * h * b.v for b in every)
    ) or 1
    ga = math.gcd(
        *(j - alo for keys, _ in keyed for _, j in keys), *(2 * h * b.u for b in every)
    ) or 1
    span = (max(highs, default=qlo) - qlo) // gq
    steps = {b: 2 * h * b.v // gq for b in every}
    width = max([span] + [abs(v) for v in steps.values()]) + 1
    shifts = {b: steps[b] + width * (2 * h * b.u // ga) for b in every}
    digits, top = [], 0
    for keys, key in keyed:
        exps = {(i - qlo) // gq + width * ((j - alo) // ga): c for (i, j), c in keys.items()}
        mult = dict(common)  # the row's multiplier, C plus its key
        for b, m in key:
            mult[b] = mult.get(b, 0) + m
        # multiplicities expand only here; short shifts first: cheaper
        row = sorted([s for b, m in mult.items() for s in (shifts[b],) * m])
        digits.append((exps, row))
        top = max(top, max(exps) + sum(row))
    blo = sum(min(steps[b], 0) * m for b, m in common.items())
    bhi = sum(max(steps[b], 0) * m for b, m in common.items())
    oq, oa = qlo + h * cv, alo + h * cu
    grow = math.prod((top // shifts[b] + 1) ** m for b, m in common.items())
    cshifts = [shifts[b] for b, m in common.items() for _ in range(m)]  # B's binomials
    k1, k2 = (-(-(n.bit_length() + len(cshifts) + 2) // 8) * 8 for n in (bound, bound * grow))
    for k in sorted({k1, k2}):
        total, binomials = _pack(digits, k), [k * s for s in cshifts]
        nbits = max(total.bit_length() - sum(m - 1 for m in binomials) + 2, 1)
        mask, quotient = (1 << nbits) - 1, total
        for m in binomials:
            quotient = -quotient & mask
            while m < nbits:
                quotient += (quotient << m) & mask
                m *= 2
        quotient &= mask
        quotient -= (quotient >> (nbits - 1)) << nbits  # the balanced residue
        back = quotient
        for m in binomials:
            back = (back << m) - back
        if back != total:
            continue
        half, size = 1 << (k - 1), k // 8
        zero = half.to_bytes(size, "little")
        n = quotient.bit_length() // k + 2
        raw = (quotient + int.from_bytes(zero * n, "little")).to_bytes(n * size, "little")
        out, norm = {}, 0
        for d in range(n):
            chunk = raw[d * size : d * size + size]
            if chunk == zero:
                continue
            i, j = d % width, d // width
            if not -blo <= i <= span - bhi:
                break
            c = int.from_bytes(chunk, "little") - half
            out[oq + gq * i, oa + ga * j] = c
            norm += abs(c)
        else:
            if norm << len(cshifts) < half:
                return _build(("q", "a"), out, den)
    raise InexactDivisionError("inexact bracket sum")


def _pack(rows, k):
    """The int sum over (digits, shifts) rows of F(2^k) * prod(2^(k*s) - 1),
    where F has the {digit: coefficient} terms `digits`."""
    total = 0
    for exps, shifts in rows:
        base = min(exps)
        f = sum(c << k * (e - base) for e, c in exps.items())
        for s in shifts:
            f = (f << k * s) - f
        total += f << k * base
    return total


def _check(brackets):
    """TypeError for a non-Bracket, ValueError for no positive leading part."""
    for b in brackets:
        if not isinstance(b, Bracket):
            raise TypeError("expected a Bracket, got %r" % (b,))
        # tuple order: (u, v) > (0, 0) is exactly a positive leading part
        if b <= (0, 0):
            raise ValueError("bracket %s has no positive leading part" % b.render())


# ---------------------------------------------------------------------------
# term-file serialization


def dumps_poly(p, meta=None):
    """Serialize in the term-file format: header comments then sorted terms.

    Lines are `coeff<TAB>exp...` with one exponent column per variable in
    header order; a sha256 checksum of the term block is embedded so
    transcription damage is detected on load.
    """
    meta = dict(meta or {})
    columns, coeffs = _ordered(p)
    # each distinct exponent is printed once
    cells = [map({e: str(Fraction(e, p.den)) for e in set(c)}.__getitem__, c) for c in columns]
    body = list(map("\t".join, zip(map(str, coeffs), *cells)))
    digest = hashlib.sha256("\n".join(body).encode()).hexdigest()
    lines = ["#vars %s" % " ".join(p.vars)]
    lines += ["#%s %s" % (key, meta[key]) for key in sorted(meta)]
    lines.append("#checksum sha256:%s" % digest)
    return "\n".join(lines + body) + "\n"


def loads_poly(text):
    """Parse the term-file format; returns (Laurent, metadata dict)."""
    vars = None
    meta = {}
    body = []
    terms = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(" ")
            if key in meta:
                raise ValueError("repeated #%s header" % key)
            meta[key] = value
            if key == "vars":
                vars = tuple(value.split())
            continue
        if vars is None:
            raise ValueError("term line before #vars header")
        body.append(line)
        cells = line.split("\t")
        if len(cells) != len(vars) + 1:
            raise ValueError("bad term line: %r" % line)
        try:
            exps = tuple(map(int, cells[1:]))
        except ValueError:  # a fractional exponent, or not a number at all
            try:
                exps = tuple(Fraction(c) for c in cells[1:])
            except ZeroDivisionError:
                raise ValueError("bad term line: %r" % line) from None
        coeff = int(cells[0])
        if exps in terms or not coeff:
            raise ValueError("repeated exponents or zero coefficient: %r" % line)
        terms[exps] = coeff
    if vars is None:
        raise ValueError("missing #vars header")
    del meta["vars"]
    checksum = meta.pop("checksum", None)
    if checksum:
        digest = hashlib.sha256("\n".join(body).encode()).hexdigest()
        if checksum != "sha256:%s" % digest:
            raise ValueError("checksum mismatch: file is damaged")
        meta["checksum"] = checksum
    return Laurent(vars, terms), meta
