"""Partition enumeration, reference expansions, symmetric-group characters,
finite-rank composite-character oracles and monomial expansions for the tests.

None of this is on a path the CLI or `verify` runs.  `partitions_of` lists
the partitions of n for the tests' grids.  `reference_adams` is the
character double sum over Fractions, a second route to the Adams expansion
that `symfunc.adams_at_rank` computes as Littlewood's r-quotient sum; the
characters it needs (Murnaghan-Nakayama on bitmask beta-sets, one border
strip at a time by `slide`) live here, beside the chained power sums the
tests check border strips with.  The
composite character expansion here scans subdiagrams and reads each LR
coefficient on its own, so it shares no summation with
`symfunc.composite_adams`, which the tests check against it.  The monomial
expansions are brute-force oracles for the Adams coefficients and the
building blocks of the Macdonald checker.  `classical_homfly` is the
classical route to a single-diagram invariant, which the tests compare with
the composite engine at an empty slot.  `parse_expr` reads expected
values written as expressions, with `/` as `qexact.exact_divide`, and
`kernel_rows` writes bracket sums over Laurent pieces as the int monomial
and bracket-count rows `qexact.bracket_sum` reads, and `reference_rows`
builds the engine's rows one term at a time, a second route to the
per-shape tables of `rosso._assemble`.  `reference_substitute` and
`reference_tilde_normalize` map a polynomial one term at a time, a second
route to `Laurent.substitute` and `qexact.tilde_normalize`, which map
exponent columns.
"""

import ast
import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from operator import add, mul, sub

from comphomfly import rosso, symfunc as sf
from comphomfly.partitions import EMPTY, Partition, RankTooSmallError, conjugate, dual_at_N
from comphomfly.qexact import IntegralityError, Laurent, SignedExponentError, exact_divide


@lru_cache(maxsize=None)
def partitions_of(n, max_part=None):
    """All partitions of n with parts bounded by max_part, largest-first."""
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return (EMPTY,)
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append(Partition((first,) + rest))
    return tuple(out)


def slide(mask, k):
    """Every way to move one bead of a beta-set k places onto a free slot.

    A beta-set of n beads is an int whose set bits are the bead positions:
    row i of the shape is the i-th highest position minus (n - i).  Sliding
    a bead up k places adds a border strip of k boxes, sliding it down
    (k < 0) removes one, and the strip's sign is (-1)^(number of beads
    jumped).  A bead never passes position 0.  Yields (mask, sign).
    """
    between = (1 << abs(k) - 1) - 1  # the |k| - 1 slots a bead jumps,
    shift = 1 if k > 0 else k + 1  # lowest of them at b + shift
    rest = mask
    while rest:  # highest bead first: a ribbon strip skips the packed beads below
        b = rest.bit_length() - 1
        rest ^= 1 << b
        target = b + k
        if target < 0 or mask >> target & 1:
            continue
        jumped = mask >> b + shift & between
        yield mask ^ 1 << b ^ 1 << target, -1 if jumped.bit_count() & 1 else 1


class SizeMismatchError(ValueError):
    """Character evaluated on a class of the wrong symmetric group."""


def sym_character(lam, mu):
    """chi^lam evaluated on the conjugacy class of cycle type mu."""
    if lam.size() != mu.size():
        raise SizeMismatchError("|%s| != |%s|" % (lam, mu))
    n = len(lam)
    return _mn(sum(1 << r + n - i for i, r in enumerate(lam, 1)), mu)


@lru_cache(maxsize=None)
def _mn(mask, parts):
    """Murnaghan-Nakayama on a beta-set: one border strip off per part."""
    if not parts:
        return 1 if mask & mask + 1 == 0 else 0  # beads packed at the bottom
    k, rest = parts[0], parts[1:]
    return sum(sign * _mn(new, rest) for new, sign in slide(mask, -k))


def zclass(mu):
    """Centralizer order z_mu = prod_i i^{m_i} m_i!."""
    return math.prod(part**m * math.factorial(m) for part, m in Counter(mu).items())


def pk_times_beta(expansion, k):
    """p_k times a Schur expansion keyed on beta-sets: slide one bead up k."""
    out = {}
    for mask, coeff in expansion.items():
        for new, sign in slide(mask, k):
            out[new] = out.get(new, 0) + sign * coeff
    return {key: v for key, v in out.items() if v}


def exponent_at_rank(e, N):
    """A SymExponent e1*N + e0 + em1/N evaluated at the rank N."""
    return e.e1 * N + e.e0 + Fraction(e.em1, N)


def exponent_range(p):
    """Per-variable (min, max) exponent pairs of a nonzero Laurent polynomial."""
    columns = zip(*(exps for exps, _ in p.sorted_terms()))
    return [(min(col), max(col)) for col in columns]


def reference_substitute(p, assignments):
    """`p.substitute(assignments)` one term at a time: each term's target
    exponents are summed entry by entry, and a signed variable's exponent
    is checked and its parity read term by term."""
    for name in assignments:
        if name not in p.vars:
            raise ValueError("substituting absent variable %r" % name)
    targets = {v for v in p.vars if v not in assignments}
    for sign, mono in assignments.values():
        if sign not in (1, -1):
            raise ValueError("sign must be +-1")
        targets.update(mono)
    # the term-file columns q, t, a first, then the other names in order
    new_vars = tuple(sorted(targets, key=lambda v: ({"q": 0, "t": 1, "a": 2}.get(v, 3), v)))
    column = {v: j for j, v in enumerate(new_vars)}
    scale = math.lcm(
        *(Fraction(e).denominator for _, m in assignments.values() for e in m.values())
    )
    plan = []  # per source variable: (name, sign, [(column, int factor)])
    for name in p.vars:
        sign, mono = assignments.get(name, (1, {name: 1}))
        factors = [(column[t], int(Fraction(e) * scale)) for t, e in mono.items()]
        plan.append((name, sign, factors))
    den = p.den
    acc = {}
    for exps, coeff in p.terms.items():
        new_exps = [0] * len(new_vars)
        for e, (name, sign, factors) in zip(exps, plan):
            if sign == -1:
                if e % den:
                    raise SignedExponentError(
                        "(-1)^(%s) undefined substituting %s" % (Fraction(e, den), name)
                    )
                if (e // den) % 2:
                    coeff = -coeff
            for j, f in factors:
                new_exps[j] += f * e
        key = tuple(new_exps)
        nc = acc.get(key, 0) + coeff
        if nc:
            acc[key] = nc
        else:
            del acc[key]
    return Laurent(new_vars, acc, den * scale)


def reference_tilde_normalize(p):
    """`tilde_normalize(p)` one term at a time."""
    if not p:
        return p
    mins = [min(col) for col in zip(*p.terms)]
    terms = {tuple(e - m for e, m in zip(exps, mins)): c for exps, c in p.terms.items()}
    return Laurent(p.vars, terms, p.den)


@lru_cache(maxsize=None)
def reference_adams(lam, r):
    """Schur expansion of s_lam(x^r) by the character double sum.

    Coefficient of s_nu is the sum over mu |- |lam| of
    chi^lam(C_mu) * chi^nu(C_{r*mu}) / z_mu, in Fractions, for every
    nu |- r|lam|; a non-integer total raises.  Every chi^nu(C_{r*mu}) comes
    at once from expanding p_{r*mu} on a beta-set of r|lam| packed beads
    (Murnaghan-Nakayama), keyed on nu's beta-set of as many beads.
    """
    n = r * lam.size()
    weights = []
    for mu in partitions_of(lam.size()):
        chi = sym_character(lam, mu)
        if chi:
            weights.append((Fraction(chi, zclass(mu)), mu))
    common = math.lcm(*(w.denominator for w, _ in weights))
    totals = {}
    for w, mu in weights:
        expansion = {(1 << n) - 1: w.numerator * (common // w.denominator)}
        for k in reversed(mu):
            expansion = pk_times_beta(expansion, r * k)
        for mask, c in expansion.items():
            totals[mask] = totals.get(mask, 0) + c
    out = {}
    for nu in partitions_of(n):
        mask = sum(1 << p + n - i for i, p in enumerate(nu, 1)) | (1 << n - len(nu)) - 1
        total = Fraction(totals.get(mask, 0), common)
        if total:
            if total.denominator != 1:
                raise IntegralityError("non-integer Adams coefficient")
            out[nu] = int(total)
    return out


def reduce_columns(lam, N):
    """Strip columns of height N: the sl_N reinterpretation of the diagram.

    Requires len(lam) <= N; diagrams with more rows do not survive at rank N.
    """
    if len(lam) > N:
        raise RankTooSmallError("%s has more than %d rows" % (lam, N))
    if len(lam) < N:
        return lam
    c = lam[-1]
    return Partition(r - c for r in lam)


@lru_cache(maxsize=None)
def schur_product(lam, mu):
    """Expansion of s_lam * s_mu as {nu: N^nu_{lam,mu}}, zeros omitted."""
    out = {}
    for nu in partitions_of(lam.size() + mu.size()):
        c = sf.lr_coefficient(lam, mu, nu)
        if c:
            out[nu] = c
    return out


def schur_product_at_rank(lam, mu, N):
    """s_lam * s_mu in the rank-N character ring, keys column-reduced."""
    out = {}
    for nu, c in schur_product(lam, mu).items():
        if len(nu) > N:
            continue
        key = reduce_columns(nu, N)
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def reference_character_expansion(lam, mu):
    """Coefficients of s_nu(x) s_xi(y) in the composite character s_[lam,mu].

    Sum over tau of (-1)^{|tau|} N^lam_{nu,tau} N^mu_{xi,tau'} with tau' the
    conjugate of tau, by direct subdiagram scans.
    """
    out = {}
    for tau in sf.subpartitions(lam):
        tconj = conjugate(tau)
        if not mu.contains(tconj):
            continue
        sign = -1 if tau.size() % 2 else 1
        for nu in sf.subpartitions(lam):
            if nu.size() != lam.size() - tau.size():
                continue
            c1 = sf.lr_coefficient(nu, tau, lam)
            if not c1:
                continue
            for xi in sf.subpartitions(mu):
                if xi.size() != mu.size() - tau.size():
                    continue
                c2 = sf.lr_coefficient(xi, tconj, mu)
                if not c2:
                    continue
                key = (nu, xi)
                out[key] = out.get(key, 0) + sign * c1 * c2
    return {k: v for k, v in out.items() if v}


def composite_schur_at_rank(lam, mu, N):
    """Rank-N character of the universal composite character s_[lam,mu].

    The x-slot carries lam and is the dualized side, so s_nu(x) lands on
    the rank-N dual diagram of nu.  For N >= len(lam)+len(mu) this recovers
    the plain Schur function of the composed diagram, but it stays correct
    below any individual key's bound, where modification terms appear.
    """
    out = {}
    for (nu, xi), c in reference_character_expansion(lam, mu).items():
        if len(nu) > N or len(xi) > N:
            continue
        for key, k in schur_product_at_rank(dual_at_N(nu, N), xi, N).items():
            out[key] = out.get(key, 0) + c * k
    return {k: v for k, v in out.items() if v}


def classical_homfly(knot, lam):
    """Single-diagram HOMFLY-PT via the classical expansion: the engine's
    assembly fed lam's own Adams coefficients in place of the composite
    expansion; collapsing composite_homfly with an empty first slot must
    reproduce it term for term."""
    expansion = {(EMPTY, nu): c for nu, c in sf.adams_coefficients(lam, knot.s).items()}
    return rosso._assemble(knot, EMPTY, lam, expansion)


# ---------------------------------------------------------------------------
# monomial expansions (brute-force oracles and the Macdonald checker)


@lru_cache(maxsize=None)
def schur_monomials(lam, nvars):
    """Monomial expansion of s_lam in nvars variables by tableau counting."""
    if lam and len(lam) > nvars:
        return {}
    out = {}

    # row-by-row semistandard filling
    def rows_fill(i, above, acc):
        if i > len(lam):
            exps = [0] * nvars
            for row_vals in acc:
                for v in row_vals:
                    exps[v - 1] += 1
            key = tuple(exps)
            out[key] = out.get(key, 0) + 1
            return
        width = lam.row(i)

        def cell(j, prev, vals):
            if j > width:
                rows_fill(i + 1, vals, acc + (vals,))
                return
            lo = prev
            if above is not None and j <= len(above):
                lo = max(lo, above[j - 1] + 1)
            for v in range(lo, nvars + 1):
                cell(j + 1, v, vals + (v,))

        cell(1, 1, ())

    rows_fill(1, None, ())
    return out


def monomial_to_schur(monomials, nvars):
    """Rewrite a symmetric monomial dict over exponent tuples in Schur basis.

    Greedy triangular elimination on the dominance-maximal surviving
    monomial; exact for any symmetric integer input.
    """
    work = {k: v for k, v in monomials.items() if v}
    out = {}
    guard = 0
    while work:
        guard += 1
        if guard > 100000:
            raise RuntimeError("monomial_to_schur failed to terminate")
        lead = max(work, key=lambda e: tuple(sorted(e, reverse=True)))
        shape = Partition(sorted(lead, reverse=True))
        coeff = work[lead]
        out[shape] = coeff
        for mono, c in schur_monomials(shape, nvars).items():
            nv = work.get(mono, 0) - coeff * c
            if nv:
                work[mono] = nv
            else:
                work.pop(mono, None)
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def monomial_power_matrix(degree):
    """m_mu in the power-sum basis: {mu: {rho: Fraction}}, mu, rho |- degree.

    m_mu is rewritten in Schur functions by `monomial_to_schur` on its orbit
    in max(degree, 1) variables, where the Schur functions of that degree
    stay independent; each s_lam is then read through the character table,
    s_lam = sum_rho chi^lam(rho) / z_rho p_rho.
    """
    nvars = max(degree, 1)
    out = {}
    for mu in partitions_of(degree):
        orbit = set(permutations(mu + (0,) * (nvars - len(mu))))
        schur = monomial_to_schur(dict.fromkeys(orbit, 1), nvars)
        row = {}
        for rho in partitions_of(degree):
            c = sum(k * sym_character(lam, rho) for lam, k in schur.items())
            if c:
                row[rho] = Fraction(c, zclass(rho))
        out[mu] = row
    return out


# ---------------------------------------------------------------------------
# expression parsing (readable expected values)

_BINARY = {ast.Add: add, ast.Sub: sub, ast.Mult: mul, ast.Div: exact_divide}


def parse_expr(text, vars=("q", "t", "a")):
    """Parse an explicit expression like '1 + q*t - a^2*q^(1/2)'.

    Int literals, the names in `vars`, unary and binary + and -, *, `/` as
    exact division and `^` (or `**`) for power; a bare q^1/2 reads as
    (q^1)/2.  The text is parsed with `ast` and walked over that whitelist,
    never evaluated; anything else raises ValueError.
    """
    vars = tuple(vars)
    try:
        tree = ast.parse(text.replace("^", "**"), mode="eval")
    except SyntaxError as err:
        raise ValueError("cannot parse %r: %s" % (text, err.msg)) from None

    def walk(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            return _power(walk(node.left), _exponent(node.right))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            return _BINARY[type(node.op)](walk(node.left), walk(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            value = walk(node.operand)
            return -value if isinstance(node.op, ast.USub) else value
        if isinstance(node, ast.Name):
            if node.id not in vars:
                raise ValueError("unknown variable %r" % node.id)
            return Laurent.monomial(vars, 1, **{node.id: 1})
        return Laurent(vars, {(0,) * len(vars): _int(node)})

    return walk(tree.body)


def _int(node):
    """The value of an int literal node; bool, float and the rest raise."""
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    raise ValueError("unsupported expression %r" % ast.unparse(node))


def _exponent(node):
    """A power's exponent, [-]int or [-]int/int, as a Fraction."""
    den = 1
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        node, den = node.left, _int(node.right)
        if not den:
            raise ValueError("zero denominator in exponent")
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return Fraction(-_int(node.operand), den)
    return Fraction(_int(node), den)


def _power(base, power):
    """base^power: any base to a nonnegative int power; otherwise the base
    must be a monomial, with coefficient 1 for a fractional power and +-1
    for a negative one."""
    if power.denominator == 1 and power >= 0:
        return math.prod([base] * int(power), start=Laurent.one(base.vars))
    if len(base.terms) != 1:
        kind = "negative" if power.denominator == 1 else "fractional"
        raise ValueError("%s power of a non-monomial" % kind)
    ((exps, coeff),) = base.terms.items()
    if power.denominator != 1 and coeff != 1:
        raise ValueError("fractional power of signed monomial")
    if abs(coeff) != 1:
        raise ValueError("negative power with non-unit coefficient")
    sign = coeff if power.numerator % 2 else 1
    return Laurent(base.vars, {tuple(e * power for e in exps): sign}, base.den)


def kernel_rows(terms):
    """`qexact.bracket_sum`'s (rows, den) for (piece, num, den) terms, each
    piece a Laurent over (q, a): one row per term of each piece, its
    exponents put on the lcm of the piece dens, which is the den returned,
    and its brackets counted, num's up and den's down, so a bracket that
    cancels within the term stays at multiplicity 0."""
    den = math.lcm(*(piece.den for piece, _, _ in terms))
    rows = []
    for piece, num, under in terms:
        scale = den // piece.den
        counts = Counter(num)
        counts.subtract(under)
        rows += [(c, i * scale, j * scale, counts) for (i, j), c in piece.terms.items()]
    return rows, den


def reference_rows(knot, lam, mu, expansion):
    """The engine's kernel rows built one term at a time: a term's
    `quantum_dimension` lists crossed with the color's, (term num + color
    den) over (term den + color num), cancelled by one Counter, beside the
    coefficient and the q- and a-exponents of its twist over 2s, read off
    the printed eigenvalues.  Rows are (c, e0, e1, {bracket: nonzero
    multiplicity}), in the engine's descending term order."""
    r, s = knot.r, knot.s
    color = rosso.braiding_eigenvalue(lam, mu)
    color_num, color_den = rosso.quantum_dimension(lam, mu)
    rows = []
    for (beta, gamma), c in sorted(expansion.items(), reverse=True):
        own = rosso.braiding_eigenvalue(beta, gamma)
        e1, e0 = (Fraction(r, s) * x - r * s * y for x, y in zip(own[:2], color[:2]))
        num, den = rosso.quantum_dimension(beta, gamma)
        count = Counter(num + color_den)
        count.subtract(den + color_num)
        cancelled = {b: m for b, m in count.items() if m}
        rows.append((c, int(e0 * 2 * s), int(e1 * 2 * s), cancelled))
    return rows
