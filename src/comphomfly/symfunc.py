"""Symmetric-function combinatorics over exact integers.

Littlewood-Richardson coefficients by tableau counting, symmetric-group
characters by the Murnaghan-Nakayama recursion, Adams (plethysm-by-power-sum)
coefficients, the composite-character expansions that drive the torus-knot
engine, and the finite-rank Adams expansion of the oracle.  Everything is
integer-exact.  Both border-strip steps run on beta-sets (see `_slide`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .partitions import (
    EMPTY,
    Partition,
    conjugate,
    dual_at_N,
    reduce_columns,
)
from .qexact import IntegralityError


class SizeMismatchError(ValueError):
    """Character evaluated on a class of the wrong symmetric group."""


# ---------------------------------------------------------------------------
# partition enumeration


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


@lru_cache(maxsize=None)
def subpartitions(lam):
    """All partitions whose diagram fits inside lam."""
    if not lam:
        return (EMPTY,)
    out = set()

    def fill(i, prev, acc):
        out.add(Partition(acc))
        if i >= len(lam):
            return
        for r in range(1, min(lam[i], prev) + 1):
            fill(i + 1, r, acc + (r,))

    fill(0, lam.width, ())
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Littlewood-Richardson rule


@lru_cache(maxsize=None)
def lr_coefficient(lam, mu, nu):
    """N^nu_{lam,mu}: LR skew tableaux of shape nu/lam and content mu.

    Cells are filled right-to-left along rows, top to bottom, so the
    lattice condition on the reverse reading word can be enforced as the
    filling proceeds.
    """
    if nu.size() != lam.size() + mu.size():
        return 0
    if not nu.contains(lam):
        return 0
    if not mu:
        return 1 if nu == lam else 0
    if mu.size() > lam.size():
        # symmetric in lam, mu; put the smaller one as the content
        return lr_coefficient(mu, lam, nu)

    nrows = len(nu)
    cells = []
    for i in range(1, nrows + 1):
        for j in range(nu.row(i), lam.row(i), -1):
            cells.append((i, j))
    values = {}
    counts = [0] * (len(mu) + 1)

    def place(pos):
        if pos == len(cells):
            return 1
        i, j = cells[pos]
        total = 0
        for v in range(1, len(mu) + 1):
            if counts[v] >= mu[v - 1]:
                continue
            if v >= 2 and counts[v] >= counts[v - 1]:
                continue  # lattice word
            right = values.get((i, j + 1))
            if right is not None and v > right:
                continue  # rows weakly increase
            above = values.get((i - 1, j))
            if above is not None and v <= above:
                continue  # columns strictly increase
            values[(i, j)] = v
            counts[v] += 1
            total += place(pos + 1)
            counts[v] -= 1
            del values[(i, j)]
        return total

    return place(0)


@lru_cache(maxsize=None)
def schur_product(lam, mu):
    """Expansion of s_lam * s_mu as {nu: N^nu_{lam,mu}}, zeros omitted."""
    out = {}
    target = lam.size() + mu.size()
    maxlen = len(lam) + len(mu)

    def grow(i, prev, acc, remaining):
        if remaining == 0:
            nu = Partition(acc)
            c = lr_coefficient(lam, mu, nu)
            if c:
                out[nu] = c
            return
        if i > maxlen:
            return
        low = max(1, lam.row(i))
        hi = min(prev, lam.row(i) + mu.width, remaining)
        for r in range(hi, low - 1, -1):
            grow(i + 1, r, acc + (r,), remaining - r)

    grow(1, target, (), target)
    return out


@lru_cache(maxsize=None)
def expansion_pairs(eta):
    """The LR table of eta indexed by content.

    Returns {alpha: ((beta, N^eta_{beta,alpha}), ...)} over the alpha and
    beta with N^eta_{beta,alpha} != 0.  The composite expansions below are
    joins of two such tables on alpha.
    """
    n = eta.size()
    by_size = {}
    for beta in subpartitions(eta):
        by_size.setdefault(beta.size(), []).append(beta)
    out = {}
    for alpha in subpartitions(eta):
        row = []
        for beta in by_size[n - alpha.size()]:
            c = lr_coefficient(beta, alpha, eta)
            if c:
                row.append((beta, c))
        out[alpha] = tuple(row)
    return out


# ---------------------------------------------------------------------------
# symmetric-group characters (Murnaghan-Nakayama)


def _slide(beads, k):
    """Every way to move one bead of a beta-set k places onto a free slot.

    A beta-set writes a shape as a strictly decreasing tuple of n bead
    positions, row i = bead_i - (n - i) for i = 1..n.  Sliding a bead up k
    places adds a border strip of k boxes, sliding it down (k < 0) removes
    one, and the strip's sign is (-1)^(number of beads jumped).  Yields
    (beads, sign).
    """
    n = len(beads)
    for j, b in enumerate(beads):
        target = b + k
        if target < 0 or target in beads:
            continue
        t = j  # the moved bead's index in the new tuple
        while t and beads[t - 1] < target:
            t -= 1
        while t < n - 1 and beads[t + 1] > target:
            t += 1
        rest = beads[:j] + beads[j + 1 :]
        yield rest[:t] + (target,) + rest[t:], -1 if (j - t) % 2 else 1


def sym_character(lam, mu):
    """chi^lam evaluated on the conjugacy class of cycle type mu."""
    if lam.size() != mu.size():
        raise SizeMismatchError("|%s| != |%s|" % (lam, mu))
    n = len(lam)
    return _mn(tuple(r + n - i for i, r in enumerate(lam, 1)), mu)


@lru_cache(maxsize=None)
def _mn(beads, parts):
    """Murnaghan-Nakayama on a beta-set: one border strip off per part."""
    if not parts:
        return 1 if not beads or beads[0] < len(beads) else 0
    k, rest = parts[0], parts[1:]
    return sum(sign * _mn(new, rest) for new, sign in _slide(beads, -k))


def zclass(mu):
    """Centralizer order z_mu = prod_i i^{m_i} m_i!."""
    z = 1
    mults = {}
    for part in mu:
        mults[part] = mults.get(part, 0) + 1
    for part, m in mults.items():
        z *= part**m * math.factorial(m)
    return z


def conjugacy_size(mu):
    """Number of permutations of cycle type mu: n!/z_mu."""
    return math.factorial(mu.size()) // zclass(mu)


# ---------------------------------------------------------------------------
# Adams operation (plethysm by a power sum)


def _stretch(mu, r):
    return Partition(sorted((r * part for part in mu), reverse=True))


@lru_cache(maxsize=None)
def adams_coefficients(lam, r):
    """Schur expansion of s_lam with every variable raised to the r-th power.

    Coefficient of s_nu is sum over mu |- |lam| of
    chi^lam(C_mu) * chi^nu(C_{r*mu}) / z_mu; the z_mu denominator is the
    one that survives the sanity checks (see the project notes).
    """
    if r < 1:
        raise ValueError("Adams index must be >= 1")
    if not lam:
        return {EMPTY: 1}
    if r == 1:
        return {lam: 1}
    n = lam.size()
    weights = []
    for mu in partitions_of(n):
        chi = sym_character(lam, mu)
        if chi:
            weights.append((Fraction(chi, zclass(mu)), _stretch(mu, r)))
    out = {}
    for nu in partitions_of(r * n):
        total = sum(w * sym_character(nu, rmu) for w, rmu in weights)
        if total:
            if total.denominator != 1:
                raise IntegralityError("non-integer Adams coefficient")
            out[nu] = int(total)
    return out


# ---------------------------------------------------------------------------
# composite characters


@lru_cache(maxsize=None)
def composite_character_expansion(lam, mu):
    """Coefficients of s_nu(x) s_xi(y) in the universal composite character.

    Sum over tau of (-1)^{|tau|} N^lam_{nu,tau} N^mu_{xi,tau'} with tau' the
    conjugate of tau.  The conjugate is forced by the inversion identity
    with `composite_product_expansion` (tested) and by every finite-rank
    projection; without it the two transforms are not mutually inverse.
    The sign depends only on |tau| = |lam| - |nu|, so no term cancels.
    """
    out = {}
    right = expansion_pairs(mu)
    for tau, lefts in expansion_pairs(lam).items():
        rights = right.get(conjugate(tau), ())
        sign = -1 if tau.size() % 2 else 1
        for nu, c1 in lefts:
            for xi, c2 in rights:
                key = (nu, xi)
                out[key] = out.get(key, 0) + sign * c1 * c2
    return out


def composite_product_expansion(eta, delta):
    """Expansion of s_eta(x) s_delta(y) over composite characters s_[beta,gamma].

    The coefficient is sum over alpha of N^eta_{beta,alpha} N^delta_{gamma,alpha}.
    """
    out = {}
    right = expansion_pairs(delta)
    for alpha, lefts in expansion_pairs(eta).items():
        rights = right.get(alpha, ())
        for beta, c1 in lefts:
            for gamma, c2 in rights:
                key = (beta, gamma)
                out[key] = out.get(key, 0) + c1 * c2
    return out


@lru_cache(maxsize=None)
def composite_adams(lam, mu, r):
    """Composite-character expansion of the r-th Adams image of s_[lam,mu].

    Two stages.  First the composite character expansion and the ordinary
    Adams expansion of each tensor slot give the image in the
    s_eta(x) s_delta(y) basis; then each distinct (eta, delta) is expanded
    once back into composite characters by `composite_product_expansion`.
    """
    if r < 1:
        raise ValueError("Adams index must be >= 1")
    images = {}
    for (nu, xi), c in composite_character_expansion(lam, mu).items():
        for eta, a1 in adams_coefficients(nu, r).items():
            for delta, a2 in adams_coefficients(xi, r).items():
                key = (eta, delta)
                images[key] = images.get(key, 0) + c * a1 * a2
    acc = {}
    for (eta, delta), c in images.items():
        if not c:
            continue
        for key, n in composite_product_expansion(eta, delta).items():
            acc[key] = acc.get(key, 0) + c * n
    return {k: v for k, v in acc.items() if v}


def format_expansion(expansion):
    """Serialize an expansion as sorted `key<TAB>coefficient` lines.

    Keys may be partitions or composite pairs; ordering is descending on
    the row tuples, matching the printed tables.
    """

    def text_of(item):
        if isinstance(item, Partition):
            return str(item)
        return "|".join(str(part) for part in item)

    lines = []
    for item in sorted(expansion, reverse=True):
        lines.append("%s\t%d" % (text_of(item), expansion[item]))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# finite-rank expansions (the independent route used by the oracles)


def _pk_times_beta(expansion, k):
    """p_k times a Schur expansion keyed on beta-sets: slide one bead up k."""
    out = {}
    for beads, coeff in expansion.items():
        for new, sign in _slide(beads, k):
            out[new] = out.get(new, 0) + sign * coeff
    return {key: v for key, v in out.items() if v}


@lru_cache(maxsize=None)
def power_schur_expansion(parts, max_rows):
    """Schur expansion of p_{parts} over shapes with at most max_rows rows.

    Keys are beta-sets of max_rows beads.  Dropping longer shapes is sound:
    border strips only grow rows, so shapes past the cap can never shrink
    back under it, and a fixed number of beads never holds them.
    """
    if not parts:
        return {tuple(range(max_rows - 1, -1, -1)): 1}
    tail = power_schur_expansion(parts[1:], max_rows)
    return _pk_times_beta(tail, parts[0])


def adams_at_rank(zeta, r, max_rows):
    """Schur expansion of s_zeta(x^r) over shapes with at most max_rows rows.

    Character route: sum over classes mu of chi^zeta(mu)/z_mu p_{r*mu},
    expanded by sliding beads.  The sum runs in integers over L, the lcm of
    the z_mu used, so a coefficient L does not divide is a hard error, not a
    floor.  Independent of the composite-character machinery above.
    """
    weights = []
    for mu in partitions_of(zeta.size()):
        chi = sym_character(zeta, mu)
        if chi:
            weights.append((chi, zclass(mu), tuple(r * p for p in mu)))
    L = math.lcm(*(z for _, z, _ in weights))
    acc = {}
    for chi, z, stretched in weights:
        w = chi * (L // z)
        for beads, c in power_schur_expansion(stretched, max_rows).items():
            acc[beads] = acc.get(beads, 0) + w * c
    out = {}
    for beads, c in acc.items():
        if c:
            if c % L:
                raise IntegralityError("non-integer finite-rank expansion")
            out[Partition(b - max_rows + i for i, b in enumerate(beads, 1))] = c // L
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


def composite_schur_at_rank(lam, mu, N):
    """Rank-N character of the universal composite character s_[lam,mu].

    The x-slot carries lam and is the dualized side, so s_nu(x) lands on
    the rank-N dual diagram of nu.  For N >= len(lam)+len(mu) this recovers
    the plain Schur function of the composed diagram, but it stays correct
    below any individual key's bound, where modification terms appear.
    """
    out = {}
    for (nu, xi), c in composite_character_expansion(lam, mu).items():
        if len(nu) > N or len(xi) > N:
            continue
        for key, k in schur_product_at_rank(dual_at_N(nu, N), xi, N).items():
            out[key] = out.get(key, 0) + c * k
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# monomial expansions (brute-force oracles and the Macdonald layer)


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
def power_monomial_matrix(degree):
    """Rows: p_rho expanded over monomial symmetric functions, degree fixed.

    Returned as {rho: {mu: int}} with both indices partitions of `degree`,
    computed by explicit polynomial expansion in `degree` variables.
    """
    nvars = max(degree, 1)
    out = {}
    for rho in partitions_of(degree):
        poly = {(0,) * nvars: 1}
        for part in rho:
            nxt = {}
            for exps, c in poly.items():
                for i in range(nvars):
                    key = tuple(
                        e + (part if j == i else 0) for j, e in enumerate(exps)
                    )
                    nxt[key] = nxt.get(key, 0) + c
            poly = nxt
        row = {}
        for exps, c in poly.items():
            if tuple(sorted(exps, reverse=True)) == exps:
                row[Partition(exps)] = c
        out[rho] = row
    return out


@lru_cache(maxsize=None)
def monomial_power_matrix(degree):
    """Inverse transition: m_mu written in the power-sum basis, Fractions."""
    rhos = list(partitions_of(degree))
    mat = power_monomial_matrix(degree)
    n = len(rhos)
    aug = [
        [Fraction(mat[rhos[i]].get(rhos[j], 0)) for j in range(n)]
        + [Fraction(1 if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    # aug now holds R^{-1} on the right; m = R^{-1} p reading p = R m
    out = {}
    for j, mu in enumerate(rhos):
        out[mu] = {
            rhos[i]: aug[j][n + i] for i in range(n) if aug[j][n + i]
        }
    return out


@lru_cache(maxsize=None)
def schur_in_monomials(lam):
    """Kostka row of s_lam via characters; exact integers."""
    degree = lam.size()
    if degree == 0:
        return {EMPTY: 1}
    pm = power_monomial_matrix(degree)
    acc = {}
    for rho in partitions_of(degree):
        chi = sym_character(lam, rho)
        if not chi:
            continue
        w = Fraction(chi, zclass(rho))
        for mu, c in pm[rho].items():
            acc[mu] = acc.get(mu, Fraction(0)) + w * c
    out = {}
    for mu, c in acc.items():
        if c:
            if c.denominator != 1:
                raise IntegralityError("non-integer Kostka number")
            out[mu] = int(c)
    return out
