"""Symmetric-function combinatorics over exact integers.

Littlewood-Richardson coefficients as skew rows (the LR tableaux of a skew
shape eta/alpha counted by content, in one cache), symmetric-group
characters by the Murnaghan-Nakayama recursion, the Adams (plethysm by a
power sum) expansion as one Horner sum, and the composite Adams expansion
that drives the torus-knot engine (the product rule K applied r times to
Koike's small skew shapes, then psi^r once: K (psi^r (x) psi^r) =
(psi^r (x) psi^r) K^r, because p_k^perp = k d/dp_k).
Everything is integer-exact.  Both border-strip steps run on bitmask
beta-sets (`_slide`).
"""

from __future__ import annotations

import math
from collections import Counter
from functools import lru_cache
from itertools import groupby

from .partitions import EMPTY, Partition, conjugate
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
    """All partitions whose diagram fits inside lam, sorted."""
    shapes = (nu for n in range(lam.size() + 1) for nu in partitions_of(n, lam.width))
    return tuple(sorted(nu for nu in shapes if lam.contains(nu)))


# ---------------------------------------------------------------------------
# Littlewood-Richardson rule


@lru_cache(maxsize=None)
def skew_row(eta, alpha):
    """The LR row of eta over alpha: sorted (beta, N^eta_{alpha,beta}) pairs.

    One pass over the LR tableaux of the skew shape eta/alpha, counted by
    content beta; empty when alpha does not fit in eta.  Cells are filled
    right-to-left along rows, top to bottom, so the lattice condition on the
    reverse reading word holds as the filling proceeds.  An entry of row i
    is at most i: the rightmost one is the row's largest, and the lattice
    word bounds it.  Every LR value in the package comes from here.
    """
    if not eta.contains(alpha):
        return ()
    cells = [
        (i, j)
        for i in range(1, len(eta) + 1)
        for j in range(eta.row(i), alpha.row(i), -1)
    ]
    values = {}
    # counts[v] is the number of v placed; counts[0] lets every 1 through
    counts = [len(cells) + 1] + [0] * len(eta)
    rows = Counter()

    def place(pos):
        if pos == len(cells):
            rows[tuple(c for c in counts[1:] if c)] += 1
            return
        i, j = cells[pos]
        lo = values.get((i - 1, j), 0) + 1  # columns strictly increase
        hi = values.get((i, j + 1), i)  # rows weakly increase
        for v in range(lo, hi + 1):
            if counts[v] < counts[v - 1]:  # lattice word
                values[(i, j)] = v
                counts[v] += 1
                place(pos + 1)
                counts[v] -= 1

    place(0)
    # rows share the cached partitions_of instances, not a Partition per entry
    shapes = {beta: beta for beta in partitions_of(len(cells))}
    return tuple(sorted((shapes[beta], c) for beta, c in rows.items()))


def lr_coefficient(lam, mu, nu):
    """N^nu_{lam,mu}, looked up in the skew row of nu over lam."""
    return dict(skew_row(nu, lam)).get(mu, 0)


# ---------------------------------------------------------------------------
# symmetric-group characters (Murnaghan-Nakayama)


def _slide(mask, k):
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
    while rest:
        low = rest & -rest
        rest ^= low
        b = low.bit_length() - 1
        target = b + k
        if target < 0 or mask >> target & 1:
            continue
        jumped = mask >> b + shift & between
        yield mask ^ low ^ (1 << target), -1 if jumped.bit_count() & 1 else 1


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
    return sum(sign * _mn(new, rest) for new, sign in _slide(mask, -k))


def zclass(mu):
    """Centralizer order z_mu = prod_i i^{m_i} m_i!."""
    return math.prod(part**m * math.factorial(m) for part, m in Counter(mu).items())


# ---------------------------------------------------------------------------
# composite characters


def _outer(pairs, rows):
    """The linear map sending each pair (eta, delta) to the sum of
    w * left (x) right over the (w, left, right) of rows(eta, delta)."""
    out = Counter()
    for (eta, delta), c in pairs.items():
        for w, left, right in rows(eta, delta):
            for beta, n1 in left:
                for gamma, n2 in right:
                    out[beta, gamma] += w * c * n1 * n2
    return {key: v for key, v in out.items() if v}


def _skew_pairs(pairs):
    """One product-rule step K = sum over alpha of s_alpha^perp (x) s_alpha^perp."""
    return _outer(pairs, lambda eta, delta: (
        (1, skew_row(eta, alpha), skew_row(delta, alpha))
        for alpha in subpartitions(Partition(map(min, eta, delta)))
    ))


def composite_adams(lam, mu, r):
    """Composite-character expansion of the r-th Adams image of s_[lam,mu].

    Koike's formula writes s_[lam,mu] as the sum over tau of (-1)^{|tau|}
    s_{lam/tau} (x) s_{mu/tau'}, tau' the conjugate of tau (tau itself breaks
    r = 1; tested).  The product rule s_eta(x) s_delta(y) = sum over alpha
    of s_[eta/alpha, delta/alpha] reads the keys off K = sum_alpha
    s_alpha^perp (x) s_alpha^perp = exp(sum_k p_k^perp (x) p_k^perp / k).
    psi^r maps p_j to p_{rj} and p_k^perp is k d/dp_k, so p_k^perp psi^r is
    r psi^r p_{k/r}^perp when r divides k and 0 otherwise, and K (psi^r (x)
    psi^r) = (psi^r (x) psi^r) K^r: K runs r times on the small shapes of
    lam/tau and mu/tau', then psi^r once on each slot.
    """
    pairs = _outer({(lam, mu): 1}, lambda eta, delta: (
        ((-1) ** tau.size(), skew_row(eta, tau), skew_row(delta, conjugate(tau)))
        for tau in subpartitions(eta)
    ))
    for _ in range(r):
        pairs = _skew_pairs(pairs)
    return _outer(pairs, lambda beta, gamma: [
        (1, adams_coefficients(beta, r).items(), adams_coefficients(gamma, r).items())
    ])


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
# Adams operation (plethysm by a power sum), one Horner sum on beta-sets


def _pk_times_beta(expansion, k):
    """p_k times a Schur expansion keyed on beta-sets: slide one bead up k."""
    out = {}
    for mask, coeff in expansion.items():
        for new, sign in _slide(mask, k):
            out[new] = out.get(new, 0) + sign * coeff
    return {key: v for key, v in out.items() if v}


def adams_at_rank(zeta, r, max_rows):
    """Schur expansion of s_zeta(x^r) over shapes with at most max_rows rows.

    Character route: sum over classes mu of chi^zeta(mu)/z_mu p_{r*mu} on
    beta-sets of max_rows beads, which never hold a longer shape; border
    strips only grow rows, so dropping those is sound.  One Horner sum over
    the classes read smallest part first, G(prefix) = w(prefix) +
    sum_k p_{rk} G(prefix + k), applies each p_{rk} once per trie edge.  It
    runs in integers over L, the lcm of the z_mu used, so a coefficient L
    does not divide is a hard error, not a floor.  The package's one psi^r
    sum: the oracle takes it at its rank, `adams_coefficients` in full.
    """
    if r < 1:
        raise ValueError("Adams index must be >= 1")
    classes = []
    for mu in partitions_of(zeta.size()):
        chi = sym_character(zeta, mu)
        if chi:
            classes.append((mu[::-1], chi, zclass(mu)))
    L = math.lcm(*(z for _, _, z in classes))

    def horner(group, depth):
        acc = {}
        for head, sub in groupby(group, lambda c: c[0][depth : depth + 1]):
            if head:
                for mask, c in _pk_times_beta(horner(sub, depth + 1), r * head[0]).items():
                    acc[mask] = acc.get(mask, 0) + c
            else:  # the one class that ends at this prefix
                [(_, chi, z)] = sub
                acc[(1 << max_rows) - 1] = chi * (L // z)  # the empty shape
        return {mask: c for mask, c in acc.items() if c}

    out = {}
    for mask, c in horner(sorted(classes), 0).items():
        if c % L:
            raise IntegralityError("non-integer Adams coefficient")
        beads = (b for b in range(mask.bit_length()) if mask >> b & 1)
        out[Partition([b - i for i, b in enumerate(beads)][::-1])] = c // L
    return out


@lru_cache(maxsize=None)
def adams_coefficients(lam, r):
    """Schur expansion of s_lam with every variable raised to the r-th power:
    the finite-rank sum at r*|lam| beads, which no shape of r*|lam| boxes
    outgrows, so nothing is dropped."""
    return adams_at_rank(lam, r, r * lam.size())
