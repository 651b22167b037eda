"""Symmetric-function combinatorics over exact integers.

Littlewood-Richardson coefficients as skew rows (the LR tableaux of a skew
shape eta/alpha counted by content, in one cache), the Adams (plethysm by
a power sum) expansion as Littlewood's r-quotient sum of LR rows on the
r-abacus, and the composite Adams expansion that drives the torus-knot
engine (the product rule K applied r times to Koike's small skew shapes,
then psi^r once: K (psi^r (x) psi^r) = (psi^r (x) psi^r) K^r, because
p_k^perp = k d/dp_k).  Everything is integer-exact: no characters, no
class sums and no division.  The ribbon signs are read on bitmask
beta-sets, one slide per bead down its runner (`adams_at_rank`).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache

from .partitions import Partition, conjugate


class AbacusError(ArithmeticError):
    """An r-quotient's beads did not strip back to the packed beads; a formula bug."""


# ---------------------------------------------------------------------------
# partition enumeration


@lru_cache(maxsize=None)
def subpartitions(lam):
    """All partitions whose diagram fits inside lam, sorted.

    Built row by row: row i runs from 0 to the smaller of lam_i and the row
    above, so every shape is made once, already in tuple order.
    """
    shapes = [()]
    for bound in lam:
        shapes = [s + (a,) for s in shapes for a in range(min(s[-1:] + (bound,)) + 1)]
    return tuple(map(Partition, shapes))


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
    return tuple(sorted((Partition(beta), c) for beta, c in rows.items()))


def lr_coefficient(lam, mu, nu):
    """N^nu_{lam,mu}, looked up in the skew row of nu over lam."""
    return dict(skew_row(nu, lam)).get(mu, 0)


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
    """Serialize a composite expansion as sorted `lam|mu<TAB>coefficient`
    lines, descending on the (lam, mu) row tuples, matching the printed
    tables.  Each distinct partition is rendered once.
    """
    pairs = sorted(expansion, reverse=True)
    text = {part: str(part) for part in set().union(*pairs)}
    return "\n".join(
        "%s|%s\t%d" % (text[lam], text[mu], expansion[lam, mu]) for lam, mu in pairs
    )


# ---------------------------------------------------------------------------
# Adams operation (plethysm by a power sum), Littlewood's r-quotient sum


def adams_at_rank(zeta, r, max_rows):
    """Schur expansion of s_zeta(x^r) over shapes with at most max_rows rows.

    Littlewood's r-quotient sum (D. E. Littlewood, Proc. Roy. Soc. A 209,
    1951; Lascoux-Leclerc-Thibon, J. Math. Phys. 38, 1997): the coefficient
    of s_nu is sigma_r(nu) times the LR coefficient of zeta over the r
    shapes of nu's r-quotient when nu's r-core is empty, and 0 otherwise.
    On an abacus of max_rows beads, runner j holds n_j beads, as many as
    the packed beads put there; the shapes are peeled off zeta one runner
    at a time by skew rows.  A shape alpha with more than n_j rows is
    skipped (its nu would be longer), and so is one with alpha_i <
    rest_{i+m}, m the beads on the runners still to fill: rest/alpha then
    has a column of more than m boxes, and no shapes of at most m rows in
    all hold its content.  Each tuple's beads sit at r*q + j.  The sign
    slides each bead, lowest first, down its runner to its packed slot,
    (-1) to the beads it jumps (James-Kerber 2.7: the ribbon sign does not
    depend on the order of removal); the slides take exactly |zeta|
    r-ribbon moves, or the placement is wrong.  The package's one psi^r
    sum: the oracle takes it at its rank, `adams_coefficients` in full.
    """
    if r < 1:
        raise ValueError("Adams index must be >= 1")
    beads = [len(range(j, max_rows, r)) for j in range(r)]
    quotients = {((), zeta): 1}  # (shapes placed, rest of zeta) -> LR count
    for j, n in enumerate(beads[:-1]):
        m = sum(beads[j + 1 :])
        peeled = Counter()
        for (shapes, rest), c in quotients.items():
            for alpha in subpartitions(rest):
                # at most n rows, and alpha_i >= rest_{i+m} for every i
                if len(alpha) <= n and len(rest) <= len(alpha) + m and all(
                    map(int.__ge__, alpha, rest[m:])
                ):
                    for beta, lr in skew_row(rest, alpha):
                        peeled[shapes + (alpha,), beta] += c * lr
        quotients = peeled
    packed = (1 << max_rows) - 1
    out = {}
    for (shapes, last), c in quotients.items():
        if len(last) > beads[-1]:
            continue
        mask = key = sum(
            1 << r * (q + n - i) + j
            for j, (shape, n) in enumerate(zip(shapes + (last,), beads))
            for i, q in enumerate(shape + (0,) * (n - len(shape)), 1)
        )
        filled = [0] * r  # beads already packed on each runner
        rows = []
        moves = jumped = 0
        while key:  # lowest bead first
            low = key & -key
            key ^= low
            b = low.bit_length() - 1
            runner = b % r
            t = r * filled[runner] + runner  # its packed slot: below it, and free
            filled[runner] += 1
            moves += (b - t) // r
            jumped += (mask >> t & (1 << b - t) - 1).bit_count()
            mask ^= low ^ 1 << t
            rows.append(b - len(rows))
        if moves != zeta.size() or mask != packed:
            raise AbacusError("r-quotient beads do not strip to the packed beads")
        out[Partition(rows[::-1])] = -c if jumped & 1 else c
    return out


@lru_cache(maxsize=None)
def adams_coefficients(lam, r):
    """Schur expansion of s_lam with every variable raised to the r-th power:
    the finite-rank sum at r*|lam| beads, which no shape of r*|lam| boxes
    outgrows, so nothing is dropped."""
    return adams_at_rank(lam, r, r * lam.size())
