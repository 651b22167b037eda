"""Finite-rank composite-character oracles for the tests.

None of this is on a path the CLI or `verify` runs.  The composite character
expansion here scans subdiagrams and reads each LR coefficient on its own, so
it shares no summation with `symfunc.composite_adams`, which the tests check
against it.
"""

from functools import lru_cache

from comphomfly import symfunc as sf
from comphomfly.partitions import Partition, RankTooSmallError, conjugate, dual_at_N


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
    for nu in sf.partitions_of(lam.size() + mu.size()):
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
