import functools
import hashlib
import itertools
from collections import Counter

import pytest

from comphomfly.partitions import EMPTY, Partition, compose_at_N
from comphomfly import symfunc as sf
from comphomfly.rosso import TorusKnot, finite_N_oracle

import oracles
from oracles import (
    composite_schur_at_rank,
    reduce_columns,
    monomial_to_schur,
    partitions_of,
    reference_adams,
    reference_character_expansion,
    schur_monomials,
    schur_product,
)

P = Partition.parse

# every color [lam, mu] with |lam| + |mu| <= 4
SMALL_COLORS = [
    (lam, mu)
    for n in range(5)
    for a in range(n + 1)
    for lam in partitions_of(a)
    for mu in partitions_of(n - a)
]


def test_lr_coefficient_examples():
    assert sf.lr_coefficient(P("1"), P("2"), P("3")) == 1
    assert sf.lr_coefficient(P("2,1"), P("1"), P("2,2")) == 1
    for lam in (EMPTY, P("2"), P("3,1")):
        for nu in (lam, P("4")):
            assert sf.lr_coefficient(lam, EMPTY, nu) == (1 if nu == lam else 0)
    # wrong size is always zero
    assert sf.lr_coefficient(P("1"), P("1"), P("3")) == 0


def fixed_content_count(lam, mu, nu):
    """N^nu_{lam,mu} by filling nu/lam with content mu, cell by cell.

    Independent of `skew_row`: cells are filled right-to-left along rows,
    top to bottom, and only fillings of the one content mu are counted.
    """
    if nu.size() != lam.size() + mu.size() or not nu.contains(lam):
        return 0
    cells = [
        (i, j) for i in range(1, len(nu) + 1) for j in range(nu.row(i), lam.row(i), -1)
    ]
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


def test_skew_rows_match_fixed_content_count():
    # every skew shape eta/alpha with |eta| <= 8, every content beta
    rows = compared = nonzero = 0
    for n in range(9):
        for eta in partitions_of(n):
            for alpha in sf.subpartitions(eta):
                row = sf.skew_row(eta, alpha)
                assert list(row) == sorted(row), (eta, alpha)
                expected = {}
                for beta in partitions_of(n - alpha.size()):
                    c = fixed_content_count(alpha, beta, eta)
                    if c:
                        expected[beta] = c
                    compared += 1
                assert dict(row) == expected, (eta, alpha)
                rows += 1
                nonzero += len(row)
    assert (rows, compared, nonzero) == (862, 4136, 1330)
    assert sf.skew_row(P("2,1"), P("3")) == ()
    assert sf.skew_row(P("2"), P("1,1")) == ()


def test_lr_symmetry():
    cases = [(P("2,1"), P("2"), P("3,2")), (P("2,1"), P("2,1"), P("3,2,1"))]
    for lam, mu, nu in cases:
        assert sf.lr_coefficient(lam, mu, nu) == sf.lr_coefficient(mu, lam, nu)
    assert sf.lr_coefficient(P("2,1"), P("2,1"), P("3,2,1")) == 2


def test_schur_product_examples():
    assert schur_product(P("1"), P("1")) == {P("2"): 1, P("1,1"): 1}
    assert schur_product(P("3,1"), EMPTY) == {P("3,1"): 1}
    assert schur_product(P("2,1"), P("1")) == {
        P("3,1"): 1,
        P("2,2"): 1,
        P("2,1,1"): 1,
    }


def test_schur_product_dimensions():
    # multiplicity-weighted dimension count matches the product of dimensions
    for lam, mu, nvars in [(P("2"), P("2,1"), 4), (P("1,1"), P("2"), 4)]:
        lhs = sum(schur_monomials(lam, nvars).values()) * sum(
            schur_monomials(mu, nvars).values()
        )
        rhs = sum(
            c * sum(schur_monomials(nu, nvars).values())
            for nu, c in schur_product(lam, mu).items()
        )
        assert lhs == rhs


def test_characters():
    for mu in partitions_of(4):
        assert oracles.sym_character(P("4"), mu) == 1
    assert oracles.sym_character(P("1,1"), P("2")) == -1
    assert oracles.sym_character(P("2,1"), P("1,1,1")) == 2
    with pytest.raises(oracles.SizeMismatchError):
        oracles.sym_character(P("2"), P("1,1,1"))
    assert oracles.zclass(P("2,2,1")) == 8


def test_character_cache_eviction():
    oracles._mn.cache_clear()
    values = {}
    for lam in partitions_of(5):
        for mu in partitions_of(5):
            values[(lam, mu)] = oracles.sym_character(lam, mu)
    oracles._mn.cache_clear()
    for (lam, mu), expected in values.items():
        assert oracles.sym_character(lam, mu) == expected


def test_adams_examples():
    assert sf.adams_coefficients(P("1"), 2) == {P("2"): 1, P("1,1"): -1}
    assert sf.adams_coefficients(P("1"), 3) == {
        P("3"): 1,
        P("2,1"): -1,
        P("1,1,1"): 1,
    }
    for lam in (EMPTY, P("2,1"), P("3")):
        assert sf.adams_coefficients(lam, 1) == {lam: 1}


def test_adams_coefficients_match_the_character_double_sum():
    # the r-quotient sum at full length against the Fraction double sum, on
    # every shape of <= 6 boxes (the empty one included) and r = 1..4
    checks = 0
    for size in range(7):
        for lam in partitions_of(size):
            for r in (1, 2, 3, 4):
                assert sf.adams_coefficients(lam, r) == reference_adams(lam, r), (lam, r)
                checks += 1
    assert checks == 30 * 4


def test_adams_key_sizes():
    for lam in (P("1"), P("2"), P("2,1")):
        for r in (2, 3):
            for nu in sf.adams_coefficients(lam, r):
                assert nu.size() == r * lam.size()


def brute_force_adams(lam, r, nvars):
    """Independent oracle: expand s_lam(x^r) monomially and re-collect."""
    monomials = schur_monomials(lam, nvars)
    scaled = {tuple(r * e for e in exps): c for exps, c in monomials.items()}
    return monomial_to_schur(scaled, nvars)


def test_adams_brute_force_oracle():
    for size in range(0, 4):
        for lam in partitions_of(size):
            for r in (1, 2, 3):
                nvars = 4
                expected = brute_force_adams(lam, r, nvars)
                full = sf.adams_coefficients(lam, r)
                truncated = {nu: c for nu, c in full.items() if len(nu) <= nvars}
                assert truncated == expected, (lam, r)


def test_adams_specialization_dimensions():
    # both sides of the Adams expansion agree at x_1 = ... = x_k = 1
    for size in range(1, 4):
        for lam in partitions_of(size):
            for r in (2, 3):
                expansion = sf.adams_coefficients(lam, r)
                for k in range(1, 5):
                    lhs = sum(schur_monomials(lam, k).values())
                    rhs = sum(
                        c * sum(schur_monomials(nu, k).values())
                        for nu, c in expansion.items()
                    )
                    assert lhs == rhs, (lam, r, k)


def test_character_product_round_trip():
    # at r = 1 the character expansion and the product rule must invert
    # each other, leaving the single composite character, for all small colors
    colors = [
        (lam, mu)
        for a in range(4)
        for b in range(4)
        for lam in partitions_of(a)
        for mu in partitions_of(b)
    ]
    assert len(colors) == 49
    for lam, mu in colors:
        assert sf.composite_adams(lam, mu, 1) == {(lam, mu): 1}, (lam, mu)


def test_composite_adams_reduction_and_table():
    for mu in (P("1"), P("2,1")):
        for r in (1, 2):
            expected = {
                (EMPTY, nu): c for nu, c in sf.adams_coefficients(mu, r).items()
            }
            assert sf.composite_adams(EMPTY, mu, r) == expected
    table = sf.composite_adams(P("1"), P("1"), 2)
    assert table == {
        (P("2"), P("2")): 1,
        (P("2"), P("1,1")): -1,
        (P("1,1"), P("2")): -1,
        (P("1,1"), P("1,1")): 1,
        (EMPTY, EMPTY): 1,
    }


def test_composite_adams_order_symmetry():
    assert len(SMALL_COLORS) == 38
    for lam, mu in SMALL_COLORS:
        for r in (2, 3):
            forward = sf.composite_adams(lam, mu, r)
            backward = sf.composite_adams(mu, lam, r)
            assert forward == {
                (g, b): c for (b, g), c in backward.items()
            }, (lam, mu, r)


def _scanned_pairs(eta):
    """{(beta, alpha): N^eta_{beta,alpha}} by scanning pairs of subdiagrams."""
    out = {}
    subs = sf.subpartitions(eta)
    for alpha in subs:
        for beta in subs:
            if beta.size() + alpha.size() != eta.size():
                continue
            c = sf.lr_coefficient(beta, alpha, eta)
            if c:
                out[(beta, alpha)] = c
    return out


def reference_composite_adams(lam, mu, r):
    """The six-loop formula: character expansion, Adams on each slot, and
    the product expansion inlined, summed over all six indices at once."""
    acc = {}
    for (nu, xi), c in reference_character_expansion(lam, mu).items():
        for eta, a1 in sf.adams_coefficients(nu, r).items():
            pairs = _scanned_pairs(eta)
            for delta, a2 in sf.adams_coefficients(xi, r).items():
                gammas = sf.subpartitions(delta)
                for (beta, alpha), n1 in pairs.items():
                    for gamma in gammas:
                        if gamma.size() != delta.size() - alpha.size():
                            continue
                        n2 = sf.lr_coefficient(gamma, alpha, delta)
                        if not n2:
                            continue
                        key = (beta, gamma)
                        acc[key] = acc.get(key, 0) + c * a1 * a2 * n1 * n2
    return {k: v for k, v in acc.items() if v}


def test_composite_adams_matches_six_loop_reference():
    for lam, mu in SMALL_COLORS:
        for r in (1, 2, 3):
            assert sf.composite_adams(lam, mu, r) == reference_composite_adams(
                lam, mu, r
            ), (lam, mu, r)


def test_composite_adams_skews_only_the_small_shapes(monkeypatch):
    # the product rule runs before the Adams image, and the r-quotient sum
    # peels its shapes off the small shape it expands, so no skew row is
    # taken of a shape larger than lam or mu, never of an Adams-image shape
    skew_row, seen = sf.skew_row, []

    def recorded(eta, alpha):
        seen.append(eta)
        return skew_row(eta, alpha)

    monkeypatch.setattr(sf, "skew_row", recorded)
    for cached in (skew_row, sf.adams_coefficients):
        cached.cache_clear()
    expansion = sf.composite_adams(EMPTY, P("3,1"), 4)
    assert max(eta.size() for eta in seen) == 4
    assert skew_row.cache_info().misses <= 25
    digest = hashlib.sha256(sf.format_expansion(expansion).encode()).hexdigest()
    assert digest == "f86fa8888d7f87302f1895e1aee347c38dacbb3329e53c5aac834967a8f0ec43"
    # the benchmark's four colors at r = 3, from cold caches
    for cached in (skew_row, sf.adams_coefficients):
        cached.cache_clear()
    for lam, mu in [("2,1", "2,1"), ("2,2", "2"), ("3,1", "2,1"), ("2,2", "2,2")]:
        seen.clear()
        sf.composite_adams(P(lam), P(mu), 3)
        assert max(eta.size() for eta in seen) == max(P(lam).size(), P(mu).size())
    assert skew_row.cache_info().misses <= 36


def test_composite_adams_needs_all_r_product_rule_steps(monkeypatch):
    # negative control for K (psi^r (x) psi^r) = (psi^r (x) psi^r) K^r: with
    # the first of the two steps skipped, r = 2 leaves the reference, which
    # takes the Adams images first and skews them once, on every color whose
    # two slots are both nonempty (K is the identity when one is empty)
    step = sf._skew_pairs
    skip = itertools.cycle([True, False])
    monkeypatch.setattr(
        sf, "_skew_pairs", lambda pairs: pairs if next(skip) else step(pairs)
    )
    differs = [
        (lam, mu)
        for lam, mu in SMALL_COLORS
        if sf.composite_adams(lam, mu, 2) != reference_composite_adams(lam, mu, 2)
    ]
    assert differs == [(lam, mu) for lam, mu in SMALL_COLORS if lam and mu]
    assert len(differs) == 15


def test_format_expansion_golden():
    expansion = sf.composite_adams(P("1"), P("1"), 2)
    assert sf.format_expansion(expansion).splitlines() == [
        "2|2\t1",
        "2|1,1\t-1",
        "1,1|2\t-1",
        "1,1|1,1\t1",
        "0|0\t1",
    ]


def _reduced(expansion, N):
    out = {}
    for nu, c in expansion.items():
        key = reduce_columns(nu, N)
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def test_composite_adams_finite_rank_oracle():
    for lam, mu in SMALL_COLORS:
        base = max(len(lam) + len(mu), 1)
        # four ranks while both slots have at most two boxes, two beyond
        ranks = 4 if max(lam.size(), mu.size()) <= 2 else 2
        for r in (1, 2, 3):
            expansion = sf.composite_adams(lam, mu, r)
            for N in range(base, base + ranks):
                zeta = compose_at_N(lam, mu, N)
                direct = _reduced(sf.adams_at_rank(zeta, r, N), N)
                assembled = {}
                for (beta, gamma), c in expansion.items():
                    for key, k in composite_schur_at_rank(beta, gamma, N).items():
                        assembled[key] = assembled.get(key, 0) + c * k
                assembled = {k: v for k, v in assembled.items() if v}
                assert assembled == direct, (lam, mu, r, N)
                # keys that fit at this rank project to plain diagrams
                for (beta, gamma), c in expansion.items():
                    if len(beta) + len(gamma) <= N:
                        shape = reduce_columns(compose_at_N(beta, gamma, N), N)
                        assert composite_schur_at_rank(beta, gamma, N) == {
                            shape: 1
                        }, (beta, gamma, N)


def _shape(mask):
    """The shape of a bitmask beta-set: row i is the i-th highest bead
    position minus the number of beads below it."""
    beads = [b for b in range(mask.bit_length()) if mask >> b & 1]
    return Partition([b - i for i, b in enumerate(beads)][::-1])


def reference_slide(beads, k):
    """`oracles.slide` on a strictly decreasing tuple of bead positions, with
    the jumped beads counted one by one: (shape, sign) per legal move."""
    n = len(beads)
    out = []
    for b in beads:
        target = b + k
        if target < 0 or target in beads:
            continue
        jumped = sum(1 for c in beads if min(b, target) < c < max(b, target))
        new = sorted(set(beads) - {b} | {target}, reverse=True)
        out.append((Partition(x - n + i for i, x in enumerate(new, 1)), (-1) ** jumped))
    return out


def test_slide_matches_tuple_beta_sets():
    # every shape of <= 6 boxes, with 0 to 2 spare beads, up and down 1..7
    cases = below_zero = 0
    for size in range(7):
        for shape in partitions_of(size):
            for n in range(len(shape), len(shape) + 3):
                beads = tuple(shape.row(i) + n - i for i in range(1, n + 1))
                mask = sum(1 << b for b in beads)
                assert _shape(mask) == shape
                for k in [*range(1, 8), *range(-7, 0)]:
                    moves = list(oracles.slide(mask, k))
                    assert all(new.bit_count() == n for new, _ in moves)
                    got = Counter((_shape(new), sign) for new, sign in moves)
                    assert got == Counter(reference_slide(beads, k)), (shape, n, k)
                    below_zero += sum(1 for b in beads if b + k < 0)
                    cases += 1
    assert cases == 30 * 3 * 14  # 30 shapes, 3 bead counts, 14 values of k
    assert below_zero


def reference_strip_additions(lam, k, slots):
    """Border strips of k boxes added to lam within `slots` rows, on
    Partitions: (larger shape, sign)."""
    beta = {lam.row(i) + slots - i for i in range(1, slots + 1)}
    out = []
    for b in sorted(beta):
        if b + k in beta:
            continue
        height = sum(1 for c in beta if b < c < b + k)
        new = sorted(beta - {b} | {b + k})
        rows = [x - i for i, x in enumerate(new)]
        out.append((Partition(r for r in reversed(rows) if r), (-1) ** height))
    return out


def reference_power_schur(parts, max_rows):
    expansion = {EMPTY: 1}
    for k in reversed(parts):
        out = {}
        for nu, coeff in expansion.items():
            for shape, sign in reference_strip_additions(nu, k, max_rows):
                out[shape] = out.get(shape, 0) + sign * coeff
        expansion = {key: v for key, v in out.items() if v}
    return expansion


def test_power_schur_matches_partition_strips():
    # every stretched class r*mu with |mu| <= 5, r <= 3, at 1 to 7 rows,
    # as chained p_k on bitmask beta-sets of max_rows beads
    for size in range(6):
        for mu in partitions_of(size):
            for r in (1, 2, 3):
                parts = tuple(r * p for p in mu)
                for max_rows in range(1, 8):
                    expansion = {(1 << max_rows) - 1: 1}
                    for k in reversed(parts):
                        expansion = oracles.pk_times_beta(expansion, k)
                    assert all(mask.bit_count() == max_rows for mask in expansion)
                    shapes = {_shape(mask): c for mask, c in expansion.items()}
                    assert len(shapes) == len(expansion)
                    assert shapes == reference_power_schur(parts, max_rows), (
                        parts,
                        max_rows,
                    )


def test_adams_at_rank_truncates_adams_coefficients():
    # every shape of up to 5 boxes at r = 1..3 and 1 to 6 rows, and every
    # bead count from len(zeta) to one past full length at r = 1..4 where
    # r*|zeta| <= 10, so runners hold unequal bead counts whenever r does
    # not divide N
    checks = 0
    for size in range(6):
        for zeta in partitions_of(size):
            for r in range(1, 5):
                ranks = set(range(max(len(zeta), 1), 7)) if r <= 3 else set()
                if r * size <= 10:
                    ranks |= set(range(len(zeta), r * size + 2))
                if not ranks:
                    continue
                full = reference_adams(zeta, r)
                for N in sorted(ranks):
                    expected = {nu: c for nu, c in full.items() if len(nu) <= N}
                    assert sf.adams_at_rank(zeta, r, N) == expected, (zeta, r, N)
                    checks += 1
    assert checks == 364


def test_adams_at_rank_refuses_nonpositive_index():
    # the one Adams routine refuses, and so does everything built on it
    for r in (0, -1):
        for call in (
            lambda: sf.adams_at_rank(P("2,1"), r, 3),
            lambda: sf.adams_coefficients(P("2,1"), r),
            lambda: sf.composite_adams(P("1"), P("2"), r),
            lambda: sf.composite_adams(EMPTY, EMPTY, r),
        ):
            with pytest.raises(ValueError, match="Adams index must be >= 1"):
                call()


def test_adams_at_rank_at_oracle_sizes(monkeypatch):
    # the oracle's own zeta at the ranks it runs at: [2,1|2,1] at r = 2, and
    # [1|1] and [2|1] at r = 3 and 4, where runners hold unequal bead counts
    cases = [("2,1", "2,1", N, 2) for N in (4, 5)]
    cases += [("1", "1", N, r) for N in range(2, 6) for r in (3, 4)]
    cases += [("2", "1", N, r) for N in range(2, 5) for r in (3, 4)]
    for lam, mu, N, r in cases:
        zeta = compose_at_N(P(lam), P(mu), N)
        full = reference_adams(zeta, r)
        expected = {nu: c for nu, c in full.items() if len(nu) <= N}
        assert sf.adams_at_rank(zeta, r, N) == expected, (lam, mu, N, r)
    # negative control: a skew row one box too big places beads that do not
    # strip to the packed beads in |zeta| ribbon moves
    skew_row = sf.skew_row
    monkeypatch.setattr(sf, "skew_row", lambda eta, alpha: tuple(
        (Partition((beta.width + 1,) + beta[1:]), c) for beta, c in skew_row(eta, alpha)
    ))
    with pytest.raises(sf.AbacusError, match="do not strip to the packed beads"):
        sf.adams_at_rank(compose_at_N(P("2,1"), P("2,1"), 4), 2, 4)


def fits(rest, alpha, m):
    """No column of rest/alpha holds more than m boxes: alpha_i >= rest_{i+m}."""
    return all(alpha.row(i) >= rest.row(i + m) for i in range(1, len(rest) + 1))


def test_adams_at_rank_skips_quotients_that_cannot_fit(monkeypatch):
    # at r = 2 the oracle fills runner 0 and leaves m = N // 2 beads for
    # runner 1, so a rest/alpha with a column taller than m has LR
    # coefficient zero against every shape runner 1 can hold, and no skew
    # row is taken for it; a cold cache pins the rows taken (117 without
    # the skip)
    calls, misses = [], []
    uncached = sf.skew_row.__wrapped__

    @functools.lru_cache(maxsize=None)
    def cold(eta, alpha):
        misses.append((eta, alpha))
        return uncached(eta, alpha)

    def recording(eta, alpha):
        calls.append((eta, alpha, N))  # N: the rank of the running oracle
        return cold(eta, alpha)

    monkeypatch.setattr(sf, "skew_row", recording)
    for N in range(4, 8):
        finite_N_oracle(TorusKnot(3, 2), P("2,1"), P("2,1"), N)
    assert calls and all(fits(eta, alpha, N // 2) for eta, alpha, N in calls)
    assert len(misses) == 80
