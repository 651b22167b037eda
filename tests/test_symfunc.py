import pytest

from comphomfly.partitions import EMPTY, Partition, compose_at_N, conjugate
from comphomfly import symfunc as sf

P = Partition.parse

# every color [lam, mu] with |lam| + |mu| <= 4
SMALL_COLORS = [
    (lam, mu)
    for n in range(5)
    for a in range(n + 1)
    for lam in sf.partitions_of(a)
    for mu in sf.partitions_of(n - a)
]


def test_lr_coefficient_examples():
    assert sf.lr_coefficient(P("1"), P("2"), P("3")) == 1
    assert sf.lr_coefficient(P("2,1"), P("1"), P("2,2")) == 1
    for lam in (EMPTY, P("2"), P("3,1")):
        for nu in (lam, P("4")):
            assert sf.lr_coefficient(lam, EMPTY, nu) == (1 if nu == lam else 0)
    # wrong size is always zero
    assert sf.lr_coefficient(P("1"), P("1"), P("3")) == 0


def test_lr_symmetry():
    cases = [(P("2,1"), P("2"), P("3,2")), (P("2,1"), P("2,1"), P("3,2,1"))]
    for lam, mu, nu in cases:
        assert sf.lr_coefficient(lam, mu, nu) == sf.lr_coefficient(mu, lam, nu)
    assert sf.lr_coefficient(P("2,1"), P("2,1"), P("3,2,1")) == 2


def test_schur_product_examples():
    assert sf.schur_product(P("1"), P("1")) == {P("2"): 1, P("1,1"): 1}
    assert sf.schur_product(P("3,1"), EMPTY) == {P("3,1"): 1}
    assert sf.schur_product(P("2,1"), P("1")) == {
        P("3,1"): 1,
        P("2,2"): 1,
        P("2,1,1"): 1,
    }


def test_schur_product_dimensions():
    # multiplicity-weighted dimension count matches the product of dimensions
    for lam, mu, nvars in [(P("2"), P("2,1"), 4), (P("1,1"), P("2"), 4)]:
        lhs = sum(sf.schur_monomials(lam, nvars).values()) * sum(
            sf.schur_monomials(mu, nvars).values()
        )
        rhs = sum(
            c * sum(sf.schur_monomials(nu, nvars).values())
            for nu, c in sf.schur_product(lam, mu).items()
        )
        assert lhs == rhs


def test_characters():
    for mu in sf.partitions_of(4):
        assert sf.sym_character(P("4"), mu) == 1
    assert sf.sym_character(P("1,1"), P("2")) == -1
    assert sf.sym_character(P("2,1"), P("1,1,1")) == 2
    with pytest.raises(sf.SizeMismatchError):
        sf.sym_character(P("2"), P("1,1,1"))


def test_character_cache_eviction():
    sf._mn.cache_clear()
    values = {}
    for lam in sf.partitions_of(5):
        for mu in sf.partitions_of(5):
            values[(lam, mu)] = sf.sym_character(lam, mu)
    sf._mn.cache_clear()
    for (lam, mu), expected in values.items():
        assert sf.sym_character(lam, mu) == expected


def test_conjugacy_size():
    assert sf.conjugacy_size(P("1,1,1,1")) == 1
    assert sf.conjugacy_size(P("2")) == 1
    assert sf.conjugacy_size(P("2,1")) == 3
    assert sf.zclass(P("2,2,1")) == 8


def test_adams_examples():
    assert sf.adams_coefficients(P("1"), 2) == {P("2"): 1, P("1,1"): -1}
    assert sf.adams_coefficients(P("1"), 3) == {
        P("3"): 1,
        P("2,1"): -1,
        P("1,1,1"): 1,
    }
    for lam in (EMPTY, P("2,1"), P("3")):
        assert sf.adams_coefficients(lam, 1) == {lam: 1}


def test_adams_key_sizes():
    for lam in (P("1"), P("2"), P("2,1")):
        for r in (2, 3):
            for nu in sf.adams_coefficients(lam, r):
                assert nu.size() == r * lam.size()


def brute_force_adams(lam, r, nvars):
    """Independent oracle: expand s_lam(x^r) monomially and re-collect."""
    monomials = sf.schur_monomials(lam, nvars)
    scaled = {tuple(r * e for e in exps): c for exps, c in monomials.items()}
    return sf.monomial_to_schur(scaled, nvars)


def test_adams_brute_force_oracle():
    for size in range(0, 4):
        for lam in sf.partitions_of(size):
            for r in (1, 2, 3):
                nvars = 4
                expected = brute_force_adams(lam, r, nvars)
                full = sf.adams_coefficients(lam, r)
                truncated = {nu: c for nu, c in full.items() if len(nu) <= nvars}
                assert truncated == expected, (lam, r)


def test_adams_specialization_dimensions():
    # both sides of the Adams expansion agree at x_1 = ... = x_k = 1
    for size in range(1, 4):
        for lam in sf.partitions_of(size):
            for r in (2, 3):
                expansion = sf.adams_coefficients(lam, r)
                for k in range(1, 5):
                    lhs = sum(sf.schur_monomials(lam, k).values())
                    rhs = sum(
                        c * sum(sf.schur_monomials(nu, k).values())
                        for nu, c in expansion.items()
                    )
                    assert lhs == rhs, (lam, r, k)


def test_composite_character_examples():
    assert sf.composite_character_expansion(EMPTY, P("3,1")) == {(EMPTY, P("3,1")): 1}
    assert sf.composite_character_expansion(P("1"), P("1")) == {
        (P("1"), P("1")): 1,
        (EMPTY, EMPTY): -1,
    }
    assert sf.composite_character_expansion(P("1"), P("2")) == {
        (P("1"), P("2")): 1,
        (EMPTY, P("1")): -1,
    }


def test_composite_product_examples():
    assert sf.composite_product_expansion(EMPTY, P("2,1")) == {(EMPTY, P("2,1")): 1}
    assert sf.composite_product_expansion(P("1"), P("1")) == {
        (P("1"), P("1")): 1,
        (EMPTY, EMPTY): 1,
    }
    assert sf.composite_product_expansion(P("1"), EMPTY) == {(P("1"), EMPTY): 1}


def test_character_product_round_trip():
    # expanding the composite character and recombining the products must
    # reproduce the single composite character, for all small colors
    for a in range(0, 4):
        for b in range(0, 4):
            for lam in sf.partitions_of(a):
                for mu in sf.partitions_of(b):
                    acc = {}
                    for (nu, xi), c in sf.composite_character_expansion(
                        lam, mu
                    ).items():
                        for key, k in sf.composite_product_expansion(nu, xi).items():
                            acc[key] = acc.get(key, 0) + c * k
                    acc = {k: v for k, v in acc.items() if v}
                    assert acc == {(lam, mu): 1}, (lam, mu)


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
    for alpha in sf.subpartitions(eta):
        for beta in sf.subpartitions(eta):
            if beta.size() + alpha.size() != eta.size():
                continue
            c = sf.lr_coefficient(beta, alpha, eta)
            if c:
                out[(beta, alpha)] = c
    return out


def reference_character_expansion(lam, mu):
    """Composite character expansion by direct subdiagram scans."""
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


def reference_composite_adams(lam, mu, r):
    """The six-loop formula: character expansion, Adams on each slot, and
    the product expansion inlined, summed over all six indices at once."""
    acc = {}
    for (nu, xi), c in reference_character_expansion(lam, mu).items():
        for eta, a1 in sf.adams_coefficients(nu, r).items():
            pairs = _scanned_pairs(eta)
            for delta, a2 in sf.adams_coefficients(xi, r).items():
                for (beta, alpha), n1 in pairs.items():
                    for gamma in sf.subpartitions(delta):
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
        assert sf.composite_character_expansion(
            lam, mu
        ) == reference_character_expansion(lam, mu), (lam, mu)
        for r in (2, 3):
            assert sf.composite_adams(lam, mu, r) == reference_composite_adams(
                lam, mu, r
            ), (lam, mu, r)


def test_composite_product_matches_lr_scan():
    # coefficient of s_[beta,gamma] is sum_alpha N^eta_{beta,alpha} N^delta_{gamma,alpha}
    # every shape up to three boxes, and 3,2,1, whose table holds
    # N^{3,2,1}_{2,1;2,1} = 2, the smallest LR coefficient above 1
    shapes = [lam for n in range(4) for lam in sf.partitions_of(n)] + [P("3,2,1")]
    for eta in shapes:
        for delta in shapes:
            expected = {}
            for beta in sf.subpartitions(eta):
                for gamma in sf.subpartitions(delta):
                    for alpha in sf.partitions_of(eta.size() - beta.size()):
                        c = sf.lr_coefficient(beta, alpha, eta) * sf.lr_coefficient(
                            gamma, alpha, delta
                        )
                        if c:
                            key = (beta, gamma)
                            expected[key] = expected.get(key, 0) + c
            assert sf.composite_product_expansion(eta, delta) == expected, (eta, delta)


def test_format_expansion_golden():
    expansion = sf.composite_adams(P("1"), P("1"), 2)
    assert sf.format_expansion(expansion).splitlines() == [
        "2|2\t1",
        "2|1,1\t-1",
        "1,1|2\t-1",
        "1,1|1,1\t1",
        "0|0\t1",
    ]
    single = sf.adams_coefficients(P("1"), 2)
    assert sf.format_expansion(single) == "2\t1\n1,1\t-1"


def _reduced(expansion, N):
    from comphomfly.partitions import reduce_columns

    out = {}
    for nu, c in expansion.items():
        key = reduce_columns(nu, N)
        out[key] = out.get(key, 0) + c
    return {k: v for k, v in out.items() if v}


def test_composite_adams_finite_rank_oracle():
    from comphomfly.partitions import reduce_columns

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
                    for key, k in sf.composite_schur_at_rank(beta, gamma, N).items():
                        assembled[key] = assembled.get(key, 0) + c * k
                assembled = {k: v for k, v in assembled.items() if v}
                assert assembled == direct, (lam, mu, r, N)
                # keys that fit at this rank project to plain diagrams
                for (beta, gamma), c in expansion.items():
                    if len(beta) + len(gamma) <= N:
                        shape = reduce_columns(compose_at_N(beta, gamma, N), N)
                        assert sf.composite_schur_at_rank(beta, gamma, N) == {
                            shape: 1
                        }, (beta, gamma, N)


def _shape(beads):
    n = len(beads)
    return Partition(b - n + i for i, b in enumerate(beads, 1))


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
    # every stretched class r*mu with |mu| <= 5, r <= 3, at 1 to 7 rows
    for size in range(6):
        for mu in sf.partitions_of(size):
            for r in (1, 2, 3):
                parts = tuple(r * p for p in mu)
                for max_rows in range(1, 8):
                    expansion = sf.power_schur_expansion(parts, max_rows)
                    assert all(len(beads) == max_rows for beads in expansion)
                    shapes = {_shape(beads): c for beads, c in expansion.items()}
                    assert len(shapes) == len(expansion)
                    assert shapes == reference_power_schur(parts, max_rows), (
                        parts,
                        max_rows,
                    )


def test_adams_at_rank_truncates_adams_coefficients():
    checks = 0
    for size in range(6):
        for zeta in sf.partitions_of(size):
            for r in (1, 2, 3):
                full = sf.adams_coefficients(zeta, r)
                for N in range(max(len(zeta), 1), 7):
                    expected = {nu: c for nu, c in full.items() if len(nu) <= N}
                    assert sf.adams_at_rank(zeta, r, N) == expected, (zeta, r, N)
                    checks += 1
    assert checks == 270
