import random
import re
from fractions import Fraction

import pytest

from comphomfly.partitions import (
    EMPTY,
    CompositeDiagram,
    Partition,
    RankTooSmallError,
    compose_at_N,
    conjugate,
    dual_at_N,
    join,
    kappa,
    parse_weight,
)

from oracles import reduce_columns

P = Partition.parse


def random_partition(rng, max_size=12):
    size = rng.randrange(0, max_size + 1)
    rows = []
    prev = size
    while size > 0:
        r = rng.randint(1, min(prev, size))
        rows.append(r)
        prev = r
        size -= r
    return Partition(rows)


def test_construction_canonical():
    assert tuple(Partition((3, 1, 0, 0))) == (3, 1)
    assert tuple(Partition(())) == ()
    with pytest.raises(ValueError, match="rows not weakly decreasing"):
        Partition((1, 2))
    with pytest.raises(ValueError, match="negative row length"):
        Partition((2, -1))
    # the sign is checked first, so a negative row that also breaks the
    # order is reported as negative
    with pytest.raises(ValueError, match="negative row length"):
        Partition((-1, 2))
    # only trailing zeros are stripped; a zero above a nonzero row is an
    # increase, not a row to drop
    for rows in ((2, 0, 1), (1, 0, 1), (0, 1)):
        message = "^rows not weakly decreasing: %s$" % re.escape(repr(rows))
        with pytest.raises(ValueError, match=message):
            Partition(rows)


def test_construction_refuses_rows_that_are_not_ints():
    # coercion would keep a zero row (0.5 -> 0), unequal to EMPTY, or
    # silently shorten one (2.7 -> 2)
    for rows in ((0.5,), (2.7, 1), (Fraction(3), 1), ("2",), (2, 1.0)):
        with pytest.raises(TypeError):
            Partition(rows)
    assert Partition(r for r in (2, 1, 0)) == (2, 1)


def test_text_round_trip():
    for text in ("0", "2,1", "5,5,1"):
        assert str(P(text)) == text
    assert P("") == EMPTY
    assert str(CompositeDiagram.parse("2,1|1")) == "2,1|1"
    assert repr(P("2,1")) == "Partition((2, 1))" and repr(EMPTY) == "Partition(())"
    assert CompositeDiagram.parse("0|3").lam == EMPTY
    with pytest.raises(ValueError):
        CompositeDiagram.parse("2,1")


def test_partition_is_its_row_tuple():
    """A Partition equals, and hashes like, the plain tuple of its rows.

    This is intended: Partition is a validated tuple, so tuple equality is
    partition equality and either form finds the same dict entry.
    """
    assert Partition((1,)) == (1,)
    assert hash(Partition((1,))) == hash((1,))
    assert Partition((2, 1, 0)) == (2, 1) and EMPTY == ()
    assert {(2, 1): "x"}[P("2,1")] == "x"
    assert sorted([P("1,1"), P("2"), P("1")]) == [(1,), (1, 1), (2,)]
    assert CompositeDiagram.parse("2,1|1") == (P("2,1"), P("1"))


def test_partition_is_immutable():
    lam = P("2,1")
    with pytest.raises(AttributeError):
        lam.width = 3
    with pytest.raises(AttributeError):
        lam.anything = 1
    assert not hasattr(lam, "__dict__")
    diagram = CompositeDiagram.parse("2,1|1")
    with pytest.raises(AttributeError):
        diagram.lam = EMPTY


def test_conjugate_examples():
    assert conjugate(EMPTY) == EMPTY
    assert conjugate(P("2,1")) == P("2,1")
    assert conjugate(P("3,1")) == P("2,1,1")


def test_conjugate_involution_and_kappa_negation():
    rng = random.Random(7)
    for _ in range(300):
        lam = random_partition(rng)
        assert conjugate(conjugate(lam)) == lam
        assert kappa(conjugate(lam)) == -kappa(lam)


def test_kappa_examples():
    assert kappa(P("1")) == 0
    assert kappa(P("2")) == 2
    assert kappa(P("1,1")) == -2


def test_join():
    assert join(P("2"), P("1,1")) == P("2,1")
    assert join(P("2,1"), P("3")) == P("3,1")
    rng = random.Random(3)
    for _ in range(50):
        lam = random_partition(rng, 8)
        assert join(lam, EMPTY) == lam


def test_compose_at_N_examples():
    assert compose_at_N(P("1"), P("1"), 3) == P("2,1")
    assert compose_at_N(EMPTY, P("3,1"), 6) == P("3,1")
    assert compose_at_N(P("2"), P("1"), 4) == P("3,2,2")
    with pytest.raises(RankTooSmallError):
        compose_at_N(P("1,1"), P("1,1"), 3)
    for N in (0, -1):
        with pytest.raises(RankTooSmallError, match="N must be at least 1"):
            compose_at_N(EMPTY, EMPTY, N)


def test_compose_size_and_row_bound():
    rng = random.Random(11)
    for _ in range(200):
        lam = random_partition(rng, 5)
        mu = random_partition(rng, 5)
        base = len(lam) + len(mu)
        for N in range(base, base + 3):
            if N == 0:
                continue
            zeta = compose_at_N(lam, mu, N)
            assert zeta.size() == mu.size() - lam.size() + lam.width * N
            assert len(zeta) <= N - 1 or lam.width == 0


def test_dual_and_column_reduction():
    assert dual_at_N(P("1"), 3) == P("1,1")
    assert dual_at_N(P("2,1"), 3) == P("2,1")
    assert reduce_columns(P("3,1,1"), 3) == P("2")
    assert reduce_columns(P("3,1"), 5) == P("3,1")
    with pytest.raises(RankTooSmallError):
        reduce_columns(P("1,1,1"), 2)
    with pytest.raises(RankTooSmallError, match=r"^rank 1 < 2 rows of 1,1$"):
        dual_at_N(P("1,1"), 1)


def test_weight_parsing():
    assert parse_weight("0") == parse_weight(" ") == EMPTY
    assert parse_weight("w1") == P("1")
    assert parse_weight("w2") == P("1,1")
    assert parse_weight("2w1") == P("2")
    assert parse_weight("2w1+w3") == P("3,1,1")
    assert parse_weight("w1+w2") == P("2,1")
    with pytest.raises(ValueError):
        parse_weight("2x1")
    for text in ("w0", "2w0+w1"):
        with pytest.raises(ValueError):
            parse_weight(text)
