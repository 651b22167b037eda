import hashlib
import math
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

from comphomfly import qexact, rosso
from comphomfly.partitions import Partition
from comphomfly.qexact import (
    Bracket,
    InexactDivisionError,
    Laurent,
    SignedExponentError,
    SymExponent,
    UNIT_BRACKET,
    bracket_numerator,
    bracket_sum,
    dumps_poly,
    exact_divide,
    loads_poly,
    render_quotient,
    tilde_normalize,
)

from oracles import (
    exponent_at_rank,
    exponent_range,
    kernel_rows,
    parse_expr,
    reference_substitute,
    reference_tilde_normalize,
)

QA = ("q", "a")
QTA = ("q", "t", "a")


def random_laurent(rng, vars=QA, terms=4, span=3):
    # denominators 3 and 6 are the nu = 1/3 exceptional case; operands of
    # one test often differ in den, which covers the mixed operations
    out = Laurent(vars)
    denom = rng.choice((1, 2, 3, 6))
    for _ in range(terms):
        exps = {
            v: Fraction(rng.randint(-span * denom, span * denom), denom)
            for v in vars
        }
        out = out + Laurent.monomial(vars, rng.randint(-4, 4), **exps)
    return out


def test_ring_axioms():
    rng = random.Random(17)
    for _ in range(60):
        a = random_laurent(rng)
        b = random_laurent(rng)
        c = random_laurent(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Laurent(QA)
        assert a * Laurent.one(QA) == a


def test_denominator_canonical_form():
    # a den is not reduced, so one polynomial has many (terms, den) forms;
    # equality compares values.  3*q^(1/2)*a + q^(-3/2) over den 4:
    p = Laurent(QA, {(2, 4): 3, (-6, 0): 1}, 4)
    assert p == Laurent(QA, {(1, 2): 3, (-3, 0): 1}, 2)
    assert p == Laurent(QA, {(3, 6): 3, (-9, 0): 1}, 6)
    assert p != Laurent(QA, {(2, 4): 3, (-6, 0): 1}, 2)
    assert p == parse_expr("3*q^(1/2)*a + q^(-3/2)", QA)
    assert p == Laurent(QA, {(Fraction(1, 2), 1): 3, (Fraction(-3, 2), 0): 1})
    assert Laurent(p.vars, dict(p.terms), p.den) == p
    assert p != Laurent(("a", "q"), {(4, 2): 3, (0, -6): 1}, 4) and p != str(p)
    half = Laurent.monomial(QA, 1, q=Fraction(1, 2))
    third = Laurent.monomial(QA, 1, a=Fraction(1, 3))
    assert half * half == Laurent(QA, {(4, 0): 1}, 4)
    assert (half * half).has_integer_exponents() and not half.has_integer_exponents()
    assert (half + third) == Laurent(QA, {(6, 0): 1, (0, 4): 1}, 12)
    assert (half * third - third * half) == Laurent(QA)
    assert (half + third - half) == third
    assert (half + third - half) == Laurent(QA, {(0, 2): 1}, 6)
    assert Laurent(QA, {(0, 0): 5}, 6) == Laurent(QA, {(0, 0): 5})
    assert Laurent(QA, {(1, 0): 0}, 3) == Laurent(QA)
    assert Laurent(QA) == Laurent(QA, {}, 5)
    with pytest.raises(ValueError):
        Laurent(QA, {(1, 0): 1}, 0)


def test_den_stays_within_the_operands_lcm():
    # with no reduction to lowest terms, a chain of products and quotients
    # must still not grow its den past the lcm of its operands' dens
    brackets = [
        bracket_numerator(Bracket(u, v)) for u, v in ((0, 1), (0, 3), (1, -2), (2, 1), (1, 0))
    ]
    acc = Laurent.monomial(QA, 3, a=Fraction(1, 3))
    for b in brackets + brackets[:2]:
        product = acc * b
        assert product.den <= math.lcm(acc.den, b.den)
        acc = product
    for b in brackets:
        quotient = exact_divide(acc, b)
        assert quotient.den <= math.lcm(acc.den, b.den)
        acc = quotient
    assert acc.den <= 6
    assert acc == Laurent.monomial(QA, 3, a=Fraction(1, 3)) * brackets[0] * brackets[1]


def test_non_integer_coefficients_are_refused():
    # a bool is an int subclass, but dumps_poly would write True as a
    # coefficient that loads_poly cannot read back
    for coeff in (0.5, 2.9, Fraction(1, 2), "1", True):
        with pytest.raises(TypeError):
            Laurent(("q",), {(0,): coeff})
    for coeff in (2.9, True):
        with pytest.raises(TypeError):
            Laurent.monomial(QA, coeff, q=1)
    assert Laurent.monomial(QA, 0, q=1) == Laurent(QA)


def test_float_exponents_are_refused():
    p = parse_expr("q + a", QA)
    calls = [
        lambda: Laurent.monomial(QA, 1, q=0.1),
        lambda: p.substitute({"a": (1, {"q": 0.5})}),
        lambda: SymExponent.make(e0=0.1),
        lambda: Laurent(("q",), {(0.5,): 1}),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_ring_operations_build_no_fraction(monkeypatch):
    # the hot path runs on int keys: operands are built first, then any
    # Fraction construction inside +, -, * or exact_divide fails
    rng = random.Random(5)
    pairs = [(random_laurent(rng), random_laurent(rng)) for _ in range(20)]
    brackets = [bracket_numerator(Bracket(u, v)) for u, v in ((0, 3), (1, -2), (2, 1))]

    def refuse(cls, *args, **kwargs):
        raise AssertionError("Fraction built on the int-key path")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    for a, b in pairs:
        product = (a + b) * b * 3 - a
        if b:
            assert exact_divide(product * b, b) == product
    for b in brackets:
        assert exact_divide(b * brackets[0], b) == brackets[0]


def test_exact_divide_round_trip():
    rng = random.Random(101)
    done = 0
    while done < 500:
        a = random_laurent(rng, terms=rng.randint(1, 5))
        b = random_laurent(rng, terms=rng.randint(1, 4))
        if not a or not b:
            continue
        done += 1
        assert exact_divide(a * b, b) == a


def test_exact_divide_examples():
    q = Laurent.monomial(QA, 1, q=1)
    half = Laurent.monomial(QA, 1, q=Fraction(1, 2))
    haft = Laurent.monomial(QA, 1, q=Fraction(-1, 2))
    assert exact_divide(q - parse_expr("q^-1", QA), half - haft) == half + haft
    x = parse_expr("3*a*q^-2 - 7*a^2", QA)
    assert exact_divide(x, Laurent.one(QA)) == x
    a_half = Laurent.monomial(QA, 1, a=Fraction(1, 2))
    a_haft = Laurent.monomial(QA, 1, a=Fraction(-1, 2))
    assert exact_divide(parse_expr("a - a^-1", QA), a_half - a_haft) == a_half + a_haft


def test_exact_divide_failure_carries_remainder():
    with pytest.raises(InexactDivisionError) as err:
        exact_divide(parse_expr("q^2 + 1", QA), parse_expr("q + 1", QA))
    assert err.value.remainder is not None
    assert err.value.remainder


def test_exact_divide_is_the_only_inexact_division_site():
    # one exact-division primitive: no module grows a second division routine
    package = pathlib.Path(qexact.__file__).parent
    raisers = sorted(
        path.name
        for path in package.glob("*.py")
        if "raise InexactDivisionError" in path.read_text()
    )
    assert raisers == ["qexact.py"]


def lowest(p):
    """The term whose exponent tuple, in the order of p.vars, is lowest."""
    return min(p.sorted_terms(), key=lambda term: term[0])


def reference_remainder(num, den):
    """Lowest-term elimination that rescans and copies on every step."""
    box = [
        (nl - dl, nh - dh)
        for (nl, nh), (dl, dh) in zip(exponent_range(num), exponent_range(den))
    ]
    low_exps, low_coeff = lowest(den)
    rem = num
    while rem:
        rexps, rcoeff = lowest(rem)
        qexps = tuple(a - b for a, b in zip(rexps, low_exps))
        if rcoeff % low_coeff or any(
            not (lo <= e <= hi) for e, (lo, hi) in zip(qexps, box)
        ):
            return rem
        rem = rem - Laurent(num.vars, {qexps: rcoeff // low_coeff}) * den
    return rem


def test_exact_divide_remainder_is_exact():
    # num - remainder is a multiple of den, and the remainder is the one the
    # plain elimination loop stops at
    rng = random.Random(211)
    done = 0
    while done < 200:
        num = random_laurent(rng, terms=rng.randint(1, 6))
        den = random_laurent(rng, terms=rng.randint(2, 4))
        if not num or len(den.terms) < 2:
            continue
        try:
            exact_divide(num, den)
        except InexactDivisionError as err:
            done += 1
            exact_divide(num - err.remainder, den)
            assert err.remainder == reference_remainder(num, den)


def test_substitute_examples():
    p = parse_expr("a^2 + a", QTA)
    out = p.substitute({"a": (-1, {"t": 3})})
    assert out == parse_expr("t^6 - t^3", ("q", "t"))
    hd = parse_expr("1 + q*t + a*q", QTA)
    out = hd.substitute({"t": (1, {"q": 1}), "a": (-1, {"a": 1})})
    assert out == parse_expr("1 + q^2 - a*q", QA)
    bad = Laurent.monomial(QTA, 1, a=Fraction(1, 2))
    with pytest.raises(SignedExponentError):
        bad.substitute({"a": (-1, {"t": Fraction(1, 2)})})


def test_tilde_normalize():
    p = parse_expr("q^2*t + q^3*t^2", ("q", "t"))
    norm = tilde_normalize(p)
    assert norm == parse_expr("1 + q*t", ("q", "t"))
    assert p == norm * Laurent.monomial(("q", "t"), 1, q=2, t=1)
    mono = Laurent.monomial(QA, 1, q=-3, a=2)
    assert tilde_normalize(mono) == Laurent.one(QA)
    already = parse_expr("1 + q*t + a*q", QTA)
    assert tilde_normalize(already) == already


def test_maps_keep_the_constant_term_and_zero():
    # a polynomial over no variables has the one key (); a map that builds
    # keys from exponent columns finds no column there, yet keeps the term
    p = Laurent(("q",), {(1,): 2, (2,): 3})
    out = p.substitute({"q": (1, {})})
    assert out.vars == () and out.terms == {(): 5} and out == Laurent((), {(): 5})
    signed = Laurent(("a",), {(1,): 2, (2,): 3}).substitute({"a": (-1, {})})
    assert signed.terms == {(): 1}
    assert Laurent(("q",), {(0,): 2, (2,): -2}).substitute({"q": (1, {})}).terms == {}
    const = Laurent((), {(): 7})
    assert tilde_normalize(const).terms == {(): 7}
    assert const.has_integer_exponents() and Laurent((), {(): 7}, 3).has_integer_exponents()
    assert Laurent((), {(): 7}, 3) == const and (const + Laurent((), {(): 1}, 2)).terms
    assert Laurent((), {(): 7}, 3) - const == Laurent(())
    assert loads_poly(dumps_poly(const))[0] == const
    assert Laurent((), {(): 7}).terms == {(): 7}
    # the zero polynomial passes through every map
    for vars in ((), ("q",), QTA):
        zero = Laurent(vars, {}, 2)
        assert tilde_normalize(zero) == zero and zero.has_integer_exponents()
        assert (zero + Laurent(vars, {}, 3)).terms == {} and zero == Laurent(vars)
        assert loads_poly(dumps_poly(zero))[0] == zero and zero.sorted_terms() == []
        assert (-zero).terms == {} and (zero * 3).terms == {}
        if vars:
            with pytest.raises(ValueError, match="no %s-degree" % vars[0]):
                zero.degree(vars[0])
            out = zero.substitute({vars[0]: (-1, {"x": Fraction(1, 3)})})
            assert out.terms == {} and out.vars == vars[1:] + ("x",)


def mapped(f, *args):
    """f's result as (vars, terms, den), or its SignedExponentError message."""
    try:
        out = f(*args)
    except SignedExponentError as err:
        return "SignedExponentError", str(err)
    return out.vars, out.terms, out.den


def test_column_maps_match_the_per_term_references():
    # substitute and tilde_normalize map exponent columns; the references
    # map one term at a time, and both must give the same terms, den and
    # vars, or the same SignedExponentError message
    rng = random.Random(29)
    exponents = (-2, -1, 0, 1, 2, 3, Fraction(1, 3), Fraction(-1, 2), Fraction(5, 6))
    dens, signed, raised, cancelled = set(), 0, 0, 0
    for _ in range(400):
        vars = rng.choice((QA, QTA, ("q",), ("q", "t"), ()))
        p = random_laurent(rng, vars, terms=rng.randint(0, 8))
        if rng.random() < 0.3:  # integer exponents, so signed maps often succeed
            kept = {e: c for e, c in p.terms.items() if not any(x % p.den for x in e)}
            p = Laurent(vars, kept, p.den)
        dens.add(p.den)
        assert mapped(tilde_normalize, p) == mapped(reference_tilde_normalize, p)
        if not vars:
            continue
        picked = rng.sample(vars, rng.randint(1, len(vars)))
        assignments = {}
        for name in picked:
            pool = rng.sample(("q", "t", "a", "x"), rng.randint(0, 2))
            assignments[name] = (rng.choice((1, -1)), {t: rng.choice(exponents) for t in pool})
        signed += any(sign == -1 for sign, _ in assignments.values())
        want = mapped(reference_substitute, p, assignments)
        assert mapped(Laurent.substitute, p, assignments) == want, (p, assignments)
        raised += want[0] == "SignedExponentError"
    assert {1, 2, 3, 6} <= dens and signed > 100 and 20 < raised < signed
    # two variables sent to one target: q and t both to x (or t to q) cancel
    # a difference of swapped columns down to zero; the signed a -> -t^(1/3)
    # is the nu = 1/3 exceptional target
    for _ in range(60):
        r = random_laurent(rng, QTA, terms=rng.randint(1, 6))
        r = Laurent(QTA, {e: c for e, c in r.terms.items() if not e[2] % r.den}, r.den)
        p = r - Laurent(QTA, {(t, q, a): c for (q, t, a), c in r.terms.items()}, r.den)
        for assignments in (
            {"q": (1, {"x": 1}), "t": (1, {"x": 1})},
            {"t": (1, {"q": 1}), "a": (-1, {"a": 1})},
            {"t": (1, {"q": 1}), "q": (1, {"q": 1}), "a": (-1, {"t": Fraction(1, 3)})},
            {"a": (-1, {"t": Fraction(1, 3)})},
        ):
            want = mapped(reference_substitute, p, assignments)
            assert mapped(Laurent.substitute, p, assignments) == want, (p, assignments)
            cancelled += want[1] == {} and bool(p)
    assert cancelled > 100


def test_sym_exponent_algebra():
    assert SymExponent._fields == ("e1", "e0", "em1")
    e = SymExponent.make(Fraction(-1, 2), 0, Fraction(1, 2))
    assert exponent_at_rank(e, 2) == Fraction(-3, 4)
    assert e.render() == "-1/2*N + 1/2/N"
    assert e.render_power() == "a^(-1/2)*q^(1/2/N)"
    shifted = SymExponent.make(-1, -2, Fraction(-1, 3))
    assert shifted.render() == "-N - 2 - 1/3/N"
    assert shifted.render_power() == "a^(-1)*q^(-2 - 1/3/N)"
    assert SymExponent.make(1, 1).render_power() == "a*q"
    assert SymExponent.make().render() == "0"
    assert SymExponent.make().render_power() == "1"


def test_bracket_over_unit_bracket():
    unit = bracket_numerator(UNIT_BRACKET)
    numer = bracket_numerator(Bracket(0, 1))
    assert exact_divide(numer, unit) == Laurent.one(QA)
    numer = bracket_numerator(Bracket(0, 2))
    assert exact_divide(numer, unit) == parse_expr("q^(1/2) + q^(-1/2)", QA)
    numer = bracket_numerator(Bracket(1, -1))
    assert numer == parse_expr("a^(1/2)*q^(-1/2) - a^(-1/2)*q^(1/2)", QA)


def quantum_integer(m):
    """[m] as the explicit sum of q^{(m-1-2k)/2} over 0 <= k < m, negated for m < 0."""
    sign, m = (-1, -m) if m < 0 else (1, m)
    return Laurent(("q",), {(Fraction(m - 1 - 2 * k, 2),): sign for k in range(m)})


def test_bracket_finite_rank():
    unit_q = bracket_numerator(UNIT_BRACKET).substitute({"a": (1, {})})
    for u, v in [(0, 2), (1, 0), (1, -1), (1, 3), (2, -1)]:
        b = Bracket(u, v)
        for N in range(2, 7):
            numer = bracket_numerator(b).substitute({"a": (1, {"q": N})})
            assert exact_divide(numer, unit_q) == quantum_integer(u * N + v), (u, v, N)


def test_bracket_by_bracket_division():
    rng = random.Random(23)
    brackets = [Bracket(u, v) for u in (0, 1) for v in range(-3, 4) if (u, v) != (0, 0)]
    for _ in range(40):
        chosen = rng.choices(brackets, k=rng.randint(1, 5))
        whole = Laurent.one(QA)
        for b in chosen:
            whole = whole * bracket_numerator(b)
        num = random_laurent(rng, terms=rng.randint(1, 5)) * whole
        stepwise = num
        for b in chosen:
            stepwise = exact_divide(stepwise, bracket_numerator(b))
        assert stepwise == exact_divide(num, whole), chosen


def stepwise_sum(terms):
    """Reference bracket sum over (piece, num, den) rows: [b] is
    bracket_numerator(b) over the unit bracket's, which cancels in a row of
    equally long num and den; every piece is multiplied one binomial at a
    time by its numerators and by the part of the common denominator its
    own den lacks, and the total is divided by that common denominator one
    binomial at a time."""
    common = Counter()
    for _, _, den in terms:
        common |= Counter(den)
    total = Laurent(QA)
    for piece, num, den in terms:
        for b in [*num, *(common - Counter(den)).elements()]:
            piece = piece * bracket_numerator(b)
        total = total + piece
    for b in common.elements():
        total = exact_divide(total, bracket_numerator(b))
    return total


KERNEL_BRACKETS = [Bracket(0, v) for v in range(1, 5)] + [Bracket(1, v) for v in range(-4, 3)]


def random_bracket_sum(rng):
    """(piece, num, den) rows of one bracket sum, num and den padded to one
    length with unit brackets [1].  Each of up to two groups splits target *
    prod(its den) into two pieces over that den, so no single term is a
    polynomial and the dens of the sum differ; the other terms carry
    brackets in their numerators only, over a piece with one unit-bracket
    binomial per bracket; zero pieces and an empty term list occur too.  The
    sum is exact unless `loose`."""
    loose = rng.random() < 0.2
    unit = bracket_numerator(UNIT_BRACKET)
    terms = []
    for _ in range(rng.choice((0, 1, 1, 2))):
        den = rng.choices(KERNEL_BRACKETS, k=rng.randint(0, 3))
        numerator = random_laurent(rng, terms=rng.randint(1, 4))
        for b in [] if loose else den:
            numerator = numerator * bracket_numerator(b)
        keys = list(numerator.terms)
        rng.shuffle(keys)
        cut = rng.randint(0, len(keys))
        for part in (keys[:cut], keys[cut:]):
            piece = Laurent(QA, {k: numerator.terms[k] for k in part}, numerator.den)
            terms.append((piece, [UNIT_BRACKET] * len(den), den))
    for _ in range(rng.randint(0, 3)):
        num = rng.choices(KERNEL_BRACKETS, k=rng.randint(0, 3))
        piece = random_laurent(rng, terms=rng.randint(0, 3))
        if not loose:
            piece = piece * math.prod([unit] * len(num), start=Laurent.one(QA))
        terms.append((piece, num, [UNIT_BRACKET] * len(num)))
    rng.shuffle(terms)
    return terms


def test_packed_bracket_sum_matches_stepwise():
    # pieces over dens 1, 2, 3 and 6, brackets [N + v] with v < 0, dens that
    # differ between terms, zero and empty pieces: bracket_sum equals the
    # binomial-at-a-time reference, and raises exactly where it does
    rng = random.Random(2024)
    dens, exact, mixed = set(), 0, 0
    for _ in range(300):
        terms = random_bracket_sum(rng)
        dens.update(piece.den for piece, _, _ in terms if piece)
        dens_printed = {render_quotient(num, den).partition("/")[2] for _, num, den in terms}
        mixed += len(dens_printed - {""}) > 1
        try:
            want = stepwise_sum(terms)
        except InexactDivisionError:
            with pytest.raises(InexactDivisionError):
                bracket_sum(*kernel_rows(terms))
            continue
        exact += 1
        assert bracket_sum(*kernel_rows(terms)) == want, terms
    assert 200 < exact < 280 and mixed > 30 and {1, 2, 3} <= dens


def test_packed_second_width():
    # the first digit width bounds the packed sum, not the quotient; these
    # quotients overflow it and pass only at the second width
    one = Laurent.one(QA)
    # [100]/[1] has 100 unit coefficients: 100 * 2 is not below 2^7
    terms = [(one, [Bracket(0, 100)], [UNIT_BRACKET])]
    want = stepwise_sum(terms)
    assert len(want.terms) == 100 and bracket_sum(*kernel_rows(terms)) == want
    # the dimension of [2|2,1] at N = 6, [4][5][6][7][9]/[2][3], has
    # coefficient sum 1,260, and 1,260 * 2^5 is not below 2^15
    brackets = [Bracket(0, v) for v in (4, 5, 6, 7, 9)]
    terms = [(one, brackets, [Bracket(0, 2), Bracket(0, 3)] + [UNIT_BRACKET] * 3)]
    want = stepwise_sum(terms)
    assert sum(map(abs, want.terms.values())) == 1260
    assert bracket_sum(*kernel_rows(terms)) == want


def test_packed_remainder_raises():
    # 1/[2] is no polynomial: at every width the 2-adic quotient, multiplied
    # back by the binomial, misses the packed sum, and the error carries no
    # remainder polynomial
    with pytest.raises(InexactDivisionError) as err:
        bracket_sum(*kernel_rows([(Laurent.one(QA), [UNIT_BRACKET], [Bracket(0, 2)])]))
    assert err.value.remainder is None


def test_packed_q_window_raises():
    # (q^(1/2) - 1)/[N - 1] is no polynomial, yet q^(1/2) - 1 packs to the
    # same int as the binomial a^(1/2) q^(-1/2) - a^(-1/2) q^(1/2) up to its
    # monomial, so the quotient multiplies back to the packed sum; only its
    # digit, below the q-window, shows the sum inexact
    piece = Laurent.monomial(QA, 1, q=Fraction(1, 2)) - Laurent.one(QA)
    with pytest.raises(InexactDivisionError):
        bracket_sum(*kernel_rows([(piece, [UNIT_BRACKET], [Bracket(1, -1)])]))


def test_bracket_sum_merges_rows_with_equal_brackets(monkeypatch):
    # rows whose cancelled bracket lists agree are packed as one: the first
    # two sum pieces over dens 2 and 1 to (q - q^-1)[3][N-1]/[2], the next
    # two cancel to zero and are not packed, and the last, 5(q^(1/2) -
    # q^(-1/2))[N-1], stands alone
    two, three, down = Bracket(0, 2), Bracket(0, 3), Bracket(1, -1)
    third = Fraction(1, 3)
    terms = [
        (Laurent(QA, {(2, 0): 1}, 2), [three, down], [two, UNIT_BRACKET]),
        (Laurent.monomial(QA, -1, q=-1), [down, two, three], [two, two, UNIT_BRACKET]),
        (Laurent.monomial(QA, 2, a=third), [three], [UNIT_BRACKET]),
        (Laurent.monomial(QA, -2, a=third), [three, down], [UNIT_BRACKET, down]),
        (bracket_numerator(UNIT_BRACKET) * 5, [down], [UNIT_BRACKET]),
    ]
    packed = []
    real = qexact._pack

    def spy(rows, k):
        packed.append(len(rows))
        return real(rows, k)

    monkeypatch.setattr(qexact, "_pack", spy)
    assert bracket_sum(*kernel_rows(terms)) == stepwise_sum(terms)
    assert packed == [2]
    # with the cancelling pair alone the sum is zero, and nothing is packed
    packed.clear()
    pair = terms[2:4]
    assert bracket_sum(*kernel_rows(pair)) == Laurent(QA) == stepwise_sum(pair)
    assert packed == [0]


def test_bracket_sum_packs_one_row_per_cancelled_list(monkeypatch):
    # T(3,2) [2,1|2,1] hands bracket_sum 66 rows with 40 distinct cancelled
    # bracket lists, and 40 rows are packed
    rows, packed = [], []
    real_sum, real_pack = rosso.bracket_sum, qexact._pack

    def record(terms, den):
        rows.extend(terms)
        return real_sum(terms, den)

    def spy(digits, k):
        packed.append(len(digits))
        return real_pack(digits, k)

    monkeypatch.setattr(rosso, "bracket_sum", record)
    monkeypatch.setattr(qexact, "_pack", spy)
    lam = Partition((2, 1))
    rosso.composite_homfly(rosso.TorusKnot(3, 2), lam, lam)
    lists = {frozenset((b, m) for b, m in counts.items() if m) for *_, counts in rows}
    assert len(rows) == 66 and len(lists) == 40 and packed == [40]


def test_degree_of_zero_names_the_cause():
    assert Laurent.monomial(QA, 3, a=2, q=-1).degree("a") == 2
    with pytest.raises(ValueError, match="zero polynomial has no a-degree"):
        Laurent(QA).degree("a")


def test_bracket_sum_refuses_malformed_rows():
    # a row's bracket multiplicities sum to zero, [1]s included, and it
    # holds only Brackets with a positive leading part; the unit brackets
    # cancel only in such a row
    one = Laurent.one(QA)
    for num, den in (([], [Bracket(0, 2)]), ([Bracket(1, 0)], [])):
        with pytest.raises(ValueError, match="bracket row of"):
            bracket_sum(*kernel_rows([(one, num, den)]))
    two = {Bracket(0, 2): 1, UNIT_BRACKET: -1}
    for counts in ({Bracket(0, 2): 1}, {**two, Bracket(0, 3): 1}, {**two, UNIT_BRACKET: -2}):
        with pytest.raises(ValueError, match="bracket row of multiplicities summing to -?1,"):
            bracket_sum([(1, 0, 0, counts)], 1)
    for bad in (Bracket(0, 0), Bracket(0, -2), Bracket(-1, 1)):
        with pytest.raises(ValueError, match="positive leading part"):
            bracket_sum(*kernel_rows([(one, [bad], [UNIT_BRACKET])]))
        with pytest.raises(ValueError, match="positive leading part"):
            bracket_sum(*kernel_rows([(one, [UNIT_BRACKET], [bad])]))
        # a bad bracket is refused even where it cancels in its own row
        with pytest.raises(ValueError, match="positive leading part"):
            bracket_sum(*kernel_rows([(one, [bad], [bad])]))
        # a count row's bracket at multiplicity 0 is checked too
        with pytest.raises(ValueError, match="positive leading part"):
            bracket_sum([(1, 0, 0, {**two, bad: 0})], 1)
    with pytest.raises(TypeError):
        bracket_sum(*kernel_rows([(one, [(0, 3)], [UNIT_BRACKET])]))
    with pytest.raises(TypeError, match="expected a Bracket"):
        bracket_sum([(1, 0, 0, {**two, (0, 3): 0})], 1)
    # the same brackets balanced by [1]s are summed: [2][3]/[1]^2
    row = (one, [Bracket(0, 2), Bracket(0, 3)], [UNIT_BRACKET] * 2)
    assert bracket_sum(*kernel_rows([row])) == stepwise_sum([row])
    counts = {Bracket(0, 2): 1, Bracket(0, 3): 1, UNIT_BRACKET: -2}
    assert bracket_sum([(1, 0, 0, counts)], 1) == stepwise_sum([row])


def test_bracket_sum_refuses_bad_den_and_non_int_rows():
    # q^(1/2) [2]/[1] is q + 1; the exponent den is a positive int, as a
    # Laurent's is, since at den = -2 the grid would flip every exponent
    row = (1, 1, 0, {Bracket(0, 2): 1, UNIT_BRACKET: -1})
    assert bracket_sum([row], 2) == parse_expr("q + 1", QA)
    for den in (0, -2, 2.0):
        with pytest.raises(ValueError, match="den must be a positive int"):
            bracket_sum([row], den)
    # a float coefficient or a non-int exponent is refused, even one equal
    # to an int, which would otherwise merge into an int key
    for bad in ((1.0, 1, 0), (1, Fraction(2, 2), 0), (1, 1, Fraction(1, 3)), (1, 2.0, 0)):
        with pytest.raises(TypeError, match="must be ints"):
            bracket_sum([(*bad, row[3]), row], 2)


def test_render_quotient_canonical_form():
    # equal brackets cancel and unit brackets drop
    num = [Bracket(1, 1), Bracket(0, 1), Bracket(0, 2)]
    den = [Bracket(0, 2), Bracket(1, -1)]
    assert render_quotient(num, den) == "[N+1]/[N-1]"
    # a bracket without a positive leading part is refused, not sign-flipped
    for bad in (Bracket(0, 0), Bracket(0, -2), Bracket(-1, 1)):
        with pytest.raises(ValueError):
            render_quotient([bad], [])
        with pytest.raises(ValueError):
            render_quotient([], [bad])
    # entries must be Brackets: a plain tuple has no render
    for num, den in (([(0, 3)], []), ([], [(1, -1)])):
        with pytest.raises(TypeError):
            render_quotient(num, den)
    assert render_quotient([], []) == "1"
    # sorted, with repeats as powers; the same text in any order
    ratio = [Bracket(1, 1), Bracket(0, 3), Bracket(1, -1)], [Bracket(1, -1)] * 3
    assert render_quotient(*ratio) == "[3][N+1]/[N-1]^2"
    same = [Bracket(1, 1), Bracket(0, 3)], [Bracket(1, -1)] * 2
    assert render_quotient(*same) == render_quotient(*ratio)


def test_serialization_round_trip():
    rng = random.Random(3)
    for vars in (QA, QTA, ("q",)):
        for _ in range(20):
            p = random_laurent(rng, vars=vars, terms=6)
            text = dumps_poly(p, {"id": "x", "source": "unit test"})
            loaded, meta = loads_poly(text)
            assert loaded == p
            assert dumps_poly(loaded, {"id": "x", "source": "unit test"}) == text
            assert meta["source"] == "unit test"
            # blank lines are skipped
            assert loads_poly(text.replace("\n", "\n \n")) == (loaded, meta)


def test_serialization_checksum_detects_damage():
    p = parse_expr("1 + 2*q*t - a*q^3", QTA)
    text = dumps_poly(p, {"id": "x"})
    lines = text.splitlines()
    lines[-1] = lines[-1].replace("2", "3", 1) if "2" in lines[-1] else lines[-1] + "9"
    with pytest.raises(ValueError, match="checksum"):
        loads_poly("\n".join(lines))


def test_repeated_exponents_and_zero_coefficients_are_refused():
    # dumps_poly writes neither; the checksum cannot catch a line written
    # twice, as the checksum is taken over the damaged body
    text = dumps_poly(parse_expr("1 + 2*q", QA), {"id": "x"})
    head, body = text.split("\n#checksum")[0], text.splitlines()[-2:]
    for lines in ([body[0], body[0], body[1]], [body[0], "0\t5\t0", body[1]]):
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        damaged = "%s\n#checksum sha256:%s\n%s\n" % (head, digest, "\n".join(lines))
        with pytest.raises(ValueError, match="repeated exponents or zero coefficient"):
            loads_poly(damaged)
    assert loads_poly(text)[0] == parse_expr("1 + 2*q", QA)


def test_term_line_exponents_read_as_ints_or_fractions():
    # a cell int() reads gives the value Fraction() would; the rest go to
    # Fraction, which takes 1/2, 2/4 and 1.5 and refuses 1/0 and 0x10
    def load(*cells):
        return loads_poly("#vars q\n" + "".join("3\t%s\n" % c for c in cells))[0]

    for cell, exp in [
        ("1/2", Fraction(1, 2)),
        ("2/4", Fraction(1, 2)),
        ("1.5", Fraction(3, 2)),
        ("-3", -3),
        ("+3", 3),
        ("1_0", 10),
    ]:
        assert load(cell) == Laurent.monomial(("q",), 3, q=exp), cell
    for cell in ("1/0", "0x10"):
        with pytest.raises(ValueError):
            load(cell)
    # an int cell and a Fraction cell of one value are one exponent
    with pytest.raises(ValueError, match="repeated exponents"):
        load("2", "4/2")


def test_repeated_header_is_refused():
    text = dumps_poly(parse_expr("1 + q", QA), {"id": "x"})
    for line in ("#vars q a", "#id y", "#checksum sha256:0"):
        key = line.split()[0][1:]
        with pytest.raises(ValueError, match="repeated #%s header" % key):
            loads_poly(line + "\n" + text)


def test_input_refusals():
    # (call, error type, full message) for inputs the polynomial layer refuses
    q, t = Laurent.monomial(QA, 1, q=1), Laurent.monomial(QTA, 1, t=1)
    for call, error, message in [
        (lambda: Laurent.monomial(QA, 1, t=1), ValueError, "unknown variables ['t']"),
        (lambda: q.substitute({"t": (1, {})}), ValueError, "substituting absent variable 't'"),
        (lambda: q.substitute({"q": (2, {"q": 1})}), ValueError, "sign must be +-1"),
        (lambda: q + 1, TypeError, "expected Laurent, got 1"),
        (lambda: q + t, ValueError, "variable mismatch: ('q', 'a') vs ('q', 't', 'a')"),
        (lambda: exact_divide(q, 1), TypeError, "exact_divide wants Laurent arguments"),
        (lambda: exact_divide(1, q), TypeError, "exact_divide wants Laurent arguments"),
        (lambda: exact_divide(q, t), ValueError, "variable mismatch in division"),
        (lambda: exact_divide(q, Laurent(QA)), ZeroDivisionError, "division by zero polynomial"),
        (lambda: loads_poly("3\t1\n#vars q\n"), ValueError, "term line before #vars header"),
        (lambda: loads_poly("#vars q a\n3\t1\n"), ValueError, "bad term line: '3\\t1'"),
        (lambda: loads_poly("#vars q\n3\t1\t0\n"), ValueError, "bad term line: '3\\t1\\t0'"),
        (lambda: loads_poly("#id x\n"), ValueError, "missing #vars header"),
        (lambda: loads_poly(""), ValueError, "missing #vars header"),
    ]:
        with pytest.raises(error) as err:
            call()
        assert (type(err.value), str(err.value)) == (error, message)


def qa_mono(coeff=1, **exps):
    return Laurent.monomial(QA, coeff, **exps)


PARSED = [
    ("q^(-1/2)*a", qa_mono(q=Fraction(-1, 2), a=1)),
    ("q^-1", qa_mono(q=-1)),
    ("--q", qa_mono(q=1)),
    ("-q^2", qa_mono(-1, q=2)),
    ("(1+q)^2", qa_mono() + qa_mono(2, q=1) + qa_mono(q=2)),
    ("1 + 2*q + q^2", qa_mono() + qa_mono(2, q=1) + qa_mono(q=2)),
    ("q/q", qa_mono()),
    ("-3 + q/q", qa_mono(-2)),
    ("(-q)^-3 * a^(2/3)", qa_mono(-1, q=-3, a=Fraction(2, 3))),
    ("1 + -q", qa_mono() + qa_mono(-1, q=1)),
    ("q**2", qa_mono(q=2)),
]

UNPARSEABLE = [
    "1.5", "1e3", "True", "q.real", "f(q)", "[q]", "q // q", "q % q", "q^q",
    "q^(1/2)^2", "(1+q)^(1/2)", "2^(-1)", "(-q)^(1/2)", "1 +", "2q", "x",
    "1 + x", "__import__('os')", "q^(1/0)",
]


def test_parse_expr():
    for text, expected in PARSED:
        assert parse_expr(text, QA) == expected, text
    for text in UNPARSEABLE:
        with pytest.raises(ValueError):
            parse_expr(text, QA)
    # a fractional exponent needs its parentheses: q^1/2 is (q^1)/2
    with pytest.raises(InexactDivisionError):
        parse_expr("q^1/2", QA)


def test_canonical_order_is_deterministic():
    p = parse_expr("a*q^-1 + a*q - a^2", QA)
    assert [f for f, _ in p.sorted_terms()] == [
        (Fraction(-1), Fraction(1)),
        (Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(2)),
    ]
    assert str(p) == "q^-1*a + q*a - a^2"


SEEDED_SUBSTITUTION = """
from comphomfly.qexact import Laurent
V = ("q", "t", "x1", "x2", "x3")
out = Laurent.monomial(V, 1, x1=1).substitute({"x1": (1, {"q": 1, "x1": 1})})
print(",".join(out.vars), out == Laurent.monomial(V, 1, q=1, x1=1))
"""


def test_substitute_layout_ignores_hash_seed():
    # names sharing a first letter must not tie in the layout key, or the
    # variable order follows set iteration, which PYTHONHASHSEED moves
    src = str(pathlib.Path(qexact.__file__).resolve().parents[1])
    for seed in range(3):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        proc = subprocess.run(
            [sys.executable, "-c", SEEDED_SUBSTITUTION],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.stdout == "q,t,x1,x2,x3 True\n", (seed, proc.stdout, proc.stderr)
