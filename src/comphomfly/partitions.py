"""Young diagrams, composite diagrams, and their box statistics.

Both are tuples: a `Partition` is a tuple of rows validated at
construction, and a `CompositeDiagram` is a named pair of partitions, so
the stdlib's tuple equality, hashing and ordering serve every dict key and
sort in the package.

A composite diagram is an ordered pair [lambda, mu] of partitions.  At any
finite rank N >= len(lambda) + len(mu) it materializes as a single partition:
mu sits in the top rows, the rank-N dual of lambda in the bottom rows, and a
flat block of rows of length lambda_1 fills the middle.
"""

from __future__ import annotations

from itertools import accumulate
from operator import ge
from typing import NamedTuple


class RankTooSmallError(ValueError):
    """The finite rank N cannot hold the requested composite diagram."""


class Partition(tuple):
    """A partition: a validated tuple of weakly decreasing positive ints.

    Trailing zeros are stripped at construction (a zero above a nonzero
    row is an increase, and refused), so tuple equality, hashing and
    ordering are partition equality, hashing and ordering; a Partition
    compares equal to the plain tuple of its rows, by design.  Empty slots
    leave no instance dict, so instances are immutable dict keys.
    """

    __slots__ = ()

    def __new__(cls, rows=()):
        rows = tuple(rows)
        if not {int}.issuperset(map(type, rows)):
            raise TypeError("row lengths must be ints: %r" % (rows,))
        if rows and min(rows) < 0:
            raise ValueError("negative row length: %r" % (rows,))
        if not all(map(ge, rows, rows[1:])):
            raise ValueError("rows not weakly decreasing: %r" % (rows,))
        # rows are now weakly decreasing and nonnegative, so zeros trail
        return super().__new__(cls, rows[: rows.index(0)] if 0 in rows else rows)

    @classmethod
    def parse(cls, text):
        """Parse the text form: comma-separated rows, '' or '0' for the empty one."""
        text = text.strip()
        if text in ("", "0"):
            return cls()
        return cls(int(part) for part in text.split(","))

    def size(self):
        return sum(self)

    def row(self, i):
        """Row length with 1-based index i; zero beyond the last row."""
        return self[i - 1] if 1 <= i <= len(self) else 0

    @property
    def width(self):
        return self[0] if self else 0

    def contains(self, other):
        """Containment of diagrams, row by row."""
        return all(self.row(i) >= r for i, r in enumerate(other, start=1))

    def __str__(self):
        return ",".join(map(str, self)) if self else "0"

    def __repr__(self):
        return "Partition(%r)" % (tuple(self),)


EMPTY = Partition()


def conjugate(lam):
    """Transpose of the diagram; an involution."""
    if not lam:
        return EMPTY
    cols = [0] * lam.width
    for r in lam:
        for j in range(r):
            cols[j] += 1
    return Partition(cols)


def kappa(lam):
    """Twice the content sum: sum over boxes of 2(j - i)."""
    return sum(r * (r + 1 - 2 * i) for i, r in enumerate(lam, start=1))


def join(lam, mu):
    """Componentwise maximum: the smallest diagram containing both."""
    n = max(len(lam), len(mu))
    return Partition(max(lam.row(i), mu.row(i)) for i in range(1, n + 1))


def dual_at_N(lam, N):
    """Rank-N dual diagram, rows lam_1 - lam_{N+1-k}.  Depends on N."""
    if N < len(lam):
        raise RankTooSmallError("rank %d < %d rows of %s" % (N, len(lam), lam))
    return Partition(lam.width - lam.row(N + 1 - k) for k in range(1, N + 1))


def compose_at_N(lam, mu, N):
    """Materialize the composite diagram [lam, mu] at finite rank N.

    Rows: mu_k + lam_1 on top, then the dual of lam at rank N - len(mu),
    whose leading rows of length lam_1 are the flat middle block; the result
    has at most N - 1 rows and size |mu| - |lam| + lam_1 * N.
    """
    if N < 1:
        raise RankTooSmallError("rank %d is not a rank: N must be at least 1" % N)
    if N < len(lam) + len(mu):
        raise RankTooSmallError(
            "rank %d < %d rows needed by [%s|%s]" % (N, len(lam) + len(mu), lam, mu)
        )
    head = tuple(row + lam.width for row in mu)
    return Partition(head + dual_at_N(lam, N - len(mu)))


class CompositeDiagram(NamedTuple):
    """An ordered pair [lam, mu] of partitions.

    Stored ordered; order-insensitivity of derived invariants is a tested
    property, not a type-level identification.
    """

    lam: Partition
    mu: Partition

    @classmethod
    def parse(cls, text):
        """Parse 'lam|mu', each side in the partition text form."""
        left, sep, right = text.partition("|")
        if not sep:
            raise ValueError("composite diagram needs a '|': %r" % text)
        return cls(Partition.parse(left), Partition.parse(right))

    def __str__(self):
        return "%s|%s" % (self.lam, self.mu)


def weight_to_partition(coeffs):
    """Fundamental-weight coordinates b_i (list, 1-based as index+1) to rows."""
    rows = list(accumulate(reversed(list(coeffs))))
    return Partition(reversed(rows))


def parse_weight(text):
    """Parse weight notation like '2w1+w3' into a Partition.  A term's
    multiplier is empty or unsigned digits, as a weight coordinate is a
    nonnegative int."""
    text = text.strip().replace(" ", "")
    if text in ("", "0"):
        return EMPTY
    coeffs = {}
    for piece in text.split("+"):
        mult, sep, idx = piece.partition("w")
        if not sep or not idx.isdigit() or mult and not mult.isdigit():
            raise ValueError("bad weight term: %r" % piece)
        i = int(idx)
        if i < 1:
            raise ValueError("fundamental weights start at w1: %r" % piece)
        coeffs[i] = coeffs.get(i, 0) + (int(mult) if mult else 1)
    top = max(coeffs)
    return weight_to_partition([coeffs.get(i, 0) for i in range(1, top + 1)])
