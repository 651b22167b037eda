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

from typing import NamedTuple


class RankTooSmallError(ValueError):
    """The finite rank N cannot hold the requested composite diagram."""


class Partition(tuple):
    """A partition: a validated tuple of weakly decreasing positive ints.

    Zeros are stripped at construction, so tuple equality, hashing and
    ordering are partition equality, hashing and ordering; a Partition
    compares equal to the plain tuple of its rows, by design.  Empty slots
    leave no instance dict, so instances are immutable dict keys.
    """

    __slots__ = ()

    def __new__(cls, rows=()):
        rows = tuple(int(r) for r in rows if r != 0)
        if any(r < 0 for r in rows):
            raise ValueError("negative row length: %r" % (rows,))
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError("rows not weakly decreasing: %r" % (rows,))
        return super().__new__(cls, rows)

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

    def boxes(self):
        """All boxes (i, j), 1-based row i and column j."""
        for i, r in enumerate(self, start=1):
            for j in range(1, r + 1):
                yield (i, j)

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
    return sum(2 * (j - i) for i, j in lam.boxes())


def join(lam, mu):
    """Componentwise maximum: the smallest diagram containing both."""
    n = max(len(lam), len(mu))
    return Partition(max(lam.row(i), mu.row(i)) for i in range(1, n + 1))


def compose_at_N(lam, mu, N):
    """Materialize the composite diagram [lam, mu] at finite rank N.

    Rows: mu_k + lam_1 on top, lam_1 in the middle, lam_1 - lam_{N+1-k} at
    the bottom; the result has at most N - 1 rows and size
    |mu| - |lam| + lam_1 * N.
    """
    if N < len(lam) + len(mu):
        raise RankTooSmallError(
            "rank %d < %d rows needed by [%s|%s]" % (N, len(lam) + len(mu), lam, mu)
        )
    head = [row + lam.width for row in mu]
    middle = [lam.width] * (N - len(lam) - len(mu))
    tail = [lam.width - lam.row(N + 1 - k) for k in range(N - len(lam) + 1, N + 1)]
    return Partition(head + middle + tail)


def dual_at_N(lam, N):
    """Rank-N dual diagram, rows lam_1 - lam_{N+1-k}.  Depends on N."""
    if N < len(lam):
        raise RankTooSmallError("rank %d < %d rows of %s" % (N, len(lam), lam))
    return Partition(lam.width - lam.row(N + 1 - k) for k in range(1, N + 1))


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
    rows = []
    total = 0
    for b in reversed(list(coeffs)):
        total += b
        rows.append(total)
    return Partition(reversed(rows))


def parse_weight(text):
    """Parse weight notation like '2w1+w3' into a Partition."""
    text = text.strip().replace(" ", "")
    if text in ("", "0"):
        return EMPTY
    coeffs = {}
    for piece in text.split("+"):
        mult, sep, idx = piece.partition("w")
        if not sep or not idx.isdigit():
            raise ValueError("bad weight term: %r" % piece)
        i = int(idx)
        coeffs[i] = coeffs.get(i, 0) + (int(mult) if mult else 1)
    top = max(coeffs)
    return weight_to_partition([coeffs.get(i, 0) for i in range(1, top + 1)])
