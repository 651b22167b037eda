"""Exact composite HOMFLY-PT polynomials of torus knots, with verification.

The engine expands a torus-knot invariant over composite characters with
symbolic rank, producing exact two-variable Laurent polynomials; the verify
layer checks the engine and a set of transcribed three-variable fixtures
against each other through connection, duality, evaluation, degree, and
exceptional-series identities.
"""

from .partitions import (
    CompositeDiagram,
    Partition,
    RankTooSmallError,
    compose_at_N,
    conjugate,
    join,
    kappa,
)
from .qexact import (
    Bracket,
    InexactDivisionError,
    IntegralityError,
    Laurent,
    ResidualRankError,
    SymExponent,
    tilde_normalize,
)
from .rosso import (
    InvariantResult,
    TorusKnot,
    braiding_eigenvalue,
    composite_homfly,
    finite_N_oracle,
    quantum_dimension,
)

__version__ = "0.1.0"

__all__ = [
    "Bracket",
    "CompositeDiagram",
    "InexactDivisionError",
    "IntegralityError",
    "InvariantResult",
    "Laurent",
    "Partition",
    "RankTooSmallError",
    "ResidualRankError",
    "SymExponent",
    "TorusKnot",
    "braiding_eigenvalue",
    "compose_at_N",
    "composite_homfly",
    "conjugate",
    "finite_N_oracle",
    "join",
    "kappa",
    "quantum_dimension",
    "tilde_normalize",
]
