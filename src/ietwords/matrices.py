"""Counting and matrix-level structure of ternarizations.

For a non-negative matrix A with determinant +-1 there are exactly

    m*(norm(A) - 1) + m*(det(A) - m)/2,    m = min(p0+p1, q0+q1)

ordered amicable pairs of Sturmian morphisms with incidence matrix A,
refined per B-count b by ``count_formula_b``.  ``brute_force_pairs``
re-derives the same set by exhaustively testing the conjugation chain
against itself, which keeps the closed formulas honest.

A 3x3 non-negative matrix is the incidence matrix of a ternarization
exactly when it has the block shape produced by ``ternarization_matrix``
for parameters passing conditions (a) and (b) of ``classify_matrix3``.
All such matrices also satisfy ``B*E*B^T = +-E``; the converse fails,
witnessed by the permutation matrix swapping A and C.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .amicability import (
    AmicablePair,
    b_counts,
    ternarization_membership,
    ternarize_morphisms,
    TernarizationMembership,
)
from .errors import (
    DomainError,
    InfeasibleMatrixError,
    NotAmicableError,
    NotUnimodularError,
)
from .morphisms import (
    IntMatrix2,
    IntMatrix3,
    Morphism,
    compose,
    enumerate_sturmian,
    incidence_matrix,
    k_index,
)
from .words import Alphabet, FiniteWord

E_MATRIX = IntMatrix3(((0, 1, 1), (-1, 0, 1), (-1, -1, 0)))

_P_BLOCK = IntMatrix3(((1, 0, 0), (1, 1, 1), (0, 1, 0)))

# the A<->C letter exchange and the ternarization of the Fibonacci
# morphism 0->01, 1->0 with its right conjugate 0->10, 1->0; composing
# with these two is what the membership probe exercises
AC_SWAP = Morphism(
    Alphabet.TERNARY,
    (
        FiniteWord(Alphabet.TERNARY, b"\x02"),
        FiniteWord(Alphabet.TERNARY, b"\x01"),
        FiniteWord(Alphabet.TERNARY, b"\x00"),
    ),
)
FIBONACCI_TERNARY = Morphism(
    Alphabet.TERNARY,
    (
        FiniteWord(Alphabet.TERNARY, b"\x01"),
        FiniteWord(Alphabet.TERNARY, b"\x00\x02\x00"),
        FiniteWord(Alphabet.TERNARY, b"\x00"),
    ),
)

# classical 3iet-preserving morphism (A->B, B->CAC, C->C) that is not a
# ternarization of any Sturmian pair: the ternarization monoid is a
# proper sub-monoid of the preserving one
PRESERVING_NONMEMBER = Morphism(
    Alphabet.TERNARY,
    (
        FiniteWord(Alphabet.TERNARY, b"\x01"),
        FiniteWord(Alphabet.TERNARY, b"\x02\x00\x02"),
        FiniteWord(Alphabet.TERNARY, b"\x02"),
    ),
)


def _require_unimodular(matrix: IntMatrix2) -> None:
    if not matrix.is_unimodular:
        raise NotUnimodularError(f"matrix {matrix} has determinant {matrix.det}")


def unimodular_matrices(max_norm: int) -> Iterator[IntMatrix2]:
    """All non-negative matrices with determinant +-1 and norm at most
    ``max_norm``, in a fixed deterministic order."""
    for norm in range(2, max_norm + 1):
        for p0, q0, p1 in itertools.product(range(norm + 1), repeat=3):
            q1 = norm - p0 - q0 - p1
            if q1 < 0:
                continue
            if abs(p0 * q1 - q0 * p1) == 1:
                yield IntMatrix2(p0, q0, p1, q1)


def count_formula_total(matrix: IntMatrix2) -> int:
    """Closed-form number of ordered amicable pairs with this matrix."""
    _require_unimodular(matrix)
    m = min(matrix.p, matrix.q)
    # even: with det = +-1 this is +-m*(m -+ 1), two consecutive integers
    correction = m * (matrix.det - m)
    return m * (matrix.norm - 1) + correction // 2


def count_formula_b(matrix: IntMatrix2, b: int) -> int:
    """Closed-form number of ordered b-amicable pairs with this matrix."""
    _require_unimodular(matrix)
    m = min(matrix.p, matrix.q)
    if matrix.det == 1 and 1 <= b <= m:
        return matrix.norm - b
    if matrix.det == -1 and 0 <= b <= m - 1:
        return matrix.norm - b - 2
    return 0


def brute_force_pairs(matrix: IntMatrix2) -> tuple[AmicablePair, ...]:
    """Every ordered amicable pair drawn from the full enumeration of
    Sturmian morphisms with this matrix, sorted by (k, kbar).

    Independent of the closed formulas above: each candidate pair is
    decided by the ternarization scan alone.
    """
    _require_unimodular(matrix)
    # k_index is one-to-one on the morphisms of one matrix, so this sort
    # never compares two Morphisms and the pairs come out in order
    indexed = sorted((k_index(m), m) for m in enumerate_sturmian(matrix))
    pairs = []
    for k, phi in indexed:
        for kbar, psi in indexed:
            try:
                eta = ternarize_morphisms(phi, psi)
            except NotAmicableError:
                continue
            b0, b1, b = b_counts(eta)
            pairs.append(
                AmicablePair(
                    phi=phi, psi=psi, eta=eta, b0=b0, b1=b1, b=b, k=k, kbar=kbar
                )
            )
    return tuple(pairs)


def ternarization_matrix(matrix: IntMatrix2, b0: int, b1: int) -> IntMatrix3:
    """The 3x3 incidence matrix determined by (A, b0, b1):

        [[p0-b0, b0, q0-b0],
         [p-b,   b,  q-b  ],
         [p1-b1, b1, q1-b1]]   with b = b0 + b1 + det(A).

    Equals P * [[A, (b0; b1)], [0 0 det]] * P^-1 for the fixed change of
    basis P; any negative entry means the parameters are infeasible.
    """
    _require_unimodular(matrix)
    if b0 < 0 or b1 < 0:
        raise DomainError("B-counts must be non-negative")
    b = b0 + b1 + matrix.det
    entries = (
        (matrix.p0 - b0, b0, matrix.q0 - b0),
        (matrix.p - b, b, matrix.q - b),
        (matrix.p1 - b1, b1, matrix.q1 - b1),
    )
    if min(x for row in entries for x in row) < 0:
        raise InfeasibleMatrixError(
            f"parameters (b0={b0}, b1={b1}) give a negative entry for {matrix}"
        )
    return IntMatrix3(entries)


def block_conjugated_matrix(matrix: IntMatrix2, b0: int, b1: int) -> IntMatrix3:
    """The same matrix computed the slow way, by actually conjugating the
    block matrix with P; used to cross-check ``ternarization_matrix``."""
    block = IntMatrix3(
        (
            (matrix.p0, matrix.q0, b0),
            (matrix.p1, matrix.q1, b1),
            (0, 0, matrix.det),
        )
    )
    return _P_BLOCK @ block @ _P_BLOCK.inverse_unimodular()


def _conditions_ab(matrix: IntMatrix2, b0: int, b1: int) -> bool:
    delta = matrix.det
    if abs(b0 * (matrix.p1 + matrix.q1) - b1 * (matrix.p0 + matrix.q0)) >= matrix.norm:
        return False
    lo = (1 - delta) // 2
    hi = min(matrix.p, matrix.q) - (delta + 1) // 2
    return lo <= b0 + b1 <= hi


def ternarization_matrices(
    matrix: IntMatrix2,
) -> Iterator[tuple[int, int, IntMatrix3]]:
    """All (b0, b1, B) with non-negative B passing conditions (a), (b)."""
    _require_unimodular(matrix)
    for b0 in range(min(matrix.p0, matrix.q0) + 1):
        for b1 in range(min(matrix.p1, matrix.q1) + 1):
            if _conditions_ab(matrix, b0, b1):
                yield b0, b1, ternarization_matrix(matrix, b0, b1)


@dataclass(frozen=True)
class ClassificationWitness:
    """Parameters (A, b0, b1, delta) realising a 3x3 matrix as a
    ternarization incidence matrix."""

    matrix: IntMatrix2
    b0: int
    b1: int
    delta: int


def classify_matrix3(candidate: IntMatrix3) -> ClassificationWitness | None:
    """Read off (A, b0, b1, delta) from a non-negative 3x3 matrix and
    accept exactly when the block shape and conditions (a), (b) hold."""
    if not candidate.is_nonnegative:
        raise DomainError("classification expects a non-negative matrix")
    b0 = candidate[0][1]
    b1 = candidate[2][1]
    b = candidate[1][1]
    delta = b - b0 - b1
    if delta not in (-1, 1):
        return None
    matrix = IntMatrix2(
        candidate[0][0] + b0,
        candidate[0][2] + b0,
        candidate[2][0] + b1,
        candidate[2][2] + b1,
    )
    if matrix.det != delta:
        return None
    if candidate[1][0] != matrix.p - b or candidate[1][2] != matrix.q - b:
        return None
    if not _conditions_ab(matrix, b0, b1):
        return None
    return ClassificationWitness(matrix, b0, b1, delta)


def e_condition(candidate: IntMatrix3) -> int | None:
    """Sign s with ``candidate @ E @ candidate^T == s*E``, if any."""
    product = candidate @ E_MATRIX @ candidate.transpose()
    if product == E_MATRIX:
        return 1
    if product == -E_MATRIX:
        return -1
    return None


@dataclass(frozen=True)
class ProbeRecord:
    label: str
    morphism: Morphism
    outcome: TernarizationMembership

    @property
    def member(self) -> bool:
        return self.outcome.member


@dataclass(frozen=True)
class ProbeReport:
    eta: Morphism
    records: tuple[ProbeRecord, ...]

    def members(self) -> tuple[ProbeRecord, ...]:
        return tuple(r for r in self.records if r.member)


def conjecture_probe(eta: Morphism) -> ProbeReport:
    """Test ``eta`` and its companion composites for membership in the
    ternarization monoid.

    Candidates: eta itself, its square, and its compositions with the
    A<->C swap and the Fibonacci ternarization (in that order and
    combined).  Evidence only -- a fully negative report proves nothing.
    """
    candidates = (
        ("eta", eta),
        ("eta^2", compose(eta, eta)),
        ("eta*ac_swap", compose(eta, AC_SWAP)),
        ("eta*fib_ternary", compose(eta, FIBONACCI_TERNARY)),
        ("eta*ac_swap*fib_ternary", compose(eta, compose(AC_SWAP, FIBONACCI_TERNARY))),
    )
    records = tuple(
        ProbeRecord(label, candidate, ternarization_membership(candidate))
        for label, candidate in candidates
    )
    return ProbeReport(eta, records)
