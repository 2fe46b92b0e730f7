"""Counting and matrix-level structure of ternarizations.

For a non-negative matrix A with determinant +-1 there are exactly

    m*(norm(A) - 1) + m*(det(A) - m)/2,    m = min(p0+p1, q0+q1)

ordered amicable pairs of Sturmian morphisms with incidence matrix A,
refined per B-count b by ``formula_b_counts``.  ``brute_force_pairs``
re-derives the same set by testing, within the conjugation chain, every
candidate the bit identity ``x - y == ~x & y`` of the scan could accept,
which keeps the closed formulas honest: ``x - y`` is then made of 0s of
``x`` just below a 1, so ``y`` lies in ``[x - (~x & x >> 1), x]``.

A 3x3 non-negative matrix is the incidence matrix of a ternarization
exactly when it has the block shape produced by ``ternarization_matrix``
for parameters passing conditions (a) and (b) of ``classify_matrix3``.
All such matrices also satisfy ``B*E*B^T = +-E``; the converse fails,
witnessed by the permutation matrix swapping A and C.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from typing import Iterator

from ._value import Value
from .amicability import (
    _letters_int,
    AmicablePair,
    ternarization_membership,
    ternarize_morphisms,
    TernarizationMembership,
)
from .errors import (
    DomainError,
    InfeasibleMatrixError,
    MatrixDecompositionError,
    _require_range,
)
from .morphisms import (
    _binary_morphism,
    _chain_indices,
    _require_matrix,
    _require_unimodular,
    _standard_images,
    IntMatrix2,
    IntMatrix3,
    Morphism,
    compose,
)
from .words import _rotated, parikh

E_MATRIX = IntMatrix3(((0, 1, 1), (-1, 0, 1), (-1, -1, 0)))

# the A<->C letter exchange and the ternarization of the Fibonacci
# morphism 0->01, 1->0 with its right conjugate 0->10, 1->0; composing
# with these two is what the membership probe exercises
AC_SWAP = Morphism.parse("A->C,B->B,C->A")
FIBONACCI_TERNARY = Morphism.parse("A->B,B->ACA,C->A")

# a classical 3iet-preserving morphism that is not a ternarization of
# any Sturmian pair: the ternarization monoid is a proper sub-monoid of
# the preserving one
PRESERVING_NONMEMBER = Morphism.parse("A->B,B->CAC,C->C")


# the largest norm N of a matrix whose amicable pairs are brute-forced
# (``pairs --matrix``): up to about N*N/2 pairs, each with a ternarization
# of about N letters, built as it is printed.  On a shared 2-core x86-64
# host ``pairs --matrix 124,125;125,126`` (norm 500, the most pairs there)
# takes 5.8 s and 39 MB in a fresh process, and prints 180 MB
MAX_PAIRS_NORM = 500


def unimodular_matrices(max_norm: int) -> Iterator[IntMatrix2]:
    """All non-negative matrices with determinant +-1 and norm at most
    ``max_norm``, in a fixed deterministic order."""
    for norm in range(2, max_norm + 1):
        for p0 in range(norm + 1):
            # det = p0*rest - (p0+q0)*p1 is 1 or -1 for at most two p1,
            # det 1 at the smaller; it is 0 if the first row is zero
            for q0 in range(p0 == 0, norm - p0 + 1):
                rest = norm - p0 - q0
                for target in (p0 * rest - 1, p0 * rest + 1):
                    p1, remainder = divmod(target, p0 + q0)
                    if remainder == 0 and 0 <= p1 <= rest:
                        yield IntMatrix2(p0, q0, p1, rest - p1)


def count_formula_total(matrix: IntMatrix2) -> int:
    """Closed-form number of ordered amicable pairs with this matrix."""
    _require_unimodular(matrix)
    m = min(matrix.p, matrix.q)
    # even: with det = +-1 this is +-m*(m -+ 1), two consecutive integers
    correction = m * (matrix.det - m)
    return m * (matrix.norm - 1) + correction // 2


def formula_b_counts(matrix: IntMatrix2) -> Counter[int]:
    """Closed-form number of ordered amicable pairs with this matrix per
    B-count: ``norm - 1 + det - b`` for each b in ``[1, m]`` at
    determinant 1 and in ``[0, m - 1]`` at determinant -1, where
    ``m = min(p, q)``."""
    _require_unimodular(matrix)
    norm, det = matrix.norm, matrix.det
    lo = (1 + det) // 2
    # unary + drops the one zero count, that of b = 0 for 0,1;1,0
    return +Counter({b: norm - 1 + det - b for b in range(lo, lo + min(matrix.p, matrix.q))})


def count_formula_b(matrix: IntMatrix2, b: int) -> int:
    """Closed-form number of ordered b-amicable pairs with this matrix."""
    return formula_b_counts(matrix)[b]


def _packed(x0: int, x1: int, n0: int, n1: int) -> tuple[int, int]:
    """A morphism's images of 0 and 1, read by ``_letters_int`` with
    ``n0`` and ``n1`` letters, packed as the left and the right member of
    a candidate pair: the image of 01 (left) or 10 (right), then those
    of 0 and 1, each field followed by a zero guard bit.  The test of
    :func:`_accepted_sets` on the two packed integers is then the pair's
    three scans at once, as an unpaired final block shifts its bit into
    its own field's guard bit; :func:`_labelled` reads each field's B-count."""
    fields = x0 << (n0 + n1 + 1) | x1 << (2 * n0 + n1 + 2)
    return x0 | x1 << n0 | fields, x1 | x0 << n1 | fields


def _packed_chain(
    matrix: IntMatrix2, left: bytes, right: bytes
) -> tuple[list[int], list[int]]:
    """The :func:`_packed` left and right members of every Sturmian
    morphism with this matrix, in chain order, from its standard pair
    ``left, right`` alone.

    Each later morphism rotates both images by their shared first letter,
    which shifts every packed field down one bit: the letter leaves the
    bottom of each field for the bit below, and must enter at its top.
    For a 0 that is the plain shift.  For a 1 it is the shift with the
    five ``carry`` bits flipped: the top bits of the three fields, which
    the shift filled from a guard bit or from above the last field, and
    the two guard bits, which it filled from a field.  The chain ends at
    the first morphism whose images start with different letters, within
    ``norm`` morphisms as ``morphisms._sturmian_images`` checks.
    """
    norm, n0 = matrix.norm, len(left)
    x, y = _packed(_letters_int(left), _letters_int(right), n0, len(right))
    carry = 3 << norm - 1 | 3 << norm + n0 | 1 << 2 * norm + 1
    lefts, rights = [], []
    for _ in range(norm):
        lefts.append(x)
        rights.append(y)
        # the first letters of the images of 0 and 1: bits 0 and n0 of x
        if (x ^ x >> n0) & 1:
            return lefts, rights
        if x & 1:
            x, y = x >> 1 ^ carry, y >> 1 ^ carry
        else:
            x, y = x >> 1, y >> 1
    raise MatrixDecompositionError(f"conjugation chain for {matrix} exceeded expected length")


def _accepted_sets(lefts: list[int], rights: list[int], width: int) -> list[list[int]]:
    """For each left member ``x``, the set ``d = x - y`` of each right
    member ``y`` it accepts, in decreasing order of ``d``; all members are
    below ``2**width``.  Read by ``amicability._letters_int``, two binary
    letter strings of one length pass their scan exactly when each
    0-against-1 position is followed by a 1-against-0 one and each
    1-against-0 one is preceded by a 0-against-1 one, a pair per B: when
    ``x & ~y == (~x & y) << 1`` (an unpaired final block shifts a bit past
    the last letter), that is ``x - y == ~x & y``, the test here.  Then
    ``d`` is the set of B positions, each a 0 of ``x`` just below a 1, so
    a subset of ``~x & (x >> 1)``: only the right members in the window
    ``[x - (~x & x >> 1), x]`` are tested.
    """
    ordered = sorted(rights)
    # ~x on the width bits, where & is faster than with ~x
    full = (1 << width) - 1
    accepted = []
    for x in lefts:
        nx = x ^ full
        window = ordered[bisect_left(ordered, x - (nx & x >> 1)):bisect_right(ordered, x)]
        accepted.append([d for y in window if (d := x - y) == nx & y])
    return accepted


def _accepted(
    matrix: IntMatrix2,
) -> tuple[list[int], list[int], list[list[int]], tuple[bytes, bytes]]:
    """The :func:`_packed_chain` left and right members of this matrix, in
    chain order, their :func:`_accepted_sets` and the standard pair they
    are built from.  A matrix that is not unimodular, and then a norm
    above :data:`MAX_PAIRS_NORM`, is rejected before any letter is built."""
    _require_matrix(matrix, MAX_PAIRS_NORM)
    standard = _standard_images(matrix)
    lefts, rights = _packed_chain(matrix, *standard)
    return lefts, rights, _accepted_sets(lefts, rights, 2 * matrix.norm + 2), standard


def _labelled(matrix: IntMatrix2) -> tuple[list[Morphism], list[tuple[int, ...]]]:
    """The chain's morphisms, each built once by ``words._rotated``, and
    the label ``(k, kbar, j, i, b0, b1, b)`` of each ordered amicable pair
    with this matrix, sorted by (k, kbar): its indices, the chain places of
    ``psi`` and ``phi`` and its B-counts, the bit counts of the fields of
    its B-position set ``d = x - y`` (see :func:`_packed`).  No pair is
    built: :func:`_pair` builds one."""
    lefts, rights, accepted, standard = _accepted(matrix)
    norm, n0 = matrix.norm, len(standard[0])
    # in d, the image of 01 is bits [0, N), that of 0 bits [N+1, N+1+n0)
    # and that of 1 every bit from N+n0+2 on
    m01, m0, s1 = (1 << norm) - 1, (1 << n0) - 1 << norm + 1, norm + n0 + 2
    ks = _chain_indices(matrix, standard, len(lefts))
    columns = {y: (kbar, j) for j, (kbar, y) in enumerate(zip(ks, rights))}
    # k is one-to-one on the chain places, so this sort never compares
    # two places and the pairs come out in (k, kbar) order
    labels = sorted(
        (k, *columns[x - d], i, (d & m0).bit_count(), (d >> s1).bit_count(), (d & m01).bit_count())
        for i, (k, x, ds) in enumerate(zip(ks, lefts, accepted))
        for d in ds
    )
    chain = [_binary_morphism(_rotated(standard, i)) for i in range(len(lefts))]
    return chain, labels


def _pair(chain: list[Morphism], *label: int) -> AmicablePair:
    """The pair of a :func:`_labelled` label: ``eta`` from the scan, which
    raises on a pair that is not amicable, and the label's B-counts."""
    k, kbar, j, i, b0, b1, b = label
    phi, psi = chain[i], chain[j]
    eta = ternarize_morphisms(phi, psi)
    return AmicablePair(phi=phi, psi=psi, eta=eta, b0=b0, b1=b1, b=b, k=k, kbar=kbar)


def brute_force_pairs(matrix: IntMatrix2) -> tuple[AmicablePair, ...]:
    """Every ordered amicable pair drawn from the full enumeration of
    Sturmian morphisms with this matrix, sorted by (k, kbar): each
    :func:`_labelled` label built by :func:`_pair`, so each pair is
    decided by the scan's bit test alone, independent of the formulas."""
    chain, labels = _labelled(matrix)
    return tuple(_pair(chain, *label) for label in labels)


def brute_force_b_counts(matrix: IntMatrix2) -> Counter[int]:
    """The number of ordered amicable pairs with this matrix per B-count,
    the pairs of :func:`brute_force_pairs`, building no morphism and
    indexing none: the B-count of an accepted pair is that of the bits
    ``[0, norm)`` of its B-position set ``x - y``, the ``b`` of its
    :func:`_labelled` label, read here at under a third of that cost."""
    accepted = _accepted(matrix)[2]
    mask = (1 << matrix.norm) - 1
    return Counter([(d & mask).bit_count() for ds in accepted for d in ds])


def ternarization_matrix(matrix: IntMatrix2, b0: int, b1: int) -> IntMatrix3:
    """The 3x3 incidence matrix determined by (A, b0, b1):

        [[p0-b0, b0, q0-b0],
         [p-b,   b,  q-b  ],
         [p1-b1, b1, q1-b1]]   with b = b0 + b1 + det(A).

    Equals P * [[A, (b0; b1)], [0 0 det]] * P^-1 for the change of basis
    P = [[1, 0, 0], [1, 1, 1], [0, 1, 0]]; any negative entry means the
    parameters are infeasible.
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


class ClassificationWitness(Value):
    """Parameters (A, b0, b1, delta) realising a 3x3 matrix as a
    ternarization incidence matrix."""

    __slots__ = ("matrix", "b0", "b1", "delta")
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


class ProbeRecord(Value):
    __slots__ = ("label", "morphism", "outcome")
    label: str
    morphism: Morphism
    outcome: TernarizationMembership

    @property
    def member(self) -> bool:
        return self.outcome.member


class ProbeReport(Value):
    __slots__ = ("eta", "records")
    eta: Morphism
    records: tuple[ProbeRecord, ...]

    def members(self) -> tuple[ProbeRecord, ...]:
        return tuple(r for r in self.records if r.member)


# the most letters in the images of the candidates of ``conjecture_probe``,
# about the square of the length of ``eta``.  On a 2-core x86-64 host
# ``probe --eta "A->A^5474,B->B,C->C"`` (29 997 532 letters) takes 0.8 s
# and 0.30 GB in a fresh process, and the 17th power of
# ``FIBONACCI_TERNARY`` (3.7e7 letters, three members) 2.3 s and 0.40 GB
MAX_PROBE_LETTERS = 3 * 10**7


def conjecture_probe(eta: Morphism) -> ProbeReport:
    """Test ``eta`` and its companion composites for membership in the
    ternarization monoid.

    Candidates: eta itself, its square, and its compositions with the
    A<->C swap and the Fibonacci ternarization (in that order and
    combined).  Evidence only -- a fully negative report proves nothing.
    More than :data:`MAX_PROBE_LETTERS` letters in their images, counted
    from the lengths of those of ``eta``, are rejected before composing.
    """
    inners = (
        ("eta", Morphism.identity(eta.alphabet)),
        ("eta^2", eta),
        ("eta*ac_swap", AC_SWAP),
        ("eta*fib_ternary", FIBONACCI_TERNARY),
        ("eta*ac_swap*fib_ternary", compose(AC_SWAP, FIBONACCI_TERNARY)),
    )
    lengths = [len(image) for image in eta.images]
    # |eta(g(a))| is the sum over b of |eta(b)| times the count of b in g(a)
    letters = sum(
        count * length
        for _, inner in inners
        for image in inner.images
        for count, length in zip(parikh(image), lengths)
    )
    _require_range(letters, 0, MAX_PROBE_LETTERS, "letters in the probe candidates")
    candidates = tuple((label, compose(eta, inner)) for label, inner in inners)
    records = tuple(
        ProbeRecord(label, candidate, ternarization_membership(candidate))
        for label, candidate in candidates
    )
    return ProbeReport(eta, records)
