"""Amicability of binary words and Sturmian morphisms, and ternarization.

A ternary word projects to two binary words through ``sigma01`` (A->0,
B->01, C->1) and ``sigma10`` (A->0, B->10, C->1).  Two binary words are
amicable when they arise as the two projections of a common ternary word
that is a factor of a 3iet word; that ternary word -- their
ternarization -- is unique and is recovered here by a single synchronous
scan.  Lifting the construction letterwise to Sturmian morphisms yields
ternary morphisms that preserve the set of 3iet words.

Finite surrogate used throughout: a binary word is accepted as a factor
of some 3iet-projected word exactly when it is balanced; prefix-scale
Sturmian behaviour additionally demands factor complexity m+1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    AlphabetError,
    DegenerateParametersError,
    DomainError,
    NotAmicableError,
)
from .iet import ThreeIET, is_nondegenerate_params, three_iet_code
from .morphisms import Morphism, is_sturmian_morphism
from .quadratic import QuadNumber
from .words import Alphabet, FiniteWord, is_balanced

# the image of B under each projection; A (0) maps to 0 and C (2) to 1
_SIGMA_B = {"01": b"\x00\x01", "10": b"\x01\x00"}


def sigma(word: FiniteWord, which: str) -> FiniteWord:
    """Project a ternary word to a binary one; ``which`` selects whether
    B maps to 01 or to 10."""
    if word.alphabet is not Alphabet.TERNARY:
        raise AlphabetError("sigma projections act on ternary words")
    try:
        image_b = _SIGMA_B[which]
    except KeyError:
        raise ValueError(f"projection must be '01' or '10', got {which!r}") from None
    return FiniteWord(
        Alphabet.BINARY, word.letters.replace(b"\x01", image_b).replace(b"\x02", b"\x01")
    )


@dataclass(frozen=True)
class AmicabilityWitness:
    """The ternarization of an amicable pair of words and its B-count."""

    v: FiniteWord
    b: int


def ternarize_words(word: FiniteWord, other: FiniteWord) -> AmicabilityWitness:
    """Recover the unique ternary word projecting to ``word`` / ``other``.

    The scan emits A where both words carry 0, C where both carry 1, and
    consumes a 01-against-10 block as a single B.  Any other mismatch,
    or else an unbalanced input, means the words are not amicable and
    raises :class:`NotAmicableError`; the scan's reason comes first.
    """
    if word.alphabet is not Alphabet.BINARY or other.alphabet is not Alphabet.BINARY:
        raise AlphabetError("amicability is defined for binary words")
    v = _scan(word.letters, other.letters)
    if not is_balanced(word):
        raise NotAmicableError(f"left word {word} is not balanced")
    if not is_balanced(other):
        raise NotAmicableError(f"right word {other} is not balanced")
    return AmicabilityWitness(FiniteWord(Alphabet.TERNARY, v), v.count(1))


def _scan(left: bytes, right: bytes) -> bytes:
    """The synchronous scan of two binary letter strings: A for 0/0, C
    for 1/1 and B for a 01-against-10 block; any other mismatch raises
    :class:`NotAmicableError`.  Balance is the caller's to check."""
    if len(left) != len(right):
        raise NotAmicableError(
            f"words of different lengths {len(left)} and {len(right)}"
        )
    out = bytearray()
    i, n = 0, len(left)
    while i < n:
        x, y = left[i], right[i]
        if x == y:
            out.append(0 if x == 0 else 2)
            i += 1
            continue
        if x == 1:
            raise NotAmicableError(f"mismatch 1 against 0 at position {i}")
        if i + 1 == n:
            raise NotAmicableError(f"unpaired 01/10 block at final position {i}")
        if left[i + 1] != 1 or right[i + 1] != 0:
            raise NotAmicableError(f"broken 01/10 block at position {i}")
        out.append(1)
        i += 2
    return bytes(out)


def _letters_int(letters: bytes) -> int:
    """A binary letter string as one integer, letter ``i`` at bit ``8*i``:
    the input of :func:`_scan_b`."""
    return int.from_bytes(letters, "little")


def _scan_b(x: int, y: int) -> int | None:
    """The decision of :func:`_scan` on two binary letter strings read by
    :func:`_letters_int`: the B-count when the scan succeeds, else None.

    The two strings must have equal length; the scan rejects any other
    pair before looking at a letter, and this test does not.  The scan
    succeeds exactly when every 0-against-1 position is followed by a
    1-against-0 one and every 1-against-0 position is preceded by a
    0-against-1 one: each such pair is one B.  An unpaired final block
    shifts a bit beyond the last letter, where ``x & ~y`` has none.
    """
    blocks = ~x & y
    if x & ~y != blocks << 8:
        return None
    return blocks.bit_count()


def amicable_words_b(word: FiniteWord, other: FiniteWord) -> int | None:
    """B-count of the ternarization when the words are amicable, else None."""
    try:
        return ternarize_words(word, other).b
    except NotAmicableError:
        return None


def amicable_morphisms(
    phi: Morphism, psi: Morphism
) -> tuple[int, int, int] | None:
    """B-counts ``(b0, b1, b)`` of the three defining ternarizations when
    ``phi`` is amicable to ``psi``, else ``None``.

    Both arguments are assumed Sturmian; the relation requires
    ``phi(0) ~ psi(0)``, ``phi(01) ~ psi(10)`` and ``phi(1) ~ psi(1)``.
    """
    try:
        return b_counts(ternarize_morphisms(phi, psi))
    except NotAmicableError:
        return None


def ternarize_morphisms(phi: Morphism, psi: Morphism) -> Morphism:
    """The ternary morphism with images ``ter(phi(0), psi(0))``,
    ``ter(phi(01), psi(10))`` and ``ter(phi(1), psi(1))``.

    Both arguments must be Sturmian.  A Sturmian morphism maps ``0``,
    ``1`` and ``01`` to balanced words (Lothaire, *Algebraic
    Combinatorics on Words*, ch. 2), so balance is not tested again
    here: only the three scans run.  Raises :class:`NotAmicableError`
    when any of them fails.  The image of B is scanned last, so a pair
    rejected on A or C never builds ``phi(01)`` and ``psi(10)``.
    """
    if phi.alphabet is not Alphabet.BINARY or psi.alphabet is not Alphabet.BINARY:
        raise AlphabetError("amicability is defined for binary morphisms")
    (phi0, phi1), (psi0, psi1) = phi.images, psi.images
    image_a = _scan(phi0.letters, psi0.letters)
    image_c = _scan(phi1.letters, psi1.letters)
    image_b = _scan(phi0.letters + phi1.letters, psi1.letters + psi0.letters)
    return Morphism(
        Alphabet.TERNARY,
        tuple(FiniteWord(Alphabet.TERNARY, v) for v in (image_a, image_b, image_c)),
    )


def b_counts(eta: Morphism) -> tuple[int, int, int]:
    """``(b0, b1, b)`` of a ternarization ``eta``: the number of B
    letters in ``eta(A)``, ``eta(C)`` and ``eta(B)``."""
    image_a, image_b, image_c = eta.images
    return image_a.count(1), image_c.count(1), image_b.count(1)


@dataclass(frozen=True)
class AmicablePair:
    """An ordered amicable pair with its ternarization and indices.

    ``k`` and ``kbar`` are the rotation indices of ``phi`` and ``psi``;
    ``b = b0 + b1 + det`` ties the three B-counts to the determinant of
    the shared incidence matrix.
    """

    phi: Morphism
    psi: Morphism
    eta: Morphism
    b0: int
    b1: int
    b: int
    k: int
    kbar: int


@dataclass(frozen=True)
class TernarizationMembership:
    """Outcome of testing whether a ternary morphism is a ternarization."""

    member: bool
    phi: Morphism | None
    psi: Morphism | None
    reason: str | None


def ternarization_membership(eta: Morphism) -> TernarizationMembership:
    """Decide membership of ``eta`` in the ternarization monoid.

    The two projection identities ``sigma01(eta(B)) == sigma01(eta(AC))``
    and ``sigma10(eta(B)) == sigma10(eta(CA))`` are checked first; the
    candidate pair read off the images of A and C must then be Sturmian.
    The first failure is reported verbatim.

    Amicability of the pair needs no further check.  Under the two
    identities ``phi(01)`` and ``psi(10)`` are ``sigma01`` and
    ``sigma10`` of the one word ``eta(B)``, as ``phi(0)``/``psi(0)`` are
    of ``eta(A)`` and ``phi(1)``/``psi(1)`` of ``eta(C)``.  The scan of
    the two projections of a ternary word always succeeds once both are
    balanced, and gives that word back; and a Sturmian morphism maps
    ``0``, ``1`` and ``01`` to balanced words.  So ``phi`` is amicable
    to ``psi`` with ternarization ``eta``.
    """
    if eta.alphabet is not Alphabet.TERNARY:
        raise AlphabetError("ternarization membership is for ternary morphisms")
    if not eta.is_nonerasing:
        raise NotAmicableError("erasing morphism cannot be a ternarization")
    img_a, img_b, img_c = eta.images

    def fail(reason: str) -> TernarizationMembership:
        return TernarizationMembership(False, None, None, reason)

    b01, ac01 = sigma(img_b, "01"), sigma(img_a + img_c, "01")
    if b01 != ac01:
        return fail(f"sigma01(B)={b01} != {ac01}")
    b10, ca10 = sigma(img_b, "10"), sigma(img_c + img_a, "10")
    if b10 != ca10:
        return fail(f"sigma10(B)={b10} != {ca10}")
    phi = Morphism(Alphabet.BINARY, (sigma(img_a, "01"), sigma(img_c, "01")))
    psi = Morphism(Alphabet.BINARY, (sigma(img_a, "10"), sigma(img_c, "10")))
    if not is_sturmian_morphism(phi):
        return fail(f"recovered first morphism {phi} is not Sturmian")
    if not is_sturmian_morphism(psi):
        return fail(f"recovered second morphism {psi} is not Sturmian")
    return TernarizationMembership(True, phi, psi, None)


def is_ternarization(eta: Morphism) -> tuple[Morphism, Morphism] | None:
    """The recovered amicable pair when ``eta`` is a ternarization."""
    outcome = ternarization_membership(eta)
    if not outcome.member:
        return None
    return outcome.phi, outcome.psi


@dataclass(frozen=True)
class PreservationResult:
    ok: bool
    detail: str | None


def _sturmian_prefix_violation(word: FiniteWord, kmax: int) -> str | None:
    """First reason ``word`` fails the finite Sturmian test, if any:
    balance plus factor complexity m+1 for 1 <= m <= kmax.

    A balanced word has at most one right special factor of each length
    (Lothaire, *Algebraic Combinatorics on Words*, ch. 2), so
    ``p(m+1) <= p(m) + 1``; with ``p(0) == 1``, ``p(kmax) == kmax + 1``
    then forces ``p(m) == m + 1`` for every ``m <= kmax``.  The same fact
    gives ``p(m) <= m + 1``, so each count stops at its ``m + 1``-th
    distinct factor.  Only a failing word is walked length by length, to
    name the first ``m``; it reads all its factors at that ``m`` alone.
    """
    if not is_balanced(word):
        return "projection is not balanced"
    letters = word.letters
    if _factor_count(letters, kmax) == kmax + 1:
        return None
    m = 1  # stops at m = kmax at the latest
    while (c := _factor_count(letters, m)) == m + 1:
        m += 1
    return f"complexity {c} at factor length {m}, expected {m + 1}"


def _factor_count(letters: bytes, m: int) -> int:
    """``min(p(m), m + 1)`` for the letter string of a word: the distinct
    length-``m`` factors, read left to right until there are ``m + 1``."""
    seen = set()
    for i in range(len(letters) - m + 1):
        seen.add(letters[i : i + m])
        if len(seen) > m:
            break
    return len(seen)


def check_3iet_preservation(
    eta: Morphism,
    transform: ThreeIET,
    x0: QuadNumber,
    n: int = 1000,
    kmax: int = 20,
) -> PreservationResult:
    """Empirical prefix-scale test that ``eta`` maps a 3iet word to a
    3iet word.

    Codes the length-``n`` orbit prefix, applies ``eta``, and requires
    both binary projections of the image to be balanced with factor
    complexity m+1 up to ``kmax``.  Degenerate parameters, a negative
    ``kmax`` and ``n < 2*kmax`` are rejected outright: a balanced word of
    length ``L`` has ``p(kmax) <= L - kmax + 1``, so a projection (at
    least ``n`` letters long) shorter than ``2*kmax`` fails whatever
    ``eta`` is.
    """
    if kmax < 0:
        raise DomainError(f"kmax must be non-negative, got {kmax}")
    if n < 2 * kmax:
        raise DomainError(f"n must be at least 2*kmax = {2 * kmax}, got {n}")
    if not is_nondegenerate_params(transform):
        raise DegenerateParametersError(
            "parameters are degenerate: (1-alpha)/(1+beta) is rational"
        )
    prefix = three_iet_code(transform, x0, n)
    image = eta(prefix)
    for which in ("01", "10"):
        violation = _sturmian_prefix_violation(sigma(image, which), kmax)
        if violation is not None:
            return PreservationResult(False, f"sigma{which}: {violation}")
    return PreservationResult(True, None)
