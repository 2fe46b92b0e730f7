"""Amicability of binary words and Sturmian morphisms, and ternarization.

A ternary word projects to two binary words through ``sigma01`` (A->0,
B->01, C->1) and ``sigma10`` (A->0, B->10, C->1), each one whole-word
substitution.  Two binary words are amicable when they arise as the two
projections of a common ternary word that is a factor of a 3iet word;
that ternary word -- their ternarization -- is unique and is recovered
by a synchronous scan, decided on the words read as integers by one bit
identity.  Lifting the construction letterwise to Sturmian morphisms
yields ternary morphisms that preserve the set of 3iet words.

Preservation is witnessed at prefix scale: each projection of the image
of a 3iet coding must be a factor of a Sturmian word of the slope that
the morphism predicts, decided by the run-length derivation of
:mod:`words` with the slope's partial quotients (Lothaire, *Algebraic
Combinatorics on Words*, ch. 2).  Balance alone would accept a factor of
any slope.  The projections of a conjugation chain of morphisms are
rotations of one another, so one exact test of a word that holds them
all as factors decides the whole chain when it passes: a factor of a
Sturmian factor of a slope is one too.
"""

from __future__ import annotations

import math
from typing import Callable

from ._value import Value
from .errors import (
    AlphabetError,
    DegenerateParametersError,
    NotAmicableError,
    _require_range,
)
from .iet import MAX_CODING_LENGTH, ThreeIET, is_nondegenerate_params, three_iet_code
from .morphisms import Morphism, is_sturmian_morphism
from .quadratic import QuadNumber, _partial_quotients
from .words import Alphabet, FiniteWord, _is_sturmian_factor, _substitute, is_balanced

# the letter images of each projection: A to 0, B to 01 or 10, C to 1
_SIGMA = {"01": (b"\x00", b"\x00\x01", b"\x01"), "10": (b"\x00", b"\x01\x00", b"\x01")}

# a projection of ``eta(prefix)`` has at most ``n`` times as many letters
# as the longest projected letter image of ``eta`` (``|sigma(eta(x))|``),
# and a preservation check is bounded by that count.  A verdict is linear
# in it: the slowest inputs found at the cap take 0.2 s on a 2-core x86-64
# host, the identity at ``-n 1000000`` passing and ``A->AAB,B->AAB,C->AAAC``
# at ``-n 500000`` failing on its rational slope
MAX_PROJECTION_LETTERS = 2 * 10**6


def sigma(word: FiniteWord, which: str) -> FiniteWord:
    """Project a ternary word to a binary one; ``which`` selects whether
    B maps to 01 or to 10."""
    if word.alphabet is not Alphabet.TERNARY:
        raise AlphabetError("sigma projections act on ternary words")
    try:
        images = _SIGMA[which]
    except KeyError:
        raise ValueError(f"projection must be '01' or '10', got {which!r}") from None
    return FiniteWord(Alphabet.BINARY, _substitute(word.letters, images))


class AmicabilityWitness(Value):
    """The ternarization of an amicable pair of words and its B-count."""

    __slots__ = ("v", "b")
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
    :class:`NotAmicableError`.  Balance is the caller's to check.  The
    identity of :func:`_scan_b`, read at one byte per letter, puts the
    first mismatch at the lowest bit of ``bad``, and the letterwise sums
    spell the ternarization with each B doubled."""
    n = len(left)
    if n != len(right):
        raise NotAmicableError(f"words of different lengths {n} and {len(right)}")
    x, y = int.from_bytes(left, "little"), int.from_bytes(right, "little")
    closers = x & ~y
    bad = closers ^ (~x & y) << 8
    if bad:
        low = bad & -bad
        i = (low.bit_length() - 1) // 8
        if closers & low:
            raise NotAmicableError(f"mismatch 1 against 0 at position {i}")
        if i == n:
            raise NotAmicableError(f"unpaired 01/10 block at final position {i - 1}")
        raise NotAmicableError(f"broken 01/10 block at position {i - 1}")
    return (x + y).to_bytes(n, "little").replace(b"\x01\x01", b"\x01")


def _letters_int(letters: bytes) -> int:
    """A binary letter string as one integer, letter ``i`` at bit ``i``:
    the input of :func:`_scan_b`.  The string ``a + b`` reads as
    ``_letters_int(a) | _letters_int(b) << len(a)``."""
    return int(letters[::-1].translate(Alphabet.BINARY.char_table) or b"0", 2)


def _scan_b(x: int, y: int) -> int | None:
    """The decision of :func:`_scan` on two binary letter strings read by
    :func:`_letters_int`: the B-count when the scan succeeds, else None.

    The two strings must have equal length; the scan rejects any other
    pair before looking at a letter, and this test does not.  The scan
    succeeds exactly when every 0-against-1 position is followed by a
    1-against-0 one and every 1-against-0 position is preceded by a
    0-against-1 one: each such pair is one B.  That is, ``~x & y``
    shifted by one is ``x & ~y`` (an unpaired final block shifts a bit
    beyond the last letter), or ``x - y == ~x & y``, as ``x - y`` is
    ``(x & ~y) - (~x & y)``.
    """
    blocks = ~x & y
    if x - y != blocks:
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


class AmicablePair(Value):
    """An ordered amicable pair with its ternarization and indices.

    ``k`` and ``kbar`` are the rotation indices of ``phi`` and ``psi``;
    ``b = b0 + b1 + det`` ties the three B-counts to the determinant of
    the shared incidence matrix.
    """

    __slots__ = ("phi", "psi", "eta", "b0", "b1", "b", "k", "kbar")
    phi: Morphism
    psi: Morphism
    eta: Morphism
    b0: int
    b1: int
    b: int
    k: int
    kbar: int


class TernarizationMembership(Value):
    """Outcome of testing whether a ternary morphism is a ternarization."""

    __slots__ = ("member", "phi", "psi", "reason")
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


class PreservationResult(Value):
    __slots__ = ("ok", "detail")
    ok: bool
    detail: str | None


def check_3iet_preservation(
    eta: Morphism,
    transform: ThreeIET,
    x0: QuadNumber,
    n: int = 1000,
) -> PreservationResult:
    """Prefix-scale test that ``eta`` maps a 3iet word to a 3iet word.

    Codes the length-``n`` orbit prefix ``u`` and requires each binary
    projection of ``eta(u)`` to be a factor of a Sturmian word of the
    slope ``eta`` predicts for it.  A 3iet word's projections are such
    words, so the test is necessary, not sufficient: it does not see how
    the two fit together.  A morphism whose images miss a letter fails
    first, as a non-degenerate coding has all three.  A binary ``eta``,
    degenerate parameters and projections past their letter caps are
    rejected before any letter is coded.
    """
    if eta.alphabet is not Alphabet.TERNARY:
        raise AlphabetError("3iet preservation is for ternary morphisms")
    longest = max(len(image) + image.count(1) for image in eta.images)
    return _preservation_checker(transform, x0, n, longest)(eta)


def _preservation_checker(
    transform: ThreeIET, x0: QuadNumber, n: int, longest: int
) -> Callable[[Morphism], PreservationResult]:
    """:func:`check_3iet_preservation` as a function of ``eta``, coding the
    prefix once and deciding each conjugation chain of projections once.

    A projection of ``eta(prefix)`` is fixed by the projections of the
    three images of ``eta``, so those short words key the verdicts and,
    substituted into the prefix, give a projection not decided yet.  They
    fix its predicted slope too: a coding's letters have the frequencies
    ``lambda = (alpha, beta, 1 - alpha - beta)``, so ``1`` has the
    frequency ``sum(lambda_a * ones(key_a)) / sum(lambda_a *
    len(key_a))``.

    Rotating each image of a key by their common first letter rotates its
    projection ``s`` by one letter, to ``s[1:] + s[:1]``, and keeps the
    slope.  So a new key is first looked up in its conjugation chain
    (:func:`_chain` from :func:`_chain_start`): the ``r`` keys after the
    chain's first, of projection ``s``, project to factors of ``s +
    s[:r]``, and when that one word passes, so do they all (a factor of a
    Sturmian factor of a slope is one too).  When it fails, or ``r``
    exceeds ``len(s)``, each key is decided on its own, with its own
    detail.

    ``longest`` bounds the projected letter images of every ``eta`` the
    caller passes: ``n`` times it is checked against
    :data:`MAX_PROJECTION_LETTERS`.  ``n`` is checked first, against
    :data:`iet.MAX_CODING_LENGTH`, so that a bad one is named as the
    coding length and not as a product.  A passing chain costs one
    derivation, of at most ``(n + 1) * longest`` letters; only a failing
    one costs a derivation per key.
    """
    _require_range(n, 1, MAX_CODING_LENGTH, "coding length")
    _require_range(n * longest, 0, MAX_PROJECTION_LETTERS, "projection length")
    if not is_nondegenerate_params(transform):
        raise DegenerateParametersError(
            "parameters are degenerate: (1-alpha)/(1+beta) is rational"
        )
    prefix = three_iet_code(transform, x0, n)
    # lambda over a common denominator, which cancels from the slope, as
    # the numerator pairs (p, q) of p + q*sqrt(d)
    lengths = (transform.alpha, transform.beta, 1 - transform.alpha - transform.beta)
    d = max(x.d for x in lengths)
    scale = math.lcm(*(x.c for x in lengths))
    weights = [(x.a * scale // x.c, x.b * scale // x.c) for x in lengths]
    # pairs that share phi share the sigma01 projection of the image
    verdicts: dict[tuple[bytes, ...], str | None] = {}
    # the chains whose word has been decided, by their first key
    starts: set[tuple[bytes, ...]] = set()

    def slope(key: tuple[bytes, ...]) -> QuadNumber:
        ones = [image.count(1) for image in key]
        sizes = [len(image) for image in key]
        p, q = (sum(w[i] * k for w, k in zip(weights, ones)) for i in (0, 1))
        r, s = (sum(w[i] * k for w, k in zip(weights, sizes)) for i in (0, 1))
        # (p + q*sqrt(d)) / (r + s*sqrt(d)), with r + s*sqrt(d) > 0 as some
        # image is not empty; times the conjugate of the divisor over itself
        return QuadNumber(p * r - q * s * d, q * r - p * s, d, r * r - s * s * d, _squarefree=True)

    def verdict(key: tuple[bytes, ...]) -> str | None:
        if key not in verdicts:
            start = _chain_start(key)
            if start not in starts:
                starts.add(start)
                chain = _chain(start)
                s = _substitute(prefix.letters, start)
                r = len(chain) - 1
                if 0 < r <= len(s) and _projection_verdict(s + s[:r], slope(start)) is None:
                    verdicts.update(dict.fromkeys(chain))
            if key not in verdicts:
                verdicts[key] = _projection_verdict(_substitute(prefix.letters, key), slope(key))
        return verdicts[key]

    def check(eta: Morphism) -> PreservationResult:
        for letter, char in enumerate(Alphabet.TERNARY.chars):
            if all(letter not in image.letters for image in eta.images):
                return PreservationResult(False, f"letter {char} occurs in no image of eta")
        for which in ("01", "10"):
            key = tuple(_substitute(image.letters, _SIGMA[which]) for image in eta.images)
            detail = verdict(key)
            if detail is not None:
                return PreservationResult(False, f"sigma{which}: {detail}")
        return PreservationResult(True, None)

    return check


def _chain_start(key: tuple[bytes, ...]) -> tuple[bytes, ...]:
    """The first key of the conjugation chain of ``key``: ``key`` rotated
    back while its images are non-empty and end with one letter, at most
    as many steps as its letters, so that a periodic key stops too."""
    for _ in range(sum(map(len, key))):
        if not all(key) or len({image[-1] for image in key}) != 1:
            break
        key = tuple(image[-1:] + image[:-1] for image in key)
    return key


def _chain(start: tuple[bytes, ...]) -> list[tuple[bytes, ...]]:
    """``start`` and its forward rotations: each rotates every image by
    their common first letter, at most as many steps as the longest image
    has letters, so that a chain word is at most that much longer than a
    projection."""
    chain = [start]
    for _ in range(max(map(len, start))):
        key = chain[-1]
        if not all(key) or len({image[0] for image in key}) != 1:
            break
        chain.append(tuple(image[1:] + image[:1] for image in key))
    return chain


def _projection_verdict(letters: bytes, slope: QuadNumber) -> str | None:
    """Why a projection is no factor of a Sturmian word of the predicted
    ``slope``, or None; balance is tested on the failing path alone."""
    if not slope.is_rational and _is_sturmian_factor(letters, _partial_quotients(slope)):
        return None
    if not is_balanced(FiniteWord(Alphabet.BINARY, letters)):
        return "projection is not balanced"
    if slope.is_rational:
        return f"predicted slope {slope} is rational"
    return f"projection is no factor of a Sturmian word of slope {slope}"
