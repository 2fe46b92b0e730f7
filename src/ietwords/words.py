"""Finite words over the binary and ternary alphabets.

Words are immutable values: an alphabet tag plus a ``bytes`` string of
letter indices (0/1 for the binary alphabet, 0/1/2 standing for A/B/C on
the ternary one).  The byte representation keeps concatenation, slicing,
hashing and factor extraction cheap, which matters for the exhaustive
sweeps elsewhere in the package.

All functions here are pure; words can be shared freely across threads.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Iterator, Sequence

from ._value import Value
from .errors import AlphabetError, ParseError


class Alphabet(Enum):
    BINARY = "01"
    TERNARY = "ABC"

    # plain attributes, not properties: every FiniteWord construction
    # reads ``indices``, and a property would go through ``Enum.value``
    def __init__(self, chars: str) -> None:
        self.chars = chars
        self.size = len(chars)
        self.indices = bytes(range(self.size))  # the valid letter bytes
        self.char_table = bytes.maketrans(self.indices, chars.encode("ascii"))
        # the inverse, with every other byte at 0xFF, which no letter is
        self.parse_table = bytes(chars.find(chr(i)) & 0xFF for i in range(256))


ParikhVector = tuple[int, ...]


class FiniteWord(Value):
    """An immutable finite word over a declared alphabet.

    The empty word is permitted.  Cross-alphabet operations are rejected,
    never coerced.
    """

    __slots__ = ("alphabet", "letters")
    alphabet: Alphabet
    letters: bytes

    def __init__(self, alphabet: Alphabet, letters: bytes = b"") -> None:
        if not isinstance(letters, bytes):
            letters = bytes(letters)
        # deleting the valid letters in C leaves only the invalid ones
        if letters.translate(None, alphabet.indices):
            bad = max(letters)
            raise AlphabetError(
                f"letter index {bad} invalid for {alphabet.name} alphabet"
            )
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", letters)

    @classmethod
    def parse(cls, text: str, alphabet: Alphabet | None = None) -> "FiniteWord":
        """Parse a plain character string such as ``"00101"`` or ``"ABAC"``.

        The alphabet is inferred from the characters unless given
        explicitly; the empty string needs an explicit alphabet.
        """
        if alphabet is None:
            if not text:
                raise ParseError("empty word literal needs an explicit alphabet")
            if set(text) <= set(Alphabet.BINARY.chars):
                alphabet = Alphabet.BINARY
            elif set(text) <= set(Alphabet.TERNARY.chars):
                alphabet = Alphabet.TERNARY
            else:
                bad = next((ch for ch in text if ch not in "01ABC"), None)
                if bad is None:
                    raise ParseError(f"word literal {text!r} mixes binary and ternary letters")
                raise ParseError(f"invalid word letter {bad!r} in {text!r}")
        # a character outside ASCII encodes as "?", which no alphabet holds
        letters = text.encode("ascii", "replace").translate(alphabet.parse_table)
        if 0xFF in letters:
            bad = next(ch for ch in text if ch not in alphabet.chars)
            raise ParseError(f"letter {bad!r} is not in the {alphabet.name} alphabet")
        return cls(alphabet, letters)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __getitem__(self, item: int | slice) -> "int | FiniteWord":
        if isinstance(item, slice):
            return FiniteWord(self.alphabet, self.letters[item])
        return self.letters[item]

    def __add__(self, other: "FiniteWord") -> "FiniteWord":
        if not isinstance(other, FiniteWord):
            return NotImplemented
        if other.alphabet is not self.alphabet:
            raise AlphabetError("cannot concatenate words over different alphabets")
        return FiniteWord(self.alphabet, self.letters + other.letters)

    def count(self, letter: int) -> int:
        return self.letters.count(letter)

    def __str__(self) -> str:
        return self.letters.translate(self.alphabet.char_table).decode("ascii")

    def __repr__(self) -> str:
        return f"FiniteWord({self.alphabet.name}, {str(self)!r})"


def binary_word(text: str | Iterable[int]) -> FiniteWord:
    if isinstance(text, str):
        return FiniteWord.parse(text, Alphabet.BINARY)
    return FiniteWord(Alphabet.BINARY, bytes(text))


def ternary_word(text: str | Iterable[int]) -> FiniteWord:
    if isinstance(text, str):
        return FiniteWord.parse(text, Alphabet.TERNARY)
    return FiniteWord(Alphabet.TERNARY, bytes(text))


def parikh(word: FiniteWord) -> ParikhVector:
    """Letter-count vector of ``word``, one entry per alphabet letter."""
    return tuple(word.letters.count(i) for i in range(word.alphabet.size))


# letters 0, 1 and 2 parked at 3, 4 and 5, which no image contains
_PARK = bytes.maketrans(b"\x00\x01\x02", b"\x03\x04\x05")


def _substitute(letters: bytes, images: Sequence[bytes]) -> bytes:
    """``letters`` with each letter ``i`` replaced by ``images[i]``, in one
    whole-word pass per letter over the parked letters."""
    letters = letters.translate(_PARK)
    for parked, image in enumerate(images, 3):
        letters = letters.replace(bytes((parked,)), image)
    return letters


def _turns(images: Sequence[bytes], limit: int) -> int:
    """How many times ``images`` rotate by a shared first letter, at most
    ``limit`` (0 when an image is empty): the first ``i`` at which their
    periodic extensions differ.  Read as big-endian integers and XORed
    against the first, the extensions differ first in the byte of the
    highest set bit."""
    if not all(images):
        return 0
    first, *rest = (
        int.from_bytes((image * (limit // len(image) + 1))[:limit], "big") for image in images
    )
    return limit - (max((first ^ other for other in rest), default=0).bit_length() + 7) // 8


def _rotated(images: Sequence[bytes], i: int) -> tuple[bytes, ...]:
    """Every image rotated left by ``i`` letters, or right for ``i < 0``."""
    shifts = [i % len(image) if image else 0 for image in images]
    return tuple(image[j:] + image[:j] for image, j in zip(images, shifts))


_SWAP = bytes.maketrans(b"\x00\x01", b"\x01\x00")
# a derived word's letters: a short block ``0^lo 1`` (1 once its zeros
# are deleted) gives 0, and a long one (replaced by 2) gives 1
_DERIVE = bytes.maketrans(b"\x01\x02", b"\x00\x01")


def is_balanced(word: FiniteWord) -> bool:
    """Whether every pair of equal-length factors differs by at most one
    in their number of ones.

    Decided by the Sturmian run-length derivation (Lothaire, *Algebraic
    Combinatorics on Words*, ch. 2).  A word containing both ``00`` and
    ``11`` is unbalanced, one containing neither is balanced.  Otherwise
    ``1``, after exchanging the letters, is isolated, and the word is
    balanced exactly when it has at most one ``1`` or its
    :func:`_derive` at ``lo``, the floor of the mean run of zeros between
    two ``1``, is balanced.  That ``lo`` is the least run when the runs
    take two consecutive values; when they do not, :func:`_derive` meets
    a run it cannot place.  Each level at least halves the word, so the
    test takes linear time.  Binary words only.
    """
    if word.alphabet is not Alphabet.BINARY:
        raise AlphabetError("balance is defined for binary words only")
    letters = word.letters
    while True:
        if b"\x00\x00" not in letters:
            if b"\x01\x01" not in letters:
                return True
            letters = letters.translate(_SWAP)
        elif b"\x01\x01" in letters:
            return False
        ones = letters.count(b"\x01")
        if ones < 2:
            return True
        interior = letters.rfind(b"\x01") - letters.find(b"\x01") + 1 - ones
        letters = _derive(letters, interior // (ones - 1))
        if letters is None:
            return False


def _derive(letters: bytes, lo: int) -> bytes | None:
    """The derived word of ``0^f 1 0^a_1 1 ... 1 0^a_r 1 0^l``, which has
    a ``1`` and no ``11``: ``0`` for each run ``a_i = lo``, ``1`` for each
    ``a_i = lo + 1`` or end run of ``lo + 1`` (a shorter end run can be
    cut from either block), or None when a run fits neither.  A handful
    of whole-word calls on ``bytes``, with no object per run."""
    first = letters.find(b"\x01")
    last = letters.rfind(b"\x01")
    tail = len(letters) - 1 - last
    body = letters[first + 1 : last + 1]  # the blocks 0^a_i 1
    if (
        first > lo + 1
        or tail > lo + 1
        or b"\x00" * (lo + 2) + b"\x01" in body
        or body.count(b"\x00" * lo + b"\x01") != body.count(b"\x01")
    ):
        return None
    return (
        (b"\x01" if first > lo else b"")
        + body.replace(b"\x00" * (lo + 1) + b"\x01", b"\x02").translate(_DERIVE, b"\x00")
        + (b"\x01" if tail > lo else b"")
    )


def _is_sturmian_factor(letters: bytes, quotients: Iterable[int]) -> bool:
    """Whether a binary letter string is a factor of a Sturmian word of
    irrational slope ``theta = [0; a_1, a_2, ...]``, the frequency of
    ``1``, given the partial quotients ``a_1, a_2, ...``.

    For ``a = a_1 > 1`` such a word is made of the blocks ``0^(a-1) 1``
    and ``0^a 1``, and its derived word is Sturmian of slope
    ``[0; a_2, ...]``; substituting the blocks maps each of those back
    (Lothaire, ch. 2).  So :func:`_derive` at ``lo = a - 1`` recurses,
    down to a word with no ``1`` and at most ``a`` letters.  For
    ``a_1 = 1`` the letters are exchanged: ``1 - theta`` is
    ``[0; a_2 + 1, a_3, ...]``.  A quotient above ``len(letters) + 1``
    is read as that, which no run reaches, so it costs no more.
    """
    quotients = iter(quotients)
    while True:
        a = next(quotients)
        if a == 1:
            letters = letters.translate(_SWAP)
            a = next(quotients) + 1
        a = min(a, len(letters) + 1)
        if b"\x01\x01" in letters:
            return False
        if b"\x01" not in letters:
            return len(letters) <= a
        letters = _derive(letters, a - 1)
        if letters is None:
            return False

