"""Finite words over the binary and ternary alphabets.

Words are immutable values: an alphabet tag plus a ``bytes`` string of
letter indices (0/1 for the binary alphabet, 0/1/2 standing for A/B/C on
the ternary one).  The byte representation keeps concatenation, slicing,
hashing and factor extraction cheap, which matters for the exhaustive
sweeps elsewhere in the package.

All functions here are pure; words can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterable, Iterator

from .errors import AlphabetError, DomainError, ParseError


class Alphabet(Enum):
    BINARY = "01"
    TERNARY = "ABC"

    # plain attributes, not properties: every FiniteWord construction
    # reads ``size``, and a property would go through ``Enum.value``
    def __init__(self, chars: str) -> None:
        self.chars = chars
        self.size = len(chars)


ParikhVector = tuple[int, ...]


@dataclass(frozen=True)
class FiniteWord:
    """An immutable finite word over a declared alphabet.

    The empty word is permitted.  Cross-alphabet operations are rejected,
    never coerced.
    """

    alphabet: Alphabet
    letters: bytes = b""

    def __post_init__(self) -> None:
        if not isinstance(self.letters, bytes):
            object.__setattr__(self, "letters", bytes(self.letters))
        size = self.alphabet.size
        if self.letters and max(self.letters) >= size:
            bad = max(self.letters)
            raise AlphabetError(
                f"letter index {bad} invalid for {self.alphabet.name} alphabet"
            )

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
                bad = next(ch for ch in text if ch not in "01ABC")
                raise ParseError(f"invalid word letter {bad!r} in {text!r}")
        chars = alphabet.chars
        try:
            return cls(alphabet, bytes(chars.index(ch) for ch in text))
        except ValueError:
            bad = next(ch for ch in text if ch not in chars)
            raise ParseError(
                f"letter {bad!r} is not in the {alphabet.name} alphabet"
            ) from None

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
        chars = self.alphabet.chars
        return "".join(chars[i] for i in self.letters)

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


_SWAP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


# pays on `verify --suite lemma-w`, which tests the balance of both words
# of every pair of its coding words that scans: 24 500 hits for 2 914
# misses; without it the suite takes 0.61 s instead of 0.47 s (medians
# of 15 fresh processes, 2-core host, Python 3.11)
@lru_cache(maxsize=8192)
def _is_balanced_letters(letters: bytes) -> bool:
    # Sturmian run-length derivation: each pass is a few C calls on
    # ``bytes`` and at least halves the word.
    while True:
        if b"\x00\x00" not in letters:
            if b"\x01\x01" not in letters:
                return True
            letters = letters.translate(_SWAP)
        elif b"\x01\x01" in letters:
            return False
        # 1 is isolated: 0^first 1 0^a_1 1 ... 1 0^last
        runs = letters.split(b"\x01")
        if len(runs) < 3:  # at most one 1
            return True
        first, *interior, last = map(len, runs)
        lo = min(interior)
        if max(interior) - lo > 1 or first > lo + 1 or last > lo + 1:
            return False
        # one letter per run: 1 for a long run, 0 for a short one; an end
        # run no longer than lo may be a cut run of either kind
        letters = (
            (b"\x01" if first > lo else b"")
            + bytes(map(lo.__rsub__, interior))
            + (b"\x01" if last > lo else b"")
        )


def is_balanced(word: FiniteWord) -> bool:
    """Whether every pair of equal-length factors differs by at most one
    in their number of ones.

    Decided by the Sturmian run-length derivation (Lothaire, *Algebraic
    Combinatorics on Words*, ch. 2).  A word containing both ``00`` and
    ``11`` is unbalanced, one containing neither is balanced.  Otherwise
    one letter, say ``1`` after exchanging the letters, is isolated, and
    the word is ``0^f 1 0^a_1 1 ... 1 0^a_r 1 0^l``.  It is balanced
    exactly when the interior runs ``a_i`` take two consecutive values
    ``lo``, ``lo + 1`` (or one), the end runs are at most ``lo + 1``
    long, and the derived word is balanced: one letter per run, ``1``
    for a run of ``lo + 1`` zeros and ``0`` for one of ``lo``, where an
    end run is kept only when it is longer than ``lo`` (a shorter one
    can be the cut end of either kind).  The derived word is at most
    half as long, so the test takes linear time and a logarithmic number
    of passes, each a few calls on ``bytes``.  Binary words only.
    """
    if word.alphabet is not Alphabet.BINARY:
        raise AlphabetError("balance is defined for binary words only")
    return _is_balanced_letters(word.letters)


def factor_complexity(word: FiniteWord, n: int) -> int:
    """Number of distinct length-``n`` factors of ``word``.

    Returns 1 for ``n == 0`` (the empty factor) and 0 when ``n``
    exceeds the word length.
    """
    if n < 0:
        raise DomainError("factor length must be non-negative")
    if n == 0:
        return 1
    length = len(word)
    if n > length:
        return 0
    letters = word.letters
    return len({letters[i : i + n] for i in range(length - n + 1)})


def is_conjugate_word(word: FiniteWord, other: FiniteWord) -> bool:
    """Whether ``other`` is a cyclic rotation of ``word``.

    Equivalently: there is some ``v`` with ``word . v == v . other``.
    """
    if word.alphabet is not other.alphabet:
        raise AlphabetError("conjugacy is defined for words over one alphabet")
    if len(word) != len(other):
        return False
    return other.letters in word.letters + word.letters
