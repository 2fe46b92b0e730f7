"""Factor complexity and conjugacy of finite words, which no command or
suite reads: the tests count the ``n + 1`` factors of each length ``n``
of a Sturmian coding with the first.  Also the character-by-character
word parse, the oracle of ``FiniteWord.parse``."""

from ietwords import Alphabet, AlphabetError, DomainError, FiniteWord, ParseError


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


def parse_by_char(text: str, alphabet: Alphabet | None = None) -> FiniteWord:
    """``FiniteWord.parse`` one character at a time: each character's
    index in the alphabet's letters, the alphabet inferred as there."""
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
    chars = alphabet.chars
    try:
        return FiniteWord(alphabet, bytes(chars.index(ch) for ch in text))
    except ValueError:
        bad = next(ch for ch in text if ch not in chars)
        raise ParseError(f"letter {bad!r} is not in the {alphabet.name} alphabet") from None
