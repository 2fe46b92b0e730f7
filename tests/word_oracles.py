"""Factor complexity and conjugacy of finite words, which no command or
suite reads: the tests count the ``n + 1`` factors of each length ``n``
of a Sturmian coding with the first."""

from ietwords import AlphabetError, DomainError, FiniteWord


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
