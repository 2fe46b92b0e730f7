"""Exception hierarchy shared by all modules, and the gates of the
arguments every module reads.

Everything derives from :class:`IetWordsError` so callers can catch the
whole family; the concrete classes also subclass :class:`ValueError`
because they all signal bad values rather than broken state.  An integer
bound is checked by :func:`_require_range` alone, another integer argument
by :func:`_require_int`, and an integer token of a literal matches
:data:`_INT_PATTERN` and is read by :func:`_parse_int`.
"""

from __future__ import annotations

import sys


class IetWordsError(Exception):
    """Base class for all errors raised by this package."""


class AlphabetError(IetWordsError, ValueError):
    """A word or morphism was used over the wrong alphabet."""


class ParseError(IetWordsError, ValueError):
    """A textual literal (word, morphism, matrix, quadratic number) is malformed."""


class DomainError(IetWordsError, ValueError):
    """A numeric argument is outside the documented domain."""


def _require_int(value: int, flag: str) -> None:
    """Reject an integer argument that is a float or a bool; ``flag`` is
    its command-line spelling, or its name."""
    if type(value) is not int:
        raise DomainError(f"{flag} must be an integer, got {value!r}")


def _require_range(value: int, minimum: int, maximum: int, flag: str) -> None:
    """Reject a bound that is not an ``int`` (a float or a bool), below its
    smallest useful value or above its cap (about a minute or 0.4 GB of
    work); ``flag`` is its command-line spelling, or says what it
    measures."""
    _require_int(value, flag)
    if value < minimum:
        raise DomainError(f"{flag} must be at least {minimum}, got {value}")
    if value > maximum:
        raise DomainError(f"{flag} must be at most {maximum}, got {value}")


# the integer grammar of matrix entries and quadratic literals: ASCII
# digits after an optional sign, where ``int`` would also read ``1_0``
# and non-ASCII digits
_INT_PATTERN = "[+-]?[0-9]+"


def _parse_int(token: str, where: str) -> int:
    """An integer ``token`` of a ``matrix entry`` or a ``quadratic literal``
    (``where``) that matches :data:`_INT_PATTERN`, so that ``int`` fails
    only on one longer than the interpreter's digit limit."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(
            f"integer of {len(token.lstrip('+-'))} digits in {where} exceeds "
            f"the limit of {sys.get_int_max_str_digits()} digits"
        ) from None


class FieldMismatchError(IetWordsError, ValueError):
    """Arithmetic mixed two quadratic numbers with different radicands."""


class NotUnimodularError(IetWordsError, ValueError):
    """A matrix required to have determinant +-1 does not."""


class MatrixDecompositionError(IetWordsError, ValueError):
    """A matrix could not be reduced to the base pair by Euclid steps."""


class NotSturmianError(IetWordsError, ValueError):
    """A morphism claimed to be Sturmian is not."""


class NotAmicableError(IetWordsError, ValueError):
    """Two words (or morphisms) admit no common ternarization."""


class InfeasibleMatrixError(IetWordsError, ValueError):
    """Requested ternarization matrix would contain a negative entry."""


class DegenerateParametersError(IetWordsError, ValueError):
    """3iet parameters whose induced rotation number is rational."""
