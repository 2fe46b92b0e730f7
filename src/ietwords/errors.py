"""Exception hierarchy shared by all modules.

Everything derives from :class:`IetWordsError` so callers can catch the
whole family; the concrete classes also subclass :class:`ValueError`
because they all signal bad values rather than broken state.
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


def _require_range(value: int, minimum: int, maximum: int, flag: str) -> None:
    """Reject a sweep bound below its smallest useful value or above its cap
    (about a minute or 0.4 GB of work); ``flag`` is its command-line
    spelling, or says what it measures."""
    if value < minimum:
        raise DomainError(f"{flag} must be at least {minimum}, got {value}")
    if value > maximum:
        raise DomainError(f"{flag} must be at most {maximum}, got {value}")


def _digit_limit_error(token: str, where: str) -> ParseError:
    """The error for an integer ``token`` of a ``matrix entry`` or a
    ``quadratic literal`` (``where``) longer than the digit limit."""
    return ParseError(
        f"integer of {len(token.lstrip('+-'))} digits in {where} exceeds "
        f"the limit of {sys.get_int_max_str_digits()} digits"
    )


class FieldMismatchError(IetWordsError, ValueError):
    """Arithmetic mixed two quadratic numbers with different radicands."""


class NotUnimodularError(IetWordsError, ValueError):
    """A matrix required to have determinant +-1 does not."""


class MatrixDecompositionError(IetWordsError, ValueError):
    """A matrix could not be reduced to the base pair by L/R steps."""


class NotSturmianError(IetWordsError, ValueError):
    """A morphism claimed to be Sturmian is not."""


class NotAmicableError(IetWordsError, ValueError):
    """Two words (or morphisms) admit no common ternarization."""


class InfeasibleMatrixError(IetWordsError, ValueError):
    """Requested ternarization matrix would contain a negative entry."""


class DegenerateParametersError(IetWordsError, ValueError):
    """3iet parameters whose induced rotation number is rational."""
