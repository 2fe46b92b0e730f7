"""Exact orbit coding for 2- and 3-interval exchange transformations.

Intervals are left-closed throughout: the 2-interval exchange with slope
``e`` codes ``0`` on ``[0, e)`` and ``1`` on ``[e, 1)``; the 3-interval
exchange with parameters ``(alpha, beta)`` codes A/B/C on
``[0, alpha)``, ``[alpha, alpha+beta)``, ``[alpha+beta, 1)``.  The
right-closed variants are not implemented.

Both maps, and the rational rotation by ``p/N`` on the residues mod
``N``, cut their domain into intervals and translate each interval by a
constant: one exact loop over cuts and translations codes all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import DomainError
from .quadratic import ONE, ZERO, QuadNumber
from .words import Alphabet, FiniteWord


@dataclass(frozen=True)
class TwoIET:
    """Exchange of two intervals, determined by its slope in [0, 1]."""

    slope: QuadNumber

    def __post_init__(self) -> None:
        if self.slope < ZERO or ONE < self.slope:
            raise DomainError(f"slope {self.slope} outside [0, 1]")


@dataclass(frozen=True)
class ThreeIET:
    """Exchange of three intervals with permutation (3,2,1).

    Determined by ``alpha, beta > 0`` with ``alpha + beta < 1``; the
    third length ``gamma = 1 - alpha - beta`` is implied.
    """

    alpha: QuadNumber
    beta: QuadNumber

    def __post_init__(self) -> None:
        if not ZERO < self.alpha:
            raise DomainError(f"alpha {self.alpha} must be positive")
        if not ZERO < self.beta:
            raise DomainError(f"beta {self.beta} must be positive")
        if not self.alpha + self.beta < ONE:
            raise DomainError("alpha + beta must be smaller than 1")


def _check_start(x0: QuadNumber) -> None:
    if x0 < ZERO or not x0 < ONE:
        raise DomainError(f"start point {x0} outside [0, 1)")


def _check_length(n: int) -> None:
    if n < 1:
        raise DomainError("coding length must be a positive integer")


def _exchange_code(
    alphabet: Alphabet, x, cuts: tuple, shifts: tuple, n: int
) -> FiniteWord:
    """Code ``n`` steps of the orbit of ``x``: each step emits the index
    ``j`` of the first cut with ``x < cuts[j]`` (``len(cuts)`` if none),
    then translates ``x`` by ``shifts[j]``.  It needs only ``<`` and ``+``,
    so ``int`` residues and :class:`QuadNumber` points both run on it."""
    out = bytearray()
    for _ in range(n):
        j = 0
        for cut in cuts:
            if x < cut:
                break
            j += 1
        out.append(j)
        x = x + shifts[j]
    return FiniteWord(alphabet, bytes(out))


def two_iet_code(transform: TwoIET, x0: QuadNumber, n: int) -> FiniteWord:
    """Code the first ``n`` steps of the orbit of ``x0``.

    Position ``i`` is 0 exactly when the i-th iterate (the fractional
    part of ``x0 - i*slope``) lies in ``[0, slope)``.
    """
    _check_start(x0)
    _check_length(n)
    eps = transform.slope
    return _exchange_code(Alphabet.BINARY, x0, (eps,), (ONE - eps, ZERO - eps), n)


def coding_word_k(p: int, n_total: int, k: int) -> FiniteWord:
    """Length-``n_total`` coding of the rational rotation by ``p/n_total``
    started at ``k/n_total``, computed with residues only.

    Position ``i`` is 0 exactly when ``(k - i*p) mod n_total < p``.
    Requires ``0 < p < n_total`` co-prime.
    """
    if not 0 < p < n_total:
        raise DomainError(f"need 0 < p < N, got p={p}, N={n_total}")
    if math.gcd(p, n_total) != 1:
        raise DomainError(f"p={p} and N={n_total} must be co-prime")
    return _exchange_code(
        Alphabet.BINARY, k % n_total, (p,), (n_total - p, -p), n_total
    )


# pays on `verify --suite preserve`, which checks every ternarization on
# the same orbit prefix: 72 hits for 1 miss
@lru_cache(maxsize=256)
def three_iet_code(transform: ThreeIET, x0: QuadNumber, n: int) -> FiniteWord:
    """Code the first ``n`` steps of the orbit of ``x0`` under the
    3-interval exchange."""
    _check_start(x0)
    _check_length(n)
    cut1 = transform.alpha
    cut2 = transform.alpha + transform.beta
    # translations per interval; each image stays inside [0, 1)
    shifts = (ONE - cut1, ONE - cut1 - cut2, ZERO - cut2)
    return _exchange_code(Alphabet.TERNARY, x0, (cut1, cut2), shifts, n)


def is_nondegenerate_params(transform: ThreeIET) -> bool:
    """Whether ``(1 - alpha) / (1 + beta)`` is irrational.

    Decided exactly: the quotient is irrational iff its radical part
    survives simplification.  Degenerate parameters still produce
    codings, but those words are eventually periodic.
    """
    quotient = (ONE - transform.alpha) / (ONE + transform.beta)
    return not quotient.is_rational
