"""Exact orbit coding for 2- and 3-interval exchange transformations.

Intervals are left-closed throughout: the 2-interval exchange with slope
``e`` codes ``0`` on ``[0, e)`` and ``1`` on ``[e, 1)``; the 3-interval
exchange with parameters ``(alpha, beta)`` codes A/B/C on
``[0, alpha)``, ``[alpha, alpha+beta)``, ``[alpha+beta, 1)``.  The
right-closed variants are not implemented.

Both maps, and the rational rotation by ``p/N`` on the residues mod
``N``, cut their domain into intervals and translate each interval by a
constant: one exact loop over cuts and translations codes all three.
The loop runs on plain integers.  The start, the cuts and the shifts are
written over one common denominator ``L`` as numerator pairs ``(a, b)``
of ``(a + b*sqrt(d))/L``.  Each point is carried as one fixed-point
integer ``a*2**k + b*isqrt(d*4**k)``, within ``|b|`` of its exact value
times ``2**k``: a translation is one integer addition, and one bisection
of the cuts' fixed-point values places the point.  The precision ``k``
grows with the orbit length and the radicand until a point off a cut is
farther from it than the rounding error, so every test is exact; a
point on a cut has the cut's value, right of the cut as the left-closed
intervals require.  The residues of a rotation are the
pairs ``(r, 0)`` with ``d = 0``, where every value is exact.

A long orbit is coded ``m`` letters at a time.  The fixed-point map is
additive, so the translated intervals tile ``[0, U)`` on the integers
exactly as they tile ``[0, 1)``, with ``U`` the value of 1: the map is
a bijective piecewise translation of the integers of ``[0, U)``.  Then
so is its ``m``-th power, whose pieces start at the cuts and their
preimages under the first ``m - 1`` powers, and on each piece the next
``m`` letters and the displacement are constant.  One bisection of
those starts and one table lookup code ``m`` letters, and the table is
filled by the letter-by-letter loop the first time a piece is met.
Codings are at most :data:`MAX_CODING_LENGTH` letters long.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from ._value import Value
from .errors import DomainError, _require_int, _require_range
from .quadratic import ONE, ZERO, QuadNumber, _numerator_pairs
from .words import Alphabet, FiniteWord

# longest orbit coding produced; coding a million letters takes about
# 0.01 s and a few megabytes on a 2-core x86-64 host
MAX_CODING_LENGTH = 10**6


class TwoIET(Value):
    """Exchange of two intervals, determined by its slope in [0, 1]."""

    __slots__ = ("slope",)
    slope: QuadNumber

    def __init__(self, slope: QuadNumber) -> None:
        if slope < ZERO or ONE < slope:
            raise DomainError(f"slope {slope} outside [0, 1]")
        object.__setattr__(self, "slope", slope)


class ThreeIET(Value):
    """Exchange of three intervals with permutation (3,2,1).

    Determined by ``alpha, beta > 0`` with ``alpha + beta < 1``; the
    third length ``gamma = 1 - alpha - beta`` is implied.
    """

    __slots__ = ("alpha", "beta")
    alpha: QuadNumber
    beta: QuadNumber

    def __init__(self, alpha: QuadNumber, beta: QuadNumber) -> None:
        if not ZERO < alpha:
            raise DomainError(f"alpha {alpha} must be positive")
        if not ZERO < beta:
            raise DomainError(f"beta {beta} must be positive")
        if not alpha + beta < ONE:
            raise DomainError("alpha + beta must be smaller than 1")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


def _check_start(x0: QuadNumber) -> None:
    if x0 < ZERO or not x0 < ONE:
        raise DomainError(f"start point {x0} outside [0, 1)")


def _exchange_code(
    alphabet: Alphabet, d: int, x: tuple, cuts: tuple, shifts: tuple, n: int
) -> FiniteWord:
    """Code ``n`` steps of the orbit of ``x``: each step emits the index
    ``j`` of the first cut with ``x < cuts[j]`` (``len(cuts)`` if none),
    then translates ``x`` by ``shifts[j]``.  Every point is a numerator
    pair ``(a, b)`` of ``(a + b*sqrt(d))/L`` over one denominator ``L``,
    which the loop never needs; the cuts are increasing and ``d`` is 0 or
    not a perfect square.

    The loop moves the fixed-point value ``v = a*2**k + b*s``, with
    ``s = isqrt(d*4**k)``, and a point is left of a cut exactly when
    ``v`` is below the cut's value ``c``."""
    a, b = x
    # bounds |q| in a difference p + q*sqrt(d) between a point of the
    # orbit and a cut; twice it bounds |q| between two cuts
    bound = (
        abs(b) + n * max(abs(sb) for _, sb in shifts) + max(abs(cb) for _, cb in cuts)
    )
    # this k makes every test exact.  ``v - c`` is within ``|q|`` of the
    # exact difference times ``2**k``.  A point on the cut has the cut's
    # pair, so q = 0 and ``v == c``: not left of it.  Off the cut,
    # ``|p*p - q*q*d| >= 1`` since sqrt(d) is irrational, so the difference
    # exceeds ``1 / (1 + 4*bound*sqrt(d))`` in size, which this k scales
    # far past ``2*bound``: ``v - c`` has its sign, and the increasing
    # cuts have increasing values.  For d = 0 every value is exact
    k = 2 * bound.bit_length() + d.bit_length() + 64 if d else 0
    s = math.isqrt(d << 2 * k)
    cut_values = [(cut_a << k) + cut_b * s for cut_a, cut_b in cuts]
    steps = [(shift_a << k) + shift_b * s for shift_a, shift_b in shifts]
    v = (a << k) + b * s
    out = bytearray()
    # the largest m with (m + 1)**3 * len(cuts) <= n: about len(cuts)*m**2
    # letters fill the table, against n/m lookups.  Below m = 5 (about
    # 200 letters) building the table costs more than it saves
    m = 1
    while (m + 2) ** 3 * len(cuts) <= n:
        m += 1
    starts = _piece_starts(cut_values, steps, v, m) if m >= 5 else None
    if starts is not None:
        # the letters and the displacement of m steps from each piece
        table = [None] * (len(starts) + 1)
        for _ in range(n // m):
            i = bisect_right(starts, v)
            entry = table[i]
            if entry is None:
                chunk = bytearray()
                entry = table[i] = (chunk, _code_letters(cut_values, steps, v, m, chunk) - v)
            letters, shift = entry
            out += letters
            v += shift
        n %= m
    _code_letters(cut_values, steps, v, n, out)
    return FiniteWord(alphabet, bytes(out))


def _code_letters(cut_values: list, steps: list, v: int, count: int, out: bytearray) -> int:
    """Append the letters of ``count`` steps of the fixed-point orbit of
    ``v`` to ``out``, one bisection each; returns the point reached."""
    append = out.append
    for _ in range(count):
        j = bisect_right(cut_values, v)
        append(j)
        v += steps[j]
    return v


def _piece_starts(cut_values: list, steps: list, v: int, m: int) -> list | None:
    """The sorted starts of the pieces of ``T**m``, where ``T`` moves a
    fixed-point value ``w`` by ``steps[bisect_right(cut_values, w)]``:
    every cut inside ``(0, U)`` and its preimages under ``T, ..., T**(m-1)``.

    None unless ``T`` is a bijection of the integers of ``[0, U)`` and
    ``v`` lies there, with ``U = cut_values[0] + steps[0]``: the cuts
    must increase within ``[0, U]`` and the images of the non-empty
    intervals must tile ``[0, U)``.  Then two points of one piece have
    the same ``m`` letters: at the first step where two of them parted,
    a cut would lie between their images, and its preimage between them.
    """
    top = cut_values[0] + steps[0]
    ends = [0, *cut_values, top]
    if not 0 <= v < top or any(lo > hi for lo, hi in zip(ends, ends[1:])):
        return None
    images = sorted(
        (lo + step, hi - lo, step)
        for lo, hi, step in zip(ends, ends[1:], steps) if lo < hi
    )
    edge = 0
    for start, length, _ in images:
        if start != edge:
            return None
        edge += length
    if edge != top:
        return None
    # T**-1(w) is w less the step of the interval whose image holds w
    image_starts = [start for start, _, _ in images]
    image_steps = [step for _, _, step in images]
    starts = set()
    for c in cut_values:
        if 0 < c < top:
            starts.add(c)
            for _ in range(m - 1):
                c -= image_steps[bisect_right(image_starts, c) - 1]
                starts.add(c)
    return sorted(starts)


def _quadratic_exchange_code(
    alphabet: Alphabet, x0: QuadNumber, cuts: tuple, shifts: tuple, n: int
) -> FiniteWord:
    """:func:`_exchange_code` on :class:`QuadNumber` points, written over
    the least common denominator: values from two quadratic fields raise,
    as arithmetic on them would, before any letter is coded."""
    d, (start, *pairs) = _numerator_pairs((x0, *cuts, *shifts))
    cuts, shifts = tuple(pairs[:len(cuts)]), tuple(pairs[len(cuts):])
    return _exchange_code(alphabet, d, start, cuts, shifts, n)


def two_iet_code(transform: TwoIET, x0: QuadNumber, n: int) -> FiniteWord:
    """Code the first ``n`` steps of the orbit of ``x0``.

    Position ``i`` is 0 exactly when the i-th iterate (the fractional
    part of ``x0 - i*slope``) lies in ``[0, slope)``.
    """
    _check_start(x0)
    _require_range(n, 1, MAX_CODING_LENGTH, "coding length")
    eps = transform.slope
    return _quadratic_exchange_code(
        Alphabet.BINARY, x0, (eps,), (ONE - eps, ZERO - eps), n
    )


def coding_word_k(p: int, n_total: int, k: int) -> FiniteWord:
    """Length-``n_total`` coding of the rational rotation by ``p/n_total``
    started at ``k/n_total``, computed with residues only.

    Position ``i`` is 0 exactly when ``(k - i*p) mod n_total < p``.
    Requires ``0 < p < n_total`` co-prime, ``n_total`` at most
    :data:`MAX_CODING_LENGTH`, and integers all three; ``k`` may be any.
    """
    _require_range(n_total, 2, MAX_CODING_LENGTH, "coding length")
    _require_int(p, "p")
    _require_int(k, "k")
    if not 0 < p < n_total:
        raise DomainError(f"need 0 < p < N, got p={p}, N={n_total}")
    if math.gcd(p, n_total) != 1:
        raise DomainError(f"p={p} and N={n_total} must be co-prime")
    shifts = ((n_total - p, 0), (-p, 0))
    return _exchange_code(Alphabet.BINARY, 0, (k % n_total, 0), ((p, 0),), shifts, n_total)


def three_iet_code(transform: ThreeIET, x0: QuadNumber, n: int) -> FiniteWord:
    """Code the first ``n`` steps of the orbit of ``x0`` under the
    3-interval exchange."""
    _check_start(x0)
    _require_range(n, 1, MAX_CODING_LENGTH, "coding length")
    cut1 = transform.alpha
    cut2 = transform.alpha + transform.beta
    # translations per interval; each image stays inside [0, 1)
    shifts = (ONE - cut1, ONE - cut1 - cut2, ZERO - cut2)
    return _quadratic_exchange_code(Alphabet.TERNARY, x0, (cut1, cut2), shifts, n)


def is_nondegenerate_params(transform: ThreeIET) -> bool:
    """Whether ``(1 - alpha) / (1 + beta)`` is irrational.

    Decided exactly: the quotient is irrational iff its radical part
    survives simplification.  Degenerate parameters still produce
    codings, but those words are eventually periodic.
    """
    quotient = (ONE - transform.alpha) / (ONE + transform.beta)
    return not quotient.is_rational
