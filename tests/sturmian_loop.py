"""The letter-by-letter test of a Sturmian factor of a given slope, kept
as the oracle of the whole-word derivation ``words._is_sturmian_factor``."""

from ietwords import QuadNumber
from ietwords.quadratic import _surd_negative


def sturmian_loop(letters: bytes, theta: QuadNumber) -> bool:
    """Whether a binary letter string is a factor of a Sturmian word of
    irrational slope ``theta``, the frequency of ``1``.

    With ``S_i`` the number of ones in ``letters[:i]``, the word is the
    prefix of the lower mechanical word ``floor((i+1)*theta + x) -
    floor(i*theta + x)`` exactly when ``E_i <= x < E_i + 1`` for every
    ``i = 0 .. len``, where ``E_i = S_i - i*theta``: such an ``x`` exists
    exactly when ``max E_i - min E_i < 1``.  With ``theta = (a +
    b*sqrt(d))/c``, ``c*E_i`` is ``p + q*sqrt(d)`` for the integers
    ``p = c*S_i - i*a`` and ``q = -i*b``, and every comparison is the
    exact integer sign rule of :class:`QuadNumber`.

    The test is exact for the factors of every Sturmian word of slope
    ``theta``, upper mechanical ones included: ``theta`` is irrational,
    so no two ``E_i`` are equal and no difference of two is an integer,
    and closed or half-open intervals give the same verdict.
    """
    a, b, d, c = theta.a, theta.b, theta.d, theta.c
    p = q = 0
    low = high = (0, 0)
    for letter in letters:
        p += c * letter - a
        q -= b
        if _surd_negative(p - low[0], q - low[1], d):
            low = (p, q)
        if _surd_negative(high[0] - p, high[1] - q, d):
            high = (p, q)
    # c*(max - min) - c < 0
    return _surd_negative(high[0] - low[0] - c, high[1] - low[1], d)
