"""Exact arithmetic on numbers of the form (a + b*sqrt(d)) / c.

Every value is kept in a canonical form: integer ``a``, ``b``, positive
``c``, square-free ``d >= 0``, ``gcd(a, b, c) == 1`` (zero is stored as
0/1), and ``d == 0`` whenever ``b == 0``.  Canonical form makes equality
structural and lets comparison, floor and fractional part be decided
with integer arithmetic only -- no floating point is involved anywhere.

Two irrational values can be combined only when they live in the same
quadratic field (equal radicand); a rational operand is compatible with
everything.

Only input values are factored: a radicand above :data:`MAX_RADICAND` is
rejected, since splitting off its square part is trial division.  The
results of ``+ - * /`` take the square-free radicand of their operands
and skip the factorisation.
"""

from __future__ import annotations

import math
import re
from functools import reduce, total_ordering
from typing import Iterator

from ._value import Value
from .errors import _INT_PATTERN, DomainError, FieldMismatchError, ParseError, _parse_int

# largest radicand accepted on input: one trial-division split of a prime
# near it takes about 0.1 s
MAX_RADICAND = 10**12


def _squarefree_split(n: int) -> tuple[int, int]:
    """Write ``n = s*s*f`` with ``f`` square-free; return ``(s, f)``."""
    s, f = 1, 1
    k = 2
    while k * k <= n:
        if n % k == 0:
            e = 0
            while n % k == 0:
                n //= k
                e += 1
            s *= k ** (e // 2)
            if e % 2:
                f *= k
        k += 1 if k == 2 else 2
    return s, f * n


def _common_radicand(d: int, e: int) -> int:
    """The radicand of a value combining radicands ``d`` and ``e``, where
    0 stands for a rational value."""
    if d == e or e == 0:
        return d
    if d == 0:
        return e
    raise FieldMismatchError(f"cannot combine sqrt({d}) with sqrt({e})")


def _numerator_pairs(values: tuple[QuadNumber, ...]) -> tuple[int, list[tuple[int, int]]]:
    """The common radicand ``d`` of ``values``, which raises as arithmetic
    on them would, and each value as the numerator pair ``(a, b)`` of
    ``(a + b*sqrt(d))/L`` over their least common denominator ``L``."""
    d = reduce(_common_radicand, (value.d for value in values), 0)
    denominator = math.lcm(*(value.c for value in values))
    scales = [denominator // value.c for value in values]
    return d, [(value.a * scale, value.b * scale) for value, scale in zip(values, scales)]


def _surd_negative(p: int, q: int, d: int) -> bool:
    """Whether ``p + q*sqrt(d) < 0``, for integers ``p``, ``q`` and
    ``d >= 0``: the one sign rule, behind ``QuadNumber.__lt__``.
    Integer comparisons decide it: with ``p`` and ``q`` of opposite
    signs, the larger of ``p*p`` and ``q*q*d`` wins."""
    if p < 0:
        return q <= 0 or p * p > q * q * d
    return q < 0 and q * q * d > p * p


@total_ordering
class QuadNumber(Value):
    """An exact real (a + b*sqrt(d)) / c with integer coefficients."""

    # in the constructor's order, in which pickling rebuilds a value
    __slots__ = ("a", "b", "d", "c")

    def __init__(
        self, a: int, b: int = 0, d: int = 0, c: int = 1, *, _squarefree: bool = False
    ) -> None:
        # ``_squarefree=True`` is for arithmetic results only, whose
        # coefficients are ints, ``c`` is non-zero and ``d`` is an
        # operand's square-free radicand: they skip checks and factoring
        if not _squarefree:
            for name, value in (("a", a), ("b", b), ("d", d), ("c", c)):
                if type(value) is not int:
                    raise TypeError(f"coefficient {name} must be an int, got {value!r}")
            if c == 0:
                raise DomainError("denominator of a quadratic number cannot be zero")
            if d < 0:
                raise DomainError("radicand of a quadratic number cannot be negative")
            if d > MAX_RADICAND:
                raise DomainError(
                    f"radicand of a quadratic number must be at most {MAX_RADICAND}, got {d}"
                )
            if b != 0 and d != 0:
                s, d = _squarefree_split(d)
                b *= s
                if d == 1:
                    a, b, d = a + b, 0, 0
        if c < 0:
            a, b, c = -a, -b, -c
        if b == 0:
            d = 0
        elif d == 0:
            b = 0
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    # -- construction ----------------------------------------------------

    _RATIONAL_RE = re.compile(rf"^({_INT_PATTERN})(?:/({_INT_PATTERN}))?$")
    _QUAD_RE = re.compile(
        rf"^\(({_INT_PATTERN})([+-][0-9]+)\*sqrt\(([0-9]+)\)\)(?:/({_INT_PATTERN}))?$"
    )

    @classmethod
    def parse(cls, text: str) -> "QuadNumber":
        """Parse ``"(a+b*sqrt(d))/c"`` or ``"p/q"`` or a bare integer."""
        compact = "".join(text.split())
        if m := cls._RATIONAL_RE.match(compact):
            a, c = m.groups()
            b = d = "0"
        elif m := cls._QUAD_RE.match(compact):
            a, b, d, c = m.groups()
        else:
            bad = next((ch for ch in compact if ch not in "0123456789+-*/()sqrt"), None)
            if bad is not None:
                raise ParseError(f"invalid token {bad!r} in quadratic literal {text!r}")
            raise ParseError(
                f"malformed quadratic literal {text!r}; expected '(a+b*sqrt(d))/c' or 'p/q'"
            )
        return cls(*(_parse_int(t, "quadratic literal") for t in (a, b, d, c or "1")))

    # -- predicates ------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def __bool__(self) -> bool:
        return not (self.a == 0 and self.b == 0)

    # -- field compatibility ---------------------------------------------

    @staticmethod
    def _coerce(value: "QuadNumber | int") -> "QuadNumber | None":
        if isinstance(value, QuadNumber):
            return value
        if type(value) is int:
            return QuadNumber(value)
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "QuadNumber | int") -> "QuadNumber":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return QuadNumber(
            self.a * rhs.c + rhs.a * self.c,
            self.b * rhs.c + rhs.b * self.c,
            _common_radicand(self.d, rhs.d),
            self.c * rhs.c,
            _squarefree=True,
        )

    __radd__ = __add__

    def __neg__(self) -> "QuadNumber":
        return QuadNumber(-self.a, -self.b, self.d, self.c, _squarefree=True)

    def __sub__(self, other: "QuadNumber | int") -> "QuadNumber":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: "QuadNumber | int") -> "QuadNumber":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: "QuadNumber | int") -> "QuadNumber":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        d = _common_radicand(self.d, rhs.d)
        return QuadNumber(
            self.a * rhs.a + self.b * rhs.b * d,
            self.a * rhs.b + self.b * rhs.a,
            d,
            self.c * rhs.c,
            _squarefree=True,
        )

    __rmul__ = __mul__

    def _inverse(self) -> "QuadNumber":
        if not self:
            raise ZeroDivisionError("division by zero quadratic number")
        norm = self.a * self.a - self.b * self.b * self.d
        return QuadNumber(self.a * self.c, -self.b * self.c, self.d, norm, _squarefree=True)

    def __truediv__(self, other: "QuadNumber | int") -> "QuadNumber":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        _common_radicand(self.d, rhs.d)
        return self * rhs._inverse()

    def __rtruediv__(self, other: "QuadNumber | int") -> "QuadNumber":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs / self

    # -- order -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other) if isinstance(other, (QuadNumber, int)) else None
        if rhs is None:
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (rhs.a, rhs.b, rhs.c, rhs.d)

    def __lt__(self, other: "QuadNumber | int") -> bool:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        # self - rhs, scaled by the positive c's of both
        return _surd_negative(
            self.a * rhs.c - rhs.a * self.c,
            self.b * rhs.c - rhs.b * self.c,
            _common_radicand(self.d, rhs.d),
        )

    def __hash__(self) -> int:
        # an integer value equals the int ``a``, so it must hash as one
        if self.b == 0 and self.c == 1:
            return hash(self.a)
        return hash((self.a, self.b, self.c, self.d))

    # -- floor / fractional part -------------------------------------------

    def floor(self) -> int:
        """The unique integer ``n`` with ``n <= self < n + 1``."""
        t = self.b * self.b * self.d
        s = math.isqrt(t)
        if self.b >= 0:
            numerator = self.a + s
        else:
            numerator = self.a - s - (0 if s * s == t else 1)
        return numerator // self.c

    def frac(self) -> "QuadNumber":
        """Fractional part ``self - floor(self)``, always in [0, 1)."""
        return QuadNumber(
            self.a - self.floor() * self.c, self.b, self.d, self.c, _squarefree=True
        )

    # -- conversions ---------------------------------------------------------

    def __float__(self) -> float:
        # a fixed-point numerator with 64 bits to spare below any
        # cancellation of a against b*sqrt(d); int / int rounds once
        k = 2 * (abs(self.a) + abs(self.b) * self.d + self.c).bit_length() + 64
        return ((self.a << k) + self.b * math.isqrt(self.d << 2 * k)) / (self.c << k)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a) if self.c == 1 else f"{self.a}/{self.c}"
        return f"({self.a}{self.b:+d}*sqrt({self.d}))/{self.c}"

    def __repr__(self) -> str:
        return f"QuadNumber({self.a}, {self.b}, {self.d}, {self.c})"


def _partial_quotients(value: QuadNumber) -> Iterator[int]:
    """The partial quotients ``a_1, a_2, ...`` of an irrational value
    ``[a_0; a_1, ...]``, without end: the integer recurrence on
    ``x = (p + sqrt(n))/q`` with ``q`` dividing ``n - p*p``, where
    ``1/(x - a)`` is ``(p' + sqrt(n))/q'`` for ``p' = a*q - p`` and
    ``q' = (n - p'*p')/q``.  No :class:`QuadNumber` is built per level.
    """
    # x = (s*a*c + sqrt(b*b*d*c*c))/(s*c*c) for the sign s of b
    s = 1 if value.b > 0 else -1
    p, n, q = s * value.a * value.c, (value.b * value.c) ** 2 * value.d, s * value.c**2
    root = math.isqrt(n)
    # floor(x): sqrt(n) lies strictly between root and root + 1
    a = (p + root + (q < 0)) // q
    while True:
        p = a * q - p
        q = (n - p * p) // q
        a = (p + root + (q < 0)) // q
        yield a


ZERO = QuadNumber(0)
ONE = QuadNumber(1)
