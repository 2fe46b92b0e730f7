"""Binary and ternary morphisms and their incidence matrices.

The binary half implements the classical structure theory of Sturmian
morphisms: every non-negative matrix with determinant +-1 carries
exactly one standard morphism (built here by Euclid steps on the rows
of the matrix), and the full set of Sturmian morphisms with that matrix
is the chain of successive right conjugates of the standard one, each a
rotation of the standard pair.
"""

from __future__ import annotations

import re
from typing import Iterator

from ._value import Value
from .errors import (
    AlphabetError,
    DomainError,
    MatrixDecompositionError,
    NotSturmianError,
    NotUnimodularError,
    ParseError,
    _INT_PATTERN,
    _parse_int,
    _require_range,
)
from .iet import MAX_CODING_LENGTH, coding_word_k
from .words import Alphabet, FiniteWord, _substitute, parikh


class IntMatrix2(Value):
    """2x2 non-negative integer matrix with rows (p0, q0) and (p1, q1)."""

    __slots__ = ("p0", "q0", "p1", "q1")
    p0: int
    q0: int
    p1: int
    q1: int

    def __init__(self, p0: int, q0: int, p1: int, q1: int) -> None:
        if not type(p0) is type(q0) is type(p1) is type(q1) is int:
            bad = next(x for x in (p0, q0, p1, q1) if type(x) is not int)
            raise DomainError(f"matrix entry {bad!r} is not an integer")
        if min(p0, q0, p1, q1) < 0:
            raise DomainError("incidence matrix entries must be non-negative")
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "p1", p1)
        object.__setattr__(self, "q1", q1)

    @property
    def det(self) -> int:
        return self.p0 * self.q1 - self.q0 * self.p1

    @property
    def norm(self) -> int:
        return self.p0 + self.q0 + self.p1 + self.q1

    @property
    def p(self) -> int:
        """Column sum p0 + p1 (zeros in the image of the word 01)."""
        return self.p0 + self.p1

    @property
    def q(self) -> int:
        """Column sum q0 + q1 (ones in the image of the word 01)."""
        return self.q0 + self.q1

    @property
    def is_unimodular(self) -> bool:
        return abs(self.det) == 1

    def rows(self) -> tuple[tuple[int, int], tuple[int, int]]:
        return (self.p0, self.q0), (self.p1, self.q1)

    def __matmul__(self, other: "IntMatrix2") -> "IntMatrix2":
        (a, b), (c, d) = self.rows()
        (e, f), (g, h) = other.rows()
        return IntMatrix2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    @classmethod
    def parse(cls, text: str) -> "IntMatrix2":
        entries = _parse_int_grid(text, 2)
        return cls(entries[0][0], entries[0][1], entries[1][0], entries[1][1])

    def __str__(self) -> str:
        return f"{self.p0},{self.q0};{self.p1},{self.q1}"


class IntMatrix3(Value):
    """3x3 integer matrix, row-major.

    Incidence matrices of ternary morphisms are non-negative, but the
    type admits arbitrary integers so that signed products (as in the
    B*E*B^T test) can be represented too.
    """

    __slots__ = ("entries",)
    entries: tuple[tuple[int, int, int], ...]

    def __init__(self, entries) -> None:
        rows = tuple(map(tuple, entries))
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise DomainError("a 3x3 matrix needs exactly nine entries")
        for row in rows:
            for x in row:
                if type(x) is not int:
                    raise DomainError(f"matrix entry {x!r} is not an integer")
        object.__setattr__(self, "entries", rows)

    def __getitem__(self, i: int) -> tuple[int, int, int]:
        return self.entries[i]

    @property
    def is_nonnegative(self) -> bool:
        return all(x >= 0 for row in self.entries for x in row)

    def det(self) -> int:
        (a, b, c), (d, e, f), (g, h, i) = self.entries
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    def transpose(self) -> "IntMatrix3":
        return IntMatrix3(tuple(zip(*self.entries)))

    def __neg__(self) -> "IntMatrix3":
        return IntMatrix3(tuple(tuple(-x for x in row) for row in self.entries))

    def __matmul__(self, other: "IntMatrix3") -> "IntMatrix3":
        cols = other.transpose().entries
        return IntMatrix3(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.entries
            )
        )

    @classmethod
    def parse(cls, text: str) -> "IntMatrix3":
        return cls(_parse_int_grid(text, 3))

    def __str__(self) -> str:
        return ";".join(",".join(str(x) for x in row) for row in self.entries)


def _parse_int_grid(text: str, size: int) -> tuple[tuple[int, ...], ...]:
    rows = "".join(text.split()).split(";")
    if len(rows) != size:
        raise ParseError(f"expected {size} matrix rows separated by ';' in {text!r}")
    grid = []
    for row in rows:
        cells = row.split(",")
        if len(cells) != size:
            raise ParseError(f"expected {size} entries in matrix row {row!r}")
        grid.append(tuple(_matrix_entry(cell, text) for cell in cells))
    return tuple(grid)


_INT_RE = re.compile(_INT_PATTERN)


def _matrix_entry(cell: str, text: str) -> int:
    """One entry of a parsed matrix."""
    if not _INT_RE.fullmatch(cell):
        raise ParseError(f"invalid matrix entry {cell!r} in {text!r}")
    return _parse_int(cell, "matrix entry")


class Morphism(Value):
    """A morphism over one alphabet, given by its letter images."""

    __slots__ = ("alphabet", "images")
    alphabet: Alphabet
    images: tuple[FiniteWord, ...]

    def __init__(self, alphabet: Alphabet, images) -> None:
        images = tuple(images)
        if len(images) != alphabet.size:
            raise AlphabetError(f"need {alphabet.size} images for {alphabet.name}")
        for image in images:
            if image.alphabet is not alphabet:
                raise AlphabetError("morphism image over the wrong alphabet")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "Morphism":
        return cls(
            alphabet,
            tuple(FiniteWord(alphabet, bytes([i])) for i in range(alphabet.size)),
        )

    @classmethod
    def parse(cls, text: str) -> "Morphism":
        """Parse ``"0->001,1->00101"`` or ``"A->AB,B->ABABB,C->ABAC"``."""
        compact = "".join(text.split())
        seen: dict[str, str] = {}
        for piece in compact.split(","):
            lhs, arrow, rhs = piece.partition("->")
            if arrow != "->" or len(lhs) != 1:
                raise ParseError(f"malformed morphism rule {piece!r} in {text!r}")
            if lhs in seen:
                raise ParseError(f"duplicate letter {lhs!r} in morphism {text!r}")
            seen[lhs] = rhs
        domains = {frozenset("01"): Alphabet.BINARY, frozenset("ABC"): Alphabet.TERNARY}
        alphabet = domains.get(frozenset(seen))
        if alphabet is None:
            raise ParseError(
                f"morphism {text!r} must map exactly the letters 0,1 or A,B,C"
            )
        images = tuple(
            FiniteWord.parse(seen[ch], alphabet) for ch in alphabet.chars
        )
        return cls(alphabet, images)

    @property
    def is_nonerasing(self) -> bool:
        return all(len(image) > 0 for image in self.images)

    def __call__(self, word: FiniteWord) -> FiniteWord:
        if word.alphabet is not self.alphabet:
            raise AlphabetError("word over the wrong alphabet for this morphism")
        images = [image.letters for image in self.images]
        return FiniteWord(self.alphabet, _substitute(word.letters, images))

    def __str__(self) -> str:
        chars = self.alphabet.chars
        return ",".join(f"{chars[i]}->{image}" for i, image in enumerate(self.images))

    def __repr__(self) -> str:
        return f"Morphism({str(self)!r})"


def compose(outer: Morphism, inner: Morphism) -> Morphism:
    """The morphism ``a -> outer(inner(a))``."""
    if outer.alphabet is not inner.alphabet:
        raise AlphabetError("cannot compose morphisms over different alphabets")
    return Morphism(outer.alphabet, tuple(outer(image) for image in inner.images))


def incidence_matrix(morphism: Morphism) -> IntMatrix2 | IntMatrix3:
    """Matrix whose (a, b) entry counts letter b in the image of a."""
    rows = tuple(parikh(image) for image in morphism.images)
    if morphism.alphabet is Alphabet.BINARY:
        return IntMatrix2(rows[0][0], rows[0][1], rows[1][0], rows[1][1])
    return IntMatrix3(rows)


def _require_unimodular(matrix: IntMatrix2) -> None:
    if not matrix.is_unimodular:
        raise NotUnimodularError(f"matrix {matrix} has determinant {matrix.det}")


def _require_matrix(matrix: IntMatrix2, max_norm: int) -> None:
    """Reject a matrix that is not unimodular, and then one whose norm is
    above ``max_norm``, before any letter of its morphisms is built."""
    _require_unimodular(matrix)
    _require_range(matrix.norm, 2, max_norm, "matrix norm")


def _standard_images(matrix: IntMatrix2) -> tuple[bytes, bytes]:
    """The letter strings of the images of 0 and 1 of the standard
    morphism with this matrix.

    The rows, exchanged for determinant -1, are reduced to the identity
    by Euclid steps, each taking from one row the most copies of the
    other that keep the entries non-negative; replayed in reverse from
    ``0, 1``, the steps build the pair that :func:`is_standard_morphism`
    decomposes, exchanged back for determinant -1.
    """
    _require_unimodular(matrix)
    r1, r2 = matrix.rows() if matrix.det == 1 else matrix.rows()[::-1]
    # each step takes at least one copy of a non-zero row, and no row of
    # a unimodular matrix is zero, so the entries fall at every step
    steps = []
    while (r1, r2) != ((1, 0), (0, 1)):
        if q := min(b // a for a, b in zip(r1, r2) if a):
            steps.append((q, True))
            r2 = (r2[0] - q * r1[0], r2[1] - q * r1[1])
        elif q := min(a // b for a, b in zip(r1, r2) if b):
            steps.append((q, False))
            r1 = (r1[0] - q * r2[0], r1[1] - q * r2[1])
        else:
            raise MatrixDecompositionError(
                f"rows {r1}, {r2} admit no non-negative L/R reduction"
            )
    x, y = b"\x00", b"\x01"
    for q, from_second in reversed(steps):
        if from_second:
            y = x * q + y
        else:
            x = y * q + x
    return (x, y) if matrix.det == 1 else (y, x)


def _chain_place(images: tuple[bytes, bytes], i: int) -> tuple[bytes, bytes]:
    """Place ``i`` of the conjugation chain of the standard pair ``images``:
    both images rotated by ``i`` letters, as ``i`` right conjugations
    rotate them, each by their shared first letter."""
    x, y = images
    i, j = i % len(x), i % len(y)
    return x[i:] + x[:i], y[j:] + y[:j]


def _sturmian_images(matrix: IntMatrix2) -> Iterator[tuple[bytes, bytes]]:
    """The letter strings of the images of 0 and 1 of every Sturmian
    morphism with this matrix, in the order of :func:`enumerate_sturmian`:
    the chain places of its standard pair, up to the first whose images
    start with different letters."""
    standard = _standard_images(matrix)
    for i in range(matrix.norm):
        x, y = _chain_place(standard, i)
        yield x, y
        if x[0] != y[0]:
            return
    raise MatrixDecompositionError(f"conjugation chain for {matrix} exceeded expected length")


def _binary_morphism(images: tuple[bytes, bytes]) -> Morphism:
    return Morphism(Alphabet.BINARY, (FiniteWord(Alphabet.BINARY, w) for w in images))


def standard_morphism(matrix: IntMatrix2) -> Morphism:
    """The unique standard morphism with the given incidence matrix; a
    norm above :data:`iet.MAX_CODING_LENGTH` is rejected first."""
    _require_matrix(matrix, MAX_CODING_LENGTH)
    return _binary_morphism(_standard_images(matrix))


def is_standard_morphism(morphism: Morphism) -> bool:
    """Whether the images form a standard pair, in either order.

    Decided by reverse decomposition on the words themselves (strip the
    shorter image off the longer one until the base pair appears), which
    is independent of the Parikh-level construction above.  Each step of
    the decomposition strips at once all the copies of the shorter image
    that leave the longer one non-empty, as a Euclid step by quotient.
    """
    if morphism.alphabet is not Alphabet.BINARY:
        raise AlphabetError("standard morphisms are binary")

    def reduces(x: bytes, y: bytes) -> bool:
        # the images stay non-empty once they are: an empty one is in no
        # standard pair, and the base pair has equal lengths
        while x and y and len(x) != len(y):
            if len(x) < len(y):
                q = (len(y) - 1) // len(x)
                if not y.startswith(x * q):
                    return False
                y = y[q * len(x):]
            else:
                q = (len(x) - 1) // len(y)
                if not x.startswith(y * q):
                    return False
                x = x[q * len(y):]
        return (x, y) == (b"\x00", b"\x01")

    first, second = (image.letters for image in morphism.images)
    return reduces(first, second) or reduces(second, first)


# the largest norm N of a matrix whose Sturmian morphisms are listed
# (``enum --matrix``): N - 1 morphisms of N letters each.  On a 2-core
# x86-64 host ``enum`` at norm 4996-4999 (``2499,1;2498,1``,
# ``1,1;2497,2498``, ``1250,1249;1249,1248``) takes 0.3-0.4 s and 40 MB
# in a fresh process, and prints 25 MB
MAX_ENUM_NORM = 5000


def enumerate_sturmian(matrix: IntMatrix2) -> tuple[Morphism, ...]:
    """All Sturmian morphisms with the given incidence matrix.

    The list is the right-conjugation chain started at the standard
    morphism; it contains exactly ``matrix.norm - 1`` distinct
    morphisms.  A matrix that is not unimodular, and then a norm above
    :data:`MAX_ENUM_NORM`, is rejected before the chain is built.
    """
    _require_matrix(matrix, MAX_ENUM_NORM)
    return tuple(map(_binary_morphism, _sturmian_images(matrix)))


def k_index(morphism: Morphism) -> int:
    """The unique ``k`` with ``morphism(01) == coding_word_k(p, N, k)``,
    where N is the matrix norm and p the count of zeros in the image."""
    matrix = incidence_matrix(morphism)
    if not isinstance(matrix, IntMatrix2) or not matrix.is_unimodular:
        raise NotSturmianError(f"{morphism} has no unimodular incidence matrix")
    return _chain_indices(matrix, tuple(image.letters for image in morphism.images), 1)[0]


def _chain_indices(matrix: IntMatrix2, images: tuple[bytes, ...], length: int) -> list[int]:
    """The :func:`k_index` of the morphism with letter images ``images``
    and matrix ``matrix``, and of the ``length - 1`` places after it in
    its conjugation chain, from one search.

    Position ``i`` of ``coding_word_k(p, N, k)`` depends on ``k - i*p``
    only, so the word for ``k`` is the rotation of the word for 0 by the
    ``j`` with ``k == -j*p (mod N)``.  One search in the doubled word for
    0 finds ``j``.  The next chain place rotates both images by their
    shared first letter, which rotates the image of 01 by one letter: it
    moves one place on in the word for 0, lowering ``k`` by ``p``.
    """
    p, norm = matrix.p, matrix.norm
    c0 = coding_word_k(p, norm, 0).letters
    image01 = b"".join(images)
    j = (c0 + c0).find(image01)
    if j < 0:
        image = FiniteWord(Alphabet.BINARY, image01)
        raise NotSturmianError(f"image {image} of 01 is not a rotation coding word")
    return [(-(j + i) * p) % norm for i in range(length)]


def is_sturmian_morphism(morphism: Morphism) -> bool:
    """Membership in the Sturmian monoid: unimodular non-negative matrix
    and occurrence in the conjugation chain of its standard morphism.

    Place ``i`` rotates the standard images, of coprime lengths ``a`` and
    ``b`` (the row sums of a unimodular matrix), by ``i``.  The first with
    rotations ``r`` and ``s`` is the ``i < a*b`` with ``i = r (mod a)``
    and ``i = s (mod b)``; it is in the chain if no earlier place has
    images that start with different letters.
    """
    if morphism.alphabet is not Alphabet.BINARY:
        raise AlphabetError("Sturmian morphisms are binary")
    if not morphism.is_nonerasing:
        return False
    matrix = incidence_matrix(morphism)
    if not matrix.is_unimodular:
        return False
    x, y = (image.letters for image in morphism.images)
    x0, y0 = _standard_images(matrix)
    a, b = len(x0), len(y0)
    r, s = (x0 + x0).find(x), (y0 + y0).find(y)
    i = r + a * ((s - r) * pow(a, -1, b) % b)
    # then the first letters of the images at the places before i
    return min(r, s) >= 0 and i < matrix.norm and (
        (x0 * (i // a + 1))[:i] == (y0 * (i // b + 1))[:i]
    )
