"""Binary and ternary morphisms and their incidence matrices.

The binary half implements the classical structure theory of Sturmian
morphisms: every non-negative matrix with determinant +-1 carries
exactly one standard morphism (built here by reverse L/R decomposition
on Parikh vectors), and the full set of Sturmian morphisms with that
matrix is the chain of successive right conjugates of the standard one.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .errors import (
    AlphabetError,
    DomainError,
    MatrixDecompositionError,
    NotSturmianError,
    NotUnimodularError,
    ParseError,
)
from .iet import coding_word_k
from .words import Alphabet, FiniteWord, parikh


@dataclass(frozen=True)
class IntMatrix2:
    """2x2 non-negative integer matrix with rows (p0, q0) and (p1, q1)."""

    p0: int
    q0: int
    p1: int
    q1: int

    def __post_init__(self) -> None:
        if min(self.p0, self.q0, self.p1, self.q1) < 0:
            raise DomainError("incidence matrix entries must be non-negative")

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


@dataclass(frozen=True)
class IntMatrix3:
    """3x3 integer matrix, row-major.

    Incidence matrices of ternary morphisms are non-negative, but the
    type admits arbitrary integers so that signed products (as in the
    B*E*B^T test) can be represented too.
    """

    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        if len(rows) != 3 or any(len(row) != 3 for row in rows):
            raise DomainError("a 3x3 matrix needs exactly nine entries")
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

    def inverse_unimodular(self) -> "IntMatrix3":
        """Exact integer inverse; only valid when ``det`` is +-1."""
        d = self.det()
        if abs(d) != 1:
            raise NotUnimodularError(f"matrix {self} has determinant {d}")
        (a, b, c), (e, f, g), (h, i, j) = self.entries
        adj = (
            (f * j - g * i, c * i - b * j, b * g - c * f),
            (g * h - e * j, a * j - c * h, c * e - a * g),
            (e * i - f * h, b * h - a * i, a * f - b * e),
        )
        return IntMatrix3(tuple(tuple(x * d for x in row) for row in adj))

    def row_sums(self) -> tuple[int, int, int]:
        return tuple(sum(row) for row in self.entries)

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


_INT_RE = re.compile(r"[+-]?\d+")


def _matrix_entry(cell: str, text: str) -> int:
    """One entry of a parsed matrix; a run of digits that ``int`` refuses
    is longer than the interpreter's digit limit
    (``sys.get_int_max_str_digits``)."""
    try:
        return int(cell)
    except ValueError:
        if _INT_RE.fullmatch(cell):
            raise ParseError(
                f"integer of {len(cell.lstrip('+-'))} digits in matrix entry exceeds "
                f"the limit of {sys.get_int_max_str_digits()} digits"
            ) from None
        raise ParseError(f"invalid matrix entry {cell!r} in {text!r}") from None


@dataclass(frozen=True)
class Morphism:
    """A morphism over one alphabet, given by its letter images."""

    alphabet: Alphabet
    images: tuple[FiniteWord, ...]

    def __post_init__(self) -> None:
        if len(self.images) != self.alphabet.size:
            raise AlphabetError(
                f"need {self.alphabet.size} images for {self.alphabet.name}"
            )
        for image in self.images:
            if image.alphabet is not self.alphabet:
                raise AlphabetError("morphism image over the wrong alphabet")

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
        table = [image.letters for image in self.images]
        return FiniteWord(self.alphabet, b"".join(map(table.__getitem__, word.letters)))

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


_BASE_ROWS = ((1, 0), (0, 1))


def _lr_reduction(rows: tuple[tuple[int, int], tuple[int, int]]) -> list[str]:
    """Peel a determinant +1 non-negative matrix down to the identity,
    recording which pair operator produced each layer.

    ``L`` adds the first row into the second, ``R`` the second into the
    first; for a unimodular matrix exactly one subtraction keeps the
    entries non-negative at every step.
    """
    r1, r2 = rows
    ops: list[str] = []
    guard = r1[0] + r1[1] + r2[0] + r2[1]
    while (r1, r2) != _BASE_ROWS:
        if guard < 0:
            raise MatrixDecompositionError(f"reduction of {rows} does not terminate")
        if r2[0] >= r1[0] and r2[1] >= r1[1]:
            ops.append("L")
            r2 = (r2[0] - r1[0], r2[1] - r1[1])
        elif r1[0] >= r2[0] and r1[1] >= r2[1]:
            ops.append("R")
            r1 = (r1[0] - r2[0], r1[1] - r2[1])
        else:
            raise MatrixDecompositionError(
                f"rows {r1}, {r2} admit no non-negative L/R reduction"
            )
        guard -= 1
    return ops


def standard_morphism(matrix: IntMatrix2) -> Morphism:
    """The unique standard morphism with the given incidence matrix.

    The matrix is reduced on the Parikh level to the base pair (0, 1);
    replaying the recorded operators on actual words rebuilds the
    standard pair ``(x, y)``.  For determinant +1 the images are
    ``(x, y)``; for determinant -1 they are swapped.
    """
    det = matrix.det
    if abs(det) != 1:
        raise NotUnimodularError(f"matrix {matrix} has determinant {det}")
    rows = matrix.rows() if det == 1 else (matrix.rows()[1], matrix.rows()[0])
    ops = _lr_reduction(rows)
    x = FiniteWord(Alphabet.BINARY, b"\x00")
    y = FiniteWord(Alphabet.BINARY, b"\x01")
    for op in reversed(ops):
        if op == "L":
            y = x + y
        else:
            x = y + x
    images = (x, y) if det == 1 else (y, x)
    return Morphism(Alphabet.BINARY, images)


def is_standard_morphism(morphism: Morphism) -> bool:
    """Whether the images form a standard pair, in either order.

    Decided by reverse decomposition on the words themselves (strip the
    shorter image off the longer one until the base pair appears), which
    is independent of the Parikh-level construction above.
    """
    if morphism.alphabet is not Alphabet.BINARY:
        raise AlphabetError("standard morphisms are binary")

    def reduces(x: bytes, y: bytes) -> bool:
        while True:
            if (x, y) == (b"\x00", b"\x01"):
                return True
            if len(y) > len(x) and y.startswith(x):
                y = y[len(x):]
            elif len(x) > len(y) and x.startswith(y):
                x = x[len(y):]
            else:
                return False

    first, second = (image.letters for image in morphism.images)
    return reduces(first, second) or reduces(second, first)


def right_conjugate_step(morphism: Morphism) -> Morphism | None:
    """Conjugate by the shared first letter, or ``None`` when the images
    do not all start with the same letter."""
    if not morphism.is_nonerasing:
        raise DomainError("right conjugation needs a non-erasing morphism")
    first = {image.letters[0] for image in morphism.images}
    if len(first) != 1:
        return None
    head = bytes([first.pop()])
    return Morphism(
        morphism.alphabet,
        tuple(
            FiniteWord(morphism.alphabet, image.letters[1:] + head)
            for image in morphism.images
        ),
    )


def enumerate_sturmian(matrix: IntMatrix2) -> tuple[Morphism, ...]:
    """All Sturmian morphisms with the given incidence matrix.

    The list is the right-conjugation chain started at the standard
    morphism; it contains exactly ``matrix.norm - 1`` distinct
    morphisms.
    """
    chain = [standard_morphism(matrix)]
    while True:
        nxt = right_conjugate_step(chain[-1])
        if nxt is None:
            return tuple(chain)
        chain.append(nxt)
        if len(chain) > matrix.norm:
            raise MatrixDecompositionError(
                f"conjugation chain for {matrix} exceeded expected length"
            )


_WORD_01 = FiniteWord(Alphabet.BINARY, b"\x00\x01")


def k_index(morphism: Morphism) -> int:
    """The unique ``k`` with ``morphism(01) == coding_word_k(p, N, k)``,
    where N is the matrix norm and p the count of zeros in the image.

    Position ``i`` of ``coding_word_k(p, N, k)`` depends on ``k - i*p``
    only, so the word for ``k`` is the rotation of the word for 0 by the
    ``j`` with ``k == -j*p (mod N)``.  One search in the doubled word for
    0 finds ``j``.
    """
    matrix = incidence_matrix(morphism)
    if not isinstance(matrix, IntMatrix2) or not matrix.is_unimodular:
        raise NotSturmianError(f"{morphism} has no unimodular incidence matrix")
    c0 = coding_word_k(matrix.p, matrix.norm, 0).letters
    return _rotation_index(morphism(_WORD_01).letters, c0, matrix.p, matrix.norm)


def _rotation_index(image01: bytes, c0: bytes, p: int, norm: int) -> int:
    """``k_index`` of a morphism with image ``image01`` of 01, given
    ``c0 = coding_word_k(p, norm, 0).letters``; a caller indexing every
    morphism of one matrix codes ``c0`` once."""
    j = (c0 + c0).find(image01)
    if j < 0:
        image = FiniteWord(Alphabet.BINARY, image01)
        raise NotSturmianError(f"image {image} of 01 is not a rotation coding word")
    return (-j * p) % norm


def is_sturmian_morphism(morphism: Morphism) -> bool:
    """Membership in the Sturmian monoid: unimodular non-negative matrix
    and occurrence in the conjugation chain of its standard morphism."""
    if morphism.alphabet is not Alphabet.BINARY:
        raise AlphabetError("Sturmian morphisms are binary")
    if not morphism.is_nonerasing:
        return False
    matrix = incidence_matrix(morphism)
    if not matrix.is_unimodular:
        return False
    return morphism in enumerate_sturmian(matrix)
