"""The ternarization matrix computed the slow way, by conjugating a
block matrix with a fixed change of basis, kept as the oracle of the
closed form ``matrices.ternarization_matrix``."""

from ietwords import IntMatrix2, IntMatrix3, NotUnimodularError

P_BLOCK = IntMatrix3(((1, 0, 0), (1, 1, 1), (0, 1, 0)))


def inverse_unimodular(matrix: IntMatrix3) -> IntMatrix3:
    """Exact integer inverse; only valid when ``det`` is +-1."""
    d = matrix.det()
    if abs(d) != 1:
        raise NotUnimodularError(f"matrix {matrix} has determinant {d}")
    (a, b, c), (e, f, g), (h, i, j) = matrix.entries
    adj = (
        (f * j - g * i, c * i - b * j, b * g - c * f),
        (g * h - e * j, a * j - c * h, c * e - a * g),
        (e * i - f * h, b * h - a * i, a * f - b * e),
    )
    return IntMatrix3(tuple(tuple(x * d for x in row) for row in adj))


def block_conjugated_matrix(matrix: IntMatrix2, b0: int, b1: int) -> IntMatrix3:
    """``P * [[A, (b0; b1)], [0 0 det]] * P^-1`` for the matrix ``A``."""
    block = IntMatrix3(
        (
            (matrix.p0, matrix.q0, b0),
            (matrix.p1, matrix.q1, b1),
            (0, 0, matrix.det),
        )
    )
    return P_BLOCK @ block @ inverse_unimodular(P_BLOCK)
