"""The reverse decompositions by subtraction that the Euclid steps by
quotient of ``morphisms.is_standard_morphism`` and
``morphisms._standard_images`` replaced, kept as their oracles."""


def standard_loop(x: bytes, y: bytes) -> bool:
    """Whether the non-empty images ``x``, ``y`` reduce to the base pair
    ``(0, 1)`` in this order, stripping one copy of the shorter image off
    the longer one at a time.  An empty image would never be stripped
    off, so the loop is only for non-empty ones."""
    while True:
        if (x, y) == (b"\x00", b"\x01"):
            return True
        if len(y) > len(x) and y.startswith(x):
            y = y[len(x):]
        elif len(x) > len(y) and x.startswith(y):
            x = x[len(y):]
        else:
            return False


def subtraction_standard_images(matrix) -> tuple[bytes, bytes]:
    """The letter images of the standard morphism with the unimodular
    ``matrix``, by the reduction that the Euclid steps of
    ``morphisms._standard_images`` replaced: the rows, exchanged for
    determinant -1, lose one copy of each other at a time down to the
    identity, and each subtraction is replayed as one concatenation."""
    r1, r2 = matrix.rows() if matrix.det == 1 else matrix.rows()[::-1]
    ops = []
    while (r1, r2) != ((1, 0), (0, 1)):
        if r2[0] >= r1[0] and r2[1] >= r1[1]:
            ops.append("L")
            r2 = (r2[0] - r1[0], r2[1] - r1[1])
        elif r1[0] >= r2[0] and r1[1] >= r2[1]:
            ops.append("R")
            r1 = (r1[0] - r2[0], r1[1] - r2[1])
        else:
            raise AssertionError(f"rows {r1}, {r2} admit no subtraction")
    x, y = b"\x00", b"\x01"
    for op in reversed(ops):
        if op == "L":
            y = x + y
        else:
            x = y + x
    return (x, y) if matrix.det == 1 else (y, x)
