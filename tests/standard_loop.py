"""The reverse decomposition by subtraction that the Euclid steps by
quotient of ``morphisms.is_standard_morphism`` replaced, kept as their
oracle."""


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
