"""The letter-by-letter synchronous scan that ``amicability._scan`` and
the bit test of ``matrices._accepted_sets`` replaced, kept as their
oracle, and that bit test on one pair."""

from ietwords import NotAmicableError


def scan_loop(left: bytes, right: bytes) -> bytes:
    """A for 0/0, C for 1/1 and B for a 01-against-10 block, one letter
    at a time; any other mismatch raises :class:`NotAmicableError` at its
    first position, with the messages of ``_scan``."""
    if len(left) != len(right):
        raise NotAmicableError(
            f"words of different lengths {len(left)} and {len(right)}"
        )
    out = bytearray()
    i, n = 0, len(left)
    while i < n:
        x, y = left[i], right[i]
        if x == y:
            out.append(0 if x == 0 else 2)
            i += 1
            continue
        if x == 1:
            raise NotAmicableError(f"mismatch 1 against 0 at position {i}")
        if i + 1 == n:
            raise NotAmicableError(f"unpaired 01/10 block at final position {i}")
        if left[i + 1] != 1 or right[i + 1] != 0:
            raise NotAmicableError(f"broken 01/10 block at position {i}")
        out.append(1)
        i += 2
    return bytes(out)


def scan_loop_b(left: bytes, right: bytes) -> int | None:
    """The B-count of the loop, or None when it fails: the oracle of the
    bit test."""
    try:
        return scan_loop(left, right).count(1)
    except NotAmicableError:
        return None


def scan_b(x: int, y: int) -> int | None:
    """The decision of the scan on two binary letter strings of one
    length, read by ``amicability._letters_int``: the B-count when the
    scan succeeds, else None, by the identity ``x - y == ~x & y`` that
    ``matrices._accepted_sets`` tests in its window.  The lengths are
    not compared."""
    blocks = ~x & y
    if x - y != blocks:
        return None
    return blocks.bit_count()
