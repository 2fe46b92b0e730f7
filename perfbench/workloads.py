"""The benchmark workloads and their output oracles.

Each workload is a fixed list of ``ietwords`` command lines (one fresh
interpreter each) plus a check of their stdout.  The checks are written
here from the paper's statements and use nothing from ``ietwords``:

- ``counting``: the unimodular matrices are re-enumerated and the closed
  pair-count formula is recomputed for each of them;
- ``preserve``: the number of checked ternarizations per matrix must equal
  the closed formula (73 in total for norm <= 6), every one must be
  preserved, and the degenerate trap must be rejected;
- ``orbit``: the 2iet word must satisfy ``zeros(first m letters) ==
  -floor(x0 - m*slope)``, and the two projections of the 3iet word must be
  rotation codings with slope ``(alpha+beta)/(1+beta)`` started at
  ``x0/(1+beta)`` and ``(x0+beta)/(1+beta)``.

A check returns ``(attempted, failed)``: one item per matrix,
ternarization (plus the trap) or coded letter.  A non-zero exit code, an
unreadable output or a summary that is not ``ok`` fails every item.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

COUNTING_MAX_NORM = 24
PRESERVE_MAX_NORM = 6  # the suite's default, not passed on its command line
ORBIT_LETTERS = 50_000
# ietwords factors the radicand by trial division on every number it
# builds; primes below 9 take the same single trial division each, so
# the radicand drawn does not change the cost of a pass
SQUAREFREE = (5, 7)

Output = tuple[int, str]  # exit code and stdout of one command


@dataclass
class Workload:
    name: str
    commands: list[list[str]]
    items: int  # work items per pass: matrices, ternarizations or letters
    check: Callable[[list[Output]], tuple[int, int]]
    params: dict  # recorded in the run's context


# -- exact arithmetic in Q(sqrt(d)) ---------------------------------------


@dataclass(frozen=True)
class Surd:
    """The real number ``x + y*sqrt(d)`` with rational ``x``, ``y``."""

    x: Fraction
    y: Fraction
    d: int

    def __add__(self, other: "Surd") -> "Surd":
        return Surd(self.x + other.x, self.y + other.y, self.d)

    def __truediv__(self, other: "Surd") -> "Surd":
        # multiply by the conjugate of the denominator
        norm = other.x * other.x - other.y * other.y * self.d
        x = (self.x * other.x - self.y * other.y * self.d) / norm
        y = (self.y * other.x - self.x * other.y) / norm
        return Surd(x, y, self.d)

    def over_common_denominator(self) -> tuple[int, int, int]:
        """``(a, b, c)`` with ``self == (a + b*sqrt(d)) / c`` and ``c > 0``."""
        c = math.lcm(self.x.denominator, self.y.denominator)
        return int(self.x * c), int(self.y * c), c

    def floor(self) -> int:
        a, b, c = self.over_common_denominator()
        return _floor_surd(a, b, c, self.d)

    def literal(self) -> str:
        a, b, c = self.over_common_denominator()
        return f"({a}{b:+d}*sqrt({self.d}))/{c}"


def _floor_surd(a: int, b: int, c: int, d: int) -> int:
    """``floor((a + b*sqrt(d)) / c)`` for ``c > 0`` and non-square ``d``."""
    root = math.isqrt(b * b * d)  # floor(|b|*sqrt(d)), exact only when b == 0
    floor_b = root if b >= 0 else -root - 1
    return (a + floor_b) // c


def rotation_letters(start: Surd, slope: Surd) -> Iterator[int]:
    """Coding of ``x -> x - slope (mod 1)`` from ``start``: 0 on
    ``[0, slope)``, 1 elsewhere.

    Uses the closed form ``zeros among the first m letters ==
    -floor(start - m*slope)`` and never iterates the rotation itself.
    """
    lcm = math.lcm(
        start.x.denominator, start.y.denominator,
        slope.x.denominator, slope.y.denominator,
    )
    a0, b0 = int(start.x * lcm), int(start.y * lcm)
    da, db = int(slope.x * lcm), int(slope.y * lcm)
    zeros = -_floor_surd(a0, b0, lcm, start.d)
    for m in itertools.count(1):
        nxt = -_floor_surd(a0 - m * da, b0 - m * db, lcm, start.d)
        step = nxt - zeros
        if step not in (0, 1):
            raise ValueError(f"slope {slope} is not in (0, 1)")
        yield 1 - step
        zeros = nxt


def ternarize(first: Iterator[int], second: Iterator[int], n: int) -> str:
    """The ternary word of length ``n`` whose sigma01 / sigma10 projections
    start with ``first`` / ``second``: A for 0|0, C for 1|1, B for 01|10."""
    out = []
    while len(out) < n:
        x, y = next(first), next(second)
        if x == y:
            out.append("AC"[x])
        elif (x, y, next(first), next(second)) == (0, 1, 1, 0):
            out.append("B")
        else:
            raise ValueError("projections are not amicable")
    return "".join(out)


# -- output parsing and comparison ------------------------------------------


def _records(output: Output) -> tuple[list[dict], dict] | None:
    """Records and summary of one command, or None when it failed."""
    code, stdout = output
    try:
        lines = [json.loads(line) for line in stdout.splitlines()]
    except ValueError:
        return None
    if code != 0 or not lines or lines[-1].get("status") != "ok":
        return None
    return lines[:-1], lines[-1]


def _letter_mismatches(got: str, expected: str) -> int:
    """Wrong letters of ``got``, counting every missing or extra letter."""
    wrong = sum(a != b for a, b in zip(got, expected))
    return min(len(expected), wrong + abs(len(got) - len(expected)))


# -- counting ---------------------------------------------------------------


def unimodular(max_norm: int) -> list[tuple[int, int, int, int]]:
    """Non-negative ``(p0, q0, p1, q1)`` with determinant +-1 and
    ``2 <= norm <= max_norm``."""
    found = []
    for norm in range(2, max_norm + 1):
        for p0 in range(norm + 1):
            for q0 in range(norm + 1 - p0):
                for p1 in range(norm + 1 - p0 - q0):
                    q1 = norm - p0 - q0 - p1
                    if abs(p0 * q1 - q0 * p1) == 1:
                        found.append((p0, q0, p1, q1))
    return found


def pair_count(p0: int, q0: int, p1: int, q1: int) -> int:
    """Ordered amicable pairs with this matrix:
    ``m*(N-1) + m*(det-m)/2`` with ``m = min(p0+p1, q0+q1)``."""
    det = p0 * q1 - q0 * p1
    m = min(p0 + p1, q0 + q1)
    return m * (p0 + q0 + p1 + q1 - 1) + m * (det - m) // 2


def _matrix_key(p0: int, q0: int, p1: int, q1: int) -> str:
    return f"{p0},{q0};{p1},{q1}"


def check_counting(outputs: list[Output], max_norm: int = COUNTING_MAX_NORM) -> tuple[int, int]:
    expected = {_matrix_key(*m): pair_count(*m) for m in unimodular(max_norm)}
    attempted = len(expected)
    parsed = _records(outputs[0])
    if parsed is None:
        return attempted, attempted
    records, summary = parsed
    seen = set()
    good = extra = 0
    for record in records:
        key = record.get("matrix")
        if key not in expected or key in seen:
            extra += 1
            continue
        seen.add(key)
        formula = expected[key]
        good += (
            record.get("brute") == formula
            and record.get("formula") == formula
            and record.get("per_b_match") is True
            and record.get("match") is True
        )
    failed = attempted - good + extra
    if summary.get("matrices") != attempted:
        failed += 1
    return attempted, min(attempted, failed)


def counting(seed: int) -> Workload:
    argv = ["verify", "--suite", "counting", "--max-norm", str(COUNTING_MAX_NORM)]
    return Workload(
        "counting",
        [argv],
        items=len(unimodular(COUNTING_MAX_NORM)),
        check=check_counting,
        params={"max_norm": COUNTING_MAX_NORM},
    )


# -- preserve ---------------------------------------------------------------


def check_preserve(outputs: list[Output], max_norm: int = PRESERVE_MAX_NORM) -> tuple[int, int]:
    expected = {_matrix_key(*m): pair_count(*m) for m in unimodular(max_norm)}
    ternarizations = sum(expected.values())
    attempted = ternarizations + 1  # and the degenerate trap
    parsed = _records(outputs[0])
    if parsed is None:
        return attempted, attempted
    records, summary = parsed
    found: dict[str, set] = {}
    failed = 0
    trap_seen = False
    for record in records:
        if "trap_rejected" in record:
            failed += trap_seen or record.get("trap_rejected") is not True
            trap_seen = True
            continue
        key = record.get("matrix")
        pairs = found.setdefault(key, set())
        pair = (record.get("k"), record.get("kbar"))
        failed += (
            key not in expected
            or pair in pairs
            or record.get("preserved") is not True
            or record.get("detail") is not None
        )
        pairs.add(pair)
    failed += not trap_seen
    failed += sum(abs(count - len(found.get(key, ()))) for key, count in expected.items())
    if summary.get("checked") != ternarizations:
        failed += 1
    return attempted, min(attempted, failed)


def preserve(seed: int) -> Workload:
    items = sum(pair_count(*m) for m in unimodular(PRESERVE_MAX_NORM))
    return Workload(
        "preserve",
        [["verify", "--suite", "preserve"]],
        items=items,
        check=check_preserve,
        params={"max_norm": PRESERVE_MAX_NORM, "n": 1000, "kmax": 20},
    )


# -- orbit ------------------------------------------------------------------


def _draw(rng: random.Random, d: int, lo: Fraction, hi: Fraction) -> Surd:
    """An irrational ``(a + b*sqrt(d)) / c`` in ``(lo, hi)`` with small
    coefficients."""
    while True:
        c = rng.randint(2, 12)
        b = rng.choice((-2, -1, 1, 2))
        a = rng.randint(-6 * c, 6 * c)
        value = Surd(Fraction(a, c), Fraction(b, c), d)
        if Surd(value.x - lo, value.y, d).floor() >= 0 > Surd(value.x - hi, value.y, d).floor():
            return value


def orbit_params(seed: int) -> tuple[Surd, Surd, Surd, Surd, Surd]:
    """``(slope, x0, alpha, beta, x3)`` in one field ``Q(sqrt(d))`` drawn
    from ``seed``; degenerate ``(alpha, beta)`` are redrawn.

    The coding loops compare and add once or twice per letter depending on
    which interval the orbit is in, so the time per letter follows the
    interval lengths.  Narrow windows for slope, alpha and beta keep the
    work of a pass within a few percent across seeds, while the start
    points range over all of [0, 1).
    """
    rng = random.Random(seed)
    d = rng.choice(SQUAREFREE)
    unit = (Fraction(0), Fraction(1))
    slope = _draw(rng, d, Fraction(45, 100), Fraction(55, 100))
    x0 = _draw(rng, d, *unit)
    one = Surd(Fraction(1), Fraction(0), d)
    while True:
        alpha = _draw(rng, d, Fraction(30, 100), Fraction(40, 100))
        beta = _draw(rng, d, Fraction(20, 100), Fraction(30, 100))
        minus_alpha = Surd(-alpha.x, -alpha.y, d)
        if ((one + minus_alpha) / (one + beta)).y != 0:
            break  # a rational rotation number gives an eventually periodic word
    return slope, x0, alpha, beta, _draw(rng, d, *unit)


def expected_word2(slope: Surd, x0: Surd, n: int) -> str:
    letters = rotation_letters(x0, slope)
    return "".join("01"[next(letters)] for _ in range(n))


def expected_word3(alpha: Surd, beta: Surd, x0: Surd, n: int) -> str:
    one = Surd(Fraction(1), Fraction(0), x0.d)
    slope = (alpha + beta) / (one + beta)
    first = rotation_letters(x0 / (one + beta), slope)
    second = rotation_letters((x0 + beta) / (one + beta), slope)
    return ternarize(first, second, n)


def check_orbit(outputs: list[Output], words: tuple[str, str]) -> tuple[int, int]:
    attempted = failed = 0
    for output, expected in zip(outputs, words):
        attempted += len(expected)
        parsed = _records(output)
        if parsed is None or len(parsed[0]) != 1:
            failed += len(expected)
            continue
        got = parsed[0][0].get("word")
        if not isinstance(got, str):
            failed += len(expected)
            continue
        failed += _letter_mismatches(got, expected)
    return attempted, failed


def orbit(seed: int, n: int = ORBIT_LETTERS) -> Workload:
    slope, x0, alpha, beta, x3 = orbit_params(seed)
    words = (expected_word2(slope, x0, n), expected_word3(alpha, beta, x3, n))
    commands = [
        ["word2", "--slope", slope.literal(), "--start", x0.literal(), "-n", str(n)],
        ["word3", "--alpha", alpha.literal(), "--beta", beta.literal(),
         "--start", x3.literal(), "-n", str(n)],
    ]
    return Workload(
        "orbit",
        commands,
        items=2 * n,
        check=lambda outputs: check_orbit(outputs, words),
        params={"seed": seed, "argv": commands},
    )


WORKLOADS = {"counting": counting, "preserve": preserve, "orbit": orbit}
