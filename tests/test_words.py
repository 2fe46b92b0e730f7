import itertools
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import ietwords
from ietwords import (
    Alphabet,
    AlphabetError,
    FiniteWord,
    ParseError,
    ThreeIET,
    ZERO,
    binary_word,
    brute_force_pairs,
    factor_complexity,
    is_balanced,
    is_conjugate_word,
    parikh,
    sigma,
    ternary_word,
    unimodular_matrices,
)
from ietwords.amicability import _sturmian_prefix_violation
from ietwords.iet import coding_word_k, three_iet_code
from ietwords.verification import PRESERVE_ALPHA, PRESERVE_BETA

binary_texts = st.text(alphabet="01", max_size=48)
ternary_texts = st.text(alphabet="ABC", max_size=48)


def dss_balanced(letters: bytes) -> bool:
    """Oracle: arithmetic recognition of the prefix-sum path (i, ones in
    letters[:i]) as a digital straight segment (Debled-Rennesson &
    Reveilles 1995), the linear-time test the run-length derivation
    replaced.  Invariant: mu <= a*x - b*y < mu + b on every point read
    so far.  Upper leaning points have remainder mu, lower ones
    mu + b - 1; (ux, uy)/(lx, ly) are the first of each kind and
    (vx, vy)/(wx, wy) the last."""
    a, b, mu = 0, 1, 0
    ux = uy = lx = ly = vx = vy = wx = wy = 0
    y = 0
    for x, v in enumerate(letters, 1):
        y += v
        r = a * x - b * y
        if mu <= r < mu + b:
            if r == mu:
                vx, vy = x, y
            if r == mu + b - 1:
                wx, wy = x, y
        elif r == mu - 1:
            # just above the strip: steeper slope through the first upper point
            lx, ly = wx, wy
            vx, vy = x, y
            a, b = y - uy, x - ux
            mu = a * x - b * y
        elif r == mu + b:
            # just below the strip: flatter slope through the first lower point
            ux, uy = vx, vy
            wx, wy = x, y
            a, b = y - ly, x - lx
            mu = a * x - b * y - b + 1
        else:
            return False
    return True


def brute_balanced(text: str) -> bool:
    """Independent oracle: enumerate all factor pairs of equal length."""
    n = len(text)
    for length in range(1, n + 1):
        ones = [text[i : i + length].count("1") for i in range(n - length + 1)]
        if max(ones) - min(ones) > 1:
            return False
    return True


@st.composite
def rotation_factors(draw):
    """A factor, at least half a period long, of a rational rotation coding
    of period at most 400, with zero to two letters flipped.  Shorter
    words are covered exhaustively."""
    n_total = draw(st.integers(min_value=2, max_value=400))
    p = draw(st.integers(min_value=1, max_value=n_total - 1))
    while math.gcd(p, n_total) != 1:
        p -= 1
    k = draw(st.integers(min_value=0, max_value=n_total - 1))
    text = str(coding_word_k(p, n_total, k))
    start = draw(st.integers(min_value=0, max_value=n_total // 2))
    end = draw(st.integers(min_value=start + n_total // 2, max_value=n_total))
    letters = list(text[start:end])
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        if letters:
            i = draw(st.integers(min_value=0, max_value=len(letters) - 1))
            letters[i] = "1" if letters[i] == "0" else "0"
    return "".join(letters)


@st.composite
def long_coding_factors(draw):
    """A factor of 2 000 to 5 000 letters of a periodic rotation coding,
    with zero to two letters flipped or exchanged with their right
    neighbour.  The slope has seven to nine partial quotients, each 1 or
    2: on every such slope the run-length derivation of the unperturbed
    factor recurses at least three levels before it ends."""
    slope = Fraction(0)
    for quotient in draw(st.lists(st.integers(1, 2), min_size=7, max_size=9)):
        slope = 1 / (quotient + slope)
    p, n_total = slope.numerator, slope.denominator
    k = draw(st.integers(min_value=0, max_value=n_total - 1))
    length = draw(st.integers(min_value=2000, max_value=5000))
    start = draw(st.integers(min_value=0, max_value=n_total - 1))
    period = coding_word_k(p, n_total, k).letters
    letters = bytearray((period * (length // n_total + 2))[start : start + length])
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        i = draw(st.integers(min_value=0, max_value=length - 2))
        if draw(st.booleans()):
            letters[i] ^= 1
        else:
            letters[i], letters[i + 1] = letters[i + 1], letters[i]
    return bytes(letters)


def test_import_leaves_numpy_unloaded():
    src = str(Path(ietwords.__file__).resolve().parents[1])
    code = "import sys; import ietwords; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=src,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.strip() == "False"


class TestParikh:
    def test_examples(self):
        assert parikh(binary_word("00101")) == (3, 2)
        assert parikh(binary_word("")) == (0, 0)
        assert parikh(ternary_word("ABABB")) == (2, 3, 0)

    @given(binary_texts, binary_texts)
    def test_additive_under_concatenation(self, s, t):
        u, v = binary_word(s), binary_word(t)
        assert parikh(u + v) == tuple(
            a + b for a, b in zip(parikh(u), parikh(v))
        )

    @given(ternary_texts, ternary_texts)
    def test_additive_ternary(self, s, t):
        u, v = ternary_word(s), ternary_word(t)
        assert parikh(u + v) == tuple(
            a + b for a, b in zip(parikh(u), parikh(v))
        )


class TestBalance:
    def test_examples(self):
        assert not is_balanced(binary_word("0011"))
        assert is_balanced(binary_word(""))
        assert is_balanced(binary_word("010010"))

    def test_rejects_ternary(self):
        with pytest.raises(AlphabetError):
            is_balanced(ternary_word("ABC"))

    @given(binary_texts)
    def test_against_window_oracle(self, s):
        assert is_balanced(binary_word(s)) == brute_balanced(s)

    @given(binary_texts)
    def test_invariant_under_letter_exchange(self, s):
        swapped = s.translate(str.maketrans("01", "10"))
        assert is_balanced(binary_word(s)) == is_balanced(binary_word(swapped))

    @given(binary_texts)
    def test_invariant_under_reversal(self, s):
        assert is_balanced(binary_word(s)) == is_balanced(binary_word(s[::-1]))

    def test_exhaustive_against_window_oracle(self):
        for n in range(15):
            for bits in itertools.product("01", repeat=n):
                s = "".join(bits)
                assert is_balanced(binary_word(s)) == brute_balanced(s), s

    def test_exhaustive_lengths_15_and_16_against_window_oracle(self):
        # with the test above: every word of length <= 16
        for n in (15, 16):
            for bits in itertools.product("01", repeat=n):
                s = "".join(bits)
                assert is_balanced(binary_word(s)) == brute_balanced(s), s

    @given(rotation_factors())
    def test_perturbed_rotation_factors_against_window_oracle(self, s):
        assert is_balanced(binary_word(s)) == brute_balanced(s)

    @given(long_coding_factors())
    def test_long_perturbed_coding_factors_against_dss_oracle(self, letters):
        w = FiniteWord(Alphabet.BINARY, letters)
        assert is_balanced(w) == dss_balanced(letters)

    def test_long_fibonacci_word(self):
        # golden-ratio mechanical word, balanced by construction
        fib = "0"
        prev = "1"
        while len(fib) < 500:
            fib, prev = fib + prev, fib
        assert is_balanced(binary_word(fib))
        assert not is_balanced(binary_word(fib[:250] + "11" + "00" + fib[250:]))


class TestFactorComplexity:
    def test_examples(self):
        assert factor_complexity(binary_word("0011"), 2) == 3
        assert factor_complexity(binary_word("0011"), 0) == 1
        assert factor_complexity(binary_word(""), 0) == 1
        assert factor_complexity(binary_word("010101"), 2) == 2

    def test_beyond_length(self):
        assert factor_complexity(binary_word("01"), 3) == 0

    @given(binary_texts, st.integers(min_value=1, max_value=8))
    def test_upper_bounds(self, s, n):
        w = binary_word(s)
        if n <= len(w):
            assert factor_complexity(w, n) <= min(2**n, len(w) - n + 1)


def first_complexity_violation(w: FiniteWord, kmax: int) -> str | None:
    """Oracle for the finite Sturmian test: balance, then ``p(m) == m + 1``
    read for every ``1 <= m <= kmax`` in turn."""
    if not is_balanced(w):
        return "projection is not balanced"
    for m in range(1, kmax + 1):
        c = factor_complexity(w, m)
        if c != m + 1:
            return f"complexity {c} at factor length {m}, expected {m + 1}"
    return None


class TestOneComplexityValue:
    """The finite Sturmian test reads ``p(kmax)`` alone on a balanced
    word; a balanced word gains at most one factor per length."""

    KMAX = 16

    def test_balanced_words_gain_at_most_one_factor_per_length(self):
        for n in range(15):
            for letters in itertools.product(range(2), repeat=n):
                w = FiniteWord(Alphabet.BINARY, bytes(letters))
                if not is_balanced(w):
                    continue
                p = [factor_complexity(w, m) for m in range(n + 2)]
                for m in range(n + 1):
                    assert p[m + 1] <= p[m] + 1, (w, m)

    def test_exhaustive_against_per_length_definition(self):
        for n in range(15):
            for letters in itertools.product(range(2), repeat=n):
                w = FiniteWord(Alphabet.BINARY, bytes(letters))
                for kmax in range(self.KMAX + 1):
                    expected = first_complexity_violation(w, kmax)
                    assert _sturmian_prefix_violation(w, kmax) == expected, (w, kmax)

    @given(rotation_factors(), st.integers(min_value=0, max_value=40))
    def test_perturbed_rotation_factors_against_per_length_definition(self, s, kmax):
        w = binary_word(s)
        assert _sturmian_prefix_violation(w, kmax) == first_complexity_violation(w, kmax)

    def test_preserve_suite_projections_against_per_length_definition(self):
        # the 146 projections that `verify --suite preserve` checks: both
        # sigma images of the suite's orbit prefix under each of its 73
        # ternarizations
        prefix = three_iet_code(ThreeIET(PRESERVE_ALPHA, PRESERVE_BETA), ZERO, 1000)
        projections = [
            sigma(pair.eta(prefix), which)
            for matrix in unimodular_matrices(6)
            for pair in brute_force_pairs(matrix)
            for which in ("01", "10")
        ]
        assert len(projections) == 146
        for w in projections:
            # the oracle at kmax runs the first kmax steps of its loop at
            # 20, so its None at 20 is its verdict at every smaller kmax
            assert first_complexity_violation(w, 20) is None
            for kmax in range(1, 21):
                assert _sturmian_prefix_violation(w, kmax) is None, (w, kmax)


class TestConjugacy:
    def test_examples(self):
        assert is_conjugate_word(binary_word("001"), binary_word("010"))
        assert is_conjugate_word(binary_word("001"), binary_word("001"))
        assert not is_conjugate_word(binary_word("01"), binary_word("00"))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetError):
            is_conjugate_word(binary_word("01"), ternary_word("AB"))

    def test_equivalence_relation_on_sample(self):
        words = [binary_word("".join(bits)) for bits in itertools.product("01", repeat=4)]
        for u in words:
            assert is_conjugate_word(u, u)
        for u, v in itertools.product(words, repeat=2):
            assert is_conjugate_word(u, v) == is_conjugate_word(v, u)
        for u, v, w in itertools.product(words, repeat=3):
            if is_conjugate_word(u, v) and is_conjugate_word(v, w):
                assert is_conjugate_word(u, w)

    @given(binary_texts, st.integers(min_value=0, max_value=47))
    def test_rotations_are_conjugate_with_equal_parikh(self, s, r):
        if not s:
            return
        rot = s[r % len(s) :] + s[: r % len(s)]
        u, v = binary_word(s), binary_word(rot)
        assert is_conjugate_word(u, v)
        assert parikh(u) == parikh(v)


class TestWordType:
    def test_parse_infers_alphabet(self):
        assert FiniteWord.parse("0101").alphabet is Alphabet.BINARY
        assert FiniteWord.parse("CAB").alphabet is Alphabet.TERNARY

    def test_parse_rejects_bad_letters(self):
        with pytest.raises(ParseError):
            FiniteWord.parse("01X")
        with pytest.raises(ParseError):
            FiniteWord.parse("")
        with pytest.raises(ParseError):
            FiniteWord.parse("AB", Alphabet.BINARY)

    def test_concatenation_respects_alphabets(self):
        with pytest.raises(AlphabetError):
            binary_word("0") + ternary_word("A")

    def test_str_round_trip(self):
        for text in ("", "0", "00101", "ABAC"):
            alphabet = Alphabet.TERNARY if set(text) <= set("ABC") and text else None
            word = FiniteWord.parse(text, alphabet or (Alphabet.BINARY if set(text) <= {"0", "1"} else Alphabet.TERNARY))
            assert str(word) == text

    def test_invalid_letter_index(self):
        with pytest.raises(AlphabetError):
            FiniteWord(Alphabet.BINARY, bytes([2]))

    def test_slicing(self):
        w = binary_word("00101")
        assert str(w[1:4]) == "010"
        assert w[0] == 0
