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
    QuadNumber,
    TwoIET,
    ZERO,
    binary_word,
    is_balanced,
    parikh,
    ternary_word,
)
from ietwords.iet import coding_word_k, two_iet_code
from ietwords.quadratic import _partial_quotients
from ietwords.words import _is_sturmian_factor, _rotated, _substitute, _turns
from conjugate_step import back_walk, forward_walk
from sturmian_loop import sturmian_loop
from word_oracles import factor_complexity, is_conjugate_word, parse_by_char

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


_SWAP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def split_balanced(letters: bytes) -> bool:
    """Oracle: the same run-length derivation as :func:`is_balanced`, read
    run by run: ``bytes.split`` into the runs of zeros, their least
    length as ``lo``, and the derived word built from the run lengths."""
    while True:
        if b"\x00\x00" not in letters:
            if b"\x01\x01" not in letters:
                return True
            letters = letters.translate(_SWAP)
        elif b"\x01\x01" in letters:
            return False
        runs = letters.split(b"\x01")
        if len(runs) < 3:  # at most one 1
            return True
        first, *interior, last = map(len, runs)
        lo = min(interior)
        if max(interior) - lo > 1 or first > lo + 1 or last > lo + 1:
            return False
        letters = (
            (b"\x01" if first > lo else b"")
            + bytes(map(lo.__rsub__, interior))
            + (b"\x01" if last > lo else b"")
        )


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


def join_substitute(letters: bytes, images) -> bytes:
    """The letter-by-letter substitution that ``_substitute`` replaced,
    kept as its oracle."""
    return b"".join(map(list(images).__getitem__, letters))


@st.composite
def substitutions(draw):
    """A word of up to 300 letters over either alphabet, with one image
    of up to 6 letters, possibly empty, per letter."""
    size = draw(st.sampled_from((2, 3)))
    letters = st.integers(0, size - 1)
    word = bytes(draw(st.lists(letters, max_size=300)))
    images = [bytes(draw(st.lists(letters, max_size=6))) for _ in range(size)]
    return word, images


class TestSubstitute:
    def test_exhaustive_against_join(self):
        # every image tuple with images of at most two letters, empty ones
        # included, on every word of at most four letters, both alphabets
        for size in (2, 3):
            short = [bytes(w) for n in range(3) for w in itertools.product(range(size), repeat=n)]
            words = [bytes(w) for n in range(5) for w in itertools.product(range(size), repeat=n)]
            for images in itertools.product(short, repeat=size):
                for letters in words:
                    assert _substitute(letters, images) == join_substitute(letters, images)

    @given(substitutions())
    def test_against_join(self, case):
        letters, images = case
        assert _substitute(letters, images) == join_substitute(letters, images)


def letter_images(*texts: str) -> tuple[bytes, ...]:
    return tuple(binary_word(text).letters for text in texts)


@st.composite
def image_tuples(draw):
    """1-4 images of 0-12 letters: free ones, or powers of one root,
    whose periodic extensions agree forever."""
    if draw(st.booleans()):
        letters = st.lists(st.integers(0, 2), max_size=12).map(bytes)
        return tuple(draw(st.lists(letters, min_size=1, max_size=4)))
    root = draw(st.lists(st.integers(0, 2), min_size=1, max_size=4).map(bytes))
    powers = st.integers(0, 12 // len(root)).map(lambda k: root * k)
    return tuple(draw(st.lists(powers, min_size=1, max_size=4)))


def counted_chain(images: tuple[bytes, ...], steps: int) -> list[tuple[bytes, ...]]:
    """The places counted by ``_turns`` and built by ``_rotated``, which
    must be those of the forward walk."""
    chain = [_rotated(images, i) for i in range(_turns(images, steps) + 1)]
    assert chain == forward_walk(images, steps)
    return chain


class TestConjugates:
    def test_stops_after_the_first_place_whose_first_letters_differ(self):
        # 0->0,1->01 and its conjugate 0->0,1->10, whose images start
        # with different letters
        assert counted_chain(letter_images("0", "01"), 5) == [
            letter_images("0", "01"), letter_images("0", "10")
        ]
        assert counted_chain(letter_images("1", "01"), 5) == [letter_images("1", "01")]

    def test_stops_at_an_empty_image(self):
        assert counted_chain(letter_images("01", ""), 5) == [letter_images("01", "")]
        assert counted_chain(letter_images("", ""), 5) == [letter_images("", "")]

    def test_stops_after_steps_rotations(self):
        # images that always share their first letter never end the chain
        start = letter_images("00", "0", "000")
        assert counted_chain(start, 0) == [start]
        assert counted_chain(start, 3) == [start] * 4
        assert counted_chain(letter_images("001", "00101"), 2) == [
            letter_images("001", "00101"),
            letter_images("010", "01010"),
            letter_images("100", "10100"),
        ]

    @given(image_tuples(), st.integers(0, 30))
    def test_against_the_forward_walk(self, images, limit):
        walk = forward_walk(images, limit)
        assert _turns(images, limit) == len(walk) - 1
        assert [_rotated(images, i) for i in range(len(walk))] == walk

    @given(image_tuples())
    def test_reversed_images_count_the_back_walk(self, images):
        steps = sum(map(len, images))
        walk = back_walk(images, steps)
        back = _turns(tuple(image[::-1] for image in images), steps)
        assert back == len(walk) - 1
        assert [_rotated(images, -i) for i in range(len(walk))] == walk


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

    def test_exhaustive_against_split_oracle(self):
        for n in range(17):
            for letters in itertools.product(b"\x00\x01", repeat=n):
                w = FiniteWord(Alphabet.BINARY, bytes(letters))
                assert is_balanced(w) == split_balanced(w.letters), w

    @given(rotation_factors())
    def test_perturbed_rotation_factors_against_split_oracle(self, s):
        w = binary_word(s)
        assert is_balanced(w) == split_balanced(w.letters)

    @given(long_coding_factors())
    def test_long_perturbed_coding_factors_against_split_oracle(self, letters):
        assert is_balanced(FiniteWord(Alphabet.BINARY, letters)) == split_balanced(letters)

    @pytest.mark.parametrize(
        ("text", "balanced"),
        [
            # interior runs of lo >= 2 zeros (slope below 1/3)
            ("000100010000100", True),
            ("000100001000100001", True),
            ("00010000010001", False),
            # a run below the floor of the mean, and one two above it
            ("10001010001000", False),
            ("1010100010", False),
            # every interior run long, so the mean is an integer
            ("0100100100", True),
            ("01001001000", True),
            ("0100100000", False),
            # end runs of lo, lo + 1 and lo + 2 zeros around interior runs
            # lo, lo + 1, lo
            ("0010010001001", True),
            ("00010010001001", True),
            ("000010010001001", False),
            ("10001000010001000", True),
            ("100010000100010000", True),
            ("1000100001000100000", False),
            # one 1, only zeros, the empty word
            ("00000001", True),
            ("0000", True),
            ("", True),
        ],
    )
    def test_pinned_derivation_cases(self, text, balanced):
        w = binary_word(text)
        assert is_balanced(w) == split_balanced(w.letters) == brute_balanced(text) == balanced

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


# slopes on both sides of 1/2, with partial quotients above 1 early on:
# (-2+2*sqrt(5))/5 is [0; 2, 44, 2, 1, ...], the identity's projection
SLOPES = [
    QuadNumber(3, -1, 5, 2),
    QuadNumber(-1, 1, 5, 2),
    QuadNumber(-2, 2, 5, 5),
    QuadNumber(7, -2, 5, 5),
    QuadNumber(3, -1, 2, 7),
    QuadNumber(4, 1, 2, 7),
    QuadNumber(5, -1, 7, 18),
    QuadNumber(13, 1, 7, 18),
    QuadNumber(2, -1, 3),
]


def sturmian_factor(letters: bytes, theta: QuadNumber) -> bool:
    return _is_sturmian_factor(letters, _partial_quotients(theta))


@st.composite
def perturbed_codings(draw):
    """A prefix of up to 1 500 letters of a rotation coding with slope
    one of :data:`SLOPES`, perhaps with one letter flipped, and the slope
    it is tested at: its own, or one 1/200 away."""
    theta = draw(st.sampled_from(SLOPES))
    n = draw(st.integers(min_value=1, max_value=1500))
    start = QuadNumber(draw(st.integers(min_value=0, max_value=99)), 0, 0, 100)
    # two_iet_code codes 0 on [0, slope): 1 has frequency 1 - slope
    letters = bytearray(two_iet_code(TwoIET(1 - theta), start, n).letters)
    if draw(st.booleans()):
        letters[draw(st.integers(min_value=0, max_value=n - 1))] ^= 1
    shift = draw(st.sampled_from([0, 1, -1]))
    return bytes(letters), theta + QuadNumber(shift, 0, 0, 200)


class TestSturmianFactor:
    """The whole-word derivation at a slope's partial quotients against
    the letter-by-letter oracle ``sturmian_loop``."""

    def test_oracle_accepts_exactly_the_factors_of_a_long_coding(self):
        # a Sturmian word has m + 1 factors of each length m, and a coding
        # of 3 000 letters shows every one up to length 10 at these slopes
        for theta in SLOPES:
            coding = str(two_iet_code(TwoIET(1 - theta), ZERO, 3000))
            for m in range(11):
                factors = {coding[i : i + m] for i in range(len(coding) - m + 1)}
                accepted = {
                    "".join(bits)
                    for bits in itertools.product("01", repeat=m)
                    if sturmian_loop(binary_word("".join(bits)).letters, theta)
                }
                assert accepted == factors and len(factors) == m + 1, (theta, m)

    def test_exhaustive_against_the_oracle(self):
        for theta in SLOPES:
            for n in range(13):
                for letters in itertools.product(b"\x00\x01", repeat=n):
                    letters = bytes(letters)
                    assert sturmian_factor(letters, theta) == sturmian_loop(letters, theta), (
                        theta, letters,
                    )

    @given(perturbed_codings())
    def test_perturbed_codings_against_the_oracle(self, case):
        letters, theta = case
        assert sturmian_factor(letters, theta) == sturmian_loop(letters, theta)

    def test_huge_partial_quotient_costs_no_more_than_the_word(self):
        # [0; 10**40 + 1, 2, 2, ...]: the first block would be 10**40
        # letters long; the quotient is read as len + 1
        theta = QuadNumber(1) / QuadNumber(10**40, 1, 2)
        assert next(_partial_quotients(theta)) == 10**40 + 1
        for text in ("", "0", "1", "0" * 200, "0" * 99 + "1" + "0" * 100, "0101", "1001"):
            letters = binary_word(text).letters
            assert sturmian_factor(letters, theta) == sturmian_loop(letters, theta), text

    def test_a_factor_is_balanced(self):
        for n in range(13):
            for letters in itertools.product(b"\x00\x01", repeat=n):
                w = FiniteWord(Alphabet.BINARY, bytes(letters))
                if any(sturmian_factor(w.letters, theta) for theta in SLOPES):
                    assert is_balanced(w), w


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

    @pytest.mark.parametrize("text", ["0A", "A0B"])
    def test_parse_names_a_literal_of_two_alphabets(self, text):
        message = f"word literal '{text}' mixes binary and ternary letters"
        with pytest.raises(ParseError, match=message):
            FiniteWord.parse(text)

    def test_parse_over_a_given_alphabet_names_the_foreign_letter(self):
        with pytest.raises(ParseError, match="letter 'A' is not in the BINARY alphabet"):
            FiniteWord.parse("0A", Alphabet.BINARY)
        with pytest.raises(ParseError, match="letter '0' is not in the TERNARY alphabet"):
            FiniteWord.parse("A0B", Alphabet.TERNARY)

    # NUL, ASCII that is no letter, and characters outside ASCII, a lone
    # surrogate among them
    @given(st.text(alphabet="01ABC\x00x\u00e9\udc80"), st.sampled_from([None, *Alphabet]))
    def test_parse_is_the_parse_by_character(self, text, alphabet):
        def outcome(parse):
            try:
                return parse(text, alphabet)
            except ParseError as exc:
                return str(exc)

        assert outcome(FiniteWord.parse) == outcome(parse_by_char)

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

    @given(st.sampled_from(Alphabet), st.binary(max_size=40))
    def test_validation_names_the_largest_letter(self, alphabet, letters):
        if max(letters, default=0) < alphabet.size:
            assert FiniteWord(alphabet, letters).letters == letters
        else:
            message = f"letter index {max(letters)} invalid for {alphabet.name} alphabet"
            with pytest.raises(AlphabetError, match=f"^{message}$"):
                FiniteWord(alphabet, letters)

    @given(st.sampled_from(Alphabet).flatmap(
        lambda alphabet: st.tuples(
            st.just(alphabet), st.lists(st.integers(0, alphabet.size - 1), max_size=60)
        )
    ))
    def test_str_against_per_letter_join(self, case):
        alphabet, letters = case
        word = FiniteWord(alphabet, bytes(letters))
        assert str(word) == "".join(alphabet.chars[i] for i in letters)

    def test_slicing(self):
        w = binary_word("00101")
        assert str(w[1:4]) == "010"
        assert w[0] == 0
