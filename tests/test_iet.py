import math
import random
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from ietwords import (
    DomainError,
    FieldMismatchError,
    ONE,
    QuadNumber,
    ThreeIET,
    TwoIET,
    ZERO,
    binary_word,
    coding_word_k,
    is_balanced,
    is_nondegenerate_params,
    sigma,
    ternary_word,
    three_iet_code,
    two_iet_code,
)
from ietwords import iet, quadratic
from ietwords.iet import MAX_CODING_LENGTH
from ietwords.quadratic import MAX_RADICAND, _surd_negative
from ietwords.words import Alphabet
from word_oracles import factor_complexity

GOLDEN_SLOPE = QuadNumber(-1, 1, 5, 2)  # (sqrt(5)-1)/2
ALPHA = QuadNumber(3, -1, 5, 2)  # (3-sqrt(5))/2


def coprime_cases(max_n):
    for n in range(2, max_n + 1):
        for p in range(1, n):
            if math.gcd(p, n) == 1:
                yield p, n


def rational(fraction):
    return QuadNumber(fraction.numerator, 0, 0, fraction.denominator)


# every fraction in [0, 1] with denominator <= 12
FRACTIONS_12 = sorted({Fraction(a, d) for d in range(1, 13) for a in range(d + 1)})


def rational_3iet_cases(max_den):
    """Every ``(alpha, beta, x0)`` of fractions over one denominator
    ``d <= max_den`` with ``alpha, beta > 0``, ``alpha + beta < 1`` and
    ``x0`` in ``[0, 1)``."""
    for d in range(3, max_den + 1):
        for i in range(1, d - 1):
            for j in range(1, d - i):
                for start in range(d):
                    yield tuple(rational(Fraction(v, d)) for v in (i, j, start))


@st.composite
def quad_points(draw, d=5):
    """A point of Q(sqrt d) in [0, 1), Q(sqrt 5) by default."""
    a = draw(st.integers(-40, 40))
    b = draw(st.integers(-12, 12))
    c = draw(st.integers(1, 40))
    return QuadNumber(a, b, d, c).frac()


@st.composite
def quad_3iet_params(draw, d=5):
    """``(alpha, beta)`` in Q(sqrt d) with ``alpha, beta > 0`` and
    ``alpha + beta < 1``, Q(sqrt 5) by default."""
    alpha = draw(quad_points(d))
    share = draw(quad_points(d))
    assume(ZERO < alpha and ZERO < share)
    return alpha, share * (ONE - alpha)


@st.composite
def sqrt5_or_sqrt7_cases(draw):
    """``(slope, alpha, beta, x0)`` in one of Q(sqrt 5) and Q(sqrt 7), with
    a start point whose radical part is negative."""
    d = draw(st.sampled_from((5, 7)))
    slope = draw(quad_points(d))
    alpha, beta = draw(quad_3iet_params(d))
    b = draw(st.integers(-12, -1))
    x0 = QuadNumber(draw(st.integers(-40, 40)), b, d, draw(st.integers(1, 40))).frac()
    return slope, alpha, beta, x0


def two_iet_by_wrapping(eps, x0, n):
    """Reference 2iet coder: emit 0 on ``[0, eps)``, subtract ``eps``
    and add 1 back when the point falls below 0."""
    out = bytearray()
    x = x0
    for _ in range(n):
        out.append(0 if x < eps else 1)
        x = x - eps
        if x < ZERO:
            x = x + ONE
    return bytes(out)


def three_iet_by_two_cuts(alpha, beta, x0, n):
    """Reference 3iet coder: one comparison per cut, one translation per
    interval, written out letter by letter."""
    cut1 = alpha
    cut2 = alpha + beta
    shift_a = ONE - cut1
    shift_b = ONE - cut1 - cut2
    shift_c = ZERO - cut2
    out = bytearray()
    x = x0
    for _ in range(n):
        if x < cut1:
            out.append(0)
            x = x + shift_a
        elif x < cut2:
            out.append(1)
            x = x + shift_b
        else:
            out.append(2)
            x = x + shift_c
    return bytes(out)


def exchange_code_on_quad_numbers(x, cuts, shifts, n):
    """Reference coder: the one coding loop as it ran on QuadNumber points,
    with a QuadNumber comparison per cut test and a QuadNumber addition
    per letter."""
    out = bytearray()
    for _ in range(n):
        j = 0
        for cut in cuts:
            if x < cut:
                break
            j += 1
        out.append(j)
        x = x + shifts[j]
    return bytes(out)


def two_iet_on_quad_numbers(eps, x0, n):
    return exchange_code_on_quad_numbers(x0, (eps,), (ONE - eps, ZERO - eps), n)


def three_iet_on_quad_numbers(alpha, beta, x0, n):
    cut2 = alpha + beta
    shifts = (ONE - alpha, ONE - alpha - cut2, ZERO - cut2)
    return exchange_code_on_quad_numbers(x0, (alpha, cut2), shifts, n)


def exchange_by_sign_test(d, x, cuts, shifts, n):
    """Reference coder for ``iet._exchange_code``: the same orbit on the
    same numerator pairs, with one exact sign test per cut per letter
    and no fixed-point filter."""
    a, b = x
    out = bytearray()
    for _ in range(n):
        j = 0
        for cut_a, cut_b in cuts:
            if _surd_negative(a - cut_a, b - cut_b, d):
                break
            j += 1
        out.append(j)
        shift_a, shift_b = shifts[j]
        a += shift_a
        b += shift_b
    return bytes(out)


def numerator_inputs(x0, cuts, shifts):
    """``(d, x, cuts, shifts)`` for ``iet._exchange_code``: QuadNumbers of
    one field as numerator pairs over their least common denominator."""
    values = (x0, *cuts, *shifts)
    d = max(value.d for value in values)
    denominator = math.lcm(*(value.c for value in values))

    def pair(value):
        return value.a * (denominator // value.c), value.b * (denominator // value.c)

    return d, pair(x0), tuple(map(pair, cuts)), tuple(map(pair, shifts))


def two_iet_inputs(eps, x0):
    return numerator_inputs(x0, (eps,), (ONE - eps, ZERO - eps))


def three_iet_inputs(alpha, beta, x0):
    cut2 = alpha + beta
    return numerator_inputs(x0, (alpha, cut2), (ONE - alpha, ONE - alpha - cut2, ZERO - cut2))


def assert_filter_matches_sign_test(alphabet, inputs, n):
    coded = iet._exchange_code(alphabet, *inputs, n)
    assert coded.letters == exchange_by_sign_test(*inputs, n)


def three_iet_preimage(alpha, beta, y):
    """The point the 3-interval exchange maps to ``y``: the inverse
    exchanges the intervals of lengths gamma, beta, alpha."""
    gamma = ONE - alpha - beta
    if y < gamma:
        return y + alpha + beta
    if y < gamma + beta:
        return y + alpha - gamma
    return y + alpha - ONE


@lru_cache(maxsize=None)
def sqrt_of(d):
    # factoring a radicand near 10**12 by trial division takes up to a
    # tenth of a second; arithmetic on the root skips it
    return QuadNumber(0, 1, d)


# square-free radicands at the top of the allowed range
LARGE_RADICANDS = (MAX_RADICAND - 2, MAX_RADICAND - 11)


@st.composite
def large_quad_points(draw, d):
    """A point in [0, 1) of Q(sqrt d) with numerators and denominator of
    up to 40 digits."""
    big = 10**40
    a, b = draw(st.integers(-big, big)), draw(st.integers(-big, big))
    c = draw(st.integers(1, big))
    return ((QuadNumber(a) + QuadNumber(b) * sqrt_of(d)) / QuadNumber(c)).frac()


def assert_projections_are_rotation_codings(alpha, beta, x0, n):
    """sigma01 and sigma10 of a 3iet coding are codings of one 2iet with
    slope (alpha+beta)/(1+beta), from x0/(1+beta) and (x0+beta)/(1+beta)."""
    word = three_iet_code(ThreeIET(alpha, beta), x0, n)
    length = n + word.count(1)
    rotation = TwoIET((alpha + beta) / (ONE + beta))
    assert sigma(word, "01") == two_iet_code(rotation, x0 / (ONE + beta), length)
    assert sigma(word, "10") == two_iet_code(
        rotation, (x0 + beta) / (ONE + beta), length
    )


class TestTwoIETCode:
    def test_rational_example(self):
        t = TwoIET(QuadNumber(2, 0, 0, 3))
        assert two_iet_code(t, ZERO, 3) == binary_word("001")

    def test_golden_example(self):
        assert two_iet_code(TwoIET(GOLDEN_SLOPE), ZERO, 3) == binary_word("001")

    def test_slope_one_codes_zeros(self):
        assert two_iet_code(TwoIET(QuadNumber(1)), ZERO, 2) == binary_word("00")

    def test_slope_zero_codes_ones(self):
        assert two_iet_code(TwoIET(QuadNumber(0)), ZERO, 2) == binary_word("11")

    def test_matches_direct_orbit_formula(self):
        # u_i = 0 iff frac(x0 - i*eps) < eps, evaluated independently
        eps = GOLDEN_SLOPE
        x0 = QuadNumber(1, 0, 0, 3)
        coded = two_iet_code(TwoIET(eps), x0, 60)
        for i, letter in enumerate(coded):
            iterate = (x0 - QuadNumber(i) * eps).frac()
            assert letter == (0 if iterate < eps else 1)

    def test_against_wrapping_loop_on_rationals(self):
        for slope in FRACTIONS_12:
            t = TwoIET(rational(slope))
            for start in FRACTIONS_12[:-1]:
                x0 = rational(start)
                expected = two_iet_by_wrapping(t.slope, x0, 24)
                assert two_iet_code(t, x0, 24).letters == expected

    @given(quad_points(), quad_points(), st.integers(1, 300))
    def test_against_wrapping_loop_in_sqrt5(self, slope, x0, n):
        expected = two_iet_by_wrapping(slope, x0, n)
        assert two_iet_code(TwoIET(slope), x0, n).letters == expected

    def test_domain_errors(self):
        t = TwoIET(GOLDEN_SLOPE)
        with pytest.raises(DomainError):
            two_iet_code(t, QuadNumber(1), 3)
        with pytest.raises(DomainError):
            two_iet_code(t, QuadNumber(-1, 0, 0, 2), 3)
        with pytest.raises(DomainError):
            two_iet_code(t, ZERO, 0)
        with pytest.raises(DomainError, match="at most 1000000, got 1000001"):
            two_iet_code(t, ZERO, MAX_CODING_LENGTH + 1)
        with pytest.raises(DomainError):
            TwoIET(QuadNumber(3, 0, 0, 2))


class TestCodingWordK:
    def test_examples(self):
        assert coding_word_k(2, 3, 0) == binary_word("001")
        assert coding_word_k(2, 3, 1) == binary_word("010")
        assert coding_word_k(2, 3, 2) == binary_word("100")

    def test_coprimality_required(self):
        with pytest.raises(DomainError):
            coding_word_k(2, 4, 0)
        with pytest.raises(DomainError):
            coding_word_k(3, 3, 0)

    def test_against_closed_form(self):
        for p, n in coprime_cases(30):
            for k in range(-n, 2 * n):
                expected = bytes(0 if (k - i * p) % n < p else 1 for i in range(n))
                assert coding_word_k(p, n, k).letters == expected

    def test_agrees_with_exact_orbit_engine(self):
        for p, n in coprime_cases(30):
            slope = QuadNumber(p, 0, 0, n)
            t = TwoIET(slope)
            for k in range(n):
                start = QuadNumber(k, 0, 0, n)
                assert two_iet_code(t, start, n) == coding_word_k(p, n, k)

    def test_all_coding_words_balanced(self):
        for p, n in coprime_cases(30):
            for k in range(n):
                assert is_balanced(coding_word_k(p, n, k))

    def test_each_word_is_a_rotation_of_the_first(self):
        # the chain-step fact that lemma-w builds its words from: word
        # -j*p mod N is word 0 rotated left by j letters; two copies of
        # word 0 hold every rotation as a factor, and are balanced
        for p, n in coprime_cases(39):
            word = coding_word_k(p, n, 0)
            first = word.letters
            for j in range(n):
                assert coding_word_k(p, n, -j * p % n).letters == first[j:] + first[:j], (p, n, j)
            assert is_balanced(word + word), (p, n)


class TestThreeIETCode:
    def test_rational_example(self):
        t = ThreeIET(QuadNumber(2, 0, 0, 5), QuadNumber(3, 0, 0, 10))
        assert three_iet_code(t, ZERO, 3) == ternary_word("ABB")

    def test_boundary_point_codes_c(self):
        t = ThreeIET(QuadNumber(2, 0, 0, 5), QuadNumber(3, 0, 0, 10))
        assert three_iet_code(t, QuadNumber(7, 0, 0, 10), 1) == ternary_word("C")

    def test_zero_codes_a(self):
        t = ThreeIET(ALPHA, QuadNumber(1, 0, 0, 4))
        assert three_iet_code(t, ZERO, 1) == ternary_word("A")

    def test_orbit_stays_in_unit_interval(self):
        t = ThreeIET(ALPHA, QuadNumber(1, 0, 0, 4))
        word = three_iet_code(t, ZERO, 200)
        assert len(word) == 200
        assert set(word.letters) == {0, 1, 2}

    def test_against_two_cut_loop_on_rationals(self):
        for alpha, beta, x0 in rational_3iet_cases(12):
            expected = three_iet_by_two_cuts(alpha, beta, x0, 24)
            coded = three_iet_code(ThreeIET(alpha, beta), x0, 24)
            assert coded.letters == expected

    @given(quad_3iet_params(), quad_points(), st.integers(1, 300))
    def test_against_two_cut_loop_in_sqrt5(self, params, x0, n):
        alpha, beta = params
        expected = three_iet_by_two_cuts(alpha, beta, x0, n)
        coded = three_iet_code(ThreeIET(alpha, beta), x0, n)
        assert coded.letters == expected

    def test_mixed_fields_rejected(self):
        # the first cut test meets the two fields, in either coder
        sqrt7_point = QuadNumber(-1, 1, 7, 3)
        t = ThreeIET(ALPHA, QuadNumber(1, 0, 0, 4))
        with pytest.raises(FieldMismatchError, match=r"sqrt\(7\) with sqrt\(5\)"):
            three_iet_code(t, sqrt7_point, 1)
        with pytest.raises(FieldMismatchError, match=r"sqrt\(7\) with sqrt\(5\)"):
            two_iet_code(TwoIET(GOLDEN_SLOPE), sqrt7_point, 1)

    def test_parameter_validation(self):
        half = QuadNumber(1, 0, 0, 2)
        with pytest.raises(DomainError):
            ThreeIET(ZERO, half)
        with pytest.raises(DomainError):
            ThreeIET(half, half)
        with pytest.raises(DomainError):
            three_iet_code(ThreeIET(ALPHA, half), QuadNumber(2), 1)
        with pytest.raises(DomainError, match="at most 1000000, got 1000001"):
            three_iet_code(ThreeIET(ALPHA, half), ZERO, MAX_CODING_LENGTH + 1)


class TestIntegerEngine:
    """The integer loop against the QuadNumber loop it replaced."""

    # the `orbit` benchmark parameters of seed 1
    SEED1_SLOPE = QuadNumber.parse("(1+1*sqrt(5))/6")
    SEED1_START2 = QuadNumber.parse("(3+1*sqrt(5))/8")
    SEED1_ALPHA = QuadNumber.parse("(4-1*sqrt(5))/5")
    SEED1_BETA = QuadNumber.parse("(5-2*sqrt(5))/2")
    SEED1_START3 = QuadNumber.parse("(7-2*sqrt(5))/5")

    def test_2iet_on_rationals(self):
        for slope in FRACTIONS_12:
            eps = rational(slope)
            for start in FRACTIONS_12[:-1]:
                x0 = rational(start)
                expected = two_iet_on_quad_numbers(eps, x0, 24)
                assert two_iet_code(TwoIET(eps), x0, 24).letters == expected

    def test_3iet_on_rationals(self):
        for alpha, beta, x0 in rational_3iet_cases(12):
            expected = three_iet_on_quad_numbers(alpha, beta, x0, 24)
            coded = three_iet_code(ThreeIET(alpha, beta), x0, 24)
            assert coded.letters == expected

    def test_points_on_a_cut_code_the_right_interval(self):
        for eps in (QuadNumber(2, 0, 0, 7), GOLDEN_SLOPE):
            assert two_iet_code(TwoIET(eps), eps, 1) == binary_word("1")
        for alpha, beta in ((QuadNumber(1, 0, 0, 3), QuadNumber(1, 0, 0, 4)),
                            (ALPHA, QuadNumber(1, 0, 0, 4))):
            t = ThreeIET(alpha, beta)
            assert three_iet_code(t, alpha, 1) == ternary_word("B")
            assert three_iet_code(t, alpha + beta, 1) == ternary_word("C")

    @given(sqrt5_or_sqrt7_cases(), st.integers(1, 300))
    def test_in_sqrt5_and_sqrt7(self, case, n):
        slope, alpha, beta, x0 = case
        assert two_iet_code(TwoIET(slope), x0, n).letters == two_iet_on_quad_numbers(
            slope, x0, n
        )
        coded = three_iet_code(ThreeIET(alpha, beta), x0, n)
        assert coded.letters == three_iet_on_quad_numbers(alpha, beta, x0, n)

    def test_long_orbits(self):
        # the numerators grow with n
        n = 50_000
        coded = two_iet_code(TwoIET(self.SEED1_SLOPE), self.SEED1_START2, n)
        assert coded.letters == two_iet_on_quad_numbers(
            self.SEED1_SLOPE, self.SEED1_START2, n
        )
        t = ThreeIET(self.SEED1_ALPHA, self.SEED1_BETA)
        coded = three_iet_code(t, self.SEED1_START3, n)
        assert coded.letters == three_iet_on_quad_numbers(
            self.SEED1_ALPHA, self.SEED1_BETA, self.SEED1_START3, n
        )

    def test_mixed_fields_rejected_before_coding(self):
        # the orbit's first letter is A, which needs only the rational
        # cut 1/2, yet the field of beta is checked up front
        t = ThreeIET(QuadNumber(1, 0, 0, 2), QuadNumber(3, -1, 5, 8))
        with pytest.raises(FieldMismatchError, match=r"sqrt\(7\) with sqrt\(5\)"):
            three_iet_code(t, QuadNumber(-2, 1, 7, 3), 1)

    def test_quad_numbers_built_per_call_not_per_letter(self, monkeypatch):
        built = []
        init = QuadNumber.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(QuadNumber, "__init__", counting_init)

        def constructions(code, *args):
            built.clear()
            code(*args)
            return len(built)

        two = TwoIET(self.SEED1_SLOPE)
        three = ThreeIET(self.SEED1_ALPHA, self.SEED1_BETA)
        for code, transform, x0 in (
            (two_iet_code, two, self.SEED1_START2),
            (three_iet_code, three, self.SEED1_START3),
        ):
            short = constructions(code, transform, x0, 10)
            long = constructions(code, transform, x0, 10_000)
            assert short == long <= 12


class TestFixedPointFilter:
    """``iet._exchange_code`` against the sign test it replaces."""

    # (5-sqrt(5))/8 and (-1+sqrt(5))/4: B is translated by 0, so the orbit
    # of alpha stays on the cut alpha and every letter is a tie
    TIE_ALPHA = QuadNumber.parse("(5-1*sqrt(5))/8")
    TIE_BETA = QuadNumber.parse("(-1+1*sqrt(5))/4")

    @pytest.fixture
    def sign_tests(self, monkeypatch):
        """The exact sign tests made through ``_surd_negative``, called
        from ``quadratic`` or imported into ``iet`` (the oracle holds its
        own reference, which is not counted)."""
        calls = []

        def counting(p, q, d):
            calls.append(1)
            return _surd_negative(p, q, d)

        monkeypatch.setattr(quadratic, "_surd_negative", counting)
        monkeypatch.setattr(iet, "_surd_negative", counting, raising=False)
        return calls

    def test_rotation_residues(self):
        for p, n in coprime_cases(30):
            shifts = ((n - p, 0), (-p, 0))
            for k in range(n):
                assert_filter_matches_sign_test(
                    Alphabet.BINARY, (0, (k, 0), ((p, 0),), shifts), n
                )

    def test_2iet_on_fractions_12(self):
        for slope in FRACTIONS_12:
            for start in FRACTIONS_12[:-1]:
                inputs = two_iet_inputs(rational(slope), rational(start))
                assert_filter_matches_sign_test(Alphabet.BINARY, inputs, 24)

    def test_3iet_on_rationals(self):
        for alpha, beta, x0 in rational_3iet_cases(12):
            inputs = three_iet_inputs(alpha, beta, x0)
            assert_filter_matches_sign_test(Alphabet.TERNARY, inputs, 24)

    @given(sqrt5_or_sqrt7_cases(), st.integers(1, 300))
    def test_in_sqrt5_and_sqrt7(self, case, n):
        slope, alpha, beta, x0 = case
        assert_filter_matches_sign_test(Alphabet.BINARY, two_iet_inputs(slope, x0), n)
        inputs = three_iet_inputs(alpha, beta, x0)
        assert_filter_matches_sign_test(Alphabet.TERNARY, inputs, n)

    @settings(deadline=None)
    @given(
        st.sampled_from(LARGE_RADICANDS).flatmap(
            lambda d: st.tuples(*(large_quad_points(d) for _ in range(4)))
        ),
        st.integers(0, 20),
        st.integers(1, 300),
    )
    def test_large_radicands_and_numerators(self, points, i, n):
        slope, x0, alpha, share = points
        assume(ZERO < alpha and ZERO < share)
        beta = share * (ONE - alpha)
        assert_filter_matches_sign_test(Alphabet.BINARY, two_iet_inputs(slope, x0), n)
        # the orbit meets the cut slope after i steps
        on_orbit = (slope + QuadNumber(i) * slope).frac()
        inputs = two_iet_inputs(slope, on_orbit)
        assert_filter_matches_sign_test(Alphabet.BINARY, inputs, n)
        for start in (x0, alpha, alpha + beta):
            inputs = three_iet_inputs(alpha, beta, start)
            assert_filter_matches_sign_test(Alphabet.TERNARY, inputs, n)

    @pytest.mark.parametrize("slope", [GOLDEN_SLOPE, QuadNumber(1, 1, 7, 5),
                                       QuadNumber(3, -1, 5, 2)])
    def test_2iet_starts_on_the_orbit_of_the_cut(self, slope, sign_tests):
        # from frac(cut + i*slope) the orbit lands on the cut at step i,
        # which the fixed-point thresholds place without a sign test
        for i in range(40):
            inputs = two_iet_inputs(slope, (slope + QuadNumber(i) * slope).frac())
            sign_tests.clear()
            assert_filter_matches_sign_test(Alphabet.BINARY, inputs, 60)
            assert sign_tests == []

    @pytest.mark.parametrize("alpha, beta", [
        (ALPHA, QuadNumber(1, 0, 0, 4)),
        (QuadNumber(1, 0, 0, 5), QuadNumber(-1, 1, 7, 6)),
        (TIE_ALPHA, TIE_BETA),
        # degenerate, (1-alpha)/(1+beta) = 3/5: every orbit is periodic,
        # so it meets its cut again and again
        (QuadNumber(3, -1, 5, 5), QuadNumber(-1, 1, 5, 3)),
    ])
    def test_3iet_starts_on_the_orbit_of_a_cut(self, alpha, beta, sign_tests):
        for cut in (alpha, alpha + beta):
            x0 = cut
            for _ in range(30):
                inputs = three_iet_inputs(alpha, beta, x0)
                sign_tests.clear()
                assert_filter_matches_sign_test(Alphabet.TERNARY, inputs, 60)
                assert sign_tests == []
                x0 = three_iet_preimage(alpha, beta, x0)

    def test_generic_orbit_needs_no_sign_test(self, sign_tests):
        # the `orbit` benchmark parameters: the thresholds place every letter
        slope, x0 = TestIntegerEngine.SEED1_SLOPE, TestIntegerEngine.SEED1_START2
        inputs = two_iet_inputs(slope, x0)
        sign_tests.clear()
        iet._exchange_code(Alphabet.BINARY, *inputs, 50_000)
        alpha, beta = TestIntegerEngine.SEED1_ALPHA, TestIntegerEngine.SEED1_BETA
        inputs = three_iet_inputs(alpha, beta, TestIntegerEngine.SEED1_START3)
        iet._exchange_code(Alphabet.TERNARY, *inputs, 50_000)
        assert sign_tests == []

    def test_every_letter_a_tie(self):
        # every point lies on the cut alpha; a coder that decides a point
        # within its rounding error of a cut by recovering its exact pair
        # from all the letters before it is quadratic (about 13 s here)
        n = 10**5
        t = ThreeIET(self.TIE_ALPHA, self.TIE_BETA)
        assert three_iet_code(t, self.TIE_ALPHA, n).letters == b"\x01" * n

    def test_nearly_equal_cuts(self):
        # sqrt(d) - isqrt(d) is about 2**-101: the precision must grow
        # with the radicand to keep the two cuts' fixed-point values apart
        d = 2**200 + 1
        root = math.isqrt(d)
        cuts = ((0, 0), (-root, 1))
        shifts = ((1, 0), (-root - 1, 1), (root - 1, -1))
        for x in ((-1, 0), (0, 0), (-root, 1), (1 - root, 1), (1, 0), (2 * root, -2)):
            assert_filter_matches_sign_test(Alphabet.TERNARY, (d, x, cuts, shifts), 20)


class TestPieceTable:
    """``iet._exchange_code`` codes ``m`` letters per lookup in a table of
    the pieces of ``T**m``; the sign test, one letter at a time, is its
    oracle."""

    @settings(deadline=None, max_examples=60)
    @given(quad_points(), quad_points(), st.integers(1, 5000))
    def test_2iet(self, slope, x0, n):
        assert_filter_matches_sign_test(Alphabet.BINARY, two_iet_inputs(slope, x0), n)

    @settings(deadline=None, max_examples=60)
    @given(quad_3iet_params(), quad_points(), st.integers(1, 5000))
    def test_3iet(self, params, x0, n):
        inputs = three_iet_inputs(*params, x0)
        assert_filter_matches_sign_test(Alphabet.TERNARY, inputs, n)

    @settings(deadline=None, max_examples=30)
    @given(sqrt5_or_sqrt7_cases(), st.integers(0, 40), st.integers(1000, 5000))
    def test_starts_on_a_cut_and_its_preimages(self, case, j, n):
        # a start T**-j(cut) reaches the cut after j steps, inside a chunk
        # or on its edge, and is itself the start of a piece when j < m
        _, alpha, beta, _ = case
        for cut in (alpha, alpha + beta):
            x0 = cut
            for _ in range(j):
                x0 = three_iet_preimage(alpha, beta, x0)
            inputs = three_iet_inputs(alpha, beta, x0)
            assert_filter_matches_sign_test(Alphabet.TERNARY, inputs, n)

    @pytest.mark.parametrize("slope, letter", [(ZERO, 1), (ONE, 0)])
    def test_2iet_slopes_0_and_1(self, slope, letter):
        # one interval is empty, and the other is translated by 0
        for x0 in (ZERO, GOLDEN_SLOPE, QuadNumber(1, 0, 0, 3)):
            assert two_iet_code(TwoIET(slope), x0, 3000).letters == bytes([letter]) * 3000
            assert_filter_matches_sign_test(Alphabet.BINARY, two_iet_inputs(slope, x0), 3000)

    @pytest.mark.parametrize("cases", [
        list(coprime_cases(60)),
        # from N = 216 on, a residue coding is coded m = 5 letters at a time
        [(p, n) for n in (216, 241, 300) for p in (1, 2, 89, n - 2, n - 1)
         if math.gcd(p, n) == 1],
    ], ids=["up_to_60", "from_216"])
    def test_rotation_residues(self, cases):
        for p, n in cases:
            shifts = ((n - p, 0), (-p, 0))
            for k in range(n):
                expected = exchange_by_sign_test(0, (k, 0), ((p, 0),), shifts, n)
                assert coding_word_k(p, n, k).letters == expected

    def test_small_integer_maps(self):
        # cuts, shifts and starts of a few units: some maps are exchanges
        # of [0, U) and start there, most are not and are coded letter by
        # letter; a table built for those would code them wrongly
        rng = random.Random(19)
        for _ in range(1500):
            cuts = tuple(sorted((rng.randint(0, 8), 0) for _ in range(rng.randint(1, 2))))
            shifts = tuple((rng.randint(-8, 8), 0) for _ in range(len(cuts) + 1))
            start = (rng.randint(-2, 9), 0)
            n = 450  # m = 5 for two cuts, 6 for one
            alphabet = Alphabet.BINARY if len(cuts) == 1 else Alphabet.TERNARY
            assert_filter_matches_sign_test(alphabet, (0, start, cuts, shifts), n)

    def test_letters_constant_on_each_piece(self):
        # rational 3iets on the integers of [0, U): two neighbours in one
        # piece of T**m have the same m letters
        for alpha, beta, _ in rational_3iet_cases(9):
            d, _, cuts, shifts = three_iet_inputs(alpha, beta, ZERO)
            cut_values = [a for a, _ in cuts]
            steps = [a for a, _ in shifts]
            top = cut_values[0] + steps[0]
            for m in range(1, 7):
                starts = iet._piece_starts(cut_values, steps, 0, m)
                codings = [exchange_by_sign_test(d, (v, 0), cuts, shifts, m)
                           for v in range(top)]
                for v in range(1, top):
                    if v not in starts:
                        assert codings[v] == codings[v - 1]

    def test_piece_starts_only_for_an_exchange(self):
        # the 3iet 2/5, 1/5 over L = 5: cuts 2 and 3, U = 5, and T**-1
        # takes 2 to 2 and 3 to 0, then 0 to 3
        cut_values, steps = [2, 3], [3, 0, -3]
        assert iet._piece_starts(cut_values, steps, 0, 1) == [2, 3]
        assert iet._piece_starts(cut_values, steps, 4, 3) == [0, 2, 3]
        assert iet._piece_starts(cut_values, steps, -1, 3) is None
        assert iet._piece_starts(cut_values, steps, 5, 3) is None
        assert iet._piece_starts([3, 2], [3, 0, -3], 0, 3) is None
        assert iet._piece_starts([2, 3], [3, 1, -3], 0, 3) is None

    def test_one_bisection_per_chunk(self, monkeypatch):
        # a fall-back to one bisection per letter would make 50 000
        calls = []

        def counting(*args):
            calls.append(1)
            return bisect_right(*args)

        monkeypatch.setattr(iet, "bisect_right", counting)
        t = ThreeIET(TestIntegerEngine.SEED1_ALPHA, TestIntegerEngine.SEED1_BETA)
        coded = three_iet_code(t, TestIntegerEngine.SEED1_START3, 50_000)
        assert len(coded) == 50_000
        assert len(calls) < 10_000


class TestProjectionsOfThreeIETCodings:
    def test_rational_parameters(self):
        for alpha, beta, x0 in rational_3iet_cases(12):
            assert_projections_are_rotation_codings(alpha, beta, x0, 24)

    @given(quad_3iet_params(), quad_points(), st.integers(1, 300))
    def test_sqrt5_parameters(self, params, x0, n):
        assert_projections_are_rotation_codings(*params, x0, n)


class TestNondegeneracy:
    def test_rational_parameters_degenerate(self):
        quarter = QuadNumber(1, 0, 0, 4)
        assert not is_nondegenerate_params(ThreeIET(quarter, quarter))

    def test_golden_alpha_nondegenerate(self):
        assert is_nondegenerate_params(ThreeIET(ALPHA, QuadNumber(1, 0, 0, 4)))

    def test_radical_cancellation_trap(self):
        # (1-alpha)/(1+beta) collapses to 1/2 despite irrational inputs
        trap = ThreeIET(ALPHA, QuadNumber(-2, 1, 5))
        assert not is_nondegenerate_params(trap)


class TestSturmianComplexityOnPrefixes:
    def test_irrational_slope_prefix_complexity(self):
        for slope in (GOLDEN_SLOPE, QuadNumber(-1, 1, 2), QuadNumber(1, 1, 7, 5)):
            word = two_iet_code(TwoIET(slope), ZERO, 500)
            assert is_balanced(word)
            for m in range(1, 11):
                assert factor_complexity(word, m) == m + 1
