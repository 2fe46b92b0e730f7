import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

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
    factor_complexity,
    is_balanced,
    is_nondegenerate_params,
    sigma,
    ternary_word,
    three_iet_code,
    two_iet_code,
)

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
def sqrt5_points(draw):
    """A point of Q(sqrt 5) in [0, 1)."""
    a = draw(st.integers(-40, 40))
    b = draw(st.integers(-12, 12))
    c = draw(st.integers(1, 40))
    return QuadNumber(a, b, 5, c).frac()


@st.composite
def sqrt5_3iet_params(draw):
    """``(alpha, beta)`` in Q(sqrt 5) with ``alpha, beta > 0`` and
    ``alpha + beta < 1``."""
    alpha = draw(sqrt5_points())
    share = draw(sqrt5_points())
    assume(ZERO < alpha and ZERO < share)
    return alpha, share * (ONE - alpha)


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

    @given(sqrt5_points(), sqrt5_points(), st.integers(1, 300))
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
            coded = three_iet_code.__wrapped__(ThreeIET(alpha, beta), x0, 24)
            assert coded.letters == expected

    @given(sqrt5_3iet_params(), sqrt5_points(), st.integers(1, 300))
    def test_against_two_cut_loop_in_sqrt5(self, params, x0, n):
        alpha, beta = params
        expected = three_iet_by_two_cuts(alpha, beta, x0, n)
        coded = three_iet_code.__wrapped__(ThreeIET(alpha, beta), x0, n)
        assert coded.letters == expected

    def test_mixed_fields_rejected(self):
        # the first cut test meets the two fields, in either coder
        sqrt7_point = QuadNumber(-1, 1, 7, 3)
        t = ThreeIET(ALPHA, QuadNumber(1, 0, 0, 4))
        with pytest.raises(FieldMismatchError, match=r"sqrt\(7\) with sqrt\(5\)"):
            three_iet_code.__wrapped__(t, sqrt7_point, 1)
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


class TestProjectionsOfThreeIETCodings:
    def test_rational_parameters(self):
        for alpha, beta, x0 in rational_3iet_cases(12):
            assert_projections_are_rotation_codings(alpha, beta, x0, 24)

    @given(sqrt5_3iet_params(), sqrt5_points(), st.integers(1, 300))
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
