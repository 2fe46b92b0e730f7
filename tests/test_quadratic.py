import math
import random
import sys

import pytest
from hypothesis import given, strategies as st

from ietwords import (
    DomainError,
    FieldMismatchError,
    ONE,
    ParseError,
    QuadNumber,
    ZERO,
    quadratic,
)
from ietwords.quadratic import MAX_RADICAND, _partial_quotients, _surd_negative

RADICANDS = [0, 2, 3, 5, 6, 7, 10, 11]

coefficients = st.integers(min_value=-60, max_value=60)
denominators = st.integers(min_value=1, max_value=40)


def quads(d):
    return st.builds(
        lambda a, b, c: QuadNumber(a, b, d, c), coefficients, coefficients, denominators
    )


any_quads = st.sampled_from(RADICANDS).flatmap(quads)
golden = QuadNumber(1, 1, 5, 2)


class TestNormalisation:
    def test_square_factor_extracted(self):
        assert QuadNumber(0, 1, 8) == QuadNumber(0, 2, 2)

    def test_perfect_square_radicand_becomes_rational(self):
        x = QuadNumber(1, 3, 4, 2)
        assert x.is_rational
        assert x == QuadNumber(7, 0, 0, 2)

    def test_gcd_reduction_and_sign(self):
        x = QuadNumber(2, 4, 5, -6)
        assert (x.a, x.b, x.d, x.c) == (-1, -2, 5, 3)

    def test_zero_is_canonical(self):
        assert QuadNumber(0, 0, 7, 5) == ZERO
        assert not ZERO

    def test_rational_with_zero_radical_part(self):
        assert QuadNumber(3, 0, 5, 1).d == 0

    def test_rejects_zero_denominator(self):
        with pytest.raises(DomainError):
            QuadNumber(1, 0, 0, 0)

    def test_rejects_negative_radicand(self):
        with pytest.raises(DomainError):
            QuadNumber(1, 1, -2)

    def test_radicand_bound(self):
        assert QuadNumber(0, 1, MAX_RADICAND) == QuadNumber(10**6)
        for d in (MAX_RADICAND + 1, 10**16 + 61):
            with pytest.raises(DomainError, match=f"at most {MAX_RADICAND}, got {d}"):
                QuadNumber(1, 1, d, 2)
            with pytest.raises(DomainError):
                QuadNumber.parse(f"(1+1*sqrt({d}))/2")

    def test_arithmetic_results_are_not_factored_again(self, monkeypatch):
        d = 10**9 + 7  # prime: one split is about 16 000 trial divisions
        x, y = QuadNumber(1, 2, d, 3), QuadNumber(-5, 1, d, 7)
        splits = []
        split = quadratic._squarefree_split
        monkeypatch.setattr(
            quadratic, "_squarefree_split", lambda n: splits.append(n) or split(n)
        )
        results = (x + y, x - y, x * y, x / y, -x, x.frac(), 1 - x, 2 * y, x < y)
        assert splits == []
        assert results[0] == QuadNumber(-8, 17, d, 21)
        assert results[1] + y == x
        assert results[3] * y == x
        assert all(r.d == d for r in results[:-1])
        # input values are factored
        splits.clear()
        assert QuadNumber(0, 1, 4 * d) == QuadNumber(0, 2, d)
        assert splits == [4 * d, d]

    def test_rejects_bool_coefficients(self):
        for args in ((True, 1, 5), (1, False, 5), (1, 1, 5, True)):
            with pytest.raises(TypeError):
                QuadNumber(*args)
        with pytest.raises(TypeError):
            golden + True


class TestOrderAndFloor:
    def test_floor_golden_ratio(self):
        assert golden.floor() == 1

    def test_compare_example(self):
        assert QuadNumber(-1, 1, 5, 2) < QuadNumber(2, 0, 0, 3)

    def test_frac_of_negated_golden_conjugate(self):
        x = -QuadNumber(-1, 1, 5, 2)
        assert x.frac() == QuadNumber(3, -1, 5, 2)

    @given(any_quads)
    def test_floor_brackets_value(self, x):
        n = x.floor()
        assert QuadNumber(n) <= x < QuadNumber(n + 1)

    @given(any_quads)
    def test_frac_in_unit_interval(self, x):
        f = x.frac()
        assert ZERO <= f < ONE
        assert x == f + x.floor()

    def test_exact_integer_floor(self):
        assert QuadNumber(4, 0, 0, 2).floor() == 2
        assert QuadNumber(-5, 0, 0, 2).floor() == -3
        # b*sqrt(d) an exact integer after normalisation
        assert QuadNumber(0, 1, 9).floor() == 3
        assert QuadNumber(0, -1, 9).floor() == -3

    def test_negativity_rule_exhaustive(self):
        # every d >= 0 here, perfect squares too: p + q*sqrt(d) is 0 only
        # when it is an integer, so floats decide the rest exactly
        for d in range(13):
            root = math.isqrt(d)
            for p in range(-25, 26):
                for q in range(-25, 26):
                    if root * root == d:
                        expected = p + q * root < 0
                    else:
                        expected = p + q * math.sqrt(d) < 0
                    assert _surd_negative(p, q, d) == expected, (p, q, d)

    def test_cross_check_against_float(self):
        rng = random.Random(20120107)
        values = []
        for _ in range(1000):
            d = rng.choice(RADICANDS)
            values.append(
                QuadNumber(rng.randint(-60, 60), rng.randint(-60, 60), d, rng.randint(1, 40))
            )
        for x in values:
            assert x.floor() == math.floor(float(x))
        by_field = {}
        for x in values:
            by_field.setdefault(x.d, []).append(x)
        for group in by_field.values():
            for x, y in zip(group, group[1:]):
                if x == y:
                    assert abs(float(x) - float(y)) < 1e-9
                else:
                    assert (x < y) == (float(x) < float(y))

    def test_float_survives_cancellation(self):
        # (9 + 4*sqrt(5))**20 = a + b*sqrt(5) with a*a - 5*b*b = 1, so
        # a - b*sqrt(5) is its inverse; evaluated in floats, a and
        # b*sqrt(5) would cancel every digit
        a, b = 1, 0
        for _ in range(20):
            a, b = 9 * a + 20 * b, 4 * a + 9 * b
        assert a * a - 5 * b * b == 1
        expected = 1 / (a + b * math.sqrt(5))
        assert abs(float(QuadNumber(a, -b, 5)) - expected) <= 1e-15 * expected


def gauss_digits(x: QuadNumber, count: int) -> list[int]:
    """The first ``count`` digits ``floor(1/x)`` of the Gauss map
    ``x -> frac(1/x)`` from ``frac(x)``, on :class:`QuadNumber` values."""
    digits = []
    x = x.frac()
    for _ in range(count):
        x = 1 / x
        digits.append(x.floor())
        x = x.frac()
    return digits


class TestPartialQuotients:
    @pytest.mark.parametrize(
        "value",
        [
            QuadNumber(3, -1, 5, 2),
            QuadNumber(-1, 1, 5, 2),
            QuadNumber(-2, 2, 5, 5),  # the identity's predicted slope
            QuadNumber(1, 1, 5, -3),  # a negative c, and so a negative b
            QuadNumber(-7, -3, 2, 4),
            QuadNumber(-100, 3, 7, -11),
            QuadNumber(5, 1, 13, 7),
            QuadNumber(2, 1, 3),
            QuadNumber(1, 0, 0, 1) / QuadNumber(10**40, 1, 2),
        ],
    )
    def test_examples_against_the_gauss_map(self, value):
        digits = _partial_quotients(value)
        assert [next(digits) for _ in range(20)] == gauss_digits(value, 20)

    @given(
        st.sampled_from([2, 3, 5, 6, 7, 10, 11]),
        coefficients,
        coefficients.filter(bool),
        st.integers(min_value=-40, max_value=40).filter(bool),
    )
    def test_against_the_gauss_map(self, d, a, b, c):
        value = QuadNumber(a, b, d, c)
        digits = _partial_quotients(value)
        assert [next(digits) for _ in range(20)] == gauss_digits(value, 20)


class TestArithmetic:
    @given(st.sampled_from(RADICANDS).flatmap(lambda d: st.tuples(quads(d), quads(d))))
    def test_add_sub_round_trip(self, pair):
        x, y = pair
        assert (x + y) - y == x
        assert x - x == ZERO

    @given(st.sampled_from(RADICANDS).flatmap(lambda d: st.tuples(quads(d), quads(d))))
    def test_mul_div_round_trip(self, pair):
        x, y = pair
        if y:
            assert (x * y) / y == x

    @given(any_quads)
    def test_int_operands(self, x):
        assert x + 1 - 1 == x
        assert 2 * x == x + x

    def test_rational_mixes_with_any_field(self):
        assert QuadNumber(1, 1, 5) + QuadNumber(1, 0, 0, 2) == QuadNumber(3, 2, 5, 2)

    def test_incompatible_radicands_rejected(self):
        with pytest.raises(FieldMismatchError):
            QuadNumber(0, 1, 2) + QuadNumber(0, 1, 3)
        with pytest.raises(FieldMismatchError):
            QuadNumber(0, 1, 2) < QuadNumber(0, 1, 3)

    def test_eq_across_fields_is_false(self):
        assert QuadNumber(0, 1, 2) != QuadNumber(0, 1, 3)

    def test_division_example(self):
        # ((-1+sqrt5)/2) / (-1+sqrt5) == 1/2
        num = QuadNumber(-1, 1, 5, 2)
        den = QuadNumber(-1, 1, 5)
        assert num / den == QuadNumber(1, 0, 0, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO


class TestParsing:
    def test_round_trips(self):
        for text in ("0", "7", "-3", "2/3", "-5/4", "(3-1*sqrt(5))/2", "(-1+1*sqrt(5))/2"):
            x = QuadNumber.parse(text)
            assert QuadNumber.parse(str(x)) == x

    def test_whitespace_insensitive(self):
        assert QuadNumber.parse(" ( 3 - 1 * sqrt( 5 ) ) / 2 ") == QuadNumber(3, -1, 5, 2)

    def test_rational_forms(self):
        assert QuadNumber.parse("4/6") == QuadNumber(2, 0, 0, 3)
        assert QuadNumber.parse("-4/-6") == QuadNumber(2, 0, 0, 3)

    def test_non_square_free_radicand_normalised(self):
        assert QuadNumber.parse("(0+1*sqrt(12))/2") == QuadNumber(0, 1, 3)

    def test_rejections_name_token(self):
        with pytest.raises(ParseError, match="'x'"):
            QuadNumber.parse("(1+2*sqrt(x))/3")
        with pytest.raises(ParseError):
            QuadNumber.parse("(1+2*root(5))/3")
        with pytest.raises(ParseError):
            QuadNumber.parse("1/2/3")
        with pytest.raises(ParseError):
            QuadNumber.parse("")

    def test_integer_beyond_the_digit_limit_rejected(self):
        limit = sys.get_int_max_str_digits()
        long_int = "1" * (limit + 1)
        for text in (f"1/{long_int}", f"-{long_int}", f"(1+1*sqrt(5))/{long_int}"):
            with pytest.raises(ParseError, match=f"{limit + 1} digits .* limit of {limit} digits"):
                QuadNumber.parse(text)
        assert QuadNumber.parse("1" * limit) == int("1" * limit)

    def test_hash_consistent_with_eq(self):
        assert hash(QuadNumber(2, 4, 5, 6)) == hash(QuadNumber(1, 2, 5, 3))

    def test_integer_values_hash_as_ints(self):
        # an integer value compares equal to its int, so a set or dict
        # must treat the two as one key
        for n in (-7, -1, 0, 1, 3, 10**20):
            assert QuadNumber(n) == n
            assert hash(QuadNumber(n)) == hash(n)
            assert len({QuadNumber(n), n}) == 1
        assert {QuadNumber(6, 0, 0, 2): "x"}[3] == "x"
