import itertools
import math

import pytest
from hypothesis import given, strategies as st

from ietwords import (
    Alphabet,
    AlphabetError,
    DegenerateParametersError,
    DomainError,
    Morphism,
    NotAmicableError,
    PRESERVING_NONMEMBER,
    PreservationResult,
    QuadNumber,
    ThreeIET,
    ZERO,
    amicable_morphisms,
    amicable_words_b,
    binary_word,
    brute_force_pairs,
    check_3iet_preservation,
    coding_word_k,
    compose,
    enumerate_sturmian,
    incidence_matrix,
    is_ternarization,
    parikh,
    sigma,
    ternarization_membership,
    ternarize_morphisms,
    ternarize_words,
    ternary_word,
    unimodular_matrices,
)
from ietwords.amicability import _letters_int, _scan, _scan_b
from ietwords.verification import PRESERVE_ALPHA, PRESERVE_BETA

PHI = Morphism.parse("0->001,1->00101")
PSI = Morphism.parse("0->010,1->01001")
ETA = Morphism.parse("A->AB,B->ABABB,C->ABAC")
TERNARY_IDENTITY = Morphism.identity(Alphabet.TERNARY)

ALPHA = QuadNumber(3, -1, 5, 2)
QUARTER = QuadNumber(1, 0, 0, 4)

ternary_texts = st.text(alphabet="ABC", max_size=40)


def scan_b(left, right):
    """The B-count of the letterwise scan, or None when it fails: the
    oracle of the bit test."""
    try:
        return _scan(left, right).count(1)
    except NotAmicableError:
        return None


@st.composite
def flipped_coding_factors(draw):
    """Factors at one position of two rotation coding words of length
    N <= 400, with up to two letters flipped between them."""
    n = draw(st.integers(min_value=2, max_value=400))
    p = draw(st.integers(min_value=1, max_value=n - 1).filter(lambda p: math.gcd(p, n) == 1))
    k = draw(st.integers(min_value=0, max_value=n - 1))
    kbar = (k + draw(st.integers(min_value=0, max_value=n - 1))) % n
    start = draw(st.integers(min_value=0, max_value=n - 1))
    length = draw(st.integers(min_value=0, max_value=n - start))
    words = [
        bytearray(coding_word_k(p, n, index).letters[start : start + length])
        for index in (k, kbar)
    ]
    if length:
        flips = st.tuples(st.sampled_from((0, 1)), st.integers(0, length - 1))
        for side, position in draw(st.lists(flips, max_size=2)):
            words[side][position] ^= 1
    return bytes(words[0]), bytes(words[1])


# the letter-by-letter projection that ``sigma`` replaced, kept as its oracle
JOIN_TABLES = {
    "01": (b"\x00", b"\x00\x01", b"\x01"),
    "10": (b"\x00", b"\x01\x00", b"\x01"),
}


def join_sigma(letters: bytes, which: str) -> bytes:
    return b"".join(map(JOIN_TABLES[which].__getitem__, letters))


class TestSigma:
    def test_letter_tables(self):
        assert sigma(ternary_word("ABC"), "01") == binary_word("0011")
        assert sigma(ternary_word("ABC"), "10") == binary_word("0101")
        assert sigma(ternary_word(""), "01") == binary_word("")
        assert sigma(ternary_word(""), "10") == binary_word("")

    def test_rejects_binary_input_and_bad_selector(self):
        with pytest.raises(AlphabetError):
            sigma(binary_word("01"), "01")
        with pytest.raises(ValueError):
            sigma(ternary_word("A"), "11")

    def test_exhaustive_against_join_oracle(self):
        for n in range(8):
            for letters in itertools.product(range(3), repeat=n):
                v = ternary_word(letters)
                for which in ("01", "10"):
                    assert sigma(v, which).letters == join_sigma(v.letters, which), (v, which)

    @given(ternary_texts, st.sampled_from(("01", "10")))
    def test_against_join_oracle(self, text, which):
        v = ternary_word(text)
        assert sigma(v, which).letters == join_sigma(v.letters, which)

    @given(ternary_texts)
    def test_projection_lengths(self, text):
        v = ternary_word(text)
        bs = text.count("B")
        assert len(sigma(v, "01")) == len(v) + bs
        assert len(sigma(v, "10")) == len(v) + bs


class TestTernarizeWords:
    def test_examples(self):
        w = ternarize_words(binary_word("001"), binary_word("010"))
        assert (str(w.v), w.b) == ("AB", 1)
        w = ternarize_words(binary_word("00101"), binary_word("01001"))
        assert (str(w.v), w.b) == ("ABAC", 1)
        w = ternarize_words(binary_word("01"), binary_word("01"))
        assert (str(w.v), w.b) == ("AC", 0)

    def test_forbidden_mismatch_direction(self):
        with pytest.raises(NotAmicableError, match="position 0"):
            ternarize_words(binary_word("10"), binary_word("01"))

    def test_dangling_block_at_end(self):
        with pytest.raises(NotAmicableError, match="final position"):
            ternarize_words(binary_word("0100"), binary_word("0101"))

    def test_unbalanced_inputs_rejected(self):
        with pytest.raises(NotAmicableError, match="balanced"):
            ternarize_words(binary_word("0011"), binary_word("0011"))

    def test_scan_reported_ahead_of_balance(self):
        with pytest.raises(
            NotAmicableError, match="^broken 01/10 block at position 0$"
        ):
            ternarize_words(binary_word("0011"), binary_word("1100"))

    def test_length_mismatch(self):
        with pytest.raises(NotAmicableError, match="lengths"):
            ternarize_words(binary_word("0"), binary_word("01"))
        # reported ahead of balance
        with pytest.raises(NotAmicableError, match="lengths 4 and 2"):
            ternarize_words(binary_word("0011"), binary_word("01"))

    def test_amicable_words_b_examples(self):
        assert amicable_words_b(binary_word("00100101"), binary_word("01001010")) == 3
        assert amicable_words_b(binary_word("010010"), binary_word("010010")) == 0
        assert amicable_words_b(binary_word("001"), binary_word("100")) is None

    def test_round_trip_on_coding_words(self):
        # k + b stays below n: the same words reread with wrapped start
        # indices are exactly the non-amicable cases
        for p, n in ((1, 2), (2, 3), (3, 5), (5, 8), (4, 9)):
            m = min(p, n - p)
            for k in range(n):
                for b in range(min(m, n - 1 - k) + 1):
                    left = coding_word_k(p, n, k)
                    right = coding_word_k(p, n, k + b)
                    witness = ternarize_words(left, right)
                    assert witness.b == b
                    assert sigma(witness.v, "01") == left
                    assert sigma(witness.v, "10") == right
                    assert witness.v.count(1) == b
                    assert parikh(left) == parikh(right)


class TestScanBitTest:
    def test_agrees_with_the_scan_exhaustively(self):
        # every ordered pair of equal-length binary words of length <= 10:
        # the same decision, and the same B-count when both accept
        for n in range(11):
            words = [bytes(w) for w in itertools.product((0, 1), repeat=n)]
            ints = [_letters_int(w) for w in words]
            for left, x in zip(words, ints):
                for right, y in zip(words, ints):
                    assert _scan_b(x, y) == scan_b(left, right), (left, right)

    @given(flipped_coding_factors())
    def test_agrees_with_the_scan_on_coding_factors(self, pair):
        left, right = pair
        assert _scan_b(_letters_int(left), _letters_int(right)) == scan_b(left, right)


class TestAmicableMorphisms:
    def test_worked_example(self):
        assert amicable_morphisms(PHI, PSI) == (1, 1, 3)

    def test_fibonacci_pair(self):
        fib = Morphism.parse("0->01,1->0")
        conj = Morphism.parse("0->10,1->0")
        assert amicable_morphisms(fib, conj) == (1, 0, 0)

    def test_identity_not_amicable_to_swap(self):
        identity = Morphism.identity(Alphabet.BINARY)
        assert amicable_morphisms(identity, Morphism.parse("0->1,1->0")) is None

    def test_relation_is_not_symmetric(self):
        assert amicable_morphisms(PHI, PSI) is not None
        assert amicable_morphisms(PSI, PHI) is None


class TestTernarizeMorphisms:
    def test_worked_example(self):
        assert ternarize_morphisms(PHI, PSI) == ETA

    def test_identity_pair(self):
        identity = Morphism.identity(Alphabet.BINARY)
        assert ternarize_morphisms(identity, identity) == TERNARY_IDENTITY

    def test_fibonacci_pair_gives_probe_companion(self):
        eta = ternarize_morphisms(
            Morphism.parse("0->01,1->0"), Morphism.parse("0->10,1->0")
        )
        assert eta == Morphism.parse("A->B,B->ACA,C->A")

    def test_not_amicable_raises(self):
        with pytest.raises(NotAmicableError):
            ternarize_morphisms(PSI, PHI)

    def test_image_of_b_is_scanned_last(self):
        # images of A agree; those of C and of B both fail, and the
        # reported reason is the C scan's
        phi = Morphism.parse("0->010,1->10010")
        psi = Morphism.parse("0->010,1->01001")
        with pytest.raises(NotAmicableError, match="mismatch 1 against 0 at position 0$"):
            ternarize_morphisms(phi, psi)

    def test_agrees_with_the_three_word_scans(self):
        # balance is not re-tested on this path; on Sturmian pairs that
        # changes neither the ternarization nor the reason for a failure
        w01, w10 = binary_word("01"), binary_word("10")

        def by_word_scans(phi, psi):
            # the word scans in the order A, C, B
            image_a, image_c, image_b = (
                ternarize_words(left, right).v
                for left, right in (
                    (phi.images[0], psi.images[0]),
                    (phi.images[1], psi.images[1]),
                    (phi(w01), psi(w10)),
                )
            )
            return Morphism(Alphabet.TERNARY, (image_a, image_b, image_c))

        def outcome(ternarize, phi, psi):
            try:
                return ternarize(phi, psi)
            except NotAmicableError as exc:
                return str(exc)

        for matrix in unimodular_matrices(10):
            chain = enumerate_sturmian(matrix)
            for phi in chain:
                for psi in chain:
                    assert outcome(ternarize_morphisms, phi, psi) == outcome(
                        by_word_scans, phi, psi
                    ), (phi, psi)

    def test_ternary_argument_rejected(self):
        for phi, psi in ((ETA, PSI), (PHI, ETA), (ETA, ETA)):
            with pytest.raises(AlphabetError):
                ternarize_morphisms(phi, psi)

    def test_intertwining_on_generators(self):
        letters = [ternary_word(ch) for ch in "ABC"]
        for matrix in unimodular_matrices(8):
            for pair in brute_force_pairs(matrix):
                for letter in letters:
                    assert sigma(pair.eta(letter), "01") == pair.phi(sigma(letter, "01"))
                    assert sigma(pair.eta(letter), "10") == pair.psi(sigma(letter, "10"))

    def test_composition_closure_small(self):
        pool = [
            pair
            for matrix in unimodular_matrices(5)
            for pair in brute_force_pairs(matrix)
        ]
        for first in pool:
            for second in pool:
                composed = compose(first.eta, second.eta)
                direct = ternarize_morphisms(
                    compose(first.phi, second.phi), compose(first.psi, second.psi)
                )
                assert composed == direct


class TestTernarizationMembership:
    def test_rejection_with_diagnostic(self):
        outcome = ternarization_membership(Morphism.parse("A->B,B->CAC,C->C"))
        assert not outcome.member
        assert outcome.reason == "sigma01(B)=101 != 011"

    def test_identity_recovers_identity_pair(self):
        identity = Morphism.identity(Alphabet.BINARY)
        assert is_ternarization(TERNARY_IDENTITY) == (identity, identity)

    def test_swapped_composite_recovers_pair(self):
        eta = Morphism.parse("A->C,B->CAC,C->B")
        assert is_ternarization(eta) == (
            Morphism.parse("0->1,1->01"),
            Morphism.parse("0->1,1->10"),
        )

    def test_sigma10_failure_reported(self):
        # projections agree on the 01 side but not on the 10 side
        eta = Morphism.parse("A->AC,B->ACB,C->B")
        outcome = ternarization_membership(eta)
        assert not outcome.member
        assert outcome.reason.startswith("sigma10(B)=")

    def test_non_sturmian_recovered_pair_reported(self):
        # both sigma equalities hold, but the recovered images give a
        # singular incidence matrix
        eta = Morphism.parse("A->AC,B->ACAC,C->AC")
        outcome = ternarization_membership(eta)
        assert not outcome.member
        assert "not Sturmian" in outcome.reason

    def test_round_trip_recovers_every_pair(self):
        for matrix in unimodular_matrices(10):
            for pair in brute_force_pairs(matrix):
                assert is_ternarization(pair.eta) == (pair.phi, pair.psi)

    def test_erasing_morphism_rejected(self):
        with pytest.raises(NotAmicableError):
            ternarization_membership(Morphism.parse("A->,B->B,C->C"))


class TestPreservation:
    def test_identity_preserves(self):
        t = ThreeIET(ALPHA, QUARTER)
        assert check_3iet_preservation(TERNARY_IDENTITY, t, ZERO, 500, 10).ok

    def test_worked_example_preserves(self):
        t = ThreeIET(ALPHA, QUARTER)
        assert check_3iet_preservation(ETA, t, ZERO, 500, 10).ok

    def test_collapsing_morphism_fails_complexity(self):
        t = ThreeIET(ALPHA, QUARTER)
        result = check_3iet_preservation(
            Morphism.parse("A->B,B->B,C->B"), t, ZERO, 500, 10
        )
        assert not result.ok
        assert "complexity 2 at factor length 2" in result.detail

    def test_periodic_projection_reports_first_failing_length(self):
        # sigma01 of the image is (0001)^n: balanced, p(m) = m + 1 up to
        # m = 3 and p(4) = 4
        t = ThreeIET(ALPHA, QUARTER)
        result = check_3iet_preservation(
            Morphism.parse("A->AAB,B->AAB,C->AAB"), t, ZERO, 500, 10
        )
        assert result == PreservationResult(
            False, "sigma01: complexity 4 at factor length 4, expected 5"
        )

    def test_prefix_too_short_for_kmax_rejected(self):
        # a balanced word of length L has p(kmax) <= L - kmax + 1, so a
        # prefix shorter than 2*kmax would fail even the identity
        t = ThreeIET(ALPHA, QUARTER)
        for n in (5, 39):
            with pytest.raises(DomainError, match="2\\*kmax"):
                check_3iet_preservation(TERNARY_IDENTITY, t, ZERO, n, 20)
        # the bound is necessary, not sufficient: n = 2*kmax is checked,
        # and this orbit shows every factor up to length 20 by n = 100
        check_3iet_preservation(TERNARY_IDENTITY, t, ZERO, 40, 20)
        assert check_3iet_preservation(TERNARY_IDENTITY, t, ZERO, 100, 20).ok

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="a short prefix of a Sturmian word need not show all m + 1 "
        "factors of length m, so the finite complexity check rejects the "
        "identity (n = 80: sigma01: complexity 17 at factor length 17)",
    )
    @pytest.mark.parametrize("n", [40, 60, 80])
    def test_identity_passes_on_prefixes_above_2_kmax(self, n):
        t = ThreeIET(PRESERVE_ALPHA, PRESERVE_BETA)
        assert check_3iet_preservation(TERNARY_IDENTITY, t, ZERO, n, 20).ok

    def test_degenerate_parameters_rejected(self):
        trap = ThreeIET(ALPHA, QuadNumber(-2, 1, 5))
        with pytest.raises(DegenerateParametersError):
            check_3iet_preservation(TERNARY_IDENTITY, trap, ZERO, 100, 5)

    def test_preserving_nonmember_separates_the_monoids(self):
        # preserves 3iet words at prefix scale yet is no ternarization
        t = ThreeIET(ALPHA, QUARTER)
        assert check_3iet_preservation(PRESERVING_NONMEMBER, t, ZERO, 500, 12).ok
        assert not ternarization_membership(PRESERVING_NONMEMBER).member
        assert PRESERVING_NONMEMBER == Morphism.parse("A->B,B->CAC,C->C")


class TestAmicablePairInvariants:
    def test_b_and_index_identities(self):
        for matrix in unimodular_matrices(8):
            delta = matrix.det
            for pair in brute_force_pairs(matrix):
                assert pair.b == pair.b0 + pair.b1 + delta
                assert pair.kbar - pair.k == pair.b - delta
                assert incidence_matrix(pair.phi) == matrix
                assert incidence_matrix(pair.psi) == matrix
