import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from ietwords import (
    Alphabet,
    AlphabetError,
    DegenerateParametersError,
    DomainError,
    FiniteWord,
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
    parikh,
    sigma,
    ternarization_membership,
    ternarize_morphisms,
    ternarize_words,
    ternary_word,
    three_iet_code,
    unimodular_matrices,
)
from ietwords import amicability
from ietwords.amicability import (
    _SIGMA,
    _chain,
    _chain_start,
    _letters_int,
    _projection_verdict,
    _scan,
    _scan_b,
)
from ietwords.words import _substitute
from ietwords.verification import (
    PRESERVE_ALPHA,
    PRESERVE_BETA,
    preserve_suite,
    run_suite,
)
from scan_loop import scan_loop, scan_loop_b

PHI = Morphism.parse("0->001,1->00101")
PSI = Morphism.parse("0->010,1->01001")
ETA = Morphism.parse("A->AB,B->ABABB,C->ABAC")
TERNARY_IDENTITY = Morphism.identity(Alphabet.TERNARY)

ALPHA = QuadNumber(3, -1, 5, 2)
QUARTER = QuadNumber(1, 0, 0, 4)

ternary_texts = st.text(alphabet="ABC", max_size=40)
letter_strings = st.lists(st.integers(0, 1), max_size=300).map(bytes)


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


def scan_outcome(scan, left, right):
    """The word a scan gives, or the message it fails with."""
    try:
        return scan(left, right)
    except NotAmicableError as error:
        return str(error)


MOD_3 = bytes(i % 3 for i in range(256))


@st.composite
def flipped_amicable_pairs(draw):
    """A ternary word of up to 2 000 letters and its two projections, an
    amicable pair, with at most one letter flipped on one side."""
    v = draw(st.binary(min_size=1, max_size=2000)).translate(MOD_3)
    pair = [bytearray(join_sigma(v, which)) for which in ("01", "10")]
    if draw(st.booleans()):
        side = draw(st.sampled_from((0, 1)))
        pair[side][draw(st.integers(0, len(pair[side]) - 1))] ^= 1
    return v, bytes(pair[0]), bytes(pair[1])


class TestScanAgainstLoop:
    def test_exhaustively_with_messages(self):
        # every ordered pair of equal-length binary words of length <= 8:
        # the same word, or the same message at the same position
        for n in range(9):
            words = [bytes(w) for w in itertools.product((0, 1), repeat=n)]
            for left, right in itertools.product(words, repeat=2):
                assert scan_outcome(_scan, left, right) == scan_outcome(
                    scan_loop, left, right
                ), (left, right)

    def test_unequal_lengths(self):
        words = [bytes(w) for n in range(5) for w in itertools.product((0, 1), repeat=n)]
        for left, right in itertools.product(words, repeat=2):
            if len(left) != len(right):
                message = scan_outcome(_scan, left, right)
                assert message == scan_outcome(scan_loop, left, right)
                assert message == f"words of different lengths {len(left)} and {len(right)}"

    @given(flipped_amicable_pairs())
    def test_long_pairs_with_one_flip(self, case):
        v, left, right = case
        got = scan_outcome(_scan, left, right)
        assert got == scan_outcome(scan_loop, left, right)
        if (left, right) == (join_sigma(v, "01"), join_sigma(v, "10")):
            assert got == v


class TestScanBitTest:
    def test_agrees_with_the_scan_exhaustively(self):
        # every ordered pair of equal-length binary words of length <= 10:
        # the same decision, and the same B-count when both accept
        for n in range(11):
            words = [bytes(w) for w in itertools.product((0, 1), repeat=n)]
            ints = [_letters_int(w) for w in words]
            for left, x in zip(words, ints):
                for right, y in zip(words, ints):
                    assert _scan_b(x, y) == scan_loop_b(left, right), (left, right)

    @given(flipped_coding_factors())
    def test_agrees_with_the_scan_on_coding_factors(self, pair):
        left, right = pair
        assert _scan_b(_letters_int(left), _letters_int(right)) == scan_loop_b(left, right)

    @given(letter_strings, letter_strings)
    def test_letter_i_at_bit_i_and_concatenation(self, a, b):
        assert _letters_int(a) == sum(letter << i for i, letter in enumerate(a))
        assert _letters_int(a + b) == _letters_int(a) | _letters_int(b) << len(a)


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
        outcome = ternarization_membership(TERNARY_IDENTITY)
        assert (outcome.phi, outcome.psi) == (identity, identity)

    def test_swapped_composite_recovers_pair(self):
        eta = Morphism.parse("A->C,B->CAC,C->B")
        outcome = ternarization_membership(eta)
        assert (outcome.phi, outcome.psi) == (
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
                outcome = ternarization_membership(pair.eta)
                assert (outcome.phi, outcome.psi) == (pair.phi, pair.psi)

    def test_erasing_morphism_rejected(self):
        with pytest.raises(NotAmicableError):
            ternarization_membership(Morphism.parse("A->,B->B,C->C"))


class TestPreservation:
    def test_identity_preserves(self):
        t = ThreeIET(ALPHA, QUARTER)
        assert check_3iet_preservation(TERNARY_IDENTITY, t, ZERO, 500).ok

    def test_worked_example_preserves(self):
        t = ThreeIET(ALPHA, QUARTER)
        assert check_3iet_preservation(ETA, t, ZERO, 500).ok

    def test_collapsing_morphism_fails_complexity(self):
        # every letter has the image ACB, whose projections are 0101 and
        # 0110: sigma01 of the image is (01)^n, of rational slope
        t = ThreeIET(ALPHA, QUARTER)
        result = check_3iet_preservation(
            Morphism.parse("A->ACB,B->ACB,C->ACB"), t, ZERO, 500
        )
        assert result == PreservationResult(
            False, "sigma01: predicted slope 1/2 is rational"
        )

    def test_periodic_projection_reports_first_failing_length(self):
        # sigma01 of the image is (0001)^n: balanced, of rational slope
        t = ThreeIET(ALPHA, QUARTER)
        result = check_3iet_preservation(
            Morphism.parse("A->AAB,B->AAB,C->AAAC"), t, ZERO, 500
        )
        assert result == PreservationResult(
            False, "sigma01: predicted slope 1/4 is rational"
        )

    def test_balanced_projection_of_another_slope_fails(self):
        # sigma01 of the image stays balanced over 1 000 letters, but no
        # Sturmian word of the predicted slope has it as a factor; it is
        # unbalanced by 3 000
        t = ThreeIET(ALPHA, QUARTER)
        eta = Morphism.parse("A->A,B->CBA,C->C")
        for n in (500, 1000):
            assert check_3iet_preservation(eta, t, ZERO, n) == PreservationResult(
                False,
                "sigma01: projection is no factor of a Sturmian word of slope "
                "(-1+2*sqrt(5))/7",
            )
        assert check_3iet_preservation(eta, t, ZERO, 3000) == PreservationResult(
            False, "sigma01: projection is not balanced"
        )

    def test_sigma10_failure_is_named(self):
        # sigma01 of the image is balanced, sigma10 is not
        t = ThreeIET(ALPHA, QUARTER)
        result = check_3iet_preservation(
            Morphism.parse("A->A,B->BA,C->AC"), t, ZERO, 500
        )
        assert result == PreservationResult(
            False, "sigma10: projection is not balanced"
        )

    @pytest.mark.parametrize(
        ("eta", "letter"),
        [("A->A,B->AB,C->B", "C"), ("A->A,B->,C->C", "B"), ("A->B,B->B,C->B", "A")],
    )
    def test_morphism_missing_a_letter_fails(self, monkeypatch, eta, letter):
        # its projections can be Sturmian factors of their predicted
        # slopes, but a 3iet coding has all three letters; no projection
        # is decided
        def decided(letters, slope):
            raise AssertionError("a projection was decided")

        monkeypatch.setattr(amicability, "_projection_verdict", decided)
        t = ThreeIET(PRESERVE_ALPHA, PRESERVE_BETA)
        result = check_3iet_preservation(Morphism.parse(eta), t, ZERO, 300)
        assert result == PreservationResult(False, f"letter {letter} occurs in no image of eta")

    def test_binary_eta_is_rejected_before_any_letter_is_coded(self, monkeypatch):
        # read as ternary, its images would miss the letter C
        def coded(*args):
            raise AssertionError("a prefix was coded")

        monkeypatch.setattr(amicability, "three_iet_code", coded)
        t = ThreeIET(PRESERVE_ALPHA, PRESERVE_BETA)
        with pytest.raises(AlphabetError, match="3iet preservation is for ternary morphisms"):
            check_3iet_preservation(Morphism.parse("0->01,1->0"), t, ZERO, 300)

    def test_short_prefixes_pass(self):
        # no prefix is too short for the exact test
        t = ThreeIET(ALPHA, QUARTER)
        for n in (1, 2, 5, 19, 39, 40, 100):
            assert check_3iet_preservation(TERNARY_IDENTITY, t, ZERO, n).ok, n
            assert check_3iet_preservation(ETA, t, ZERO, n).ok, n

    def test_takes_no_kmax(self):
        # the factor-count window of the prefix test that the slope
        # verdict replaced is no argument any more
        t = ThreeIET(ALPHA, QUARTER)
        with pytest.raises(TypeError):
            check_3iet_preservation(TERNARY_IDENTITY, t, ZERO, 100, 20)

    # prefix lengths around twice that window's default of 20 letters
    @pytest.mark.parametrize("n", [40, 60, 80])
    def test_identity_passes_on_prefixes_above_2_kmax(self, n):
        t = ThreeIET(PRESERVE_ALPHA, PRESERVE_BETA)
        assert check_3iet_preservation(TERNARY_IDENTITY, t, ZERO, n).ok

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=400))
    def test_every_ternarization_of_norm_4_passes(self, n):
        t = ThreeIET(PRESERVE_ALPHA, PRESERVE_BETA)
        for matrix in unimodular_matrices(4):
            for pair in brute_force_pairs(matrix):
                assert check_3iet_preservation(pair.eta, t, ZERO, n).ok, (pair.eta, n)

    def test_degenerate_parameters_rejected(self):
        trap = ThreeIET(ALPHA, QuadNumber(-2, 1, 5))
        with pytest.raises(DegenerateParametersError):
            check_3iet_preservation(TERNARY_IDENTITY, trap, ZERO, 100)

    def test_preserving_nonmember_separates_the_monoids(self):
        # preserves 3iet words at prefix scale yet is no ternarization
        t = ThreeIET(ALPHA, QUARTER)
        assert check_3iet_preservation(PRESERVING_NONMEMBER, t, ZERO, 500).ok
        assert not ternarization_membership(PRESERVING_NONMEMBER).member
        assert PRESERVING_NONMEMBER == Morphism.parse("A->B,B->CAC,C->C")


def last_letter_changed(transform, x0, n):
    """The coding prefix with its last letter ``x`` read as ``x + 1``
    modulo 3: no longer a 3iet factor in general."""
    letters = three_iet_code(transform, x0, n).letters
    return FiniteWord(Alphabet.TERNARY, letters[:-1] + bytes(((letters[-1] + 1) % 3,)))


ternary_letter_strings = st.lists(st.integers(0, 2), max_size=60).map(bytes)
keys = st.tuples(*[st.lists(st.integers(0, 1), min_size=1, max_size=8).map(bytes)] * 3)


@settings(max_examples=200, deadline=None)
@given(ternary_letter_strings, st.integers(0, 1), keys)
def test_rotating_a_key_rotates_its_projection(prefix, first, tails):
    # images that share their first letter, rotated by it
    key = tuple(bytes((first,)) + tail for tail in tails)
    rotated = tuple(image[1:] + image[:1] for image in key)
    s = _substitute(prefix, key)
    assert _substitute(prefix, rotated) == s[1:] + s[:1]


@settings(max_examples=200, deadline=None)
@given(ternary_letter_strings, keys)
def test_a_chain_word_holds_every_projection_of_its_chain(prefix, key):
    chain = _chain(_chain_start(key))
    s = _substitute(prefix, chain[0])
    r = len(chain) - 1
    for j, link in enumerate(chain):
        assert sorted(map(len, link)) == sorted(map(len, chain[0]))
        if r <= len(s):
            assert _substitute(prefix, link) == (s + s[:r])[j : j + len(s)]


class TestPreserveSuite:
    """The suite's one checker against a call of the public
    :func:`check_3iet_preservation` per pair."""

    @staticmethod
    def per_pair_records(max_norm, n):
        transform = ThreeIET(PRESERVE_ALPHA, PRESERVE_BETA)
        records = []
        for matrix in unimodular_matrices(max_norm):
            for pair in brute_force_pairs(matrix):
                result = check_3iet_preservation(pair.eta, transform, ZERO, n)
                records.append(
                    {
                        "matrix": str(matrix),
                        "k": pair.k,
                        "kbar": pair.kbar,
                        "preserved": result.ok,
                        "detail": result.detail,
                    }
                )
        return records

    # (5, 60, 20) passes every pair; (6, 1000, 20) is the default suite
    @pytest.mark.parametrize(
        ("max_norm", "n", "kmax", "checked"), [(5, 60, 20, 55), (6, 1000, 20, 73)]
    )
    def test_records_match_a_public_call_per_pair(self, max_norm, n, kmax, checked):
        result = run_suite("preserve", max_norm, n, kmax)
        assert result.records[:-1] == self.per_pair_records(max_norm, n)
        assert result.summary["checked"] == checked
        assert result.records[-1] == {"trap_rejected": True, "preserved": True}
        assert result.ok == all(record["preserved"] for record in result.records)

    def test_records_match_a_public_call_per_pair_when_pairs_fail(self, monkeypatch):
        # the last letter of the prefix, a C, read as A: some keys of a
        # chain fail then, on either side and with either detail, and
        # others pass
        monkeypatch.setattr(amicability, "three_iet_code", last_letter_changed)
        result = run_suite("preserve", 5, 60, 20)
        records = result.records[:-1]
        assert records == self.per_pair_records(5, 60)
        failing = [record["detail"] for record in records if not record["preserved"]]
        assert 0 < len(failing) < len(records)
        assert {detail[:7] for detail in failing} == {"sigma01", "sigma10"}
        assert any("no factor" in detail for detail in failing)
        assert not result.ok

    @pytest.mark.parametrize("changed", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 60, 1000])
    def test_chain_verdicts_match_a_derivation_per_key(self, monkeypatch, n, changed):
        # the per-key path is the oracle: each key's own projection,
        # derived at a slope computed here in QuadNumber arithmetic
        if changed:
            monkeypatch.setattr(amicability, "three_iet_code", last_letter_changed)
        transform = ThreeIET(PRESERVE_ALPHA, PRESERVE_BETA)
        prefix = amicability.three_iet_code(transform, ZERO, n).letters
        lengths = (transform.alpha, transform.beta, 1 - transform.alpha - transform.beta)
        check = amicability._preservation_checker(transform, ZERO, n, 10)

        def oracle(eta):
            for which in ("01", "10"):
                key = tuple(_substitute(image.letters, _SIGMA[which]) for image in eta.images)
                ones = sum(x * image.count(1) for x, image in zip(lengths, key))
                slope = ones / sum(x * len(image) for x, image in zip(lengths, key))
                detail = _projection_verdict(_substitute(prefix, key), slope)
                if detail is not None:
                    return PreservationResult(False, f"sigma{which}: {detail}")
            return PreservationResult(True, None)

        results = []
        for matrix in unimodular_matrices(10):
            for pair in brute_force_pairs(matrix):
                results.append(check(pair.eta))
                assert results[-1] == oracle(pair.eta), (matrix, pair.eta)
        assert len(results) == 587
        # a prefix of one or two letters, changed or not, is a 3iet factor
        assert any(not result.ok for result in results) == (changed and n > 2)

    @pytest.mark.parametrize("max_norm, words", [(6, 42), (16, 314)])
    def test_each_distinct_projection_is_decided_once(self, monkeypatch, max_norm, words):
        # one word per chain side is what bounds a passing suite: no cap
        # counts the projections of each key
        decided = []
        original = amicability._projection_verdict

        def recording(letters, slope):
            decided.append(letters)
            return original(letters, slope)

        monkeypatch.setattr(amicability, "_projection_verdict", recording)
        assert run_suite("preserve", max_norm=max_norm).ok
        assert len(decided) == len(set(decided))
        # the Sturmian morphisms of a matrix are one conjugation chain,
        # which gives one chain of keys on each side
        chains = 2 * sum(
            any(brute_force_pairs(matrix)) for matrix in unimodular_matrices(max_norm)
        )
        assert len(decided) == chains == words

    def test_no_morphism_is_applied_to_a_word(self, monkeypatch):
        # each projection is the prefix with the letters of its key
        # substituted: no image of the prefix is built
        def applied(morphism, word):
            raise AssertionError(f"{morphism} was applied to a word")

        monkeypatch.setattr(Morphism, "__call__", applied)
        result = run_suite("preserve")
        assert result.ok
        assert result.summary["checked"] == 73

    def test_verdicts_do_not_outlive_their_checker(self):
        # the verdict on a projection depends on the transform, through
        # the prefix and the predicted slope: a memo shared by two calls
        # would hand the first call's verdict to the second
        eta = Morphism.parse("A->A,B->CBA,C->C")
        first = ThreeIET(ALPHA, QUARTER)
        second = ThreeIET(QuadNumber(1, 0, 0, 5), QuadNumber(-1, 1, 2, 2))
        expected = {
            first: "sigma01: projection is no factor of a Sturmian word of slope "
            "(-1+2*sqrt(5))/7",
            second: "sigma01: projection is not balanced",
        }
        for order in ((first, second), (second, first)):
            for t in order:
                assert check_3iet_preservation(eta, t, ZERO, 500).detail == expected[t]

    def test_invalid_arguments_raise_before_any_pair(self):
        # the suite is a generator: it raises on its first step, before
        # it yields a record
        with pytest.raises(DomainError, match="coding length must be at least 1, got 0"):
            next(preserve_suite(2, 0, 20))
        with pytest.raises(DomainError, match="--kmax must be at least 1, got -1"):
            next(preserve_suite(2, 10, -1))

def test_lemma_w_suite_matches_the_scan():
    # the suite decides each pair with the bit test; the scan decides it
    # here, through the public amicable_words_b
    records = []
    for n_total in range(2, 15):
        for p in range(1, n_total):
            if math.gcd(p, n_total) != 1:
                continue
            m = min(p, n_total - p)
            words = [coding_word_k(p, n_total, k) for k in range(n_total)]
            mismatches = sum(
                amicable_words_b(words[k], words[kbar])
                != (kbar - k if 0 <= kbar - k <= m else None)
                for k in range(n_total)
                for kbar in range(n_total)
            )
            records.append(
                {"p": p, "N": n_total, "mismatches": mismatches, "match": mismatches == 0}
            )
    assert run_suite("lemma-w", 14).records == records


class TestAmicablePairInvariants:
    def test_b_and_index_identities(self):
        for matrix in unimodular_matrices(8):
            delta = matrix.det
            for pair in brute_force_pairs(matrix):
                assert pair.b == pair.b0 + pair.b1 + delta
                assert pair.kbar - pair.k == pair.b - delta
                assert incidence_matrix(pair.phi) == matrix
                assert incidence_matrix(pair.psi) == matrix
