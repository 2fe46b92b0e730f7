import tracemalloc

import pytest
from hypothesis import given, strategies as st

from ietwords import (
    Alphabet,
    AlphabetError,
    FiniteWord,
    IntMatrix2,
    IntMatrix3,
    Morphism,
    NotSturmianError,
    NotUnimodularError,
    ParseError,
    binary_word,
    coding_word_k,
    compose,
    enumerate_sturmian,
    incidence_matrix,
    is_balanced,
    is_standard_morphism,
    is_sturmian_morphism,
    k_index,
    parikh,
    standard_morphism,
    ternary_word,
    unimodular_matrices,
)
from ietwords.morphisms import (
    _chain_indices,
    _chain_place,
    _standard_images,
    _sturmian_images,
)
from block_matrix import inverse_unimodular
from conjugate_step import right_conjugate_step
from standard_loop import standard_loop, subtraction_standard_images

PHI = Morphism.parse("0->001,1->00101")
PSI = Morphism.parse("0->010,1->01001")
IDENTITY = Morphism.identity(Alphabet.BINARY)
SWAP = Morphism.parse("0->1,1->0")

binary_texts = st.text(alphabet="01", max_size=24)
image_texts = st.text(alphabet="01", min_size=1, max_size=5)
binary_morphisms = st.builds(
    lambda a, b: Morphism(Alphabet.BINARY, (binary_word(a), binary_word(b))),
    image_texts,
    image_texts,
)


class TestApplyCompose:
    def test_apply_example(self):
        assert PHI(binary_word("01")) == binary_word("00100101")

    def test_identity_and_empty(self):
        w = binary_word("0110")
        assert IDENTITY(w) == w
        assert PHI(binary_word("")) == binary_word("")

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetError):
            PHI(ternary_word("A"))

    def test_compose_example(self):
        inner = Morphism.parse("0->0,1->01")
        assert compose(SWAP, inner) == Morphism.parse("0->1,1->10")

    def test_compose_with_identity(self):
        assert compose(PHI, IDENTITY) == PHI
        assert compose(IDENTITY, PHI) == PHI

    @given(binary_morphisms, binary_morphisms, binary_texts)
    def test_composition_is_pointwise(self, outer, inner, text):
        word = binary_word(text)
        assert compose(outer, inner)(word) == outer(inner(word))

    @pytest.mark.parametrize(
        "eta", ["A->A,B->B,C->C", "A->AB,B->ABABB,C->ABAC", "A->,B->,C->"]
    )
    def test_memory_is_a_few_bytes_per_letter(self, eta):
        # the join over a map this replaced held about 88 bytes per input
        # letter, whatever the images: 17.6 MB here
        eta = Morphism.parse(eta)
        word = FiniteWord(Alphabet.TERNARY, bytes(range(3)) * 66_667)
        tracemalloc.start()
        try:
            image = eta(word)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(word) > 2 * 10**5
        assert peak <= 2 * (len(word) + len(image)) + 2**16, peak


class TestIncidence:
    def test_examples(self):
        assert incidence_matrix(PHI) == IntMatrix2(2, 1, 3, 2)
        assert incidence_matrix(IDENTITY) == IntMatrix2(1, 0, 0, 1)
        eta = Morphism.parse("A->AB,B->ABABB,C->ABAC")
        assert incidence_matrix(eta) == IntMatrix3(((1, 1, 0), (2, 3, 0), (2, 1, 1)))

    @given(binary_morphisms, binary_morphisms)
    def test_anti_homomorphism(self, outer, inner):
        composed = incidence_matrix(compose(outer, inner))
        assert composed == incidence_matrix(inner) @ incidence_matrix(outer)

    @given(binary_morphisms, binary_texts)
    def test_parikh_action_is_transposed_matrix(self, morphism, text):
        word = binary_word(text)
        matrix = incidence_matrix(morphism)
        image_counts = parikh(morphism(word))
        zeros, ones = parikh(word)
        assert image_counts == (
            zeros * matrix.p0 + ones * matrix.p1,
            zeros * matrix.q0 + ones * matrix.q1,
        )

    def test_matrix2_parse_and_str(self):
        m = IntMatrix2.parse("2,1;3,2")
        assert str(m) == "2,1;3,2"
        assert (m.det, m.norm, m.p, m.q) == (1, 8, 5, 3)
        with pytest.raises(ParseError):
            IntMatrix2.parse("2,1;3")
        with pytest.raises(ParseError):
            IntMatrix2.parse("2,x;3,2")

    def test_matrix3_operations(self):
        m = IntMatrix3.parse("1,1,0;2,3,0;2,1,1")
        assert m.det() == 1
        assert tuple(map(sum, m.entries)) == (2, 5, 4)
        assert (m @ inverse_unimodular(m)) == IntMatrix3(
            ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        )
        assert m.transpose().transpose() == m


class TestStandardMorphism:
    def test_examples(self):
        assert standard_morphism(IntMatrix2(1, 0, 0, 1)) == IDENTITY
        assert standard_morphism(IntMatrix2(1, 0, 1, 1)) == Morphism.parse("0->0,1->01")
        assert standard_morphism(IntMatrix2(1, 1, 1, 0)) == Morphism.parse("0->01,1->0")

    def test_swap_matrix(self):
        assert standard_morphism(IntMatrix2(0, 1, 1, 0)) == SWAP

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodularError):
            standard_morphism(IntMatrix2(1, 1, 1, 1))

    def test_matrix_round_trip(self):
        for matrix in unimodular_matrices(10):
            assert incidence_matrix(standard_morphism(matrix)) == matrix

    def test_displaced_pair_identity(self):
        # standard pair (x, y): xy and yx agree except for the final 01/10
        for matrix in unimodular_matrices(10):
            morphism = standard_morphism(matrix)
            if matrix.det == 1:
                x, y = morphism.images
            else:
                y, x = morphism.images
            xy, yx = str(x + y), str(y + x)
            assert xy[:-2] == yx[:-2]
            assert xy[-2:] == "01" and yx[-2:] == "10"

    def test_word_level_standardness_agrees(self):
        for matrix in unimodular_matrices(9):
            assert is_standard_morphism(standard_morphism(matrix))

    def test_euclid_steps_agree_with_the_subtraction_loop_on_every_chain(self):
        checked = 0
        for matrix in unimodular_matrices(40):
            for m in enumerate_sturmian(matrix):
                x, y = (image.letters for image in m.images)
                assert is_standard_morphism(m) == (
                    standard_loop(x, y) or standard_loop(y, x)
                ), m
                checked += 1
        assert checked == 25_242

    def test_euclid_steps_agree_with_the_subtraction_loop_on_short_words(self):
        # every pair of binary words of 1 to 7 letters, standard or not
        words = [
            binary_word(format(i, f"0{n}b")) for n in range(1, 8) for i in range(1 << n)
        ]
        standard = 0
        for x in words:
            for y in words:
                expected = standard_loop(x.letters, y.letters) or standard_loop(y.letters, x.letters)
                assert is_standard_morphism(Morphism(Alphabet.BINARY, (x, y))) == expected, (x, y)
                standard += expected
        assert len(words) == 254 and standard > 0

    def test_euclid_steps_build_the_subtraction_pair_on_every_small_matrix(self):
        checked = 0
        for matrix in unimodular_matrices(60):
            assert _standard_images(matrix) == subtraction_standard_images(matrix), str(matrix)
            checked += 1
        assert checked == 2_202

    @given(
        st.lists(st.tuples(st.integers(1, 9_998), st.booleans()), min_size=1, max_size=8),
        st.booleans(),
    )
    def test_euclid_steps_build_the_subtraction_pair_on_skewed_matrices(self, steps, swap):
        # a product of steps taking q copies of one row into the other,
        # cut before the first that passes norm 10**4: one long step is
        # 10**4 subtractions for the oracle
        rows = (1, 0), (0, 1)
        for q, into_second in steps:
            (a, b), (c, d) = rows
            if into_second:
                grown = (a, b), (c + q * a, d + q * b)
            else:
                grown = (a + q * c, b + q * d), (c, d)
            if sum(grown[0]) + sum(grown[1]) > 10**4:
                break
            rows = grown
        (a, b), (c, d) = rows[::-1] if swap else rows
        matrix = IntMatrix2(a, b, c, d)
        assert _standard_images(matrix) == subtraction_standard_images(matrix)

    def test_an_empty_image_is_not_standard(self):
        # the subtraction loop never ends on an empty image
        for text in ("0->,1->01", "0->01,1->", "0->,1->"):
            assert not is_standard_morphism(Morphism.parse(text))


class TestRightConjugates:
    def test_examples(self):
        assert right_conjugate_step(PHI) == Morphism.parse("0->010,1->01010")
        assert right_conjugate_step(Morphism.parse("0->0,1->01")) == Morphism.parse(
            "0->0,1->10"
        )
        assert right_conjugate_step(Morphism.parse("0->0,1->10")) is None

    def test_conjugation_identity_on_words(self):
        # phi(a) v == v psi(a) with v the stripped letter
        psi = right_conjugate_step(PHI)
        v = binary_word("0")
        for a in (binary_word("0"), binary_word("1")):
            assert PHI(a) + v == v + psi(a)


class TestEnumeration:
    def test_examples(self):
        assert enumerate_sturmian(IntMatrix2(1, 0, 0, 1)) == (IDENTITY,)
        assert enumerate_sturmian(IntMatrix2(1, 0, 1, 1)) == (
            Morphism.parse("0->0,1->01"),
            Morphism.parse("0->0,1->10"),
        )
        chain = enumerate_sturmian(IntMatrix2(2, 1, 3, 2))
        assert len(chain) == 7
        assert PHI in chain and PSI in chain

    def test_equals_iterated_right_conjugation(self):
        # the letter-level chain against right_conjugate_step, its oracle
        for matrix in unimodular_matrices(30):
            chain = [standard_morphism(matrix)]
            while (nxt := right_conjugate_step(chain[-1])) is not None:
                chain.append(nxt)
            assert enumerate_sturmian(matrix) == tuple(chain), str(matrix)

    def test_chain_places_are_rotations_of_the_standard_pair(self):
        # each place against right_conjugate_step walked from the standard
        # morphism, as the brute force builds an accepted pair's members
        checked = 0
        for matrix in unimodular_matrices(40):
            standard = _standard_images(matrix)
            m = standard_morphism(matrix)
            i = 0
            while m is not None:
                images = tuple(image.letters for image in m.images)
                assert _chain_place(standard, i) == images, (str(matrix), i)
                m = right_conjugate_step(m)
                i += 1
            checked += i
        assert checked == 25_242

    def test_census_small(self):
        for matrix in unimodular_matrices(9):
            chain = enumerate_sturmian(matrix)
            assert len(chain) == matrix.norm - 1
            assert len(set(chain)) == len(chain)
            assert all(incidence_matrix(m) == matrix for m in chain)
            assert sum(is_standard_morphism(m) for m in chain) == 1
            assert chain[0] == standard_morphism(matrix)

    def test_images_of_0_1_01_are_balanced(self):
        # the precondition that lets ternarize_morphisms skip balance
        word01 = binary_word("01")
        for matrix in unimodular_matrices(16):
            for m in enumerate_sturmian(matrix):
                for image in (*m.images, m(word01)):
                    assert is_balanced(image), (m, image)


def _k_index_by_search(morphism):
    """k_index by trying every rotation index in turn: the oracle."""
    matrix = incidence_matrix(morphism)
    image = morphism(binary_word("01"))
    for k in range(matrix.norm):
        if image == coding_word_k(matrix.p, matrix.norm, k):
            return k
    return None


class TestKIndex:
    def test_examples(self):
        assert k_index(Morphism.parse("0->01,1->0")) == 1
        assert k_index(Morphism.parse("0->10,1->0")) == 2
        assert k_index(IDENTITY) == 0

    def test_injective_with_excluded_value(self):
        for matrix in unimodular_matrices(9):
            chain = enumerate_sturmian(matrix)
            indices = [k_index(m) for m in chain]
            assert len(set(indices)) == len(indices)
            excluded = matrix.norm - 1 if matrix.det == 1 else 0
            assert excluded not in indices

    def test_non_sturmian_rejected(self):
        with pytest.raises(NotSturmianError):
            k_index(Morphism.parse("0->01,1->10"))
        # determinant 1, but 10011 is no rotation of the coding word 01011
        m = Morphism.parse("0->10,1->011")
        assert _k_index_by_search(m) is None
        with pytest.raises(NotSturmianError, match="not a rotation coding word"):
            k_index(m)

    def test_agrees_with_rotation_search(self):
        checked = 0
        for matrix in unimodular_matrices(30):
            for m in enumerate_sturmian(matrix):
                assert k_index(m) == _k_index_by_search(m), m
                checked += 1
        assert checked == 10_646

    def test_each_chain_step_lowers_k_by_p(self):
        # rotating both images by their shared first letter rotates the
        # image of 01, which moves it by one place in the coding word for
        # 0: the fact by which _chain_indices indexes a chain from one
        # search, for the brute force and for enum
        checked = 0
        for matrix in unimodular_matrices(40):
            chain = enumerate_sturmian(matrix)
            indices = [k_index(m) for m in chain]
            for k, following in zip(indices, indices[1:]):
                assert following == (k - matrix.p) % matrix.norm, str(matrix)
            first = tuple(image.letters for image in chain[0].images)
            assert _chain_indices(matrix, first, len(chain)) == indices, str(matrix)
            checked += len(indices)
        assert checked == 25_242


class TestSturmianMembership:
    def test_examples(self):
        assert is_sturmian_morphism(PHI)
        assert not is_sturmian_morphism(Morphism.parse("0->01,1->10"))
        assert is_sturmian_morphism(IDENTITY)

    def test_conjugate_of_standard_is_sturmian(self):
        for matrix in unimodular_matrices(8):
            for m in enumerate_sturmian(matrix):
                assert is_sturmian_morphism(m)

    def test_wrong_order_image_pair_rejected(self):
        # same matrix as a Sturmian morphism, but not in its chain
        assert not is_sturmian_morphism(Morphism.parse("0->001,1->10100"))

    def test_agrees_with_the_chain_walk_on_short_words(self):
        # every pair of binary words of 1 to 6 letters, against a search
        # of the chain, which builds every place up to the morphism
        words = [
            binary_word(format(i, f"0{n}b")) for n in range(1, 7) for i in range(1 << n)
        ]
        members = 0
        for x in words:
            for y in words:
                morphism = Morphism(Alphabet.BINARY, (x, y))
                matrix = incidence_matrix(morphism)
                expected = matrix.is_unimodular and (x.letters, y.letters) in _sturmian_images(matrix)
                assert is_sturmian_morphism(morphism) == expected, (x, y)
                members += expected
        assert (len(words), members) == (126, 246)

    def test_agrees_with_the_chain_on_every_rotation_pair(self):
        # the images rotated by any r and s, of which only the chain
        # places, the pairs with r = s modulo both lengths, are members
        checked = 0
        for matrix in unimodular_matrices(24):
            x0, y0 = _standard_images(matrix)
            chain = set(_sturmian_images(matrix))
            for r in range(len(x0)):
                for s in range(len(y0)):
                    images = x0[r:] + x0[:r], y0[s:] + y0[:s]
                    morphism = Morphism(
                        Alphabet.BINARY, (FiniteWord(Alphabet.BINARY, w) for w in images)
                    )
                    assert is_sturmian_morphism(morphism) == (images in chain), (str(matrix), r, s)
                    checked += 1
        assert checked == 17_910


class TestMorphismParsing:
    def test_round_trip(self):
        for text in ("0->001,1->00101", "A->AB,B->ABABB,C->ABAC", "0->,1->01"):
            assert str(Morphism.parse(text)) == text

    def test_whitespace_insensitive(self):
        assert Morphism.parse(" 0 -> 0 0 1 , 1 -> 00101 ") == PHI

    def test_duplicate_letter_rejected(self):
        with pytest.raises(ParseError):
            Morphism.parse("0->0,0->1")

    def test_incomplete_domain_rejected(self):
        with pytest.raises(ParseError):
            Morphism.parse("0->01")
        with pytest.raises(ParseError):
            Morphism.parse("A->A,B->B")

    def test_cross_alphabet_image_rejected(self):
        with pytest.raises(ParseError):
            Morphism.parse("0->A,1->B")
