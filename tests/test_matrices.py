import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ietwords import (
    AC_SWAP,
    Alphabet,
    AmicablePair,
    ClassificationWitness,
    DomainError,
    E_MATRIX,
    FIBONACCI_TERNARY,
    FiniteWord,
    InfeasibleMatrixError,
    IntMatrix2,
    MatrixDecompositionError,
    IntMatrix3,
    Morphism,
    NotAmicableError,
    NotUnimodularError,
    b_counts,
    brute_force_b_counts,
    brute_force_pairs,
    classify_matrix3,
    conjecture_probe,
    count_formula_b,
    count_formula_total,
    e_condition,
    formula_b_counts,
    incidence_matrix,
    k_index,
    standard_morphism,
    ternarization_matrices,
    ternarization_matrix,
    unimodular_matrices,
)
import ietwords.matrices
from ietwords.amicability import _letters_int
from ietwords.matrices import _accepted, _packed, _packed_chain
from ietwords.morphisms import _binary_morphism, _sturmian_images
from ietwords.verification import run_suite
from block_matrix import block_conjugated_matrix
from conjugate_step import right_conjugate_step
from scan_loop import scan_b, scan_loop, scan_loop_b

EXAMPLE = IntMatrix2(2, 1, 3, 2)
IDENTITY_2 = IntMatrix2(1, 0, 0, 1)
ANTIDIAG_3 = IntMatrix3(((0, 0, 1), (0, 1, 0), (1, 0, 0)))
IDENTITY_3 = IntMatrix3(((1, 0, 0), (0, 1, 0), (0, 0, 1)))


class TestCountFormulas:
    def test_total_examples(self):
        assert count_formula_total(EXAMPLE) == 18
        assert count_formula_total(IDENTITY_2) == 1
        assert count_formula_total(IntMatrix2(0, 1, 1, 0)) == 0

    def test_per_b_examples(self):
        assert count_formula_b(EXAMPLE, 1) == 7
        assert count_formula_b(EXAMPLE, 0) == 0
        assert count_formula_b(IntMatrix2(1, 1, 1, 0), 0) == 1

    def test_not_unimodular(self):
        with pytest.raises(NotUnimodularError):
            count_formula_total(IntMatrix2(1, 1, 1, 1))

    def test_unimodular_enumeration_order(self):
        # the bounded loops walk the triples in the order of the full
        # product, skipping only those with a negative q1
        def product_filter(max_norm):
            return [
                IntMatrix2(p0, q0, p1, norm - p0 - q0 - p1)
                for norm in range(2, max_norm + 1)
                for p0, q0, p1 in itertools.product(range(norm + 1), repeat=3)
                if norm - p0 - q0 - p1 >= 0
                and abs(p0 * (norm - p0 - q0 - p1) - q0 * p1) == 1
            ]

        for max_norm in (0, 1, 2, 3, 7, 30):
            assert list(unimodular_matrices(max_norm)) == product_filter(max_norm)

    def test_per_b_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError, match="matrix 1,1;1,1 has determinant 0"):
            count_formula_b(IntMatrix2(1, 1, 1, 1), 1)

    def test_per_b_counter_through_norm_60(self):
        # the counts sum to the total, and every key is a B-count some
        # pair can have, with a positive count
        for matrix in unimodular_matrices(60):
            counts = formula_b_counts(matrix)
            assert counts.total() == count_formula_total(matrix), str(matrix)
            assert set(counts) <= set(range(min(matrix.p, matrix.q) + 1)), str(matrix)
            assert all(count > 0 for count in counts.values()), str(matrix)

    def test_per_b_counter_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError, match="matrix 1,1;1,1 has determinant 0"):
            formula_b_counts(IntMatrix2(1, 1, 1, 1))

    def test_per_b_sums_to_total(self):
        # pure arithmetic identity between the two closed formulas
        for matrix in unimodular_matrices(40):
            total = count_formula_total(matrix)
            assert total >= 0
            assert total == sum(
                count_formula_b(matrix, b) for b in range(matrix.norm + 1)
            )


def conjugation_chain(matrix):
    """The Sturmian morphisms with this matrix by iterated right
    conjugation of the standard one, not through enumerate_sturmian."""
    chain = [standard_morphism(matrix)]
    while (nxt := right_conjugate_step(chain[-1])) is not None:
        chain.append(nxt)
    return chain


def loop_ternarization(phi, psi):
    """``ternarize_morphisms`` by three letterwise scans."""
    (phi0, phi1), (psi0, psi1) = (
        [image.letters for image in m.images] for m in (phi, psi)
    )
    images = (
        scan_loop(phi0, psi0),
        scan_loop(phi0 + phi1, psi1 + psi0),
        scan_loop(phi1, psi1),
    )
    return Morphism(Alphabet.TERNARY, [FiniteWord(Alphabet.TERNARY, v) for v in images])


def scan_loop_pairs(matrix):
    """The brute force as a letterwise scan of every candidate pair: the
    oracle of the bit test that decides the pairs in brute_force_pairs."""
    indexed = sorted((k_index(m), m) for m in conjugation_chain(matrix))
    pairs = []
    for k, phi in indexed:
        for kbar, psi in indexed:
            try:
                eta = loop_ternarization(phi, psi)
            except NotAmicableError:
                continue
            b0, b1, b = b_counts(eta)
            pairs.append(
                AmicablePair(phi=phi, psi=psi, eta=eta, b0=b0, b1=b1, b=b, k=k, kbar=kbar)
            )
    return tuple(pairs)


def three_scan_decisions(matrix):
    """The decisions of the brute force by three bit tests per candidate
    pair, on a chain whose every morphism is read from its letters and
    indexed by the public k_index: the oracle of the packed test and of
    the chain-step k in brute_force_pairs."""
    rows = []
    for left, right in _sturmian_images(matrix):
        x0, x1 = _letters_int(left), _letters_int(right)
        k = k_index(_binary_morphism((left, right)))
        rows.append((k, (left, right), x0, x1, x0 | x1 << len(left), x1 | x0 << len(right)))
    rows.sort()
    decisions = []
    for k, phi, x0, x1, x01, _ in rows:
        for kbar, psi, y0, y1, _, y10 in rows:
            if (
                scan_b(x0, y0) is not None
                and scan_b(x1, y1) is not None
                and (b := scan_b(x01, y10)) is not None
            ):
                decisions.append((k, phi, kbar, psi, b))
    return decisions


def packed_pair(phi, psi):
    """The packed left member phi and right member psi, each a pair of
    letter strings for the images of 0 and 1."""
    lengths = len(phi[0]), len(phi[1])
    return (
        _packed(*map(_letters_int, phi), *lengths)[0],
        _packed(*map(_letters_int, psi), *lengths)[1],
    )


def pair_decisions(matrix):
    """``(k, phi, kbar, psi, b)`` for each pair of brute_force_pairs, in
    its order, with ``phi`` and ``psi`` the letter strings of the images
    of 0 and 1: the shape of three_scan_decisions."""
    return [
        (
            pair.k,
            tuple(image.letters for image in pair.phi.images),
            pair.kbar,
            tuple(image.letters for image in pair.psi.images),
            pair.b,
        )
        for pair in brute_force_pairs(matrix)
    ]


class TestPackedDecisions:
    def test_agrees_with_three_scans_through_norm_40(self):
        checked = list(unimodular_matrices(40))
        assert len(checked) == 978
        for matrix in checked:
            assert pair_decisions(matrix) == three_scan_decisions(matrix), str(matrix)

    @settings(deadline=None)
    @given(st.sampled_from([m for m in unimodular_matrices(80) if m.norm > 40]))
    def test_agrees_with_three_scans_up_to_norm_80(self, matrix):
        assert pair_decisions(matrix) == three_scan_decisions(matrix)

    def test_packed_test_is_the_three_scans(self):
        # every pair of morphisms with images of 0 and 1 of n0 and n1
        # letters, n0 + n1 <= 5: the test on the packed integers accepts
        # exactly when the scans of the images of 0, of 1 and of 01
        # against 10 all do, with the B-count of the last
        for n0, n1 in itertools.product(range(1, 5), repeat=2):
            if n0 + n1 > 5:
                continue
            morphisms = [
                (bytes(w[:n0]), bytes(w[n0:]))
                for w in itertools.product((0, 1), repeat=n0 + n1)
            ]
            for phi, psi in itertools.product(morphisms, repeat=2):
                b = scan_loop_b(phi[0] + phi[1], psi[1] + psi[0])
                if scan_loop_b(phi[0], psi[0]) is None or scan_loop_b(phi[1], psi[1]) is None:
                    b = None
                x, y = packed_pair(phi, psi)
                got = scan_b(x, y)
                assert (got is None) == (b is None), (phi, psi)
                if b is not None:
                    assert ((~x & y) & ((1 << n0 + n1) - 1)).bit_count() == b

    def test_unpaired_final_block_of_the_image_of_0_is_rejected(self):
        # 0 against 1 ends the image of 0, and 1 against 0 starts the
        # image of 1: only the guard bit between them keeps the shifted
        # bit of the first from pairing with the second
        phi, psi = (b"\x00", b"\x01"), (b"\x01", b"\x00")
        assert scan_loop_b(phi[0] + phi[1], psi[1] + psi[0]) == 0
        assert scan_b(*packed_pair(phi, psi)) is None
        # the same three fields with no guard bits pass, as 0101 against 0110
        unguarded = phi[0] + phi[1] + phi[0] + phi[1], psi[1] + psi[0] + psi[0] + psi[1]
        assert scan_b(*map(_letters_int, unguarded)) == 1

    def test_pair_failing_only_the_image_of_01_is_rejected(self):
        # the conjugates 0->0,1->01 and 0->0,1->10 of the matrix 1,0;1,1:
        # 0 against 0 and 01 against 10 pass, 001 against 100 does not
        matrix = IntMatrix2(1, 0, 1, 1)
        phi, psi = (b"\x00", b"\x00\x01"), (b"\x00", b"\x01\x00")
        assert list(_sturmian_images(matrix)) == [phi, psi]
        assert scan_loop_b(phi[0], psi[0]) == 0 and scan_loop_b(phi[1], psi[1]) == 1
        assert scan_loop_b(phi[0] + phi[1], psi[1] + psi[0]) is None
        assert scan_b(*packed_pair(phi, psi)) is None
        assert (phi, psi) not in [(a, c) for _, a, _, c, _ in pair_decisions(matrix)]

    def test_each_matrix_reads_one_morphism(self, monkeypatch):
        # only the standard pair is read from its letters, and the chain
        # is indexed from it by one call only where the pairs are
        # labelled; the rest of the chain follows from it
        calls = Counter()
        for name in ("_letters_int", "_chain_indices"):
            def counted(*args, _name=name, _original=getattr(ietwords.matrices, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(ietwords.matrices, name, counted)
        checked = list(unimodular_matrices(24))
        for matrix in checked:
            brute_force_b_counts(matrix)
        assert calls == {"_letters_int": 2 * len(checked)}
        calls.clear()
        for matrix in checked:
            brute_force_pairs(matrix)
        assert calls == {"_letters_int": 2 * len(checked), "_chain_indices": len(checked)}

    def test_a_chain_past_its_length_is_rejected(self):
        # images that always start with the same letter never end the
        # chain: the integer rotation stops after norm morphisms, as the
        # letter one does
        with pytest.raises(MatrixDecompositionError, match="exceeded expected length"):
            _packed_chain(EXAMPLE, b"\x00\x00\x00", b"\x00\x00\x00\x00\x00")

    def test_the_integer_chain_is_the_letter_chain(self):
        for matrix in unimodular_matrices(40):
            chain = list(_sturmian_images(matrix))
            packed = [
                _packed(_letters_int(a), _letters_int(b), len(a), len(b)) for a, b in chain
            ]
            assert list(zip(*_packed_chain(matrix, *chain[0]))) == packed, str(matrix)


class TestCandidateWindow:
    @given(st.integers(1, 200).flatmap(
        lambda width: st.tuples(
            st.just(width),
            st.integers(0, 2**width - 1),
            st.integers(0, 2**width - 1),
            st.booleans(),
        )
    ))
    def test_every_accepted_right_member_lies_in_the_window(self, case):
        # y is drawn at random, or x less some of its 0s, so that the
        # identity holds often enough to test the window
        width, x, y, near = case
        full = (1 << width) - 1
        if near:
            y = max(0, x - (~x & y & full))
        if x - y == (x ^ full) & y:
            assert x - (~x & x >> 1 & full) <= y <= x

    @given(st.integers(1, 16).flatmap(
        lambda width: st.tuples(
            st.just(width),
            st.integers(0, 2**width - 1),
            st.lists(st.integers(0, 2**width - 1), max_size=20),
        )
    ))
    def test_the_window_holds_every_accepted_right_member(self, case):
        # y = x - d passes for every d made of 0s of x just below a 1,
        # both ends of the window among them; the other right members
        # are drawn at random.  The core reads them from a stand-in
        # chain, of a matrix whose packed width 2 * 8 + 2 covers x
        width, x, others = case
        full = (1 << width) - 1
        blocks = ~x & x >> 1 & full
        built, d = [x - blocks], blocks
        while d:
            d = (d - 1) & blocks
            built.append(x - d)
        rights = list(set(built + others))
        nx = x ^ full
        accepted = sorted(y for y in rights if x - y == nx & y)
        assert set(built) <= set(accepted)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ietwords.matrices, "_packed_chain", lambda *_: ([x], rights))
            assert [[x - d for d in ds] for ds in _accepted(EXAMPLE)[2]] == [accepted]

    @settings(deadline=None)
    @given(st.sampled_from(list(unimodular_matrices(80))))
    def test_the_core_tests_every_right_member_of_a_chain(self, matrix):
        # the core's windowed test against the same test on every right
        # member of the chain, each a different morphism
        lefts, rights, accepted, standard = _accepted(matrix)
        assert standard == _sturmian_images(matrix)[0]
        assert len(set(rights)) == len(rights) == len(lefts)
        assert [[x - d for d in ds] for x, ds in zip(lefts, accepted)] == [
            sorted(y for y in rights if x - y == ~x & y) for x in lefts
        ]

    def test_b_histogram_is_the_three_scans_through_norm_40(self):
        for matrix in unimodular_matrices(40):
            assert brute_force_b_counts(matrix) == Counter(
                b for *_, b in three_scan_decisions(matrix)
            ), str(matrix)

    @settings(deadline=None)
    @given(st.sampled_from([m for m in unimodular_matrices(80) if m.norm > 40]))
    def test_b_histogram_is_the_three_scans_up_to_norm_80(self, matrix):
        expected = Counter(b for *_, b in three_scan_decisions(matrix))
        assert brute_force_b_counts(matrix) == expected


class TestBruteForcePairs:
    def test_single_pair_matrix(self):
        pairs = brute_force_pairs(IntMatrix2(1, 1, 1, 0))
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.phi == Morphism.parse("0->01,1->0")
        assert pair.psi == Morphism.parse("0->10,1->0")
        assert (pair.b0, pair.b1, pair.b) == (1, 0, 0)
        assert pair.eta == FIBONACCI_TERNARY

    def test_empty_for_letter_swap_matrix(self):
        assert brute_force_pairs(IntMatrix2(0, 1, 1, 0)) == ()

    def test_worked_example_membership(self):
        pairs = brute_force_pairs(EXAMPLE)
        assert len(pairs) == 18
        match = [
            pair
            for pair in pairs
            if pair.phi == Morphism.parse("0->001,1->00101")
            and pair.psi == Morphism.parse("0->010,1->01001")
        ]
        assert len(match) == 1
        assert (match[0].b0, match[0].b1, match[0].b) == (1, 1, 3)
        assert (match[0].k, match[0].kbar) == (0, 2)

    def test_sorted_by_indices(self):
        pairs = brute_force_pairs(EXAMPLE)
        keys = [(pair.k, pair.kbar) for pair in pairs]
        assert keys == sorted(keys)

    def test_counts_and_histograms_match_formulas(self):
        for matrix in unimodular_matrices(9):
            pairs = brute_force_pairs(matrix)
            assert len(pairs) == count_formula_total(matrix)
            histogram = Counter(pair.b for pair in pairs)
            for b in range(matrix.norm + 2):
                assert histogram.get(b, 0) == count_formula_b(matrix, b)

    def test_agrees_with_the_scan_loop(self):
        for matrix in unimodular_matrices(14):
            assert brute_force_pairs(matrix) == scan_loop_pairs(matrix), str(matrix)

    def test_b_counts_follow_the_pairs(self):
        matrices = list(unimodular_matrices(16))
        assert len(matrices) == 158
        for matrix in matrices:
            assert brute_force_b_counts(matrix) == Counter(
                pair.b for pair in brute_force_pairs(matrix)
            ), str(matrix)

    def test_morphisms_built(self, monkeypatch):
        # brute_force_b_counts builds none; brute_force_pairs builds each
        # morphism of the chain once, plus one eta per pair
        built = []
        init = Morphism.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(Morphism, "__init__", counted)
        for matrix in unimodular_matrices(12):
            brute_force_b_counts(matrix)
        assert built == []
        pairs = brute_force_pairs(EXAMPLE)
        assert len(built) == EXAMPLE.norm - 1 + len(pairs)

    def test_b_counts_reject_non_unimodular(self):
        with pytest.raises(NotUnimodularError):
            brute_force_b_counts(IntMatrix2(1, 1, 1, 1))

    def test_row_sums_are_image_lengths(self):
        for matrix in unimodular_matrices(8):
            for pair in brute_force_pairs(matrix):
                sums = tuple(map(sum, incidence_matrix(pair.eta).entries))
                assert sums == tuple(len(image) for image in pair.eta.images)


class TestCountingSuite:
    def test_benchmark_scale(self):
        result = run_suite("counting", 24)
        assert result.ok
        assert len(result.records) == 358
        assert all(r["brute"] == r["formula"] and r["match"] for r in result.records)


class TestTernarizationMatrix:
    def test_examples(self):
        assert ternarization_matrix(EXAMPLE, 1, 1) == IntMatrix3.parse(
            "1,1,0;2,3,0;2,1,1"
        )
        assert ternarization_matrix(IDENTITY_2, 0, 0) == IDENTITY_3
        assert ternarization_matrix(IntMatrix2(1, 1, 1, 0), 1, 0) == IntMatrix3.parse(
            "0,1,0;2,0,1;1,0,0"
        )
        assert incidence_matrix(FIBONACCI_TERNARY) == IntMatrix3.parse("0,1,0;2,0,1;1,0,0")

    def test_infeasible_parameters(self):
        with pytest.raises(InfeasibleMatrixError):
            ternarization_matrix(IDENTITY_2, 3, 0)

    def test_matches_block_conjugation(self):
        for matrix in unimodular_matrices(8):
            for b0, b1, built in ternarization_matrices(matrix):
                assert built == block_conjugated_matrix(matrix, b0, b1)


class TestClassification:
    def test_examples(self):
        witness = classify_matrix3(IntMatrix3.parse("1,1,0;2,3,0;2,1,1"))
        assert witness == ClassificationWitness(EXAMPLE, 1, 1, 1)
        assert classify_matrix3(IDENTITY_3) == ClassificationWitness(
            IDENTITY_2, 0, 0, 1
        )
        assert classify_matrix3(ANTIDIAG_3) is None

    def test_negative_entries_rejected(self):
        with pytest.raises(DomainError):
            classify_matrix3(E_MATRIX)

    def test_round_trip_over_generated_matrices(self):
        for matrix in unimodular_matrices(8):
            for b0, b1, built in ternarization_matrices(matrix):
                assert classify_matrix3(built) == ClassificationWitness(
                    matrix, b0, b1, matrix.det
                )

    def test_set_equality_with_brute_force(self):
        for matrix in unimodular_matrices(8):
            brute = {incidence_matrix(pair.eta) for pair in brute_force_pairs(matrix)}
            generated = {built for _, _, built in ternarization_matrices(matrix)}
            assert brute == generated


class TestECondition:
    def test_examples(self):
        assert e_condition(IDENTITY_3) == 1
        assert e_condition(ANTIDIAG_3) == -1
        assert e_condition(IntMatrix3.parse("1,1,0;2,3,0;2,1,1")) in (1, -1)

    def test_failure_case(self):
        assert e_condition(IntMatrix3.parse("1,1,0;0,1,0;0,0,1")) is None

    def test_necessary_on_all_brute_matrices(self):
        for matrix in unimodular_matrices(8):
            for pair in brute_force_pairs(matrix):
                assert e_condition(incidence_matrix(pair.eta)) is not None

    def test_not_sufficient_witness(self):
        swap_matrix = incidence_matrix(AC_SWAP)
        assert swap_matrix == ANTIDIAG_3
        assert e_condition(swap_matrix) == -1
        assert classify_matrix3(swap_matrix) is None


class TestConjectureProbe:
    def test_known_nonmember_lands_via_ac_swap(self):
        report = conjecture_probe(Morphism.parse("A->B,B->CAC,C->C"))
        by_label = {record.label: record for record in report.records}
        assert not by_label["eta"].member
        swapped = by_label["eta*ac_swap"]
        assert swapped.member
        assert swapped.outcome.phi == Morphism.parse("0->1,1->01")
        assert swapped.outcome.psi == Morphism.parse("0->1,1->10")

    def test_identity_is_member_directly(self):
        report = conjecture_probe(Morphism.parse("A->A,B->B,C->C"))
        assert report.records[0].member

    def test_ac_swap_probe(self):
        report = conjecture_probe(AC_SWAP)
        by_label = {record.label: record for record in report.records}
        assert not by_label["eta"].member
        assert by_label["eta^2"].member  # the square is the identity
        assert len(report.members()) >= 1

    def test_probe_labels_are_stable(self):
        report = conjecture_probe(AC_SWAP)
        assert [record.label for record in report.records] == [
            "eta",
            "eta^2",
            "eta*ac_swap",
            "eta*fib_ternary",
            "eta*ac_swap*fib_ternary",
        ]


def unimodular_matrices_by_scan(max_norm):
    """The sweep as a scan over every p1: the oracle of the solved p1."""
    for norm in range(2, max_norm + 1):
        for p0 in range(norm + 1):
            for q0 in range(norm - p0 + 1):
                for p1 in range(norm - p0 - q0 + 1):
                    q1 = norm - p0 - q0 - p1
                    if abs(p0 * q1 - q0 * p1) == 1:
                        yield IntMatrix2(p0, q0, p1, q1)


class TestUnimodularSweep:
    def test_agrees_with_the_scan_over_p1(self):
        for max_norm in (0, 1, 2, 80):
            assert list(unimodular_matrices(max_norm)) == list(
                unimodular_matrices_by_scan(max_norm)
            )

    def test_small_census(self):
        matrices = list(unimodular_matrices(3))
        assert matrices == [
            IntMatrix2(0, 1, 1, 0),
            IntMatrix2(1, 0, 0, 1),
            IntMatrix2(0, 1, 1, 1),
            IntMatrix2(1, 0, 1, 1),
            IntMatrix2(1, 1, 0, 1),
            IntMatrix2(1, 1, 1, 0),
        ]

    def test_all_unimodular_and_ordered(self):
        seen = list(unimodular_matrices(7))
        assert len(seen) == len(set(seen))
        assert all(abs(m.det) == 1 for m in seen)
        norms = [m.norm for m in seen]
        assert norms == sorted(norms)
