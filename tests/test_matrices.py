import itertools
from collections import Counter

import pytest

from ietwords import (
    AC_SWAP,
    AmicablePair,
    ClassificationWitness,
    DomainError,
    E_MATRIX,
    FIBONACCI_TERNARY,
    InfeasibleMatrixError,
    IntMatrix2,
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
    incidence_matrix,
    k_index,
    right_conjugate_step,
    standard_morphism,
    ternarization_matrices,
    ternarization_matrix,
    ternarize_morphisms,
    unimodular_matrices,
)
from ietwords.matrices import block_conjugated_matrix
from ietwords.verification import run_suite

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


def scan_loop_pairs(matrix):
    """The brute force as a letterwise scan of every candidate pair: the
    oracle of the bit test that decides the pairs in brute_force_pairs."""
    indexed = sorted((k_index(m), m) for m in conjugation_chain(matrix))
    pairs = []
    for k, phi in indexed:
        for kbar, psi in indexed:
            try:
                eta = ternarize_morphisms(phi, psi)
            except NotAmicableError:
                continue
            b0, b1, b = b_counts(eta)
            pairs.append(
                AmicablePair(phi=phi, psi=psi, eta=eta, b0=b0, b1=b1, b=b, k=k, kbar=kbar)
            )
    return tuple(pairs)


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
            assert brute_force_b_counts(matrix) == tuple(
                pair.b for pair in brute_force_pairs(matrix)
            ), str(matrix)

    def test_morphisms_built(self, monkeypatch):
        # brute_force_b_counts builds none; brute_force_pairs builds each
        # morphism of an accepted pair once, plus one eta per pair
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
        assert len(built) == len({p.k for p in pairs} | {p.kbar for p in pairs}) + len(pairs)

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


class TestUnimodularSweep:
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
