"""End-to-end acceptance checks.

Each test covers one shipped guarantee, runs it at full stated scale,
and prints a single PASS/FAIL line (use ``pytest -s`` to see them on
success).  The numeric results are exact; the only tolerances are the
wall-clock budgets of the exhaustive sweeps.
"""

import math
import time
from collections import Counter

import pytest

from ietwords import (
    AC_SWAP,
    Alphabet,
    DegenerateParametersError,
    Morphism,
    QuadNumber,
    ThreeIET,
    ZERO,
    amicable_words_b,
    brute_force_pairs,
    check_3iet_preservation,
    classify_matrix3,
    coding_word_k,
    compose,
    conjecture_probe,
    count_formula_b,
    count_formula_total,
    e_condition,
    enumerate_sturmian,
    incidence_matrix,
    is_standard_morphism,
    k_index,
    sigma,
    standard_morphism,
    ternarization_matrices,
    ternarization_membership,
    ternarize_morphisms,
    ternary_word,
    unimodular_matrices,
)
from ietwords.verification import (
    DEFAULT_SEED,
    PRESERVE_ALPHA,
    PRESERVE_BETA,
    TRAP_BETA,
    run_suite,
)

PHI = Morphism.parse("0->001,1->00101")
PSI = Morphism.parse("0->010,1->01001")
NONMEMBER = Morphism.parse("A->B,B->CAC,C->C")


def report(number, label, passed=True):
    marker = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {marker} {label}")
    assert passed


def test_criterion_01_worked_example_ternarization():
    eta = ternarize_morphisms(PHI, PSI)
    assert eta == Morphism.parse("A->AB,B->ABABB,C->ABAC")
    timings = []
    for _ in range(10):
        start = time.perf_counter()
        ternarize_morphisms(PHI, PSI)
        timings.append(time.perf_counter() - start)
    fastest = min(timings)
    assert fastest < 1e-3, f"ternarization took {fastest * 1e3:.3f} ms"
    report(1, f"worked-example ternarization exact, {fastest * 1e6:.0f} us")


def test_criterion_02_membership_rejection_diagnostic():
    outcome = ternarization_membership(NONMEMBER)
    assert outcome.member is False
    # the image of B is CAC, so the left side of the diagnostic reads 101
    # (the printed source value 010 corresponds to ACA); the right side
    # and the rejection itself are unaffected
    assert outcome.reason == "sigma01(B)=101 != 011"
    assert outcome.reason.endswith("!= 011")
    report(2, f"membership rejection diagnostic {outcome.reason!r}")


def test_criterion_03_counting_theorem_norm_12():
    start = time.perf_counter()
    checked = 0
    for matrix in unimodular_matrices(12):
        pairs = brute_force_pairs(matrix)
        assert len(pairs) == count_formula_total(matrix), str(matrix)
        histogram = Counter(pair.b for pair in pairs)
        for b in range(matrix.norm + 2):
            assert histogram.get(b, 0) == count_formula_b(matrix, b), (str(matrix), b)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"counting sweep took {elapsed:.1f}s"
    report(3, f"counting theorem on {checked} matrices in {elapsed:.1f}s")


def test_criterion_04_coding_word_lemma_n_24():
    start = time.perf_counter()
    cases = 0
    for n in range(2, 25):
        for p in range(1, n):
            if math.gcd(p, n) != 1:
                continue
            m = min(p, n - p)
            words = [coding_word_k(p, n, k) for k in range(n)]
            for k in range(n):
                for kbar in range(n):
                    expected = kbar - k if 0 <= kbar - k <= m else None
                    assert amicable_words_b(words[k], words[kbar]) == expected, (
                        p, n, k, kbar,
                    )
                    cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30, f"lemma sweep took {elapsed:.1f}s"
    report(4, f"coding-word lemma on {cases} word pairs in {elapsed:.1f}s")


def test_criterion_05_matrix_theorem_set_equality_norm_10():
    start = time.perf_counter()
    checked = 0
    for matrix in unimodular_matrices(10):
        brute = {incidence_matrix(pair.eta) for pair in brute_force_pairs(matrix)}
        generated = {built for _, _, built in ternarization_matrices(matrix)}
        assert brute == generated, str(matrix)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"matrix sweep took {elapsed:.1f}s"
    report(5, f"matrix-theorem set equality on {checked} matrices in {elapsed:.1f}s")


def test_criterion_06_sturmian_census_norm_12():
    for matrix in unimodular_matrices(12):
        chain = enumerate_sturmian(matrix)
        assert len(chain) == matrix.norm - 1
        assert len(set(chain)) == len(chain)
        assert all(incidence_matrix(m) == matrix for m in chain)
        standard = [m for m in chain if is_standard_morphism(m)]
        assert standard == [standard_morphism(matrix)]
        indices = [k_index(m) for m in chain]
        assert len(set(indices)) == len(indices)
        excluded = matrix.norm - 1 if matrix.det == 1 else 0
        assert excluded not in indices
    report(6, "Sturmian census, standardness and k-index exclusions")


def test_criterion_07_monoid_closure_and_intertwining():
    result = run_suite("monoid", max_norm=8, samples=200, seed=DEFAULT_SEED)
    assert result.ok
    assert len(result.records) == 200
    assert all(record["closure"] and record["intertwining"] for record in result.records)
    # spot re-check one deterministic composite against first principles
    pairs = brute_force_pairs(incidence_matrix(PHI))
    first, second = pairs[0], pairs[-1]
    composed = compose(first.eta, second.eta)
    assert composed == ternarize_morphisms(
        compose(first.phi, second.phi), compose(first.psi, second.psi)
    )
    for ch in "ABC":
        letter = ternary_word(ch)
        assert sigma(composed(letter), "01") == compose(first.phi, second.phi)(
            sigma(letter, "01")
        )
    report(7, "monoid closure and intertwining on 200 seeded samples")


def test_criterion_08_preservation_norm_6_prefix_1000():
    start = time.perf_counter()
    transform = ThreeIET(PRESERVE_ALPHA, PRESERVE_BETA)
    checked = 0
    for matrix in unimodular_matrices(6):
        for pair in brute_force_pairs(matrix):
            result = check_3iet_preservation(pair.eta, transform, ZERO, 1000, 20)
            assert result.ok, (str(matrix), pair.k, pair.kbar, result.detail)
            checked += 1
    with pytest.raises(DegenerateParametersError):
        check_3iet_preservation(
            Morphism.identity(Alphabet.TERNARY),
            ThreeIET(PRESERVE_ALPHA, TRAP_BETA),
            ZERO,
            1000,
            20,
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 120, f"preservation sweep took {elapsed:.1f}s"
    report(8, f"3iet preservation for {checked} ternarizations in {elapsed:.1f}s")


def test_criterion_09_e_condition_necessary_not_sufficient():
    for matrix in unimodular_matrices(10):
        for _, _, built in ternarization_matrices(matrix):
            assert e_condition(built) is not None, str(built)
    swap_matrix = incidence_matrix(AC_SWAP)
    assert e_condition(swap_matrix) == -1
    assert classify_matrix3(swap_matrix) is None
    report(9, "E-condition necessary on all ternarization matrices, not sufficient")


def test_criterion_10_conjecture_probe_recovers_pair():
    probe = conjecture_probe(NONMEMBER)
    by_label = {record.label: record for record in probe.records}
    assert by_label["eta"].member is False
    swapped = by_label["eta*ac_swap"]
    assert swapped.member is True
    assert swapped.outcome.phi == Morphism.parse("0->1,1->01")
    assert swapped.outcome.psi == Morphism.parse("0->1,1->10")
    report(10, "probe finds the A<->C composite with the expected pair")
