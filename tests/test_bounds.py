"""The sweep bounds of the library path: each suite and the preservation
checker reject their own out-of-range arguments before any work, so a
direct call is bounded as the command line is."""

import json
import re

import pytest

from ietwords import ZERO, IntMatrix2, Morphism, ThreeIET, amicability, check_3iet_preservation
from ietwords import TwoIET, coding_word_k, three_iet_code, two_iet_code
from ietwords import iet, matrices, morphisms, verification
from ietwords.amicability import MAX_PROJECTION_LETTERS
from ietwords.cli import main
from ietwords.errors import DomainError
from ietwords.iet import MAX_CODING_LENGTH
from ietwords.matrices import MAX_PAIRS_NORM, MAX_PROBE_LETTERS
from ietwords.morphisms import MAX_ENUM_NORM
from ietwords.verification import (
    MAX_COUNTING_NORM,
    MAX_LEMMA_W_NORM,
    MAX_MATRICES_NORM,
    MAX_MONOID_NORM,
    MAX_MONOID_SAMPLES,
    MAX_PRESERVE_NORM,
    PRESERVE_ALPHA,
    PRESERVE_BETA,
    SUITES,
    run_suite,
)


def unreachable(*args, **kwargs):
    raise AssertionError("a sweep enumerated before checking its bounds")


@pytest.fixture
def no_enumeration(monkeypatch):
    monkeypatch.setattr(matrices, "unimodular_matrices", unreachable)
    monkeypatch.setattr(verification, "coding_word_k", unreachable)
    monkeypatch.setattr(amicability, "three_iet_code", unreachable)
    monkeypatch.setattr(iet, "_exchange_code", unreachable)


@pytest.mark.parametrize("name", sorted(SUITES))
def test_max_norm_below_2_raises_before_any_record(name, no_enumeration):
    # a sweep over no matrix would report ok having checked nothing
    with pytest.raises(DomainError, match="--max-norm must be at least 2, got 1"):
        next(SUITES[name](max_norm=1))


@pytest.mark.parametrize(
    "name, kwargs, message",
    [
        ("counting", {"max_norm": MAX_COUNTING_NORM + 1},
         f"--max-norm must be at most {MAX_COUNTING_NORM}, got {MAX_COUNTING_NORM + 1}"),
        ("lemma-w", {"max_norm": MAX_LEMMA_W_NORM + 1},
         f"--max-norm must be at most {MAX_LEMMA_W_NORM}, got {MAX_LEMMA_W_NORM + 1}"),
        ("matrices", {"max_norm": MAX_MATRICES_NORM + 1},
         f"--max-norm must be at most {MAX_MATRICES_NORM}, got {MAX_MATRICES_NORM + 1}"),
        ("monoid", {"max_norm": MAX_MONOID_NORM + 1},
         f"--max-norm must be at most {MAX_MONOID_NORM}, got {MAX_MONOID_NORM + 1}"),
        ("monoid", {"samples": MAX_MONOID_SAMPLES + 1},
         f"--samples must be at most {MAX_MONOID_SAMPLES}, got {MAX_MONOID_SAMPLES + 1}"),
        ("monoid", {"samples": 0}, "--samples must be at least 1, got 0"),
        ("preserve", {"max_norm": MAX_PRESERVE_NORM + 1},
         f"--max-norm must be at most {MAX_PRESERVE_NORM}, got {MAX_PRESERVE_NORM + 1}"),
        ("preserve", {"kmax": 0}, "--kmax must be at least 1, got 0"),
    ],
)
def test_run_suite_out_of_range_enumerates_nothing(name, kwargs, message, no_enumeration):
    with pytest.raises(DomainError, match=message):
        run_suite(name, **kwargs)


class Coded(Exception):
    """Raised in place of coding an orbit prefix."""


@pytest.fixture
def coding_raises(monkeypatch):
    def coded(*args):
        raise Coded

    monkeypatch.setattr(amicability, "three_iet_code", coded)


def test_preservation_projection_above_the_cap_codes_nothing(coding_raises):
    transform = ThreeIET(PRESERVE_ALPHA, PRESERVE_BETA)
    # the longest projected letter image has three letters, so the cap is
    # reached at an n inside the coding cap
    n = MAX_PROJECTION_LETTERS // 3
    assert n < MAX_CODING_LENGTH
    longest = Morphism.parse("A->AAA,B->A,C->A")
    with pytest.raises(Coded):
        check_3iet_preservation(longest, transform, ZERO, n)
    with pytest.raises(
        DomainError,
        match=f"projection length must be at most {MAX_PROJECTION_LETTERS}, "
        f"got {3 * (n + 1)}",
    ):
        check_3iet_preservation(longest, transform, ZERO, n + 1)
    # B projects to two letters, so AB to three
    with_b = Morphism.parse("A->AB,B->A,C->A")
    with pytest.raises(DomainError, match="projection length must be at most"):
        check_3iet_preservation(with_b, transform, ZERO, n + 1)


def test_preserve_suite_letters_above_the_cap_code_nothing(coding_raises):
    # the longest letter image of the suite is max_norm letters, so at the
    # norm cap the projection cap is reached at 62 500
    n = MAX_PROJECTION_LETTERS // MAX_PRESERVE_NORM
    with pytest.raises(Coded):
        run_suite("preserve", max_norm=MAX_PRESERVE_NORM, n=n)
    with pytest.raises(
        DomainError,
        match=f"projection length must be at most {MAX_PROJECTION_LETTERS}, "
        f"got {(n + 1) * MAX_PRESERVE_NORM}",
    ):
        run_suite("preserve", max_norm=MAX_PRESERVE_NORM, n=n + 1)
    n = MAX_PROJECTION_LETTERS // 3
    with pytest.raises(Coded):
        run_suite("preserve", max_norm=3, n=n)
    with pytest.raises(DomainError, match="projection length must be at most"):
        run_suite("preserve", max_norm=3, n=n + 1)


PRESERVE_ARGVS = pytest.mark.parametrize(
    "argv",
    [
        ["preserve", "--eta", "A->AB,B->ABABB,C->ABAC",
         "--alpha", "(3-1*sqrt(5))/2", "--beta", "1/4"],
        ["verify", "--suite", "preserve"],
    ],
    ids=["preserve", "verify"],
)


@pytest.mark.parametrize("n", ["-3", "0"])
@PRESERVE_ARGVS
def test_n_below_1_is_named_before_any_letter_is_coded(capsys, coding_raises, argv, n):
    # checked before its product with the longest image, which would be
    # reported as a negative projection length
    assert main([*argv, "-n", n]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "command": argv[0],
        "error": f"coding length must be at least 1, got {n}",
        "status": "invalid-input",
    }


@PRESERVE_ARGVS
def test_n_above_the_coding_cap_is_named_before_any_letter_is_coded(
    capsys, coding_raises, argv
):
    # checked before its product with the longest image, which would be
    # reported as a projection length above its cap
    n = MAX_CODING_LENGTH + 1
    assert main([*argv, "-n", str(n)]) == 2
    assert json.loads(capsys.readouterr().out) == {
        "command": argv[0],
        "error": f"coding length must be at most {MAX_CODING_LENGTH}, got {n}",
        "status": "invalid-input",
    }


def test_a_rotation_coding_above_the_coding_cap_codes_nothing(no_enumeration):
    with pytest.raises(AssertionError, match="enumerated"):
        coding_word_k(1, MAX_CODING_LENGTH, 0)
    n = MAX_CODING_LENGTH + 1
    with pytest.raises(
        DomainError, match=f"coding length must be at most {MAX_CODING_LENGTH}, got {n}"
    ):
        coding_word_k(1, n, 0)


TRANSFORM = ThreeIET(PRESERVE_ALPHA, PRESERVE_BETA)


@pytest.mark.parametrize("value", [2.5, 2.0, True])
@pytest.mark.parametrize(
    "flag, call",
    [
        ("coding length", lambda n: two_iet_code(TwoIET(PRESERVE_BETA), ZERO, n)),
        ("coding length", lambda n: three_iet_code(TRANSFORM, ZERO, n)),
        ("coding length", lambda n: check_3iet_preservation(
            Morphism.parse("A->A,B->B,C->C"), TRANSFORM, ZERO, n)),
        *(("--max-norm", lambda v, name=name: run_suite(name, max_norm=v))
          for name in sorted(SUITES)),
        ("--samples", lambda v: run_suite("monoid", samples=v)),
        ("--seed", lambda v: run_suite("monoid", seed=v)),
        ("coding length", lambda n: run_suite("preserve", n=n)),
        ("coding length", lambda n: coding_word_k(1, n, 0)),
        ("p", lambda p: coding_word_k(p, 3, 0)),
        ("k", lambda k: coding_word_k(1, 3, k)),
        ("--kmax", lambda k: run_suite("preserve", max_norm=2, kmax=k)),
    ],
    ids=[
        "two_iet_code", "three_iet_code", "check_3iet_preservation",
        *(f"{name}-max_norm" for name in sorted(SUITES)), "monoid-samples", "monoid-seed",
        "preserve-n",
        "coding_word_k-n_total", "coding_word_k-p", "coding_word_k-k",
        "preserve-kmax",
    ],
)
def test_a_bound_that_is_no_int_is_named_before_any_work(flag, call, value, no_enumeration):
    # a float would reach range() or int.bit_length, and a bool reads as 0 or 1
    with pytest.raises(DomainError, match=re.escape(f"{flag} must be an integer, got {value!r}")):
        call(value)


@pytest.fixture
def no_chain(monkeypatch):
    # every chain place is a rotation of the standard pair, so no place
    # is built before it
    def standard(matrix):
        raise AssertionError(f"the standard pair of {matrix} was built")

    monkeypatch.setattr(morphisms, "_standard_images", standard)
    monkeypatch.setattr(matrices, "_standard_images", standard)


@pytest.mark.parametrize(
    "build, cap",
    [
        (matrices.brute_force_pairs, MAX_PAIRS_NORM),
        (matrices.brute_force_b_counts, MAX_PAIRS_NORM),
        (morphisms.enumerate_sturmian, MAX_ENUM_NORM),
        (morphisms.standard_morphism, MAX_CODING_LENGTH),
    ],
)
def test_matrix_norm_above_the_cap_builds_no_chain(build, cap, no_chain):
    matrix = IntMatrix2(1, 0, cap - 1, 1)
    assert (matrix.det, matrix.norm) == (1, cap + 1)
    with pytest.raises(DomainError, match=f"matrix norm must be at most {cap}, got {cap + 1}"):
        build(matrix)


def test_probe_above_the_letter_cap_composes_nothing(monkeypatch):
    # eta^2 alone would have 10**10 letters
    eta = Morphism.parse(f"A->{'A' * 100_000},B->B,C->C")
    compose = matrices.compose

    def compose_spy(outer, inner):
        assert outer is not eta, "eta was composed"
        return compose(outer, inner)

    monkeypatch.setattr(matrices, "compose", compose_spy)
    letters = 100_000**2 + 6 * 100_000 + 12
    with pytest.raises(
        DomainError,
        match=f"letters in the probe candidates must be at most {MAX_PROBE_LETTERS}, got {letters}",
    ):
        matrices.conjecture_probe(eta)
