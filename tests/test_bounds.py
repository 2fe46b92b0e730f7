"""The sweep bounds of the library path: each suite and the preservation
checker reject their own out-of-range arguments before any work, so a
direct call is bounded as the command line is."""

import pytest

from ietwords import ZERO, Morphism, ThreeIET, amicability, check_3iet_preservation, matrices
from ietwords import verification
from ietwords.amicability import MAX_PRESERVE_KMAX
from ietwords.errors import DomainError
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
        ("preserve", {"n": 2 * MAX_PRESERVE_KMAX + 2, "kmax": MAX_PRESERVE_KMAX + 1},
         f"--kmax must be at most {MAX_PRESERVE_KMAX}, got {MAX_PRESERVE_KMAX + 1}"),
    ],
)
def test_run_suite_out_of_range_enumerates_nothing(name, kwargs, message, no_enumeration):
    with pytest.raises(DomainError, match=message):
        run_suite(name, **kwargs)


def test_preservation_kmax_above_the_cap_codes_nothing(no_enumeration):
    transform = ThreeIET(PRESERVE_ALPHA, PRESERVE_BETA)
    with pytest.raises(
        DomainError, match=f"--kmax must be at most {MAX_PRESERVE_KMAX}, got 20001"
    ):
        check_3iet_preservation(
            Morphism.parse("A->A,B->B,C->C"), transform, ZERO, n=40002, kmax=20001
        )
