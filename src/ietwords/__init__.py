"""Words coding 2- and 3-interval exchanges, Sturmian morphisms,
amicability and ternarization, with exact arithmetic throughout."""

from .errors import (
    AlphabetError,
    DegenerateParametersError,
    DomainError,
    FieldMismatchError,
    IetWordsError,
    InfeasibleMatrixError,
    MatrixDecompositionError,
    NotAmicableError,
    NotSturmianError,
    NotUnimodularError,
    ParseError,
)
from .words import (
    Alphabet,
    FiniteWord,
    binary_word,
    factor_complexity,
    is_balanced,
    is_conjugate_word,
    parikh,
    ternary_word,
)
from .quadratic import ONE, ZERO, QuadNumber
from .iet import (
    ThreeIET,
    TwoIET,
    coding_word_k,
    is_nondegenerate_params,
    three_iet_code,
    two_iet_code,
)
from .morphisms import (
    IntMatrix2,
    IntMatrix3,
    Morphism,
    compose,
    enumerate_sturmian,
    incidence_matrix,
    is_standard_morphism,
    is_sturmian_morphism,
    k_index,
    right_conjugate_step,
    standard_morphism,
)
from .amicability import (
    AmicabilityWitness,
    AmicablePair,
    PreservationResult,
    TernarizationMembership,
    amicable_morphisms,
    amicable_words_b,
    b_counts,
    check_3iet_preservation,
    sigma,
    ternarization_membership,
    ternarize_morphisms,
    ternarize_words,
)
from .matrices import (
    AC_SWAP,
    ClassificationWitness,
    E_MATRIX,
    FIBONACCI_TERNARY,
    PRESERVING_NONMEMBER,
    ProbeRecord,
    ProbeReport,
    brute_force_b_counts,
    brute_force_pairs,
    classify_matrix3,
    conjecture_probe,
    count_formula_b,
    count_formula_total,
    e_condition,
    formula_b_counts,
    ternarization_matrices,
    ternarization_matrix,
    unimodular_matrices,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
