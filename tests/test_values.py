"""Value semantics of the package's record and value classes: equality
and hashing by fields, immutability, the ``Name(field=value, ...)``
repr, and the start-up cost of importing the command line."""

import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import ietwords
from ietwords import (
    Alphabet,
    AmicabilityWitness,
    AmicablePair,
    ClassificationWitness,
    DomainError,
    FiniteWord,
    IntMatrix2,
    IntMatrix3,
    Morphism,
    PreservationResult,
    ProbeRecord,
    ProbeReport,
    QuadNumber,
    TernarizationMembership,
    ThreeIET,
    TwoIET,
    binary_word,
    ternary_word,
)
from ietwords.verification import SuiteResult

PHI = "0->001,1->00101"
PSI = "0->010,1->01001"
ETA = "A->AB,B->ABABB,C->ABAC"


def _membership(reason):
    return TernarizationMembership(False, None, None, reason)


# each case: (build one instance from a seed, its field names in order);
# seeds 0 and 1 give instances that differ in their fields
CASES = {
    "FiniteWord": (
        lambda i: FiniteWord(Alphabet.BINARY, bytes([0, 1, i])), ("alphabet", "letters")
    ),
    "IntMatrix2": (lambda i: IntMatrix2(2, 1, 3, 2 + i), ("p0", "q0", "p1", "q1")),
    "IntMatrix3": (lambda i: IntMatrix3(((1, 1, 0), (2, 3, 0), (2, 1, 1 + i))), ("entries",)),
    "Morphism": (lambda i: Morphism.parse((PHI, PSI)[i]), ("alphabet", "images")),
    "QuadNumber": (lambda i: QuadNumber(3, -1, 5, 2 + i), ("a", "b", "c", "d")),
    "TwoIET": (lambda i: TwoIET(QuadNumber(1, 0, 0, 2 + i)), ("slope",)),
    "ThreeIET": (
        lambda i: ThreeIET(QuadNumber(3, -1, 5, 2), QuadNumber(1, 0, 0, 4 + i)),
        ("alpha", "beta"),
    ),
    "AmicabilityWitness": (lambda i: AmicabilityWitness(ternary_word("AB"), i), ("v", "b")),
    "AmicablePair": (
        lambda i: AmicablePair(
            phi=Morphism.parse(PHI), psi=Morphism.parse(PSI), eta=Morphism.parse(ETA),
            b0=1, b1=1, b=3, k=i, kbar=2,
        ),
        ("phi", "psi", "eta", "b0", "b1", "b", "k", "kbar"),
    ),
    "TernarizationMembership": (
        lambda i: _membership(f"reason {i}"), ("member", "phi", "psi", "reason")
    ),
    "PreservationResult": (lambda i: PreservationResult(i == 0, None), ("ok", "detail")),
    "ClassificationWitness": (
        lambda i: ClassificationWitness(IntMatrix2(2, 1, 3, 2), 1, i, 1),
        ("matrix", "b0", "b1", "delta"),
    ),
    "ProbeRecord": (
        lambda i: ProbeRecord("eta", Morphism.parse(ETA), _membership(f"reason {i}")),
        ("label", "morphism", "outcome"),
    ),
    "ProbeReport": (
        lambda i: ProbeReport(
            Morphism.parse(ETA), (ProbeRecord("eta", Morphism.parse(ETA), _membership("r")),) * i
        ),
        ("eta", "records"),
    ),
}
case_names = pytest.mark.parametrize("name", sorted(CASES))


def _fields(value, names):
    return tuple(getattr(value, field) for field in names)


@case_names
def test_equality_and_hash_are_by_fields(name):
    build, names = CASES[name]
    first, again, other = build(0), build(0), build(1)
    assert first is not again
    assert first == again and not first != again
    assert first != other and _fields(first, names) != _fields(other, names)
    assert hash(first) == hash(again) == hash(_fields(first, names))
    assert len({first, again, other}) == 2


@case_names
def test_unequal_to_another_class_and_to_its_fields_as_a_tuple(name):
    build, names = CASES[name]
    value = build(0)
    fields = _fields(value, names)
    assert value != fields and fields != value
    assert value.__eq__(fields) is NotImplemented
    assert value != object()


def test_unequal_to_another_class_with_the_same_fields():
    word = ternary_word("AB")
    witness, result = AmicabilityWitness(word, 1), PreservationResult(word, 1)
    assert _fields(witness, ("v", "b")) == _fields(result, ("ok", "detail"))
    assert witness != result and result != witness
    assert witness.__eq__(result) is NotImplemented


@case_names
def test_fields_cannot_be_assigned_or_deleted(name):
    build, names = CASES[name]
    value = build(0)
    for field in names:
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, before)
        with pytest.raises(AttributeError):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


@case_names
def test_pickle_round_trip(name):
    value = CASES[name][0](0)
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize(
    "value, text",
    [
        (PreservationResult(ok=True, detail=None), "PreservationResult(ok=True, detail=None)"),
        (
            AmicabilityWitness(v=ternary_word("AB"), b=1),
            "AmicabilityWitness(v=FiniteWord(TERNARY, 'AB'), b=1)",
        ),
        (
            _membership("no"),
            "TernarizationMembership(member=False, phi=None, psi=None, reason='no')",
        ),
        (
            ClassificationWitness(IntMatrix2(2, 1, 3, 2), 1, 1, 1),
            "ClassificationWitness(matrix=IntMatrix2(p0=2, q0=1, p1=3, q1=2), b0=1, b1=1, delta=1)",
        ),
        (
            ProbeRecord("eta", Morphism.parse(ETA), _membership("no")),
            "ProbeRecord(label='eta', morphism=Morphism('A->AB,B->ABABB,C->ABAC'), "
            "outcome=TernarizationMembership(member=False, phi=None, psi=None, reason='no'))",
        ),
        (
            ProbeReport(Morphism.parse(ETA), ()),
            "ProbeReport(eta=Morphism('A->AB,B->ABABB,C->ABAC'), records=())",
        ),
        (
            AmicablePair(
                phi=Morphism.parse(PHI), psi=Morphism.parse(PSI), eta=Morphism.parse(ETA),
                b0=1, b1=1, b=3, k=0, kbar=2,
            ),
            "AmicablePair(phi=Morphism('0->001,1->00101'), psi=Morphism('0->010,1->01001'), "
            "eta=Morphism('A->AB,B->ABABB,C->ABAC'), b0=1, b1=1, b=3, k=0, kbar=2)",
        ),
        (IntMatrix2(2, 1, 3, 2), "IntMatrix2(p0=2, q0=1, p1=3, q1=2)"),
        (
            IntMatrix3(((1, 1, 0), (2, 3, 0), (2, 1, 1))),
            "IntMatrix3(entries=((1, 1, 0), (2, 3, 0), (2, 1, 1)))",
        ),
        (TwoIET(QuadNumber(1, 0, 0, 2)), f"TwoIET(slope={QuadNumber(1, 0, 0, 2)!r})"),
        (
            SuiteResult("counting", True, [], {}),
            "SuiteResult(name='counting', ok=True, records=[], summary={})",
        ),
        (binary_word("0110"), "FiniteWord(BINARY, '0110')"),
        (Morphism.parse(PHI), "Morphism('0->001,1->00101')"),
    ],
)
def test_repr(value, text):
    assert repr(value) == text


def test_generic_constructor_takes_keywords_and_rejects_bad_arguments():
    assert PreservationResult(True, detail="x") == PreservationResult(ok=True, detail="x")
    for args, kwargs in [((True,), {}), ((True, None, 1), {}), ((True,), {"ok": True}),
                         ((True,), {"reason": None})]:
        with pytest.raises(TypeError):
            PreservationResult(*args, **kwargs)


def test_empty_word_from_the_alphabet_alone():
    empty = FiniteWord(Alphabet.TERNARY)
    assert empty.letters == b"" and len(empty) == 0
    assert empty == ternary_word("") != FiniteWord(Alphabet.BINARY)


@pytest.mark.parametrize("letters", [bytearray(b"\x00\x01\x01"), [0, 1, 1], (0, 1, 1)])
def test_word_letters_are_stored_as_bytes(letters):
    word = FiniteWord(Alphabet.BINARY, letters)
    assert type(word.letters) is bytes
    assert word == binary_word("011")
    assert hash(word) == hash(binary_word("011"))


def test_morphism_stores_its_images_as_a_tuple():
    images = [binary_word("001"), binary_word("00101")]
    from_list = Morphism(Alphabet.BINARY, images)
    assert type(from_list.images) is tuple
    assert from_list == Morphism(Alphabet.BINARY, tuple(images)) == Morphism.parse(PHI)
    assert hash(from_list) == hash(Morphism.parse(PHI))
    images.pop()  # the morphism keeps no reference to the caller's list
    assert len(from_list.images) == 2


@pytest.mark.parametrize(
    "entries", [(1.5, 0, 0, 1), (1, 0, 0, 1.0), ("1", 0, 0, 1), (1, None, 0, 1)]
)
def test_matrix2_rejects_entries_that_are_not_integers(entries):
    with pytest.raises(DomainError):
        IntMatrix2(*entries)


@pytest.mark.parametrize(
    "entries",
    [
        ((1.9, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1.0)),
        ((1, 0, 0), (0, "1", 0), (0, 0, 1)),
    ],
)
def test_matrix3_rejects_entries_that_are_not_integers(entries):
    with pytest.raises(DomainError):
        IntMatrix3(entries)


def test_matrix3_rows_become_tuples():
    matrix = IntMatrix3([[1, 0, 0], [0, 1, 0], iter((0, 0, 1))])
    assert matrix.entries == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert hash(matrix) == hash(IntMatrix3.parse("1,0,0;0,1,0;0,0,1"))
    with pytest.raises(DomainError):
        IntMatrix3(((1, 0, 0), (0, 1, 0)))


def test_suite_result_is_immutable_and_unhashable():
    # run_suite builds a result whole; its record list makes it unhashable
    result = SuiteResult("counting", False, [{"match": False}], {})
    assert result == SuiteResult("counting", False, [{"match": False}], {})
    assert result != ("counting", False, [{"match": False}], {})
    with pytest.raises(AttributeError):
        result.ok = True
    with pytest.raises(AttributeError):
        del result.records
    with pytest.raises(TypeError):
        hash(result)
    with pytest.raises(TypeError):
        SuiteResult("counting", True)


def test_cli_import_leaves_dataclasses_and_inspect_unloaded():
    # the value classes are plain classes: ``dataclasses`` and the
    # ``inspect`` it imports cost every command about 8 ms of start-up
    src = str(Path(ietwords.__file__).resolve().parents[1])
    code = (
        "import sys; import ietwords.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
