import contextlib
import hashlib
import inspect
import io
import json
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ietwords.amicability
import ietwords.cli
import ietwords.matrices
import ietwords.morphisms
from ietwords import (
    AmicablePair, IntMatrix2, Morphism, count_formula_total, k_index, verification
)
from ietwords.cli import MAX_COUNT_NORM, main
from ietwords.errors import IetWordsError
from ietwords.iet import MAX_CODING_LENGTH
from ietwords.matrices import MAX_PAIRS_NORM, MAX_PROBE_LETTERS
from ietwords.morphisms import MAX_ENUM_NORM
from ietwords.verification import MAX_COUNTING_NORM, MAX_PRESERVE_NORM

# the package's parent directory: ``python -m ietwords`` run from here
# imports this checkout whether or not it is installed
SRC = Path(ietwords.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    lines = [line for line in captured.out.splitlines() if line]
    return code, [json.loads(line) for line in lines], captured.err


class TestTernarizeCommand:
    def test_worked_example(self, capsys):
        code, records, _ = run(
            capsys,
            "ternarize",
            "--phi", "0->001,1->00101",
            "--psi", "0->010,1->01001",
        )
        assert code == 0
        assert records[0]["eta"] == "A->AB,B->ABABB,C->ABAC"
        assert (records[0]["b0"], records[0]["b1"], records[0]["b"]) == (1, 1, 3)
        assert records[-1]["status"] == "ok"

    def test_not_amicable_is_property_false(self, capsys):
        code, records, _ = run(
            capsys,
            "ternarize",
            "--phi", "0->010,1->01001",
            "--psi", "0->001,1->00101",
        )
        assert code == 1
        assert records[0]["amicable"] is False

    def test_non_sturmian_input_rejected(self, capsys):
        code, records, _ = run(
            capsys, "ternarize", "--phi", "0->01,1->10", "--psi", "0->01,1->10"
        )
        assert code == 2
        assert records[0]["status"] == "invalid-input"
        assert "not Sturmian" in records[0]["error"]


class TestMemberCommand:
    def test_rejection_diagnostic(self, capsys):
        code, records, _ = run(capsys, "member", "--eta", "A->B,B->CAC,C->C")
        assert code == 1
        assert records[0]["member"] is False
        assert records[0]["reason"] == "sigma01(B)=101 != 011"

    def test_identity_accepted(self, capsys):
        code, records, _ = run(capsys, "member", "--eta", "A->A,B->B,C->C")
        assert code == 0
        assert records[0] == {"member": True, "phi": "0->0,1->1", "psi": "0->0,1->1"}


class TestEnumerationCommands:
    def test_std(self, capsys):
        code, records, _ = run(capsys, "std", "--matrix", "1,1;1,0")
        assert code == 0
        assert records[0]["morphism"] == "0->01,1->0"

    def test_enum_census(self, capsys):
        code, records, _ = run(capsys, "enum", "--matrix", "2,1;3,2")
        assert code == 0
        rows, summary = records[:-1], records[-1]
        assert summary["count"] == 7 and summary["expected"] == 7
        assert sum(row["standard"] for row in rows) == 1
        assert len({row["k"] for row in rows}) == 7

    def test_enum_k_is_the_k_index_of_each_morphism(self, capsys):
        # enum indexes a chain by one search: every record's k is the one
        # k_index searches for, over every matrix of norm at most 30
        checked = 0
        for matrix in ietwords.matrices.unimodular_matrices(30):
            code, records, _ = run(capsys, "enum", "--matrix", str(matrix))
            assert code == 0
            for record in records[:-1]:
                assert record["k"] == k_index(Morphism.parse(record["morphism"])), record
                checked += 1
        assert checked == 10_646

    def test_pairs_records_carry_full_witness(self, capsys):
        code, records, _ = run(capsys, "pairs", "--matrix", "2,1;3,2")
        assert code == 0
        rows, summary = records[:-1], records[-1]
        assert summary["total"] == summary["formula"] == 18
        example = [row for row in rows if row["phi"] == "0->001,1->00101"
                   and row["psi"] == "0->010,1->01001"]
        assert example == [
            {
                "k": 0,
                "kbar": 2,
                "b0": 1,
                "b1": 1,
                "b": 3,
                "phi": "0->001,1->00101",
                "psi": "0->010,1->01001",
                "eta": "A->AB,B->ABABB,C->ABAC",
                "matrix3": "1,1,0;2,3,0;2,1,1",
            }
        ]

    def test_pairs_b_filter(self, capsys):
        code, records, _ = run(capsys, "pairs", "--matrix", "2,1;3,2", "--b", "1")
        assert code == 0
        rows, summary = records[:-1], records[-1]
        assert summary["total"] == summary["formula"] == 7
        assert all(row["b"] == 1 for row in rows)

    def test_count_total_is_sum_of_formulas(self, capsys):
        # the brute-force cross-check of these counts is verify --suite counting
        code, records, _ = run(capsys, "count", "--max-norm", "6")
        assert code == 0
        rows, summary = records[:-1], records[-1]
        assert summary["matrices"] == len(rows) > 0
        assert summary["total_pairs"] == sum(
            count_formula_total(IntMatrix2.parse(row["matrix"])) for row in rows
        )

    def test_pairs_count_off_the_formula_is_property_false(self, capsys, monkeypatch):
        true_formula = ietwords.cli.count_formula_total
        monkeypatch.setattr(
            ietwords.cli, "count_formula_total", lambda matrix: true_formula(matrix) + 1
        )
        code, records, _ = run(capsys, "pairs", "--matrix", "2,1;1,1")
        assert code == 1
        summary = records[-1]
        assert (summary["total"], summary["formula"]) == (7, 8)
        assert summary["status"] == "property-false"

    def test_enum_count_off_the_norm_is_property_false(self, capsys, monkeypatch):
        true_enumerate = ietwords.cli.enumerate_sturmian
        monkeypatch.setattr(
            ietwords.cli, "enumerate_sturmian", lambda matrix: true_enumerate(matrix)[:-1]
        )
        code, records, _ = run(capsys, "enum", "--matrix", "2,1;1,1")
        assert code == 1
        summary = records[-1]
        assert (summary["count"], summary["expected"]) == (3, 4)
        assert summary["status"] == "property-false"

    def test_byte_identical_reruns(self, capsys):
        main(["pairs", "--matrix", "2,1;3,2"])
        first = capsys.readouterr().out
        main(["pairs", "--matrix", "2,1;3,2"])
        second = capsys.readouterr().out
        assert first == second


class TestClassifyCommand:
    def test_accepts_example(self, capsys):
        code, records, _ = run(capsys, "classify", "--matrix3", "1,1,0;2,3,0;2,1,1")
        assert code == 0
        assert records[0]["matrix"] == "2,1;3,2"
        assert (records[0]["b0"], records[0]["b1"], records[0]["delta"]) == (1, 1, 1)

    def test_rejects_permutation(self, capsys):
        code, records, _ = run(capsys, "classify", "--matrix3", "0,0,1;0,1,0;1,0,0")
        assert code == 1
        assert records[0]["classified"] is False


class TestWordCommands:
    def test_word2(self, capsys):
        code, records, _ = run(
            capsys, "word2", "--slope", "(-1+1*sqrt(5))/2", "--start", "0", "-n", "8"
        )
        assert code == 0
        assert records[0]["word"] == "00100101"

    def test_word3_nondegenerate(self, capsys):
        code, records, err = run(
            capsys,
            "word3", "--alpha", "(3-1*sqrt(5))/2", "--beta", "1/4",
            "--start", "0", "-n", "5",
        )
        assert code == 0
        assert records[0]["nondegenerate"] is True
        assert records[0]["word"].startswith("AB")
        assert err == ""

    def test_word3_degenerate_warns(self, capsys):
        code, records, err = run(
            capsys,
            "word3", "--alpha", "(3-1*sqrt(5))/2", "--beta", "(-2+1*sqrt(5))/1",
            "-n", "5",
        )
        assert code == 0
        assert records[0]["nondegenerate"] is False
        assert "degenerate" in err

    def test_rational_word3(self, capsys):
        code, records, _ = run(
            capsys, "word3", "--alpha", "2/5", "--beta", "3/10", "-n", "3"
        )
        assert code == 0
        assert records[0]["word"] == "ABB"


# the identity and the reference parameters of ``preserve`` examples
IDENTITY_AT_REFERENCE = ["--eta", "A->A,B->B,C->C", "--alpha", "(3-1*sqrt(5))/2", "--beta", "1/4"]


class TestPreserveCommand:
    def test_identity_preserves(self, capsys):
        code, records, _ = run(
            capsys,
            "preserve", "--eta", "A->A,B->B,C->C",
            "--alpha", "(3-1*sqrt(5))/2", "--beta", "1/4",
            "-n", "300",
        )
        assert code == 0
        assert records[0]["preserved"] is True

    def test_collapse_fails(self, capsys):
        code, records, _ = run(
            capsys,
            "preserve", "--eta", "A->ACB,B->ACB,C->ACB",
            "--alpha", "(3-1*sqrt(5))/2", "--beta", "1/4",
            "-n", "300",
        )
        assert code == 1
        assert records[0]["detail"] == "sigma01: predicted slope 1/2 is rational"

    def test_missing_letter_fails(self, capsys):
        code, records, _ = run(
            capsys,
            "preserve", "--eta", "A->A,B->AB,C->B",
            "--alpha", "(3-1*sqrt(5))/2", "--beta", "1/4",
            "-n", "300",
        )
        assert code == 1
        assert records[0] == {
            "preserved": False,
            "detail": "letter C occurs in no image of eta",
            "eta": "A->A,B->AB,C->B",
        }

    @pytest.mark.parametrize(
        "argv",
        [
            ["preserve", *IDENTITY_AT_REFERENCE, "-n", "5"],
            ["preserve", *IDENTITY_AT_REFERENCE, "-n", "80"],
            ["verify", "--suite", "preserve", "--max-norm", "2", "-n", "1", "--kmax", "1"],
        ],
    )
    def test_short_prefixes_pass(self, capsys, argv):
        code, records, _ = run(capsys, *argv)
        assert code == 0
        assert records[-1]["status"] == "ok"
        assert all(record["preserved"] for record in records[:-1])

    def test_degenerate_parameters_invalid(self, capsys):
        code, records, _ = run(
            capsys,
            "preserve", "--eta", "A->A,B->B,C->C",
            "--alpha", "(3-1*sqrt(5))/2", "--beta", "(-2+1*sqrt(5))/1",
            "-n", "100",
        )
        assert code == 2
        assert records[0]["status"] == "invalid-input"


class TestProbeCommand:
    def test_probe_known_nonmember(self, capsys):
        code, records, _ = run(capsys, "probe", "--eta", "A->B,B->CAC,C->C")
        assert code == 0
        rows = {row["candidate"]: row for row in records[:-1]}
        assert rows["eta"]["member"] is False
        assert rows["eta*ac_swap"]["member"] is True
        assert rows["eta*ac_swap"]["phi"] == "0->1,1->01"
        assert rows["eta*ac_swap"]["psi"] == "0->1,1->10"

    def test_probe_above_the_letter_cap_exits_2_at_once(self, capsys):
        # eta^2 alone would have 10**10 letters
        start = time.perf_counter()
        code, records, _ = run(capsys, "probe", "--eta", f"A->{'A' * 100_000},B->B,C->C")
        assert time.perf_counter() - start < 1
        assert code == 2
        letters = 100_000**2 + 6 * 100_000 + 12
        assert records == [{
            "command": "probe",
            "error": f"letters in the probe candidates must be at most {MAX_PROBE_LETTERS}, "
                     f"got {letters}",
            "status": "invalid-input",
        }]


# every flag of each command, with a value it accepts
COMMAND_ARGV = {
    "std": ["--matrix", "1,1;1,0"],
    "enum": ["--matrix", "2,1;1,1"],
    "pairs": ["--matrix", "1,1;1,0", "--b", "2"],
    "count": ["--max-norm", "5"],
    "ternarize": ["--phi", "0->01,1->0", "--psi", "0->10,1->0"],
    "member": ["--eta", "A->B,B->ACA,C->A"],
    "classify": ["--matrix3", "1,1,1;1,0,1;1,0,0"],
    "word2": ["--slope", "1/3", "--start", "1/7", "-n", "5"],
    "word3": ["--alpha", "1/3", "--beta", "1/5", "--start", "1/7", "-n", "5"],
    "preserve": [*IDENTITY_AT_REFERENCE, "--start", "0", "-n", "40"],
    "probe": ["--eta", "A->B,B->CAC,C->C"],
    "verify": ["--suite", "monoid", "--max-norm", "4", "--samples", "3", "--seed", "5",
               "-n", "40", "--kmax", "4"],
}


def build_no_parser():
    raise AssertionError("an argparse parser was built")


def parse_outcome(parse, argv):
    """What ``parse(argv)`` gives: the namespace's attributes, or the
    exit code, and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv)), out.getvalue(), err.getvalue()
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def full_parser_outcome(argv):
    """:func:`parse_outcome` of the full parser, with an unrecognized
    argument of a command reported as its own parser reports it: under
    that parser's usage and name, with the same arguments."""
    parser, commands = ietwords.cli._build_parser()
    code, out, err = parse_outcome(parser.parse_args, argv)
    usage, marker, unrecognized = err.partition("ietwords: error: unrecognized arguments: ")
    if marker:
        command = commands[argv[0]]
        err = f"{command.format_usage()}{command.prog}: error: unrecognized arguments: "
        err += unrecognized
        assert usage == parser.format_usage()
    return code, out, err


# values of every kind a flag can meet: ints, negative ones, bad ints,
# suite names and a bad one, the empty string and flag look-alikes
VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from(
        ["x", "", "2.5", " 7", "+5", "5_0", "counting", "preserve", "nope", "-", "--pretty"]
    ),
)


@st.composite
def command_lines(draw):
    """A command and then its sample flags, mostly with their sample
    values, some left out, with up to two odd pieces inserted: a repeat,
    an abbreviated, ``=``-joined or short-joined flag, a flag with no
    value, ``--pretty``, help, ``--``, an unknown flag or a stray token."""
    name = draw(st.sampled_from(list(COMMAND_ARGV)))
    sample = COMMAND_ARGV[name]
    pairs = list(zip(sample[::2], sample[1::2]))
    tokens = []
    for flag, good in draw(st.permutations(pairs)):
        if draw(st.integers(0, 7)):
            tokens += [flag, draw(st.one_of(st.just(good), VALUES))]
    flags = st.sampled_from([flag for flag, _ in pairs])
    abbreviated = st.sampled_from([
        flag[:k] for flag, _ in pairs for k in range(3, len(flag)) if flag.startswith("--")
    ])
    odd = st.one_of(
        st.tuples(flags, VALUES).map(list),
        st.tuples(abbreviated, VALUES).map(list),
        st.tuples(flags, VALUES).map(lambda fv: ["=".join(fv)]),
        st.tuples(flags, VALUES).map(lambda fv: ["".join(fv)]),
        flags.map(lambda f: [f]),
        st.sampled_from([["--pretty"], ["-h"], ["--help"], ["--"], ["--nope", "1"], ["extra"]]),
    )
    for piece in draw(st.lists(odd, max_size=2)):
        at = draw(st.integers(0, len(tokens)))
        tokens[at:at] = piece
    return [name, *tokens]


class TestParser:
    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        # one line per command, indented by four spaces, in table order
        listed = [match[1] for match in re.finditer(r"^    (\w+) ", out, re.MULTILINE)]
        assert listed == list(COMMAND_ARGV) == list(ietwords.cli._COMMANDS)

    @pytest.mark.parametrize("name", list(COMMAND_ARGV))
    def test_command_parser_reads_as_the_full_parser(self, monkeypatch, name):
        # the sample names every flag of the command
        flags = {arg for arg in COMMAND_ARGV[name] if arg.startswith("-")}
        assert flags == {flag for flag, _ in ietwords.cli._COMMANDS[name][2]}
        required = [
            token
            for flag, keywords in ietwords.cli._COMMANDS[name][2] if keywords.get("required")
            for token in (flag, COMMAND_ARGV[name][COMMAND_ARGV[name].index(flag) + 1])
        ]
        full = ietwords.cli._build_parser()[0]
        # a well-formed line is read from the command table alone
        monkeypatch.setattr(ietwords.cli, "_build_parser", build_no_parser)
        for argv in (
            [name, *COMMAND_ARGV[name]],
            [name, *COMMAND_ARGV[name], "--pretty"],
            [name, *required],
            [name, "--pretty", *COMMAND_ARGV[name], *COMMAND_ARGV[name][:2]],
        ):
            assert vars(ietwords.cli._parse_args(argv)) == vars(full.parse_args(argv))

    def test_a_well_formed_command_builds_no_parser(self, capsys, monkeypatch):
        built = []
        build = ietwords.cli._build_parser

        def recording():
            built.append(True)
            return build()

        monkeypatch.setattr(ietwords.cli, "_build_parser", recording)
        assert main(["std", *COMMAND_ARGV["std"]]) == 0
        assert built == []
        # an abbreviated flag goes to the full parser, which reads it
        abbreviated = ietwords.cli._parse_args(["std", "--mat", "1,1;1,0"])
        assert built == [True]
        assert vars(abbreviated) == vars(ietwords.cli._parse_args(["std", *COMMAND_ARGV["std"]]))
        assert built == [True]
        # stray arguments go to the command's parser, which names them
        with pytest.raises(SystemExit) as exc:
            main(["std", *COMMAND_ARGV["std"], "extra"])
        assert exc.value.code == 2
        assert built == [True, True]
        assert "ietwords std: error: unrecognized arguments: extra" in capsys.readouterr().err

    @settings(max_examples=400, deadline=None)
    @given(command_lines())
    def test_every_command_line_reads_as_the_full_parser(self, argv):
        # a line either reads as the full parser reads it, or exits with
        # the same code, help and usage error; but for an unrecognized
        # argument, which the command's parser reports under its own usage
        assert parse_outcome(ietwords.cli._parse_args, argv) == full_parser_outcome(argv)

    def test_the_reader_mirrors_every_flag_keyword(self):
        # the reader applies ``type`` (catching ValueError, which int
        # raises), ``choices``, ``default`` and ``required``; any other
        # keyword, an action, or a str default that argparse would pass
        # through ``type`` would make it read a line as argparse does not
        for name, (_, _, flags) in ietwords.cli._COMMANDS.items():
            for flag, keywords in flags:
                assert set(keywords) <= {"type", "choices", "default", "required", "help"}
                assert keywords.get("type") in (None, int), (name, flag)
                assert "type" not in keywords or not isinstance(keywords.get("default"), str)

    def test_a_well_formed_command_loads_no_argparse(self):
        # pytest itself loads argparse, so a fresh interpreter runs the
        # commands; -S keeps the host's site from loading modules of its own
        script = f"""
import json, sys
import ietwords.cli as cli

codes = [cli.main(argv) for argv in (
    ["word2", "--slope", "1/3", "-n", "50"],
    ["verify", "--suite", "counting", "--max-norm", "6"],
    {["preserve", *IDENTITY_AT_REFERENCE, "-n", "40"]!r},
)]
print(json.dumps([codes, [m for m in ("argparse", "gettext", "locale") if m in sys.modules]]))
"""
        result = subprocess.run(
            [sys.executable, "-S", "-c", script],
            cwd=SRC, capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [[0, 0, 0], []]

    # sha256 of the help of ``ietwords`` and of each command at 80
    # columns (Python 3.11's argparse), pinned when a well-formed command
    # stopped building a parser of its own
    @pytest.mark.parametrize(("argv", "digest"), [
        (["--help"], "e7bdee19166491878909a7e55e5f4bccfc94d3614a8bd555e3f65b6f05329236"),
        (["std", "--help"], "4c38795bd6d672a1972816be6b54c7cba47f28aafa946fc3745f8bcbfe25633a"),
        (["enum", "--help"], "cbc0634855a92c46d17eed1b302fd5e1b9cb2232bc0f42c67eb098c144da62b8"),
        (["pairs", "--help"], "86604325ed8e4acd2ebe55a51a0346d8d3b5ff1c66ec73ddbe0c39b91e183074"),
        (["count", "--help"], "a63606c1b8dc9e0247b60e5f7d3edbfc87c6826ef4e38e07f96eec7f2a728460"),
        (["ternarize", "--help"],
         "3beafc231585dbb66ffb91a8726e5b999116941a2ae151285106d2bee23b18e9"),
        (["member", "--help"], "132f0049cb6a31d59899ad6c6c1dab27f312da7b6a5775a778a21bb5287f7625"),
        (["classify", "--help"],
         "7310f40f4564eb6ccd7f177f4dffd70a3b3519a4c1083510d25b690cfd5d4571"),
        (["word2", "--help"], "2f3ed946393a272f4b35bdf54aaddac37f4ede33eb7ef6cc7ccdbb8932f97487"),
        (["word3", "--help"], "1fc646b297261465fa49a34de171f4a774f30fe5a1a0469c38f9d5e19fc1446a"),
        # re-pinned when --kmax left the command
        (["preserve", "--help"],
         "36b5c4a26a6248489a1cfdc3755bcbf0f1b838da0cafde8911440b2afb79121e"),
        (["probe", "--help"], "a3ba6b2128900993ff93046a4375616b6cd0bc49f7b1b008469e66c50dfa240f"),
        (["verify", "--help"], "509cad3fbecb2700af26d52771169629e79ffa8a73dfd2b04d8be9e422a4dd8b"),
    ])
    def test_help_is_pinned(self, capsys, monkeypatch, argv, digest):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestInvalidInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["std", "--matrix", "2,x;3,2"],
            ["std", "--matrix", "1,1;1,1"],
            ["member", "--eta", "A->B,B->CAC"],
            ["member", "--eta", "0->0,1->1"],
            ["word2", "--slope", "(1+2*root(5))/3", "-n", "4"],
            ["word2", "--slope", "3/2", "-n", "4"],
            ["word3", "--alpha", "1/2", "--beta", "2/3", "-n", "4"],
            ["count", "--max-norm", "-5"],
            ["verify", "--suite", "counting", "--max-norm", "1"],
            ["verify", "--suite", "monoid", "--samples", "-3"],
            ["verify", "--suite", "preserve", "--kmax", "0"],
            # a negative B-count
            ["pairs", "--matrix", "1,1;1,0", "--b", "-1"],
            # a flag the suite does not read
            [
                "verify", "--suite", "counting", "--max-norm", "3",
                "-n", "5", "--kmax", "3", "--samples", "4", "--seed", "9",
            ],
            ["verify", "--suite", "lemma-w", "--seed", "9"],
            ["verify", "--suite", "matrices", "-n", "5"],
            ["verify", "--suite", "monoid", "--kmax", "3"],
            ["verify", "--suite", "preserve", "--samples", "4"],
            # a prefix of no letter
            [
                "preserve", "--eta", "A->A,B->B,C->C",
                "--alpha", "(3-1*sqrt(5))/2", "--beta", "1/4",
                "-n", "0",
            ],
            ["verify", "--suite", "preserve", "--max-norm", "2", "-n", "0", "--kmax", "1"],
            # a coding longer than iet.MAX_CODING_LENGTH
            ["word2", "--slope", "(-1+1*sqrt(5))/2", "-n", "1000001"],
            ["word3", "--alpha", "(3-1*sqrt(5))/2", "--beta", "1/4", "-n", "1000001"],
            # a radicand above quadratic.MAX_RADICAND
            ["word2", "--slope", "(1+1*sqrt(10000000000000061))/8", "-n", "4"],
            # an integer longer than the interpreter's digit limit
            ["word2", "--slope", "1/" + "1" * 5000, "-n", "3"],
            ["std", "--matrix", "1,0;0," + "1" * 5000],
        ],
    )
    def test_exit_code_2_with_message(self, capsys, argv):
        code, records, _ = run(capsys, *argv)
        assert code == 2
        assert records[0]["status"] == "invalid-input"
        assert 0 < len(records[0]["error"]) < 200

    @pytest.mark.parametrize(
        "argv, cap",
        [(["count"], MAX_COUNT_NORM), (["verify", "--suite", "counting"], MAX_COUNTING_NORM)],
    )
    def test_max_norm_above_the_cap_enumerates_nothing(self, capsys, monkeypatch, argv, cap):
        def unreachable(max_norm):
            raise AssertionError(f"matrices of norm <= {max_norm} enumerated")

        monkeypatch.setattr(ietwords.cli, "unimodular_matrices", unreachable)
        monkeypatch.setattr(ietwords.matrices, "unimodular_matrices", unreachable)
        code, records, _ = run(capsys, *argv, "--max-norm", str(cap + 1))
        assert code == 2
        assert records == [{
            "command": argv[0],
            "error": f"--max-norm must be at most {cap}, got {cap + 1}",
            "status": "invalid-input",
        }]

    def test_preserve_above_the_cap_codes_nothing(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("an orbit prefix was coded")

        monkeypatch.setattr(ietwords.cli, "three_iet_code", unreachable)
        monkeypatch.setattr(ietwords.amicability, "three_iet_code", unreachable)
        monkeypatch.setattr(ietwords.matrices, "unimodular_matrices", unreachable)
        cap = MAX_PRESERVE_NORM
        code, records, _ = run(capsys, "verify", "--suite", "preserve", "--max-norm", str(cap + 1))
        assert code == 2
        assert records == [{
            "command": "verify",
            "error": f"--max-norm must be at most {cap}, got {cap + 1}",
            "status": "invalid-input",
        }]

    @pytest.mark.parametrize(
        "command, cap",
        [("pairs", MAX_PAIRS_NORM), ("enum", MAX_ENUM_NORM), ("std", MAX_CODING_LENGTH)],
    )
    def test_matrix_norm_above_the_cap_builds_no_chain(self, capsys, monkeypatch, command, cap):
        # every chain place is a rotation of the standard pair
        def unreachable(matrix):
            raise AssertionError(f"the standard pair of {matrix} was built")

        monkeypatch.setattr(ietwords.morphisms, "_standard_images", unreachable)
        monkeypatch.setattr(ietwords.matrices, "_standard_images", unreachable)
        code, records, _ = run(capsys, command, "--matrix", f"1,0;{cap - 1},1")
        assert code == 2
        assert records == [{
            "command": command,
            "error": f"matrix norm must be at most {cap}, got {cap + 1}",
            "status": "invalid-input",
        }]

    def test_matrix_entry_beyond_the_digit_limit_is_named(self, capsys):
        limit = sys.get_int_max_str_digits()
        assert limit < 5001
        code, records, _ = run(capsys, "std", "--matrix", "1,0;0," + "1" * 5001)
        assert code == 2
        assert records == [{
            "command": "std",
            "error": f"integer of 5001 digits in matrix entry exceeds "
                     f"the limit of {limit} digits",
            "status": "invalid-input",
        }]

    @pytest.mark.parametrize(
        "argv, error",
        [
            # int() would read these as 10 and 1
            (["std", "--matrix", "1_0,1;9,1"], "invalid matrix entry '1_0' in '1_0,1;9,1'"),
            (["std", "--matrix", "１,1;0,1"], "invalid matrix entry '１' in '１,1;0,1'"),
            (["word2", "--slope", "1_0/3_0", "-n", "3"],
             "invalid token '_' in quadratic literal '1_0/3_0'"),
            (["word2", "--slope", "１/3", "-n", "3"],
             "invalid token '１' in quadratic literal '１/3'"),
        ],
    )
    def test_integers_are_ascii_digits_with_a_sign(self, capsys, argv, error):
        code, records, _ = run(capsys, *argv)
        assert code == 2
        assert records == [{"command": argv[0], "error": error, "status": "invalid-input"}]

    @pytest.mark.parametrize(
        "command, cap",
        [("pairs", MAX_PAIRS_NORM), ("enum", MAX_ENUM_NORM), ("std", MAX_CODING_LENGTH)],
    )
    def test_determinant_is_named_before_the_norm_cap(self, capsys, command, cap):
        matrix = f"2,0;{cap},2"  # determinant 4, norm cap + 4
        code, records, _ = run(capsys, command, "--matrix", matrix)
        assert code == 2
        assert records == [{
            "command": command,
            "error": f"matrix {matrix} has determinant 4",
            "status": "invalid-input",
        }]

    @pytest.mark.parametrize(
        "matrix, error",
        [
            ("2,2;2,2", "matrix 2,2;2,2 has determinant 0"),
            ("300,1;299,1", f"matrix norm must be at most {MAX_PAIRS_NORM}, got 601"),
        ],
    )
    def test_matrix_is_named_before_the_b_count(self, capsys, matrix, error):
        # a --b above the norm would be named first, against a bound
        # that no valid matrix has
        code, records, _ = run(capsys, "pairs", "--matrix", matrix, "--b", "700")
        assert code == 2
        assert records == [{"command": "pairs", "error": error, "status": "invalid-input"}]

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_preserve_takes_no_kmax(self, capsys):
        # only ``verify --suite preserve`` still reads --kmax
        with pytest.raises(SystemExit) as exc:
            main(["preserve", *IDENTITY_AT_REFERENCE, "-n", "5", "--kmax", "20"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ietwords preserve ")
        assert err.endswith("ietwords preserve: error: unrecognized arguments: --kmax 20\n")


class TestVerifyCommand:
    def test_counting_suite_passes(self, capsys):
        code, records, _ = run(capsys, "verify", "--suite", "counting", "--max-norm", "6")
        assert code == 0
        assert records[-1]["status"] == "ok"

    def test_lemma_suite_passes(self, capsys):
        code, records, _ = run(capsys, "verify", "--suite", "lemma-w", "--max-norm", "10")
        assert code == 0

    def test_monoid_suite_seeded(self, capsys):
        code, records, _ = run(
            capsys,
            "verify", "--suite", "monoid", "--max-norm", "5",
            "--samples", "25", "--seed", "7",
        )
        assert code == 0
        assert records[-1]["seed"] == 7

    def test_monoid_closure_failure_is_a_failing_record(self, capsys, monkeypatch):
        # each matrix's first pair gets psi = 0->1,1->0: a composed phi and
        # psi can then have images of different lengths, so no scan passes
        original = ietwords.matrices.brute_force_pairs
        swap = Morphism.parse("0->1,1->0")

        def faulty(matrix):
            pairs = original(matrix)
            return tuple(
                AmicablePair(p.phi, swap, p.eta, p.b0, p.b1, p.b, p.k, p.kbar) for p in pairs[:1]
            ) + pairs[1:]

        monkeypatch.setattr(ietwords.matrices, "brute_force_pairs", faulty)
        result = verification.run_suite("monoid", max_norm=4, samples=50)
        assert not result.ok
        failing = [record for record in result.records if "closure_error" in record]
        assert {"closure": False, "match": False}.items() <= failing[0].items()
        assert "words of different lengths 5 and 3" in {r["closure_error"] for r in failing}
        assert all(not record["closure"] for record in failing)
        assert all(record["closure"] for record in result.records if record not in failing)
        code, records, _ = run(
            capsys, "verify", "--suite", "monoid", "--max-norm", "4", "--samples", "50"
        )
        assert code == 1
        assert records[:-1] == result.records
        assert records[-1]["status"] == "property-false"

    def test_matrices_suite_passes(self, capsys):
        code, records, _ = run(capsys, "verify", "--suite", "matrices", "--max-norm", "6")
        assert code == 0
        assert records[-2]["non_sufficiency_witness"] is True

    def test_preserve_suite_with_scale_flags(self, capsys):
        code, records, _ = run(
            capsys,
            "verify", "--suite", "preserve", "--max-norm", "4",
            "-n", "300", "--kmax", "8",
        )
        assert code == 0
        assert records[-1]["n"] == 300 and records[-1]["kmax"] == 8
        assert records[-2]["trap_rejected"] is True

    def test_unread_flags_are_named(self, capsys):
        code, records, _ = run(
            capsys, "verify", "--suite", "monoid", "--seed", "9", "-n", "5", "--kmax", "3"
        )
        assert code == 2
        assert records[0]["error"] == "--suite monoid does not take -n, --kmax"

    @pytest.mark.parametrize(
        ("name", "unread"),
        [
            ("counting", "--samples, --seed, -n, --kmax"),
            ("lemma-w", "--samples, --seed, -n, --kmax"),
            ("matrices", "--samples, --seed, -n, --kmax"),
            ("monoid", "-n, --kmax"),
            ("preserve", "--samples, --seed"),
        ],
    )
    def test_each_suite_names_every_flag_it_does_not_take(self, capsys, name, unread):
        every_flag = ["--max-norm", "4", "--samples", "3", "--seed", "2", "-n", "5", "--kmax", "3"]
        code, records, _ = run(capsys, "verify", "--suite", name, *every_flag)
        assert code == 2
        assert records == [{
            "command": "verify",
            "error": f"--suite {name} does not take {unread}",
            "status": "invalid-input",
        }]

    def test_flags_are_read_from_the_suites_as_imported(self, capsys, monkeypatch):
        # a tracer may wrap a suite as (*args, **kwargs) after the CLI is
        # imported; the flags each suite takes do not change with it
        suite = verification.SUITES["counting"]
        monkeypatch.setitem(
            verification.SUITES, "counting", lambda *args, **kwargs: suite(*args, **kwargs)
        )
        code, records, _ = run(capsys, "verify", "--suite", "counting", "--max-norm", "5")
        assert code == 0 and records[-1]["max_norm"] == 5
        code, records, _ = run(capsys, "verify", "--suite", "counting", "--seed", "5")
        assert code == 2
        assert records[0]["error"] == "--suite counting does not take --seed"

    @pytest.mark.parametrize("name", sorted(verification.SUITES))
    def test_flag_table_matches_the_suite_signatures(self, name):
        # the table is read from the suites' code objects, so that
        # importing the CLI need not load inspect; inspect agrees with it
        parameters = tuple(inspect.signature(verification.SUITES[name]).parameters)
        assert ietwords.cli._SUITE_KEYWORDS[name] == parameters

    def test_counting_at_benchmark_scale_is_deterministic(self, capsys):
        outputs = []
        for _ in range(2):
            code = main(["verify", "--suite", "counting", "--max-norm", "24"])
            outputs.append(capsys.readouterr().out)
            assert code == 0
        assert outputs[0] == outputs[1]

    def test_preserve_reruns_are_byte_identical(self, capsys):
        outputs = []
        for _ in range(2):
            code = main(["verify", "--suite", "preserve"])
            outputs.append(capsys.readouterr().out)
            assert code == 0
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0].splitlines()[-1])["checked"] == 73

    def test_fault_injection_flips_counting_to_failure(self, capsys, monkeypatch):
        true_formula = ietwords.matrices.count_formula_total
        monkeypatch.setattr(
            ietwords.matrices,
            "count_formula_total",
            lambda matrix: true_formula(matrix) + 1,
        )
        code, records, _ = run(capsys, "verify", "--suite", "counting", "--max-norm", "5")
        assert code == 1
        assert records[-1]["status"] == "property-false"

    def test_failing_per_b_check_names_the_smallest_differing_b(self, capsys, monkeypatch):
        true_formula = ietwords.matrices.formula_b_counts
        monkeypatch.setattr(
            ietwords.matrices,
            "formula_b_counts",
            lambda matrix: true_formula(matrix) + Counter({2: 1, 3: 1}),
        )
        code, records, _ = run(capsys, "verify", "--suite", "counting", "--max-norm", "5")
        assert code == 1
        rows = records[:-1]
        # both faulty buckets are off on every matrix: each record fails,
        # and names b = 2
        failing = [row for row in rows if not row["per_b_match"]]
        assert failing and len(failing) == len(rows)
        for row in failing:
            matrix = IntMatrix2.parse(row["matrix"])
            brute = ietwords.matrices.brute_force_b_counts(matrix)[2]
            assert row["first_b_mismatch"] == {
                "b": 2, "brute": brute, "formula": true_formula(matrix)[2] + 1
            }

    @pytest.mark.parametrize(
        ("side", "brute", "formula"),
        [("brute_force_b_counts", 1, 0), ("formula_b_counts", 0, 1)],
    )
    def test_a_bucket_above_norm_plus_1_fails_the_per_b_check(
        self, capsys, monkeypatch, side, brute, formula
    ):
        # a B-count no pair of the matrix can have, on one side only: the
        # per-B check compares every key of both histograms, not only
        # b = 0 .. norm + 1
        true_counts = getattr(ietwords.matrices, side)
        monkeypatch.setattr(
            ietwords.matrices,
            side,
            lambda matrix: true_counts(matrix) + Counter({matrix.norm + 2: 1}),
        )
        code, records, _ = run(capsys, "verify", "--suite", "counting", "--max-norm", "5")
        assert code == 1
        rows = records[:-1]
        assert rows and all(not row["per_b_match"] and not row["match"] for row in rows)
        for row in rows:
            b = IntMatrix2.parse(row["matrix"]).norm + 2
            assert row["first_b_mismatch"] == {"b": b, "brute": brute, "formula": formula}

    def test_passing_records_carry_no_witness(self, capsys):
        code, records, _ = run(capsys, "verify", "--suite", "counting", "--max-norm", "6")
        assert code == 0
        assert all("first_b_mismatch" not in row for row in records[:-1])


class TestStreaming:
    def test_records_print_before_the_suite_ends(self, capsys, monkeypatch):
        # stdout as each matrix is about to be decided: the record of the
        # matrix before it is already out, complete
        original = ietwords.matrices.brute_force_b_counts
        outputs = []

        def checking(matrix):
            outputs.append((capsys.readouterr().out, str(matrix)))
            return original(matrix)

        monkeypatch.setattr(ietwords.matrices, "brute_force_b_counts", checking)
        assert main(["verify", "--suite", "counting", "--max-norm", "5"]) == 0
        assert outputs[0][0] == "" and len(outputs) > 2
        for (out, _), (_, previous) in zip(outputs[1:], outputs):
            assert out.endswith("\n") and len(out.splitlines()) == 1
            assert json.loads(out)["matrix"] == previous

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "preserve", "-n", "0", "--kmax", "20"],
            ["verify", "--suite", "counting", "--max-norm", "1"],
        ],
    )
    def test_invalid_input_prints_only_the_error_line(self, capsys, argv):
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 2
        assert len(out.splitlines()) == 1
        assert json.loads(out)["status"] == "invalid-input"

    @pytest.mark.parametrize("pretty", [[], ["--pretty"]])
    def test_error_after_records_ends_the_stream(self, capsys, monkeypatch, pretty):
        original = ietwords.matrices.brute_force_b_counts
        calls = []

        def failing(matrix):
            calls.append(matrix)
            if len(calls) == 3:
                raise IetWordsError("injected")
            return original(matrix)

        monkeypatch.setattr(ietwords.matrices, "brute_force_b_counts", failing)
        code = main(["verify", "--suite", "counting", "--max-norm", "5", *pretty])
        lines = capsys.readouterr().out.splitlines()
        assert code == 2
        # --pretty buffers its table, so nothing but the error line is out
        printed = [] if pretty else [str(matrix) for matrix in calls[:2]]
        assert [json.loads(line)["matrix"] for line in lines[:-1]] == printed
        assert json.loads(lines[-1]) == {
            "command": "verify", "status": "invalid-input", "error": "injected"
        }


class TestByteIdentity:
    # sha256 of stdout, pinned when the suites first streamed their
    # records: streaming changes when the bytes are written, not which
    @pytest.mark.parametrize(
        ("argv", "digest"),
        [
            (["--suite", "counting"],
             "b46cf151397da8b49730a7c1b0c02321dc6edaac3aca6397019409f11e4546f7"),
            (["--suite", "lemma-w"],
             "fa64db87be0ac43983f7069aeb33323bc5be47d556d8219c0ada0b90668707d1"),
            (["--suite", "matrices"],
             "bf3a417097dbd8ca77d8af140f6946c6babee485063d9054301745ecf3fc1fe6"),
            (["--suite", "monoid"],
             "5f9479af023b147a8e29f89311642d6e51ab231b842927c9fcb3ec34ee6a87ba"),
            (["--suite", "preserve"],
             "47a9552acf911d394c97cdcc5614c52b9e0b7884d525d19f1b5d5ef0c856a0bb"),
            (["--suite", "counting", "--max-norm", "24"],
             "25d6b00ae2c08df31967d71c09c884c240e55dc606fa7deb7f8eda685c66ea50"),
            (["--suite", "preserve", "--pretty"],
             "433b09aea2e2873650077d6e97c3a5b4224418d33671edd1e011e0fb22b3029f"),
        ],
    )
    def test_verify_stdout_is_pinned(self, capsys, argv, digest):
        main(["verify", *argv])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # exit code and sha256 of stdout of commands that scan, substitute or
    # project words, pinned with the letter-by-letter scan and
    # substitution that the whole-word ones replaced
    @pytest.mark.parametrize(
        ("argv", "code", "digest"),
        [
            (["pairs", "--matrix", "13,8;8,5"], 0,
             "e1079b337163f14359e23b33087b3e66b09defc554fd438aab8d6495545c1d2c"),
            # re-pinned without the summary's "kmax", its only change
            (["preserve", "--eta", "A->AB,B->ACA,C->B", "--alpha", "(3-1*sqrt(5))/2",
              "--beta", "1/4", "-n", "5000"], 1,
             "3d4cf22f9a9aacd987aee29926ed3a35396cb6f424660b20bb2d242ab57141a4"),
            (["ternarize", "--phi", "0->001,1->00101", "--psi", "0->010,1->01001"], 0,
             "ddc456d75aa67207f0a986522661ab02e8044342bb4b0148ebd8e24c7d9e8f21"),
            (["ternarize", "--phi", "0->010,1->01001", "--psi", "0->001,1->00101"], 1,
             "a688ec4b8924fec74ea247563ac85a3775af6aedb3b7f50a1d3d9281f7f34932"),
            # the order and labels of brute_force_pairs at determinant -1,
            # pinned before its two window loops became one
            (["pairs", "--matrix", "4,11;7,19"], 0,
             "e8e26fd5961a182319c0dcda910bfe3569ee1da3b8660d2f7a336944e365da6b"),
            (["pairs", "--matrix", "4,11;7,19", "--b", "3"], 0,
             "075561fac0d3e8b3b034e13ae0187769674477011d428da84d33133091cf7985"),
            (["pairs", "--matrix", "1,0;1,1"], 0,
             "a83a5852b812bf670989cb499e8e8616902983df63b520ef9678126935484b81"),
        ],
    )
    def test_command_stdout_is_pinned(self, capsys, argv, code, digest):
        assert main(argv) == code
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestPrettyOutput:
    def test_pretty_renders_table(self, capsys):
        code = main(["pairs", "--matrix", "1,1;1,0", "--pretty"])
        out = capsys.readouterr().out
        assert code == 0
        assert "eta" in out and "A->B,B->ACA,C->A" in out
        # not JSON lines
        assert not out.lstrip().startswith("{")


class TestEntryPoint:
    @pytest.mark.parametrize("module", ["ietwords", "ietwords.cli"])
    def test_python_m_runs_the_command(self, module):
        result = subprocess.run(
            [sys.executable, "-m", module, "verify", "--suite", "lemma-w", "--max-norm", "4"],
            cwd=SRC,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        summary = json.loads(result.stdout.splitlines()[-1])
        assert summary["status"] == "ok"
        assert summary["records"] == 5

    def test_closed_pipe_exits_without_traceback(self):
        # about 400 kB of records, far more than a pipe buffers, so the
        # command is still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "ietwords", "enum", "--matrix", "233,144;144,89"],
            cwd=SRC,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert json.loads(first)["index"] == 0
        assert b"Traceback" not in err, err.decode()
        assert proc.returncode == 1

    def test_closed_pipe_stops_a_verify_sweep(self):
        # a streamed sweep whose reader leaves after one record ends at
        # its next write, quietly and with exit code 1
        proc = subprocess.Popen(
            [sys.executable, "-m", "ietwords", "verify", "--suite", "counting",
             "--max-norm", "60"],
            cwd=SRC,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert json.loads(first)["matrix"] == "0,1;1,0"
        assert b"Traceback" not in err, err.decode()
        assert proc.returncode == 1

    def test_main_freezes_the_heap_it_starts_with(self):
        # the collector is off, so only gc.collect() can reclaim the
        # cycle the command makes: it does when the heap was frozen at
        # the start of main, and would not had it been frozen at the end
        script = """
import gc, json, weakref
import ietwords.cli as cli

gc.disable()
made = []

class Node:
    pass

def handler(args):
    node = Node()
    node.self = node
    made.append(weakref.ref(node))
    yield {}
    return "ok", {}

cli._COMMANDS["std"] = (handler, *cli._COMMANDS["std"][1:])
before = gc.get_freeze_count()
code = cli.main(["std", "--matrix", "2,1;1,1"])
after = gc.get_freeze_count()
gc.collect()
print(json.dumps([before, after, code, made[0]() is None]))
"""
        result = subprocess.run(
            [sys.executable, "-c", script], cwd=SRC, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        before, after, code, reclaimed = json.loads(result.stdout.splitlines()[-1])
        assert before == 0
        assert after > 0
        assert code == 0
        assert reclaimed

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "counting", "--max-norm", "12"],
        ["word3", "--alpha", "(3-1*sqrt(5))/2", "--beta", "1/4", "-n", "40"],
        ["verify", "--suite", "counting", "--max-norm", "1"],
    ])
    def test_a_fresh_process_prints_what_main_prints(self, capsys, argv):
        # the frozen heap is not torn down by a collection at exit: every
        # buffered record still reaches a pipe, with the same exit code
        result = subprocess.run(
            [sys.executable, "-m", "ietwords", *argv],
            cwd=SRC, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=60,
        )
        code = main(argv)
        assert (result.stdout, result.returncode) == (capsys.readouterr().out, code)
        assert result.stdout.endswith("}\n")
