import json
import subprocess
import sys
from pathlib import Path

import pytest

import ietwords.matrices
from ietwords import IntMatrix2, count_formula_total
from ietwords.cli import main

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


class TestPreserveCommand:
    def test_identity_preserves(self, capsys):
        code, records, _ = run(
            capsys,
            "preserve", "--eta", "A->A,B->B,C->C",
            "--alpha", "(3-1*sqrt(5))/2", "--beta", "1/4",
            "-n", "300", "--kmax", "8",
        )
        assert code == 0
        assert records[0]["preserved"] is True

    def test_collapse_fails(self, capsys):
        code, records, _ = run(
            capsys,
            "preserve", "--eta", "A->B,B->B,C->B",
            "--alpha", "(3-1*sqrt(5))/2", "--beta", "1/4",
            "-n", "300", "--kmax", "8",
        )
        assert code == 1
        assert "complexity" in records[0]["detail"]

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
            [
                "preserve", "--eta", "A->A,B->B,C->C",
                "--alpha", "(3-1*sqrt(5))/2", "--beta", "1/4",
                "-n", "10", "--kmax", "-1",
            ],
            # a flag the suite does not read
            [
                "verify", "--suite", "counting", "--max-norm", "3",
                "-n", "5", "--kmax", "3", "--samples", "4", "--seed", "9",
            ],
            ["verify", "--suite", "lemma-w", "--seed", "9"],
            ["verify", "--suite", "matrices", "-n", "5"],
            ["verify", "--suite", "monoid", "--kmax", "3"],
            ["verify", "--suite", "preserve", "--samples", "4"],
            # a prefix too short to show complexity kmax + 1
            [
                "preserve", "--eta", "A->A,B->B,C->C",
                "--alpha", "(3-1*sqrt(5))/2", "--beta", "1/4",
                "-n", "5", "--kmax", "20",
            ],
            ["verify", "--suite", "preserve", "--max-norm", "2", "-n", "1", "--kmax", "1"],
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

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


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
