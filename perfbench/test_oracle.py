"""Fault injection into the benchmark's oracles.

Each oracle must pass the real ``ietwords`` output and must fail it once a
letter is flipped, a ``match`` flag is flipped or a record is dropped.
Run with ``python3 -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ietwords.cli import main  # noqa: E402


def cli(argv: list[str]) -> workloads.Output:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def edit(output: workloads.Output, index: int, change) -> workloads.Output:
    """Apply ``change`` to the ``index``-th stdout line, as parsed JSON;
    a ``change`` returning None drops the line."""
    code, stdout = output
    lines = [json.loads(line) for line in stdout.splitlines()]
    changed = change(lines[index])
    if changed is None:
        del lines[index]
    else:
        lines[index] = changed
    return code, "".join(json.dumps(line) + "\n" for line in lines)


def flip(key: str):
    return lambda record: {**record, key: not record[key]}


def flip_letter(position: int):
    def change(record):
        word = record["word"]
        swap = {"0": "1", "1": "0", "A": "C", "B": "A", "C": "A"}[word[position]]
        return {**record, "word": word[:position] + swap + word[position + 1:]}
    return change


@pytest.fixture(scope="module")
def counting_output():
    return cli(["verify", "--suite", "counting", "--max-norm", "9"])


@pytest.fixture(scope="module")
def preserve_output():
    return cli(["verify", "--suite", "preserve", "-n", "200", "--kmax", "8"])


@pytest.fixture(scope="module")
def orbit_run():
    workload = workloads.orbit(seed=11, n=3000)
    return workload, [cli(argv) for argv in workload.commands]


def error_rate(check, outputs) -> float:
    attempted, failed = check(outputs)
    assert attempted > 0
    return failed / attempted


def test_counting_oracle(counting_output):
    check = functools.partial(workloads.check_counting, max_norm=9)
    assert error_rate(check, [counting_output]) == 0
    assert error_rate(check, [edit(counting_output, 3, flip("match"))]) > 0
    assert error_rate(check, [edit(counting_output, 3, lambda r: {**r, "brute": r["brute"] + 1})]) > 0
    assert error_rate(check, [edit(counting_output, 3, lambda r: None)]) > 0
    assert error_rate(check, [(1, counting_output[1])]) == 1
    assert error_rate(check, [(0, "")]) == 1


def test_preserve_oracle(preserve_output):
    check = workloads.check_preserve
    assert error_rate(check, [preserve_output]) == 0
    assert error_rate(check, [edit(preserve_output, 5, flip("preserved"))]) > 0
    assert error_rate(check, [edit(preserve_output, 5, lambda r: None)]) > 0
    assert error_rate(check, [edit(preserve_output, -2, flip("trap_rejected"))]) > 0
    assert error_rate(check, [edit(preserve_output, -2, lambda r: None)]) > 0


def test_orbit_oracle(orbit_run):
    workload, outputs = orbit_run
    word2, word3 = outputs
    assert workload.check(outputs) == (6000, 0)
    assert workload.check([edit(word2, 0, flip_letter(1234)), word3]) == (6000, 1)
    assert workload.check([word2, edit(word3, 0, flip_letter(2999))]) == (6000, 1)
    assert workload.check([edit(word2, 0, lambda r: None), word3]) == (6000, 3000)
    assert workload.check([word2, (2, word3[1])]) == (6000, 3000)


def test_orbit_params_repeat_and_stay_nondegenerate():
    for seed in range(40):
        assert workloads.orbit_params(seed) == workloads.orbit_params(seed)
        slope, x0, alpha, beta, x3 = workloads.orbit_params(seed)
        for value in (slope, alpha, beta):
            assert value.y != 0 and value.floor() == 0
        assert x0.floor() == 0 and x3.floor() == 0 and (alpha + beta).floor() == 0


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)
    idle = tracer.layer_metrics(tracer.merge([]))
    assert [*idle, "trace.overhead_s"] == list(tracer.LAYER_METRICS)
    assert all(m["unit"] == tracer.unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
