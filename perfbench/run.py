"""Benchmark of the ``ietwords`` command line.

    python3 perfbench/run.py --workload counting --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout.  A pass runs the workload's
commands one after another, each in a fresh interpreter (``child.py``),
exactly as a user would; passes repeat until ``--seconds`` have elapsed,
and every pass's output is checked by the workload's oracle.  Metrics are
medians over passes.  With ``--trace 1`` untraced and traced passes
alternate, and the per-layer metrics of the traced passes are reported
instead.  ``--workload all`` runs every workload in turn.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
run's context.  A readable table goes to stderr.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
RUN_LIMIT_S = 170.0  # one workload's run, oracle included, ends within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "first_record_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Command:
    spawned: float
    first_record: float | None
    ended: float
    exit: int
    stdout: str
    report: dict | None


def run_command(argv: list[str], trace: bool, deadline: float) -> Command:
    """Run one ``ietwords`` command in a fresh interpreter; kill it and
    raise TimeoutError at ``deadline``."""
    read_fd, write_fd = os.pipe()
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0", PERFBENCH_FD=str(write_fd))
    flags = ["--trace"] if trace else []
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *flags, "--", *argv],
        stdout=subprocess.PIPE, env=env, pass_fds=(write_fd,), cwd=ROOT,
    )
    os.close(write_fd)
    first_record = None
    chunks = []
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            while True:
                if not selector.select(max(0.0, deadline - time.monotonic())):
                    raise TimeoutError(f"command {argv[0]} still running at the time limit")
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                if first_record is None and b"\n" in chunk:
                    first_record = time.monotonic()
                chunks.append(chunk)
        code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        ended = time.monotonic()
        with os.fdopen(read_fd, "rb") as channel:
            raw = channel.read()
    except (TimeoutError, subprocess.TimeoutExpired) as exc:
        proc.kill()
        proc.wait()
        os.close(read_fd)
        raise TimeoutError(str(exc)) from None
    finally:
        proc.stdout.close()
    report = json.loads(raw) if raw else None
    return Command(spawned, first_record, ended, code, b"".join(chunks).decode(), report)


@dataclass
class Pass:
    traced: bool
    wall_s: float
    setups: list[float]
    first_record_s: float
    items_per_s: float
    peak_rss_mb: float
    attempted: int
    failed: int
    layers: dict | None


def run_pass(workload: workloads.Workload, traced: bool, deadline: float) -> Pass:
    start = time.monotonic()
    commands = [run_command(argv, traced, deadline) for argv in workload.commands]
    attempted, failed = workload.check([(c.exit, c.stdout) for c in commands])
    wall = commands[-1].ended - start
    setups = [
        (c.report["imported"] if c.report else c.ended) - c.spawned for c in commands
    ]
    firsts = [c.first_record for c in commands if c.first_record is not None]
    reports = [c.report for c in commands if c.report]
    layers = None
    if traced:
        layers = tracer.layer_metrics(tracer.merge([r["layers"] for r in reports if "layers" in r]))
    return Pass(
        traced=traced,
        wall_s=wall,
        setups=setups,
        first_record_s=(firsts[0] if firsts else commands[-1].ended) - start,
        items_per_s=workload.items / max(wall - sum(setups), 1e-9),
        peak_rss_mb=max((r["maxrss_mb"] for r in reports), default=0.0),
        attempted=attempted,
        failed=failed,
        layers=layers,
    )


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (median of 5), a gauge of
    host speed recorded beside every run."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFF
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    calibration_start = calibrate()
    workload = workloads.WORKLOADS[name](seed)
    stop = time.monotonic() + seconds
    passes: list[Pass] = []
    timed_out = None
    while True:
        try:
            passes.append(run_pass(workload, trace and len(passes) % 2 == 1, deadline))
        except TimeoutError as exc:
            timed_out = str(exc)
            break
        if time.monotonic() >= stop and (len(passes) >= 2 or not trace):
            break
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if timed_out is not None:
        lost, _ = workload.check([(1, "")] * len(workload.commands))
        attempted += lost
        failed += lost
    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    if not plain or (trace and not traced):
        raise SystemExit(f"perfbench: no complete pass of {name}: {timed_out}")
    if trace:
        metrics = {
            metric: statistics.median(p.layers[metric] for p in traced)
            for metric in tracer.LAYER_METRICS if metric != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = (
            statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in plain)
        )
        units = {metric: tracer.unit(metric) for metric in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(p.wall_s for p in plain),
            "setup_s": statistics.median(s for p in plain for s in p.setups),
            "first_record_s": statistics.median(p.first_record_s for p in plain),
            "items_per_s": statistics.median(p.items_per_s for p in plain),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
        }
        units = END_TO_END
    context = {
        "workload": name,
        "seed": seed,
        "params": workload.params,
        "passes": len(plain),
        "traced_passes": len(traced),
        "wall_s_samples": [p.wall_s for p in plain],
        "calibration_s": [calibration_start, calibrate()],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "timed_out": timed_out,
    }
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "context": context,
    }


def print_table(result: dict) -> None:
    context = result["context"]
    attempted, failed = result["attempted"], result["failed"]
    print(
        f"{context['workload']} seed={context['seed']}: {context['passes']} passes"
        f" + {context['traced_passes']} traced, error_rate {failed / max(attempted, 1):g}"
        f" ({failed} failed of {attempted} checked)",
        file=sys.stderr,
    )
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<44} {entry['value']:>14.6g} {entry['unit']}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "ietwords" / "cli.py").is_file():
        print(f"perfbench: no ietwords sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    for result in results.values():
        print_table(result)
        print(json.dumps({"context": result.pop("context")}))
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": entry
                for name, r in results.items() for metric, entry in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
