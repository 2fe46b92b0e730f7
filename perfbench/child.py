"""Run one ``ietwords`` command the way its users do, in a fresh interpreter.

Usage: ``python3 child.py [--trace] -- <ietwords argv>``, with
``PYTHONPATH`` naming the package sources and ``PERFBENCH_FD`` an open
file descriptor.  The command's records go to stdout, line-buffered as on
a terminal.  When the command has ended, one JSON object goes to that
descriptor: the monotonic time at which ``ietwords`` finished importing,
the exit code, the peak resident set size and, with ``--trace``, the
per-layer counters of :mod:`tracer`.
"""

import json
import os
import resource
import sys
import time

import ietwords.cli

IMPORTED = time.monotonic()


def main() -> int:
    args = sys.argv[1:]
    argv = args[args.index("--") + 1:]
    report = None
    if args[0] == "--trace":
        import tracer

        report = tracer.install()
    sys.stdout.reconfigure(line_buffering=True)
    try:
        code = ietwords.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 2
    sys.stdout.flush()
    result = {
        "imported": IMPORTED,
        "exit": code,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if report is not None:
        result["layers"] = report()
    with os.fdopen(int(os.environ["PERFBENCH_FD"]), "w") as channel:
        json.dump(result, channel)
    return code


if __name__ == "__main__":
    sys.exit(main())
