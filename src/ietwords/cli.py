"""Command-line front end.

Every command emits one JSON record per enumerated object followed by a
summary record, all with sorted keys so reruns are byte-identical.  Each
command handler is a generator: it yields its records and returns its
status and summary fields, and each record is printed as soon as it is
yielded, so a long ``verify`` sweep shows its first records while it
runs.  ``--pretty`` renders the same records as a table, and so buffers
them until the command ends, to size the columns.  Exit codes: 0 for
ok, 1 when a checked property is false, 2 for invalid input; an input
error found after some records were printed ends the output with the
same ``invalid-input`` line.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from types import SimpleNamespace
from typing import Callable, Generator

from . import verification
from .amicability import (
    b_counts,
    check_3iet_preservation,
    ternarization_membership,
    ternarize_morphisms,
)
from .errors import IetWordsError, NotAmicableError, _require_range
from .iet import (
    ThreeIET,
    TwoIET,
    is_nondegenerate_params,
    three_iet_code,
    two_iet_code,
)
from .matrices import (
    MAX_PAIRS_NORM,
    _labelled,
    _pair,
    classify_matrix3,
    conjecture_probe,
    count_formula_b,
    count_formula_total,
    unimodular_matrices,
)
from .morphisms import (
    _chain_indices,
    _require_matrix,
    IntMatrix2,
    IntMatrix3,
    Morphism,
    incidence_matrix,
    enumerate_sturmian,
    is_standard_morphism,
    is_sturmian_morphism,
    k_index,
    standard_morphism,
)
from .quadratic import QuadNumber
from .words import Alphabet

EXIT_CODES = {"ok": 0, "property-false": 1, "invalid-input": 2}

# the largest --max-norm of ``count``: on a 2-core x86-64 host the sweep
# takes about 4 s there.  Each verification suite caps its own bounds
MAX_COUNT_NORM = 300

# what a command handler yields (its records) and returns (its status and
# the fields it adds to the summary)
Records = Generator[dict, None, tuple[str, dict]]


def _parse_binary_morphism(text: str, role: str) -> Morphism:
    morphism = Morphism.parse(text)
    if morphism.alphabet is not Alphabet.BINARY:
        raise IetWordsError(f"{role} must be a binary morphism, got {text!r}")
    return morphism


def _parse_ternary_morphism(text: str, role: str) -> Morphism:
    morphism = Morphism.parse(text)
    if morphism.alphabet is not Alphabet.TERNARY:
        raise IetWordsError(f"{role} must be a ternary morphism, got {text!r}")
    if not morphism.is_nonerasing:
        raise IetWordsError(f"{role} must be non-erasing")
    return morphism


def _pair_record(pair) -> dict:
    return {
        "k": pair.k,
        "kbar": pair.kbar,
        "b0": pair.b0,
        "b1": pair.b1,
        "b": pair.b,
        "phi": str(pair.phi),
        "psi": str(pair.psi),
        "eta": str(pair.eta),
        "matrix3": str(incidence_matrix(pair.eta)),
    }


def _cmd_std(args) -> Records:
    matrix = IntMatrix2.parse(args.matrix)
    morphism = standard_morphism(matrix)
    yield {"matrix": str(matrix), "morphism": str(morphism), "k": k_index(morphism)}
    return "ok", {}


def _cmd_enum(args) -> Records:
    matrix = IntMatrix2.parse(args.matrix)
    chain = enumerate_sturmian(matrix)
    first = tuple(image.letters for image in chain[0].images)
    for i, (m, k) in enumerate(zip(chain, _chain_indices(matrix, first, len(chain)))):
        yield {"index": i, "morphism": str(m), "k": k, "standard": is_standard_morphism(m)}
    status = "ok" if len(chain) == matrix.norm - 1 else "property-false"
    return status, {"count": len(chain), "expected": matrix.norm - 1}


def _cmd_pairs(args) -> Records:
    matrix = IntMatrix2.parse(args.matrix)
    _require_matrix(matrix, MAX_PAIRS_NORM)
    if args.b is None:
        expected = count_formula_total(matrix)
    else:
        # a B-count is at most min(p, q) < N, once the matrix is known good
        _require_range(args.b, 0, matrix.norm, "--b")
        expected = count_formula_b(matrix, args.b)
    chain, labels = _labelled(matrix)
    # a label ends with its B-count: only the pairs printed are built
    labels = [label for label in labels if args.b is None or label[-1] == args.b]
    yield from (_pair_record(_pair(chain, *label)) for label in labels)
    status = "ok" if len(labels) == expected else "property-false"
    return status, {"matrix": str(matrix), "total": len(labels), "formula": expected}


def _cmd_count(args) -> Records:
    _require_range(args.max_norm, 2, MAX_COUNT_NORM, "--max-norm")
    checked = total_pairs = 0
    for matrix in unimodular_matrices(args.max_norm):
        formula = count_formula_total(matrix)
        checked += 1
        total_pairs += formula
        yield {"matrix": str(matrix), "formula": formula}
    return "ok", {"max_norm": args.max_norm, "matrices": checked, "total_pairs": total_pairs}


def _cmd_ternarize(args) -> Records:
    phi = _parse_binary_morphism(args.phi, "--phi")
    psi = _parse_binary_morphism(args.psi, "--psi")
    for role, morphism in (("--phi", phi), ("--psi", psi)):
        if not is_sturmian_morphism(morphism):
            raise IetWordsError(f"{role} morphism {morphism} is not Sturmian")
    try:
        eta = ternarize_morphisms(phi, psi)
    except NotAmicableError as exc:
        yield {"amicable": False, "reason": str(exc)}
        return "property-false", {}
    b0, b1, b = b_counts(eta)
    yield {"eta": str(eta), "b0": b0, "b1": b1, "b": b, "amicable": True}
    return "ok", {}


def _cmd_member(args) -> Records:
    eta = _parse_ternary_morphism(args.eta, "--eta")
    outcome = ternarization_membership(eta)
    if outcome.member:
        yield {"member": True, "phi": str(outcome.phi), "psi": str(outcome.psi)}
        return "ok", {}
    yield {"member": False, "reason": outcome.reason}
    return "property-false", {}


def _cmd_classify(args) -> Records:
    candidate = IntMatrix3.parse(args.matrix3)
    witness = classify_matrix3(candidate)
    if witness is None:
        yield {"classified": False, "matrix3": str(candidate)}
        return "property-false", {}
    yield {
        "classified": True,
        "matrix3": str(candidate),
        "matrix": str(witness.matrix),
        "b0": witness.b0,
        "b1": witness.b1,
        "delta": witness.delta,
    }
    return "ok", {}


def _cmd_word2(args) -> Records:
    transform = TwoIET(QuadNumber.parse(args.slope))
    word = two_iet_code(transform, QuadNumber.parse(args.start), args.n)
    yield {
        "word": str(word),
        "length": len(word),
        "slope": str(transform.slope),
        "start": args.start,
    }
    return "ok", {}


def _cmd_word3(args) -> Records:
    transform = ThreeIET(QuadNumber.parse(args.alpha), QuadNumber.parse(args.beta))
    word = three_iet_code(transform, QuadNumber.parse(args.start), args.n)
    # warn only once the word is coded: a rejected input has no coding
    nondegenerate = is_nondegenerate_params(transform)
    if not nondegenerate:
        print(
            "warning: degenerate parameters, the coding is eventually periodic",
            file=sys.stderr,
        )
    yield {
        "word": str(word),
        "length": len(word),
        "alpha": str(transform.alpha),
        "beta": str(transform.beta),
        "start": args.start,
        "nondegenerate": nondegenerate,
    }
    return "ok", {}


def _cmd_preserve(args) -> Records:
    eta = _parse_ternary_morphism(args.eta, "--eta")
    transform = ThreeIET(QuadNumber.parse(args.alpha), QuadNumber.parse(args.beta))
    result = check_3iet_preservation(eta, transform, QuadNumber.parse(args.start), args.n)
    yield {"preserved": result.ok, "detail": result.detail, "eta": str(eta)}
    status = "ok" if result.ok else "property-false"
    return status, {"n": args.n}


def _cmd_probe(args) -> Records:
    eta = _parse_ternary_morphism(args.eta, "--eta")
    report = conjecture_probe(eta)
    for item in report.records:
        outcome = item.outcome
        yield {
            "candidate": item.label,
            "morphism": str(item.morphism),
            "member": outcome.member,
            "phi": str(outcome.phi) if outcome.phi is not None else None,
            "psi": str(outcome.psi) if outcome.psi is not None else None,
            "reason": outcome.reason,
        }
    return "ok", {"members": len(report.members())}


# each suite's keywords, which are also the argparse dests of its
# ``verify`` flags.  Read from the code objects, so that importing the
# CLI does not load inspect, and here, before a tracer can wrap the suites
_SUITE_KEYWORDS = {
    name: suite.__code__.co_varnames[:suite.__code__.co_argcount]
    for name, suite in verification.SUITES.items()
}
_VERIFY_KEYWORDS = tuple(dict.fromkeys(k for keys in _SUITE_KEYWORDS.values() for k in keys))


def _flag(keyword: str) -> str:
    """The ``verify`` flag of a suite keyword: ``-n``, ``--max-norm``."""
    return "-" + keyword if len(keyword) == 1 else "--" + keyword.replace("_", "-")


def _cmd_verify(args) -> Records:
    kwargs = {k: getattr(args, k) for k in _VERIFY_KEYWORDS if getattr(args, k) is not None}
    unread = [_flag(k) for k in kwargs if k not in _SUITE_KEYWORDS[args.suite]]
    if unread:
        raise IetWordsError(f"--suite {args.suite} does not take {', '.join(unread)}")
    ok, summary = yield from verification.SUITES[args.suite](**kwargs)
    return ("ok" if ok else "property-false"), {"suite": args.suite, **summary}


# each command's handler, help line and arguments, as (flag, keywords of
# ``add_argument``); every command also takes --pretty.  A well-formed
# command line is read from here without argparse (``_read_well_formed``),
# so a flag takes only the keywords that reader mirrors: ``type`` (int),
# ``choices``, ``default`` (no str one with a type), ``required``, ``help``
_COMMANDS: dict[str, tuple[Callable, str, tuple[tuple[str, dict], ...]]] = {
    "std": (_cmd_std, "standard morphism of a unimodular matrix", (
        ("--matrix", {"required": True, "help": "matrix literal 'p0,q0;p1,q1'"}),
    )),
    "enum": (_cmd_enum, "all Sturmian morphisms with a given matrix", (
        ("--matrix", {"required": True}),
    )),
    "pairs": (_cmd_pairs, "ordered amicable pairs and their ternarizations", (
        ("--matrix", {"required": True}),
        ("--b", {"type": int, "help": "restrict to one B-count"}),
    )),
    "count": (_cmd_count, "closed-formula pair counts over a norm sweep", (
        ("--max-norm", {"type": int, "required": True}),
    )),
    "ternarize": (_cmd_ternarize, "ternarization of an amicable pair of morphisms", (
        ("--phi", {"required": True, "help": "morphism literal '0->...,1->...'"}),
        ("--psi", {"required": True}),
    )),
    "member": (
        _cmd_member,
        "membership of a ternary morphism in the ternarization monoid",
        (("--eta", {"required": True, "help": "morphism literal 'A->...,B->...,C->...'"}),),
    ),
    "classify": (
        _cmd_classify,
        "classify a 3x3 matrix as a ternarization incidence matrix",
        (("--matrix3", {"required": True, "help": "literal 'r00,r01,r02;...;...'"}),),
    ),
    "word2": (_cmd_word2, "coding word of a 2-interval exchange orbit", (
        ("--slope", {"required": True, "help": "'(a+b*sqrt(d))/c' or 'p/q'"}),
        ("--start", {"default": "0"}),
        ("-n", {"type": int, "required": True}),
    )),
    "word3": (_cmd_word3, "coding word of a 3-interval exchange orbit", (
        ("--alpha", {"required": True}),
        ("--beta", {"required": True}),
        ("--start", {"default": "0"}),
        ("-n", {"type": int, "required": True}),
    )),
    "preserve": (_cmd_preserve, "prefix-scale 3iet preservation check", (
        ("--eta", {"required": True}),
        ("--alpha", {"required": True}),
        ("--beta", {"required": True}),
        ("--start", {"default": "0"}),
        ("-n", {"type": int, "default": 1000}),
    )),
    "probe": (_cmd_probe, "membership probe of a morphism and its companions", (
        ("--eta", {"required": True}),
    )),
    "verify": (_cmd_verify, "run a verification suite", (
        ("--suite", {"required": True, "choices": sorted(verification.SUITES)}),
        *((_flag(k), {"type": int}) for k in _VERIFY_KEYWORDS),
    )),
}


def _build_parser():
    """The ``argparse`` parser of every command, which gives the help and
    the usage errors, and the parser of each command by its name."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ietwords",
        description="Sturmian morphisms, 3iet words, amicability and ternarization",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, (_, help_text, flags) in _COMMANDS.items():
        command = commands[name] = sub.add_parser(name, help=help_text)
        command.add_argument("--pretty", action="store_true", help="tabular output")
        for flag, keywords in flags:
            command.add_argument(flag, **keywords)
    return parser, commands


def _parse_args(argv: list[str]):
    """The namespace of ``argv``, with the attributes that the parser of
    :func:`_build_parser` gives it.  A well-formed command line is read
    from the command table (:func:`_read_well_formed`), so the command
    loads no ``argparse``; anything else goes to the parser of the command
    it names, which rejects an unknown argument under that command's
    usage, or else to the full parser."""
    if (args := _read_well_formed(argv)) is not None:
        return args
    parser, commands = _build_parser()
    if argv and argv[0] in commands:
        return commands[argv[0]].parse_args(argv[1:], SimpleNamespace(command=argv[0]))
    return parser.parse_args(argv)


def _read_well_formed(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a command and then exact ``flag value`` pairs and
    ``--pretty``, read with each flag's ``type``, ``choices``, ``default``
    and ``required`` from :data:`_COMMANDS`, the last of a repeated flag
    winning, as ``argparse`` reads them; else None.

    ``argparse`` costs several ms to import and to build its parser, more
    than a short command's own work, so it is loaded only for what this
    reader leaves to it: help, ``--``, an abbreviated or ``=``-joined flag,
    a value that starts with ``-``, a value its type or choices reject,
    and a missing value or flag.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    flags = dict(_COMMANDS[argv[0]][2])
    read = {}
    pretty = False
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--pretty":
            pretty = True
            continue
        keywords = flags.get(token)
        value = next(tokens, None)
        if keywords is None or value is None or value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if "choices" in keywords and value not in keywords["choices"]:
            return None
        read[token] = value
    if any(keywords.get("required") and flag not in read for flag, keywords in flags.items()):
        return None
    return SimpleNamespace(command=argv[0], pretty=pretty, **{
        flag.lstrip("-").replace("-", "_"): read.get(flag, keywords.get("default"))
        for flag, keywords in flags.items()
    })


def _print_pretty(records: list[dict], summary: dict) -> None:
    if records:
        columns = sorted({key for record in records for key in record})
        table = [[_cell(r.get(c)) for c in columns] for r in records]
        widths = [
            max(len(col), *(len(row[i]) for row in table))
            for i, col in enumerate(columns)
        ]
        print("  ".join(col.ljust(w) for col, w in zip(columns, widths)))
        for row in table:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    print(" ".join(f"{key}={_cell(value)}" for key, value in sorted(summary.items())))


def _cell(value) -> str:
    if value is None:
        return "-"
    return str(value)


def main(argv: list[str] | None = None) -> int:
    """Run the command ``argv`` (``sys.argv[1:]`` by default), print its
    records and return its exit code.

    Each call first freezes the garbage collector's heap as it is: a
    process that calls ``main`` in a loop can call ``gc.unfreeze()``
    between calls to let the collector see that heap again.
    """
    # what is alive here (the modules, their functions, classes, code
    # objects and tables) lives until exit.  Frozen, it is walked by
    # neither a sweep's gen-2 collections nor the collection at
    # interpreter shutdown, which would otherwise take about 10 ms of
    # every command; what the command itself makes is collected as before
    gc.freeze()
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    handler = _COMMANDS[args.command][0]
    buffered: list[dict] = []
    count = 0

    def emit(record: dict) -> None:
        nonlocal count
        count += 1
        if args.pretty:
            buffered.append(record)
        else:
            print(json.dumps(record, sort_keys=True))

    try:
        status, extras = verification.drain(handler(args), emit)
    except IetWordsError as exc:
        payload = {"command": args.command, "status": "invalid-input", "error": str(exc)}
        print(json.dumps(payload, sort_keys=True))
        return EXIT_CODES["invalid-input"]
    summary = {"command": args.command, "status": status, "records": count}
    summary.update(extras)
    if args.pretty:
        _print_pretty(buffered, summary)
    else:
        print(json.dumps(summary, sort_keys=True))
    return EXIT_CODES[status]


def console_main() -> None:
    try:
        code = main()
        # flush here, so that a reader gone before the last buffered
        # records surfaces below rather than at interpreter exit
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``ietwords ... | head``): drop the
        # rest of the output quietly, but do not report success
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


if __name__ == "__main__":
    console_main()
