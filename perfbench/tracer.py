"""Per-layer tracing of one ``ietwords`` command, from outside the package.

``install`` replaces the public functions and methods of each layer with
wrappers that count calls and, for the timed ones, record a span: a span's
self time is its duration minus the spans opened inside it.  Nothing in
``ietwords`` is edited; names imported into other modules are replaced
wherever they are bound, so every caller goes through the wrapper.  The
hit and miss counts of every ``lru_cache`` are read at the end.

``layer_metrics`` turns the raw counters of one or more commands into the
named per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter

# lru_cache'd functions as (module, name); reported as cache.<module>.<name>
CACHES = (
    ("words", "_is_balanced_letters"),
    ("iet", "two_iet_code"),
    ("iet", "coding_word_k"),
    ("iet", "three_iet_code"),
    ("morphisms", "enumerate_sturmian"),
    ("amicability", "_sturmian_prefix_violation"),
    ("amicability", "check_3iet_preservation"),
    ("matrices", "brute_force_pairs"),
)
SUITES = ("counting", "preserve")

LAYER_METRICS = (
    "words.is_balanced.calls",
    "words.is_balanced.self_s",
    "words.is_balanced.letters",
    "words.factor_complexity.calls",
    "words.factor_complexity.self_s",
    "words.FiniteWord.new",
    "quadratic.QuadNumber.new",
    "quadratic.QuadNumber.cmp",
    "quadratic.QuadNumber.self_s",
    "iet.two_iet_code.s",
    "iet.three_iet_code.s",
    "iet.coding_word_k.calls",
    "morphisms.enumerate_sturmian.s",
    "morphisms.k_index.s",
    "morphisms.Morphism.apply.calls",
    "morphisms.compose.calls",
    "amicability.ternarize_words.calls",
    "amicability.ternarize_words.self_s",
    "amicability.ternarize_words.accept_ratio",
    "amicability.sigma.letters",
    "amicability.check_3iet_preservation.s",
    "matrices.brute_force_pairs.s",
    "matrices.brute_force_pairs.candidates",
    "matrices.brute_force_pairs.pairs",
    *(f"verification.{suite}.self_s" for suite in SUITES),
    "cli.emit_s",
    *(f"cache.{module}.{name}.{stat}" for module, name in CACHES for stat in ("hits", "misses")),
    "trace.overhead_s",
)


def unit(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith((".s", "_s")):
        return "s"
    return "count"


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.values: Counter = Counter()
        self._open = [0.0]  # time covered by child spans, per open span

    def span(self, name, fn, observe=None):
        """``fn`` wrapped in a timed span; ``observe(args, result)`` adds
        value counters after each call that returns."""
        calls, self_s, total_s, open_spans = self.calls, self.self_s, self.total_s, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = open_spans.pop()
                open_spans[-1] += elapsed
                self_s[name] += elapsed - inner
                total_s[name] += elapsed
                calls[name] += 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def counted(self, name, fn, observe=None):
        """``fn`` wrapped to count calls only; its time stays with the caller."""
        calls = self.calls

        def traced(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def add(self, key: str, amount) -> None:
        self.values[key] += amount


def _rebind(original, replacement) -> None:
    """Point every ``ietwords`` module global bound to ``original`` at
    ``replacement``."""
    for name, module in list(sys.modules.items()):
        if name == "ietwords" or name.startswith("ietwords."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install():
    """Wrap the layers of an imported ``ietwords``; returns ``report``, a
    callable giving the raw counters as a JSON-ready dict."""
    from ietwords import amicability, cli, iet, matrices, morphisms, quadratic, verification, words

    modules = {m.__name__.rsplit(".", 1)[-1]: m for m in
               (words, iet, morphisms, amicability, matrices)}
    # a cache or function that a later version drops just reads 0
    caches = {f"cache.{module}.{name}": getattr(getattr(modules[module], name, None), "cache_info", None)
              for module, name in CACHES}
    tracer = Tracer()

    def wrap(module, name, make, *args):
        original = getattr(module, name, None)
        if original is not None:
            _rebind(original, make(f"{module.__name__[9:]}.{name}", original, *args))

    wrap(words, "is_balanced", tracer.span,
         lambda args, result: tracer.add("words.is_balanced.letters", len(args[0])))
    wrap(words, "factor_complexity", tracer.span)
    wrap(iet, "two_iet_code", tracer.span)
    wrap(iet, "three_iet_code", tracer.span)
    wrap(iet, "coding_word_k", tracer.counted)
    wrap(morphisms, "enumerate_sturmian", tracer.span)
    wrap(morphisms, "k_index", tracer.span)
    wrap(morphisms, "compose", tracer.counted)
    wrap(amicability, "ternarize_words", tracer.span,
         lambda args, result: tracer.add("amicability.ternarize_words.accepted", 1))
    wrap(amicability, "sigma", tracer.counted,
         lambda args, result: tracer.add("amicability.sigma.letters", len(args[0])))
    wrap(amicability, "check_3iet_preservation", tracer.span)
    # every candidate pair the brute force tests is one amicable_morphisms call
    wrap(amicability, "amicable_morphisms", tracer.counted)
    wrap(matrices, "brute_force_pairs", tracer.span,
         lambda args, result: tracer.add("matrices.brute_force_pairs.pairs", len(result)))

    words.FiniteWord.__init__ = tracer.counted("words.FiniteWord.new", words.FiniteWord.__init__)
    morphisms.Morphism.__call__ = tracer.counted("morphisms.Morphism.apply", morphisms.Morphism.__call__)
    for attr, value in list(vars(quadratic.QuadNumber).items()):
        if isinstance(value, types.FunctionType) and not (attr.startswith("_") and not attr.startswith("__")):
            setattr(quadratic.QuadNumber, attr, tracer.span(f"quadratic.QuadNumber.{attr}", value))

    for suite, fn in list(verification.SUITES.items()):
        verification.SUITES[suite] = tracer.span(f"verification.{suite}", fn)

    # record emission: serialising and printing, as the CLI does it
    traced_json = types.ModuleType("json")
    vars(traced_json).update(vars(json))
    traced_json.dumps = tracer.span("cli.emit", json.dumps)
    cli.json = traced_json
    cli.print = tracer.span("cli.emit", print)

    def report() -> dict:
        cache_counts = {}
        for key, cache_info in caches.items():
            if cache_info is not None:
                info = cache_info()
                cache_counts[f"{key}.hits"] = info.hits
                cache_counts[f"{key}.misses"] = info.misses
        return {
            "calls": tracer.calls,
            "self_s": tracer.self_s,
            "total_s": tracer.total_s,
            "values": {**tracer.values, **cache_counts},
        }

    return report


def merge(reports: list[dict]) -> dict:
    """Sum the raw counters of several commands."""
    merged = {key: Counter() for key in ("calls", "self_s", "total_s", "values")}
    for report in reports:
        for key, counts in merged.items():
            counts.update(report[key])
    return merged


def layer_metrics(raw: dict) -> dict:
    """The named per-layer metrics of one pass (``trace.overhead_s`` is
    added by the caller, which times untraced passes too)."""
    calls, self_s, total_s, values = (raw[k] for k in ("calls", "self_s", "total_s", "values"))
    quad = [k for k in calls if k.startswith("quadratic.QuadNumber.")]
    ternarized = calls["amicability.ternarize_words"]
    out = {
        "words.is_balanced.calls": calls["words.is_balanced"],
        "words.is_balanced.self_s": self_s["words.is_balanced"],
        "words.is_balanced.letters": values["words.is_balanced.letters"],
        "words.factor_complexity.calls": calls["words.factor_complexity"],
        "words.factor_complexity.self_s": self_s["words.factor_complexity"],
        "words.FiniteWord.new": calls["words.FiniteWord.new"],
        "quadratic.QuadNumber.new": calls["quadratic.QuadNumber.__init__"],
        "quadratic.QuadNumber.cmp": calls["quadratic.QuadNumber.__lt__"]
        + calls["quadratic.QuadNumber.__eq__"],
        "quadratic.QuadNumber.self_s": sum(self_s[k] for k in quad),
        "iet.two_iet_code.s": total_s["iet.two_iet_code"],
        "iet.three_iet_code.s": total_s["iet.three_iet_code"],
        "iet.coding_word_k.calls": calls["iet.coding_word_k"],
        "morphisms.enumerate_sturmian.s": total_s["morphisms.enumerate_sturmian"],
        "morphisms.k_index.s": total_s["morphisms.k_index"],
        "morphisms.Morphism.apply.calls": calls["morphisms.Morphism.apply"],
        "morphisms.compose.calls": calls["morphisms.compose"],
        "amicability.ternarize_words.calls": ternarized,
        "amicability.ternarize_words.self_s": self_s["amicability.ternarize_words"],
        "amicability.ternarize_words.accept_ratio":
            values["amicability.ternarize_words.accepted"] / ternarized if ternarized else 0.0,
        "amicability.sigma.letters": values["amicability.sigma.letters"],
        "amicability.check_3iet_preservation.s": total_s["amicability.check_3iet_preservation"],
        "matrices.brute_force_pairs.s": total_s["matrices.brute_force_pairs"],
        "matrices.brute_force_pairs.candidates": calls["amicability.amicable_morphisms"],
        "matrices.brute_force_pairs.pairs": values["matrices.brute_force_pairs.pairs"],
    }
    for suite in SUITES:
        out[f"verification.{suite}.self_s"] = self_s[f"verification.{suite}"]
    out["cli.emit_s"] = total_s["cli.emit"]
    for module, name in CACHES:
        for stat in ("hits", "misses"):
            key = f"cache.{module}.{name}.{stat}"
            out[key] = values[key]
    return out
