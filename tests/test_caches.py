"""Process-wide caches: the package keeps none, so that no state in it
lives from one call to the next.  Should one come back, it must be
bounded, and this test must name it."""

import functools
import importlib
import pkgutil

import ietwords


def _cached_functions():
    """Every module-level function with an ``lru_cache`` in the package,
    by the module that defines it and its name."""
    found = {}
    for info in pkgutil.iter_modules(ietwords.__path__, "ietwords."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if hasattr(value, "cache_parameters"):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def test_every_cache_is_bounded():
    cached = _cached_functions()
    unbounded = sorted(
        name for name, fn in cached.items() if fn.cache_parameters()["maxsize"] is None
    )
    assert unbounded == []
    # each sweep does its repeated work once inside its own call, so no
    # cache is left; one added later must carry the measurement that
    # justifies it next to its decorator, and be listed here
    assert sorted(cached) == []


def test_the_walk_sees_a_cache(monkeypatch):
    # with no cache in the package, the pinned ``[]`` above holds only if
    # the walk would find one
    probe = functools.lru_cache(maxsize=None)(lambda: None)
    monkeypatch.setattr(ietwords.words, "_probe", probe, raising=False)
    assert list(_cached_functions().values()) == [probe]
