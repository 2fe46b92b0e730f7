"""Process-wide caches: each must be bounded, so that no state in the
package grows for the life of the process."""

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
    # the walk must see the caches it checks; each of these two carries
    # the measurement that justifies it next to its decorator
    assert sorted(cached) == [
        "ietwords.iet.three_iet_code",
        "ietwords.words._is_balanced_letters",
    ]
