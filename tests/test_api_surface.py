"""Pinned size of the public API.

Every public module lists its API in ``__all__``. Two counts over those
lists are pinned here: the public names, and the settable values (the
fields of a dataclass plus the optional parameters of a function). A
change that adds or removes a name, a field or an optional parameter must
update the pin on purpose, and say why.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import despeckle

PUBLIC_NAMES = 52
SETTABLE_VALUES = 41


def _public_objects():
    for info in pkgutil.iter_modules(despeckle.__path__):
        if info.name.startswith("_"):
            continue
        module = importlib.import_module(f"despeckle.{info.name}")
        for name in module.__all__:
            yield f"{info.name}.{name}", getattr(module, name)


def _settable(obj) -> int:
    if dataclasses.is_dataclass(obj):
        return len(dataclasses.fields(obj))
    if inspect.isfunction(obj):
        params = inspect.signature(obj).parameters.values()
        return sum(param.default is not param.empty for param in params)
    return 0


def test_public_name_count_is_pinned():
    names = [name for name, _ in _public_objects()]
    assert len(names) == PUBLIC_NAMES, sorted(names)


def test_settable_value_count_is_pinned():
    counts = {name: _settable(obj) for name, obj in _public_objects()}
    assert sum(counts.values()) == SETTABLE_VALUES, {k: v for k, v in counts.items() if v}
