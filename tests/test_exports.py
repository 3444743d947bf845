"""Every exported name resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import supermod as sm


def test_every_exported_name_resolves():
    modules = [sm] + [
        importlib.import_module(f"supermod.{info.name}")
        for info in pkgutil.iter_modules(sm.__path__)
        if not info.name.startswith("_")
    ]
    checked = 0
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__ names missing {name!r}"
            checked += 1
    assert checked > len(sm.__all__)
