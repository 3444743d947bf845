"""Every exported name resolves, so a deletion cannot leave a stale export,
and the names that only tests use stay out of the package."""

import importlib
import pkgutil

import supermod as sm
from supermod import cone, qlin


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


def test_test_oracles_are_not_exported():
    # these live in tests/conftest.py; the package keeps one entry point per question
    moved = (
        "nullspace",
        "solve_unique",
        "normalize_ray",
        "equality_pairs",
        "EqualityPair",
        "core_structure",
        "payoff_equality_system",
        "game_equality_system",
        "lower_covers",
        "ZeroVectorError",
    )
    for owner in (sm, sm.errors, cone, qlin, sm.DownSetLattice):
        for name in moved:
            assert not hasattr(owner, name), f"{owner.__name__}.{name} is back"
    assert qlin.__all__ == ["rank"]
