"""Every exported name resolves, so a deletion cannot leave a stale export,
the names that only tests use stay out of the package, and no module of the
package computes in floating point."""

import ast
import importlib
import pathlib
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
    # these live in tests/conftest.py (is_extreme_via_games as games_extreme)
    # or went with their subjects; the package keeps one entry point per
    # question
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
        "tight_family",
        "TightFamily",
        "is_extreme_via_games",
        "upper_covers",
        "birkhoff_map",
        "interval",
        "is_boolean_interval",
        "NotComparableError",
        "core_h_representation",
    )
    for owner in (sm, sm.errors, sm.marginals, cone, qlin, sm.DownSetLattice):
        for name in moved:
            assert not hasattr(owner, name), f"{owner.__name__}.{name} is back"
    assert qlin.__all__ == ["rank"]


SOURCES = ("cone", "errors", "game", "lattice", "marginals", "poset")


def module_lists():
    return {m: importlib.import_module(f"supermod.{m}").__all__ for m in SOURCES}


def test_the_package_exports_the_union_of_the_module_lists():
    names = [name for listed in module_lists().values() for name in listed]
    assert sm.__all__ == sorted(set(names))


def test_no_name_is_listed_by_two_modules():
    owners = {}
    for module, listed in module_lists().items():
        for name in listed:
            assert name not in owners, f"{name!r} is listed by {owners[name]} and {module}"
            owners[name] = module


def test_the_rank_kernel_stays_out_of_the_package():
    assert "rank" not in sm.__all__
    assert not hasattr(sm, "rank")


def inexact_nodes(tree):
    """The float literals, true divisions and float(...) calls of a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            yield node


def test_no_module_computes_in_floating_point():
    # exact answers: every value is an int or a Fraction, so the source holds
    # no float literal, no / (// and Fraction(p, q) divide exactly) and no
    # float(...) call
    paths = sorted(pathlib.Path(sm.__file__).parent.glob("*.py"))
    assert {p.stem for p in paths} >= {"__init__", "cli", "cone", "qlin"}
    for path in paths:
        found = [node.lineno for node in inexact_nodes(ast.parse(path.read_text()))]
        assert not found, f"{path.name} computes in floating point at lines {found}"


def self_calls(tree):
    """(line, name) of each function that calls its own bare name, and of
    each method that calls self.<its name>."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                f = getattr(call, "func", None)
                if isinstance(f, ast.Name) and f.id == node.name or (
                    isinstance(f, ast.Attribute)
                    and f.attr == node.name
                    and getattr(f.value, "id", None) == "self"
                ):
                    yield node.lineno, node.name


def test_no_function_calls_itself():
    # a call nested per player, element or chain overflows the interpreter's
    # stack on a long poset; every walk runs as a loop over its own stack
    paths = sorted(pathlib.Path(sm.__file__).parent.glob("*.py"))
    assert {p.stem for p in paths} >= {"__init__", "cli", "cone", "poset"}
    for path in paths:
        found = list(self_calls(ast.parse(path.read_text())))
        assert not found, f"{path.name} has functions that call themselves: {found}"
    # the check finds both forms
    tree = ast.parse("def f(k):\n    return f(k - 1)\nclass C:\n    def g(self):\n        self.g()\n")
    assert list(self_calls(tree)) == [(1, "f"), (4, "g")]
