"""Each module's ``__all__`` names every public function and class it defines,
and every public function has a caller outside the tests."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import pllab

MODULES = sorted(m.name for m in pkgutil.iter_modules(pllab.__path__))
ROOT = Path(__file__).resolve().parents[1]

# public functions that only tests call, each with the reason it stays in src/
TEST_ONLY = {
    "selection.counterexample_scan": "criterion 4: the paper's K = 3 counterexample",
    "duality.two_arm_quantile": "golden pin: the exact two-arm roots",
    "duality.regularizer_value": "north-star number: the Legendre-dual regularizer",
}


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    mod = importlib.import_module(f"pllab.{name}")
    defined = {
        attr for attr, obj in vars(mod).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == mod.__name__
    }
    listed = set(getattr(mod, "__all__", ()))
    assert defined - listed == set()
    assert listed <= set(vars(mod))


def test_every_public_function_has_a_caller():
    referenced = set()
    for path in [*ROOT.glob("src/**/*.py"), *ROOT.glob("bench/**/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    uncalled = set()
    for name in MODULES:
        mod = importlib.import_module(f"pllab.{name}")
        for attr in getattr(mod, "__all__", ()):
            if inspect.isfunction(getattr(mod, attr)) and attr not in referenced:
                uncalled.add(f"{name}.{attr}")
    # equality: a listed function that gains a caller leaves the list
    assert uncalled == TEST_ONLY.keys()
    assert all(reason.strip() for reason in TEST_ONLY.values())
