"""Each module's ``__all__`` names every public function and class it defines."""

import importlib
import inspect
import pkgutil

import pytest

import pllab

MODULES = sorted(m.name for m in pkgutil.iter_modules(pllab.__path__))


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
