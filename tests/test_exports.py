"""Every name the package and its modules export through __all__ exists."""

import importlib
import pkgutil

import pytest

import prony

MODULES = ["prony"] + sorted("prony." + m.name for m in pkgutil.iter_modules(prony.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
