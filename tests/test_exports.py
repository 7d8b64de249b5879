"""Every name the package and its modules export through __all__ exists,
and importing the command line front end loads no more of numpy than it
needs."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import prony

MODULES = ["prony"] + sorted("prony." + m.name for m in pkgutil.iter_modules(prony.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_the_cli_loads_no_numpy_polynomial():
    # numpy.polynomial is nine modules and about a megabyte at start-up, and
    # prony uses none of it; numpy 1.x imports it with numpy itself
    probe = ("import sys, numpy; before = set(sys.modules); import prony.cli; "
             "print(sorted(m for m in set(sys.modules) - before "
             "if m.startswith('numpy.polynomial')))")
    src = str(pathlib.Path(prony.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
