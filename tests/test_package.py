"""The package's module surface: every name an ``__all__`` lists exists,
and importing the command line loads no test-only or slow dependency."""

import os
import pkgutil
import subprocess
import sys

import pytest

import helfrich

MODULES = ["helfrich", *(f"helfrich.{m.name}" for m in pkgutil.iter_modules(helfrich.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    """``from module import *`` fails on a name ``__all__`` still lists after
    its definition was removed."""
    exec(f"from {module} import *", {})


def test_cli_import_loads_neither_scipy_nor_numpy_polynomial():
    """scipy serves the tests only, and numpy.polynomial is not imported by
    numpy itself: either would add start-up time and memory to every
    command."""
    code = ("import sys, helfrich.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))")
    src = os.path.dirname(os.path.dirname(helfrich.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.strip() == "[]"
