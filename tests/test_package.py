"""The package's module surface: every name an ``__all__`` lists exists."""

import pkgutil

import pytest

import helfrich

MODULES = ["helfrich", *(f"helfrich.{m.name}" for m in pkgutil.iter_modules(helfrich.__path__))]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    """``from module import *`` fails on a name ``__all__`` still lists after
    its definition was removed."""
    exec(f"from {module} import *", {})
