"""The package's module surface: every name an ``__all__`` lists exists,
and importing the command line loads no test-only or slow dependency."""

import ast
import glob
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


def _run_python(code: str, timeout: float = 60, **env: str) -> str:
    """stdout of ``python -c code`` with this package on the path and
    ``env`` added to the environment."""
    src = os.path.dirname(os.path.dirname(helfrich.__file__))
    env = {**os.environ, "PYTHONPATH": src, **env}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=timeout).stdout


def test_cli_import_loads_neither_scipy_nor_numpy_polynomial():
    """scipy serves the tests only, and numpy.polynomial is not imported by
    numpy itself: either would add start-up time and memory to every
    command."""
    code = ("import sys, helfrich.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m.startswith('numpy.polynomial')))")
    assert _run_python(code).strip() == "[]"


def test_import_and_sweep_leave_numpy_unloaded(tmp_path):
    """``import helfrich`` and a whole ``sweep`` run, whose cells reach the
    equator, blow up and fail, never import numpy: the solve path runs on
    Python floats and numpy loads at the first array operation.  This
    holds for the pure-Python kernels: numba, where installed, imports
    numpy itself."""
    code = ("import sys, helfrich\n"
            "print('numpy' in sys.modules)\n"
            "from helfrich import bounds, cli\n"
            "bounds._worker_count = lambda n: 1  # this process solves every cell\n"
            "rc = cli.main(['sweep', '--c0-range=1:1:1', '--lambda-range=0.25:0.25:1',\n"
            "               '--p-range=1:1:1', '--w0p-range=0.05:2:4',\n"
            f"               '--out={tmp_path}'])\n"
            "rc2 = cli.main(['sweep', '--w0p-range=0:0.05:2', '--max-steps=10',\n"
            f"                '--out={tmp_path / 'b'}'])\n"
            "print(rc, rc2, 'numpy' in sys.modules)\n")
    lines = _run_python(code, timeout=120, HELFRICH_JIT="0").splitlines()
    assert (lines[0], lines[-1]) == ("False", "0 0 False")
    verdicts = [row.split(",")[4] for row in
                (tmp_path / "phase.csv").read_text().splitlines()[1:]]
    assert "Biconcave" in verdicts and "BlowUpPositive" in verdicts
    verdicts = [row.split(",")[4] for row in
                (tmp_path / "b" / "phase.csv").read_text().splitlines()[1:]]
    assert verdicts == ["Error:InvalidSlope", "Indeterminate"]


def _eager_numpy_imports(path) -> list[int]:
    """Lines of the imports of numpy in a module that run when it is
    imported: those outside function bodies and ``if TYPE_CHECKING:``."""
    with open(path) as fh:
        todo = list(ast.parse(fh.read()).body)
    lines = []
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            todo.extend(node.orelse)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""])
            if any(n.split(".")[0] == "numpy" for n in names):
                lines.append(node.lineno)
        else:
            todo.extend(ast.iter_child_nodes(node))
    return sorted(lines)


@pytest.mark.parametrize("path", sorted(glob.glob(
    os.path.join(os.path.dirname(helfrich.__file__), "*.py"))), ids=os.path.basename)
def test_no_module_level_numpy_import(path):
    """numpy is imported inside the functions that make arrays, so that a
    module's import never loads it."""
    assert _eager_numpy_imports(path) == []
