"""Static checks of the package source: every module-level import is used,
no function imports a module of the package, and the package keeps one
eigensolver path (dense solves of symmetry blocks, no ARPACK)."""

import ast
import re
from pathlib import Path

import pytest

import indexbound

SOURCES = sorted(Path(indexbound.__file__).parent.glob("*.py"))


def unused_imports(source):
    """Names bound by the module-level imports of `source` that the module
    never reads."""
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def function_package_imports(source):
    """Line numbers of the relative imports, those of a package module, made
    inside a function body of `source`."""
    tree = ast.parse(source)
    return sorted({
        node.lineno
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    })


def test_unused_import_is_found():
    source = "import os\nimport sys\nfrom math import pi, tau\n\nprint(sys.argv, pi)\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_function_package_import_is_found():
    source = (
        "from .ambient import make_ambient\n"
        "def f():\n    from scipy.optimize import brentq\n"
        "def g():\n    def h():\n        from .hodge import combine\n"
    )
    assert function_package_imports(source) == [6]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_function_level_package_imports(path):
    assert function_package_imports(path.read_text()) == []


def iterative_eigensolver_lines(source):
    """Line numbers of `source` that name scipy's ARPACK wrapper eigsh or
    ARPACK itself."""
    return [i for i, line in enumerate(source.splitlines(), 1)
            if re.search(r"eigsh|arpack", line, re.IGNORECASE)]


def test_iterative_eigensolver_is_found():
    source = "import numpy as np\nfrom scipy.sparse.linalg import eigsh\n"
    assert iterative_eigensolver_lines(source) == [2]
    assert iterative_eigensolver_lines("except spla.ArpackNoConvergence:\n") == [1]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_iterative_eigensolver(path):
    assert iterative_eigensolver_lines(path.read_text()) == []
