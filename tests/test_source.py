"""Static checks of the package source: every module-level import is used,
no function imports a module of the package, the package keeps one
eigensolver path (dense solves of symmetry blocks, no ARPACK), and no public
package function is reached only from the tests."""

import ast
import re
from pathlib import Path

import pytest

import indexbound

SOURCES = sorted(Path(indexbound.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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


def entry_points(pyproject):
    """Function names of the [project.scripts] entry points of the text of a
    pyproject.toml."""
    section = pyproject.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r":(\w+)\"", section))


def public_functions(source):
    """Names of the public module-level functions and class methods of
    `source`."""
    members = [m for node in ast.parse(source).body
               for m in (node.body if isinstance(node, ast.ClassDef) else [node])]
    return {m.name for m in members
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not m.name.startswith("_")}


def read_names(source):
    """Every name `source` reads, bare or as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({n.id for n in nodes if isinstance(n, ast.Name)}
            | {n.attr for n in nodes if isinstance(n, ast.Attribute)})


def reached_only_from_tests(package, tests, allowed):
    """Public functions of the `package` sources, outside `allowed`, whose
    names no package source reads and some of the `tests` sources do."""
    defined = set().union(*map(public_functions, package))
    in_package = set().union(*map(read_names, package))
    in_tests = set().union(*map(read_names, tests))
    return sorted((defined - in_package - allowed) & in_tests)


def test_test_only_function_is_found():
    package = [
        "def used():\n    pass\ndef tested():\n    pass\n"
        "def main():\n    used()\n",
        "class A:\n    def probe(self):\n        pass\n"
        "    def _private(self):\n        pass\n    def unread(self):\n        pass\n",
    ]
    tests = ["from pkg import A, main, tested\n"
             "tested()\nA().probe()\nA()._private()\nmain()\n"]
    assert reached_only_from_tests(package, tests, {"main"}) == ["probe", "tested"]
    assert entry_points('[project.scripts]\nx = "pkg.cli:main"\n[tool]\ny = "a:b"\n') == {"main"}


def test_no_function_reached_only_from_tests():
    allowed = entry_points(PYPROJECT.read_text())
    assert allowed == {"main"}
    assert reached_only_from_tests(
        [p.read_text() for p in SOURCES],
        [p.read_text() for p in TESTS], allowed) == []
