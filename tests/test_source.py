"""Static checks of the package source: every module-level import is used."""

import ast
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


def test_unused_import_is_found():
    source = "import os\nimport sys\nfrom math import pi, tau\n\nprint(sys.argv, pi)\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
