"""Every module of the package uses each name it imports.

No linter ships with the package's test requirements, so this walks each
module's syntax tree with the standard library's ``ast``. ``__init__.py``
only re-exports, and elsewhere ``from m import name as name`` marks a
deliberate re-export, as linters read it."""

import ast
from pathlib import Path

import pytest

import mvadder

PACKAGE = Path(mvadder.__file__).parent


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).partition(".")[0] for a in node.names
                         if a.asname is None or a.asname != a.name}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_the_check_finds_an_unused_import_and_spares_a_re_export():
    source = ("from __future__ import annotations\nimport os, os.path\nimport numpy as np\n"
              "from .levels import DomainError, Level\nfrom .engine import Trace as Trace\n"
              "x: Level = np.zeros(1)\n")
    assert unused_imports(source) == ["DomainError", "os"]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"))
def test_a_module_imports_no_name_it_never_uses(path):
    assert unused_imports((PACKAGE / path).read_text()) == []
