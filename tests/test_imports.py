"""Every module of the package uses each name it imports, and the package
reads each private name a module defines at its top level.

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


def unread_private_names(sources: dict) -> list[str]:
    """The ``module:name`` of each private name (``_x``, not ``__x__``) a
    module of ``sources`` (module name -> source) binds at its top level
    and no module reads, sorted. A read is a loaded name, an attribute or
    an imported name."""
    defined, read = set(), set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            else:
                targets = (node.targets if isinstance(node, ast.Assign) else
                           [node.target] if isinstance(node, ast.AnnAssign) else [])
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            defined |= {(module, n) for n in names if n.startswith("_") and not n.endswith("__")}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    return sorted(f"{m}:{name}" for m, name in defined if name not in read)


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a": "import numpy as _np\n_USED, _SPARE = 1, 2\n_TYPED: int = 3\n__all__ = []\n"
             "def _helper():\n    return _np\nclass _Gone:\n    _inner = 4\n",
        "b": "from .a import _helper\nfrom . import a\nx = a._USED + _helper()\n",
    }
    assert unread_private_names(sources) == ["a:_Gone", "a:_SPARE", "a:_TYPED"]


def test_the_package_reads_every_private_name_a_module_defines():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []
