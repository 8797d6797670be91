"""Every module of the package uses each name it imports, the package
reads each private name a module defines at its top level, and some call
passes each defaulted parameter of a private function. The CLI reads no
private name of another module, and importing it loads no thread pool.
The number rules for Python values live in ``levels`` alone, the batch
settle's row order in ``_kernel`` alone, and the event path and the gate
tables name no numpy.

No linter ships with the package's test requirements, so this walks each
module's syntax tree with the standard library's ``ast``. ``__init__.py``
only re-exports, and elsewhere ``from m import name as name`` marks a
deliberate re-export, as linters read it."""

import ast
import subprocess
import sys
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


def unpassed_defaults(sources: dict) -> list[str]:
    """The ``module:function(parameter)`` of each defaulted parameter of a
    private function, or of a method of a private class, that no call in
    ``sources`` (module name -> source) passes, by name or by position,
    sorted. A call is matched by the function's name (a method's by its
    own, ``__init__``'s by its class's); a method's first parameter is the
    object it is called on, and ``*args`` or ``**kwargs`` at a call passes
    every parameter of its kind."""
    defaults, calls = [], []  # defaults: (label, called as, parameter, position or None)
    for module, source in sources.items():
        tree = ast.parse(source)
        funcs = [(node.name, node.name, node, 0) for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name.startswith("_")]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name.startswith("_"):
                funcs += [(f"{cls.name}.{node.name}",
                           cls.name if node.name == "__init__" else node.name, node, 1)
                          for node in cls.body if isinstance(node, ast.FunctionDef)]
        for qualname, called_as, node, skip in funcs:
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            defaults += [(f"{module}:{qualname}({arg.arg})", called_as, arg.arg, k - skip)
                         for k, arg in enumerate(positional) if k >= first]
            defaults += [(f"{module}:{qualname}({arg.arg})", called_as, arg.arg, None)
                         for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def passes(call, called_as, param, position) -> bool:
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name != called_as:
            return False
        return any(k.arg in (param, None) for k in call.keywords) or position is not None and (
            len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))

    return sorted(label for label, *how in defaults if not any(passes(c, *how) for c in calls))


def test_the_check_finds_a_default_no_call_passes():
    sources = {
        "a": "def _f(x, y=1, z=2, *, w=3):\n    pass\nclass _C:\n"
             "    def __init__(self, n=0):\n        pass\n"
             "    def m(self, p=1, q=2):\n        pass\n"
             "def _g(u=1):\n    pass\ndef public(v=1):\n    pass\n",
        "b": "from .a import _f, _g, _C\n_f(0, 1, w=4)\n_C(n=1).m(1)\n_g(**{})\n",
    }
    assert unpassed_defaults(sources) == ["a:_C.m(q)", "a:_f(z)"]


def test_every_default_of_a_private_function_is_passed_somewhere():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unpassed_defaults(sources) == []


def private_reads(source: str) -> list[str]:
    """The private names (``_x``, not ``__x__``) ``source`` takes from a
    package module, sorted: an imported name, a module on an import's path
    or an attribute read from a module it imports from the package."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    tree = ast.parse(source)
    found, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("mvadder")):
            found |= {p for p in (node.module or "").split(".") if private(p)}
            found |= {a.name for a in node.names if private(a.name)}
            modules |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("mvadder"):
                    found |= {p for p in a.name.split(".") if private(p)}
                    modules.add(a.asname or a.name.partition(".")[0])
    found |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name) and node.value.id in modules
              and private(node.attr)}
    return sorted(found)


def test_the_check_finds_a_private_name_taken_from_the_package():
    source = ("import numpy as np\nimport mvadder._kernel\nfrom . import report as r, verify\n"
              "from .engine import Trace, _step_delays\nfrom .gates import __all__\n"
              "from mvadder.verify import _adder_ports\nr._cells, verify.adder_mismatches\n"
              "np._core, r.__doc__\n")
    assert private_reads(source) == ["_adder_ports", "_cells", "_kernel", "_step_delays"]


def test_the_cli_reads_no_private_name_of_another_module():
    """The CLI runs the package through its public checks, as a caller would."""
    assert private_reads((PACKAGE / "cli.py").read_text()) == []


#: The batch settle's row order and what reads it by rows: ``_kernel``'s alone.
SETTLE_ORDER = {"settle_rows", "settle_row", "settle_plan", "settle_init", "_settle"}


def settle_order_names(source: str) -> list[str]:
    """The names of :data:`SETTLE_ORDER` that ``source`` reads, binds or
    imports, sorted."""
    names = {getattr(n, a, None) for n in ast.walk(ast.parse(source))
             for a in ("id", "attr", "name", "asname", "arg")}
    return sorted(SETTLE_ORDER & names)


def test_the_check_finds_a_name_of_the_settle_order():
    source = ("from ._kernel import settle_rows as go\nrow = comp.settle_row[nets]\n"
              "def _settle(settle_init):\n    pass\nn_settle = x._settle_ports, 'settle_plan'\n")
    assert settle_order_names(source) == ["_settle", "settle_init", "settle_row", "settle_rows"]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "_kernel.py"))
def test_only_the_kernel_names_the_settle_order(path):
    """Callers settle by nets through ``_kernel.settle_batch``; the order of
    the rows it settles is the kernel's own."""
    assert settle_order_names((PACKAGE / path).read_text()) == []


#: Unbounded caches over a small fixed set of inputs: one entry per gate kind.
BOUNDLESS_CACHE_OK = {"gates:_kind_table"}


def unbounded_caches(sources: dict) -> list[str]:
    """The ``module:function`` of each function of ``sources`` (module name
    -> source) that takes parameters and has an ``lru_cache`` decorator with
    ``maxsize=None``, or a ``cache`` decorator, sorted. A bare ``lru_cache``
    keeps its default bound of 128."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            if not (a.posonlyargs or a.args or a.kwonlyargs or a.vararg or a.kwarg):
                continue  # one result for the process's life
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else ast.Call(dec, [], [])
                func = call.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                size = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
                if name == "cache" or name == "lru_cache" and any(
                        isinstance(v, ast.Constant) and v.value is None for v in size):
                    found.append(f"{module}:{node.name}")
    return sorted(found)


def test_the_check_finds_an_unbounded_cache():
    sources = {
        "a": "from functools import cache, lru_cache\nimport functools\n"
             "@lru_cache(maxsize=None)\ndef _f(x):\n    pass\n"
             "@functools.lru_cache(None)\ndef g(x):\n    pass\n"
             "@cache\ndef h(*x):\n    pass\n"
             "@lru_cache(maxsize=None)\ndef tables():\n    pass\n"
             "@lru_cache\ndef small(x):\n    pass\n"
             "@lru_cache(maxsize=64, typed=True)\ndef typed(x):\n    pass\n",
    }
    assert unbounded_caches(sources) == ["a:_f", "a:g", "a:h"]


def test_every_cache_over_open_ended_inputs_is_bounded():
    """A cache shared across calls holds its arguments and results for the
    life of the process, so one whose inputs callers choose needs a bound."""
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert sorted(set(unbounded_caches(sources)) - BOUNDLESS_CACHE_OK) == []
    assert BOUNDLESS_CACHE_OK <= set(unbounded_caches(sources))  # no stale exemption


def number_rules(source: str) -> list[str]:
    """Each ``operator.index``, ``numbers`` name or ``isinstance(..., bool)``
    of ``source``, as written, sorted: the pieces of a rule for whole or
    real Python numbers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                node.value.id == "numbers" or (node.value.id, node.attr) == ("operator", "index")):
            found.append(ast.unparse(node))
        elif isinstance(node, ast.ImportFrom) and (node.module == "numbers" or (
                node.module == "operator" and any(a.name == "index" for a in node.names))):
            found.append(ast.unparse(node))
        elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
              and len(node.args) == 2 and any(isinstance(n, ast.Name) and n.id == "bool"
                                              for n in ast.walk(node.args[1]))):
            found.append(ast.unparse(node))
    return sorted(found)


def test_the_check_finds_a_number_rule():
    source = ("import numbers, operator\nfrom operator import index, itemgetter\n"
              "from numbers import Real\nx = operator.index(1), operator.itemgetter(0)\n"
              "y = isinstance(x, (int, bool)), isinstance(x, numbers.Real), isinstance(x, int)\n")
    assert number_rules(source) == [
        "from numbers import Real", "from operator import index, itemgetter",
        "isinstance(x, (int, bool))", "numbers.Real", "operator.index"]


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")
                                        if p.name != "levels.py"))
def test_only_levels_holds_a_number_rule(path):
    """Whole and real Python numbers are checked by ``levels.whole`` and
    ``levels.is_finite`` alone, so every boundary takes or refuses a bool,
    a string or a numpy number alike."""
    assert number_rules((PACKAGE / path).read_text()) == []


def numpy_names(source: str, qualname: str) -> list[int]:
    """The lines on which function ``qualname`` of ``source`` (``f`` or
    ``Class.method``) names ``np`` or ``numpy``, sorted."""
    node = ast.parse(source)
    for part in qualname.split("."):
        node = next(n for n in node.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                    and n.name == part)
    return sorted(n.lineno for n in ast.walk(node)
                  if isinstance(n, ast.Name) and n.id in ("np", "numpy"))


def test_the_check_finds_numpy_in_a_function():
    source = ("import numpy as np\nclass C:\n    def __init__(self, xs):\n"
              "        self.a = np.array(xs)\n    def size(self):\n        return len(self.a)\n"
              "def f(xs):\n    return list(xs)\ndef g(xs) -> np.ndarray:\n    pass\n")
    assert numpy_names(source, "C.__init__") == [4]
    assert numpy_names(source, "C.size") == numpy_names(source, "f") == []
    assert numpy_names(source, "g") == [9]


@pytest.mark.parametrize("module, qualname", [("_kernel", "CompiledCircuit.__init__"),
                                              ("_kernel", "_run_single"),
                                              ("engine", "simulate")])
def test_the_event_path_keeps_lists(module, qualname):
    """Compiling, the event loop and the trace it fills keep one form of
    each fact, the lists the event loop reads: numpy is for the batch
    settle, the energy sums and the trace's ``times``, built on first read."""
    assert numpy_names((PACKAGE / f"{module}.py").read_text(), qualname) == []


def module_numpy_names(source: str) -> list[int]:
    """The lines on which ``source`` names ``np`` or ``numpy`` anywhere: a
    name read, or an import of numpy or binding either name, sorted."""
    lines = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Import):
            names = [a.name.partition(".")[0] for a in n.names] + [a.asname for a in n.names]
        elif isinstance(n, ast.ImportFrom):
            names = [(n.module or "").partition(".")[0]] + [a.asname or a.name for a in n.names]
        else:
            names = [getattr(n, "id", None)]
        if {"np", "numpy"} & set(names):
            lines.add(n.lineno)
    return sorted(lines)


def test_the_check_finds_numpy_anywhere_in_a_module():
    source = ("import numpy as np\nfrom numpy import array\nimport os\nx = os.path\n"
              "def f():\n    import numpy.linalg\n    return np\n"
              "y = numpy\nz = 'numpy'\nfrom .levels import whole as np\n")
    assert module_numpy_names(source) == [1, 2, 6, 7, 8, 10]
    assert module_numpy_names("import os\nx = os.path.join('numpy', 'np')\n") == []


def test_the_gate_tables_hold_no_array():
    """``gates`` tabulates each kind as tuples, read as they are by the event
    loop; only the batch settle builds arrays from them."""
    assert module_numpy_names((PACKAGE / "gates.py").read_text()) == []


def test_importing_the_cli_leaves_the_thread_pool_unloaded():
    """``report`` imports ``concurrent.futures`` only for ``compare(threads > 1)``."""
    code = "import sys, mvadder.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
