"""A stand-in for a linter's import and dead-code checks over the package source.

Each module of ``src/gapcg`` must use every name it imports
(``__init__.py``, which only loads the modules, and a line marked
``# noqa: F401`` are exempt), and may import only the standard library,
numpy, which is the one runtime dependency, and the package itself. Every private name (one that starts
with ``_`` and is not a dunder) that the package defines must be read
somewhere in it: a module-level name, a method defined in a class body and
an attribute assigned to ``self``. Every public function, class and method
that a module defines must have a production reader: a module of the
package other than ``__init__.py``, or the benchmark's ``perfbench/``
modules. Tests do not count, so code that only tests call cannot settle in
``src/``.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gapcg"
MODULES = sorted(SRC.glob("*.py"))
SOLVER_MODULES = [p for p in MODULES if p.name != "__init__.py"]
BENCHMARK_MODULES = [p for p in sorted((ROOT / "perfbench").glob("*.py"))
                     if not p.name.startswith("test_")]
ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"numpy", "gapcg"}


def imports(tree):
    """The module's import statements, ``from __future__`` ones left out."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"]


def unused_imports(source: str) -> list[str]:
    """The names that ``source`` imports and never reads, ``# noqa: F401`` lines apart."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in imports(tree):
        if any("# noqa: F401" in line for line in lines[node.lineno - 1: node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in used:
                unused.append(bound)
    return unused


def foreign_imports(source: str) -> list[str]:
    """The absolute imports of ``source`` outside ``ALLOWED_TOP_LEVEL``."""
    modules = []
    for node in imports(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules.extend(alias.name for alias in node.names)
        elif node.level == 0:  # a relative import is the package itself
            modules.append(node.module)
    return [name for name in modules if name.split(".")[0] not in ALLOWED_TOP_LEVEL]


def assign_targets(node) -> list:
    """The target expressions of an assignment statement, or none for another node."""
    if isinstance(node, ast.Assign):
        return node.targets
    return [node.target] if isinstance(node, (ast.AnnAssign, ast.AugAssign)) else []


def unread_private_names(sources: list[str]) -> list[str]:
    """The private module-level names, methods and ``self`` attributes that
    the ``sources`` define and none of them reads."""
    defined, read = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            defined.update(name.id for target in assign_targets(node)
                           for name in ast.walk(target) if isinstance(name, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                defined.update(item.name for item in node.body
                               if isinstance(item, ast.FunctionDef))
            defined.update(attr.attr for target in assign_targets(node)
                           for attr in ast.walk(target)
                           if isinstance(attr, ast.Attribute)
                           and isinstance(attr.value, ast.Name) and attr.value.id == "self")
        read.update(node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.Attribute))
                    and isinstance(node.ctx, ast.Load))
    return sorted(name for name in defined - read
                  if name.startswith("_") and not (name.startswith("__") and name.endswith("__")))


def public_definitions(source: str) -> list[str]:
    """The public functions and classes at the top level of ``source`` and
    the public methods of its classes."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names.extend(item.name for item in node.body if isinstance(item, ast.FunctionDef))
    return [name for name in names if not name.startswith("_")]


def read_names(source: str) -> set[str]:
    """Every name that ``source`` loads or imports by name, and every string
    constant in it, which is how the benchmark's tracer names its targets."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def unread_public_names(defining: list[str], readers: list[str]) -> list[str]:
    """The public names that the ``defining`` sources define and none of the ``readers`` reads."""
    read = set().union(*map(read_names, readers))
    return sorted({name for source in defining for name in public_definitions(source)} - read)


def test_the_checks_see_what_they_look_for():
    source = ("from __future__ import annotations\n"
              "import os, sys\nimport scipy.sparse\nfrom .knapsack import a, b  # noqa: F401\n"
              "from numpy import array as arr\nfrom . import rmp\nprint(sys.argv, rmp)\n"
              "def _unread():\n    pass\n_READ, __version__ = 1, '0'\n"
              "class Box:\n    def __init__(self):\n        self._kept, self._lost = 1, 2\n"
              "    def _unread_method(self):\n        return self._kept\n")
    assert unused_imports(source) == ["os", "scipy", "arr"]
    assert foreign_imports(source) == ["scipy.sparse"]
    assert unread_private_names([source, "print(_READ)\n"]) == [
        "_lost", "_unread", "_unread_method"]
    defining = ("def loaded():\n    pass\ndef imported():\n    pass\n"
                "def traced():\n    pass\ndef tested():\n    pass\n"
                "class Box:\n    def method(self):\n        pass\n"
                "    def unread_method(self):\n        pass\n"
                "    def _private(self):\n        pass\n")
    readers = ["from .m import imported\nloaded()\nBox().method()\n", "TARGETS = ['traced']\n"]
    assert unread_public_names([defining], readers) == ["tested", "unread_method"]
    assert unread_public_names([defining], [defining]) == sorted(public_definitions(defining))


@pytest.mark.parametrize("path", SOLVER_MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_name_is_read():
    assert unread_private_names([p.read_text(encoding="utf-8") for p in MODULES]) == []


def test_every_public_name_has_a_production_reader():
    sources = {p: p.read_text(encoding="utf-8") for p in SOLVER_MODULES + BENCHMARK_MODULES}
    assert unread_public_names([sources[p] for p in SOLVER_MODULES], list(sources.values())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_numpy_and_the_package(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
