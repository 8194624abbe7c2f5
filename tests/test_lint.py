"""A stand-in for a linter's import and dead-code checks over the package source.

Each module of ``src/gapcg`` must use every name it imports
(``__init__.py``, which only loads the modules, and a line marked
``# noqa: F401`` are exempt), and may import only the standard library,
numpy, which is the one runtime dependency, and the package itself. Every private name (one that starts
with ``_`` and is not a dunder) that the package defines must be read
somewhere in it: a module-level name, a method defined in a class body and
an attribute assigned to ``self``. Every public function, class, method
and module-level assigned name that a module defines must have a
production reader: a module of the package other than ``__init__.py``, or
the benchmark's ``perfbench/`` modules. A name that a reader defines or
imports itself, or reads off an imported module, counts for that module's
name alone. Every attribute that the package assigns outside an ``__init__``
or ``__post_init__`` (``obj.name = ...``, augmented assignments included)
must be loaded in the package or the benchmark's modules, and a load in the
value assigned to that same attribute does not count. Tests do not count,
so code that only tests call, and state that only tests read, cannot settle
in ``src/``.
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


def top_level_names(tree) -> list[str]:
    """The functions, classes and assigned names at the top level of the module ``tree``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        names.extend(name.id for target in assign_targets(node)
                     for name in ast.walk(target) if isinstance(name, ast.Name))
    return names


def unread_private_names(sources: list[str]) -> list[str]:
    """The private module-level names, methods and ``self`` attributes that
    the ``sources`` define and none of them reads."""
    defined, read = set(), set()
    for tree in map(ast.parse, sources):
        defined.update(top_level_names(tree))
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


def stored_attributes(node) -> set[str]:
    """The attribute names that the assignment statement ``node`` assigns."""
    return {attr.attr for target in assign_targets(node) for attr in ast.walk(target)
            if isinstance(attr, ast.Attribute) and isinstance(attr.ctx, ast.Store)}


def unread_assigned_attributes(sources: list[str], readers: list[str]) -> list[str]:
    """The attribute names that the ``sources`` assign outside an ``__init__``
    or ``__post_init__`` and none of the ``readers`` loads, leaving out the
    loads in the value assigned to an attribute of the same name."""
    assigned, loaded = set(), set()

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        if function not in ("__init__", "__post_init__"):
            assigned.update(stored_attributes(node))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    for source in sources:
        visit(ast.parse(source), None)
    for tree in map(ast.parse, readers):
        own = set()  # the loads that only feed their own attribute's update
        for node in ast.walk(tree):
            names = stored_attributes(node)
            if names and node.value is not None:
                own.update(attr for attr in ast.walk(node.value)
                           if isinstance(attr, ast.Attribute) and attr.attr in names)
        loaded.update(node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                      and node not in own)
    return sorted(assigned - loaded)


def public_definitions(source: str) -> list[str]:
    """The public functions, classes and assigned names at the top level of
    ``source`` and the public methods of its classes."""
    tree = ast.parse(source)
    names = top_level_names(tree)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names.extend(item.name for item in node.body if isinstance(item, ast.FunctionDef))
    return [name for name in names if not name.startswith("_")]


def read_names(source: str, module: str) -> set[str]:
    """What ``source``, the module named ``module``, reads: ``m.name`` for a
    name that it imports from the module ``m``, reads as an attribute of the
    module ``m`` imported whole, or defines itself (``m`` is ``module``) and
    loads; the bare name for any other load and attribute; and every string
    constant, which is how the benchmark's tracer names its targets."""
    tree = ast.parse(source)
    own = set(top_level_names(tree))
    modules, imported, read = {}, set(), set()  # modules: local name -> module
    for node in imports(tree):
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if isinstance(node, ast.Import) or node.module in (None, "gapcg"):
                modules[local] = alias.name.split(".")[-1] if alias.asname else local
            else:
                imported.add(local)
                read.add(f"{node.module.split('.')[-1]}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in own:
                read.add(f"{module}.{node.id}")
            elif node.id not in imported:
                read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            in_module = isinstance(owner, ast.Name) and owner.id in modules
            read.add(f"{modules[owner.id]}.{node.attr}" if in_module else node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def unread_public_names(defining: dict[str, str], readers: dict[str, str]) -> list[str]:
    """The public names that the ``defining`` sources, by module name, define
    and none of the ``readers`` reads: a module-level name must be read
    from its own module, or by a bare name or string whose owner is unknown."""
    read = set().union(*(read_names(source, module) for module, source in readers.items()))
    return sorted({name for module, source in defining.items()
                   for name in public_definitions(source)
                   if name not in read and f"{module}.{name}" not in read})


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
                "    def _private(self):\n        pass\n"
                "TABLE, LEFT_BEHIND = {}, {}\n_HIDDEN: int = 0\n")
    # the second reader's own LEFT_BEHIND does not read m's
    readers = {"r": "from .m import imported\nloaded()\nBox().method()\n",
               "s": "from . import m\nLEFT_BEHIND = m.TABLE\nprint(LEFT_BEHIND)\n",
               "t": "TARGETS = ['traced']\n"}
    assert unread_public_names({"m": defining}, readers) == ["LEFT_BEHIND", "tested",
                                                             "unread_method"]
    assert unread_public_names({"m": defining}, {"m": defining}) == sorted(
        public_definitions(defining))
    state = ("class Run:\n    def __init__(self):\n        self.set_once = 0\n"
             "    def step(self, report):\n"
             "        report.best = max(report.best, 1)\n        report.count += 1\n"
             "        self.total, report.traced = 2, 3\n        return self.total\n")
    # best feeds only its own update, and set_once is assigned in __init__ alone
    assert unread_assigned_attributes([state], [state]) == ["best", "count", "traced"]
    assert unread_assigned_attributes([state], [state, "print(run.traced)\n"]) == [
        "best", "count"]


@pytest.mark.parametrize("path", SOLVER_MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_name_is_read():
    assert unread_private_names([p.read_text(encoding="utf-8") for p in MODULES]) == []


def test_every_public_name_has_a_production_reader():
    sources = {p.stem if p.parent == SRC else f"perfbench.{p.stem}": p.read_text(encoding="utf-8")
               for p in SOLVER_MODULES + BENCHMARK_MODULES}
    defining = {p.stem: sources[p.stem] for p in SOLVER_MODULES}
    assert unread_public_names(defining, sources) == []


def test_every_assigned_attribute_has_a_production_reader():
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    benchmark = [p.read_text(encoding="utf-8") for p in BENCHMARK_MODULES]
    assert unread_assigned_attributes(sources, sources + benchmark) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_numpy_and_the_package(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
