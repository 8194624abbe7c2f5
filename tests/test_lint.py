"""A stand-in for a linter's import and dead-code checks over the package source.

Each module of ``src/gapcg`` must use every name it imports (a re-export in
``__init__.py`` and a line marked ``# noqa: F401`` are exempt), and may
import only the standard library, numpy, which is the one runtime
dependency, and the package itself. Every private module-level name (one
that starts with ``_`` and is not a dunder) must be read somewhere in the
package.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gapcg"
MODULES = sorted(SRC.glob("*.py"))
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


def unread_private_names(sources: list[str]) -> list[str]:
    """The private module-level names that the ``sources`` define and none of them reads."""
    defined, read = set(), set()
    for tree in map(ast.parse, sources):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(name.id for target in targets for name in ast.walk(target)
                               if isinstance(name, ast.Name))
        read.update(node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    or isinstance(node, ast.Attribute))
    return sorted(name for name in defined - read
                  if name.startswith("_") and not (name.startswith("__") and name.endswith("__")))


def test_the_checks_see_what_they_look_for():
    source = ("from __future__ import annotations\n"
              "import os, sys\nimport scipy.sparse\nfrom .knapsack import a, b  # noqa: F401\n"
              "from numpy import array as arr\nfrom . import rmp\nprint(sys.argv, rmp)\n"
              "def _unread():\n    pass\n_READ, __version__ = 1, '0'\n")
    assert unused_imports(source) == ["os", "scipy", "arr"]
    assert foreign_imports(source) == ["scipy.sparse"]
    assert unread_private_names([source, "print(_READ)\n"]) == ["_unread"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_every_private_name_is_read():
    assert unread_private_names([p.read_text(encoding="utf-8") for p in MODULES]) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_numpy_and_the_package(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
