"""A stand-in for a linter's import checks over the package source.

Each module of ``src/gapcg`` must use every name it imports (a re-export in
``__init__.py`` and a line marked ``# noqa: F401`` are exempt), and may
import only the standard library, numpy, which is the one runtime
dependency, and the package itself.
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


def test_the_checks_see_what_they_look_for():
    source = ("from __future__ import annotations\n"
              "import os, sys\nimport scipy.sparse\nfrom .knapsack import a, b  # noqa: F401\n"
              "from numpy import array as arr\nfrom . import rmp\nprint(sys.argv, rmp)\n")
    assert unused_imports(source) == ["os", "scipy", "arr"]
    assert foreign_imports(source) == ["scipy.sparse"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_the_standard_library_numpy_and_the_package(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
