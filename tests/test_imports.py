"""Every name a ``src/udmrg`` module imports is used in that module.

No linter ships with the package, so this walks each module's syntax tree
the way pyflakes' unused-import check does.  An import inside a function
must be used in that function; a module-level one anywhere in the module.
``__init__.py`` is skipped (its imports are the package's re-exports), as
are ``from __future__`` imports and any import line marked
``# noqa: F401``.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "udmrg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _imports(node: ast.AST, scope: ast.AST):
    """``(scope, import statement)`` for every import below ``node``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield scope, child
        yield from _imports(child, child if isinstance(child, _FUNCTIONS) else scope)


def unused_imports(source: str) -> list[str]:
    """``"line: name"`` for each imported name its scope never reads."""
    lines = source.splitlines()
    tree = ast.parse(source)
    unused = []
    for scope, stmt in _imports(tree, tree):
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if "# noqa: F401" in lines[stmt.lineno - 1]:
            continue
        used = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
        for alias in stmt.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used:
                unused.append(f"{stmt.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_names_in_every_scope():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Optional, Sequence\n"
        "from .linalg import dag  # noqa: F401\n"
        "def f(x: Sequence):\n"
        "    from .mps import canonicalize, to_dense\n"
        "    return np.asarray(x), to_dense\n"
        "def g():\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["4: Optional", "7: canonicalize"]
