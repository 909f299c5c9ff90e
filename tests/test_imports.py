"""Every name a ``src/udmrg`` module imports is used in that module, every
private helper it defines is used somewhere in the package, every private
instance attribute it sets is read somewhere in the package, and every
defaulted parameter of its functions is set by some call in ``src/`` or
``tests/``.

No linter ships with the package, so this walks each module's syntax tree
the way pyflakes' unused-import check does.  An import inside a function
must be used in that function; a module-level one anywhere in the module.
``__init__.py`` is skipped (its imports are the package's re-exports), as
are ``from __future__`` imports and any import line marked
``# noqa: F401``.  A private module-level function or class, or a private
method or any method of a private class, counts as used when any module of
the package reads its name.  A ``self._name`` attribute counts as read
when any module reads the attribute, updates it in place, or spells its
name in a string.  A defaulted parameter counts as set when a call of its
function's name (a class's name for ``__init__``) passes it by keyword, by
position, or through ``*args`` or ``**kwargs``.
"""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "udmrg"
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


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """``"module:line: name"`` for each private module-level function or class,
    and each private method or method of a private class, that no source
    reads by name or attribute."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                private = node.name.startswith("_")
                defined += [(module, n, private and n is not node) for n in [node, *node.body]
                            if isinstance(n, (ast.ClassDef, *_FUNCTIONS))]
            elif isinstance(node, _FUNCTIONS):
                defined.append((module, node, False))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}:{node.lineno}: {node.name}" for module, node, owned in defined
            if (owned or node.name.startswith("_")) and not node.name.endswith("__")
            and node.name not in read]


def unread_private_attributes(sources: dict[str, str]) -> list[str]:
    """``"module:line: name"`` for each private instance attribute, set as
    ``self._name = ...``, that no source reads by attribute or names in a
    string (as ``getattr`` would)."""
    assigned, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                if not isinstance(node.ctx, ast.Store):
                    read.add(node.attr)
                elif (isinstance(node.value, ast.Name) and node.value.id == "self"
                      and node.attr.startswith("_") and not node.attr.endswith("__")):
                    assigned.append((module, node))
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                read.add(node.target.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    return [f"{module}:{node.lineno}: {node.attr}" for module, node in assigned
            if node.attr not in read]


def test_every_private_helper_is_used():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unused_private_names(sources) == []


def test_the_check_sees_unused_private_helpers_in_every_scope():
    source = (
        "from other import _shared\n"
        "def _used():\n"
        "    return _shared\n"
        "def _unused():\n"
        "    return _used()\n"
        "class _Box:\n"
        "    def __init__(self):\n"
        "        self._size = 0\n"
        "    def _read(self):\n"
        "        return self._size\n"
        "    def _spare(self):\n"
        "        return None\n"
        "    def flush(self):\n"
        "        return None\n"
        "class _Empty:\n"
        "    pass\n"
        "class Public:\n"
        "    def unread(self):\n"
        "        return None\n"
        "def public():\n"
        "    return _Box()._read()\n"
    )
    other = "def _shared():\n    return 0\n"
    assert unused_private_names({"m.py": source, "other.py": other}) == [
        "m.py:4: _unused", "m.py:11: _spare", "m.py:13: flush", "m.py:15: _Empty"]


def test_every_private_attribute_is_read():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unread_private_attributes(sources) == []


def test_the_check_sees_private_attributes_that_are_set_and_never_read():
    source = (
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._size = 0\n"
        "        self._count = 0\n"
        "        self._cache = []\n"
        "        self._named = None\n"
        "        self.public = 1\n"
        "    def grow(self):\n"
        "        self._count += 1\n"
        "        self._cache = [1]\n"
        "        return getattr(self, '_named')\n"
        "def size(box):\n"
        "    return box._size\n"
    )
    assert unread_private_attributes({"m.py": source}) == [
        "m.py:5: _cache", "m.py:10: _cache"]


def _callables(tree: ast.AST):
    """``(called name, leading arguments a call does not pass, function)``
    for every function below ``tree``; a method's ``self`` is passed by the
    call's receiver, and ``__init__`` is called by its class's name."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _FUNCTIONS):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    name = node.name if item.name == "__init__" else item.name
                    methods[item] = (name, 0 if static else 1)
    for node in ast.walk(tree):
        if isinstance(node, _FUNCTIONS):
            yield (*methods.get(node, (node.name, 0)), node)


def unset_defaults(definitions: dict[str, str], callers: dict[str, str]) -> list[str]:
    """``"module:line: function(parameter)"`` for each defaulted parameter of a
    function in ``definitions`` that no call in ``callers`` sets."""
    calls = {}
    for source in callers.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = getattr(node.func, "id", None) or node.func.attr
                calls.setdefault(name, []).append(node)
    unset = []
    for module, source in definitions.items():
        for name, offset, fn in _callables(ast.parse(source)):
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(p.arg, i) for i, p in enumerate(positional) if i >= first]
            defaulted += [(p.arg, None) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for param, index in defaulted:
                if not any(any(k.arg in (param, None) for k in call.keywords)
                           or index is not None and (
                               offset + len(call.args) > index
                               or any(isinstance(a, ast.Starred) for a in call.args))
                           for call in calls.get(name, [])):
                    unset.append(f"{module}:{fn.lineno}: {fn.name}({param})")
    return unset


def test_every_defaulted_parameter_has_a_caller():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    callers = {**sources, **{p.name: p.read_text() for p in sorted(TESTS.glob("*.py"))}}
    assert unset_defaults(sources, callers) == []


def test_the_check_sees_defaulted_parameters_that_no_call_sets():
    source = (
        "def by_keyword(a, tol=1.0, scale=2.0):\n"
        "    return a\n"
        "def by_position(a, b=0, c=0, *, flag=False):\n"
        "    return a\n"
        "def spread(a=0, b=0, *, key=None):\n"
        "    return a\n"
        "class Box:\n"
        "    def __init__(self, size=1, name=''):\n"
        "        self.size = size\n"
        "    def grow(self, by=1, limit=None):\n"
        "        return self\n"
        "    @staticmethod\n"
        "    def make(n=1):\n"
        "        return Box(n)\n"
        "def use(box, rest, opts):\n"
        "    by_keyword(1, scale=3.0)\n"
        "    by_position(1, 2)\n"
        "    spread(*rest)\n"
        "    spread(**opts)\n"
        "    box.grow(2)\n"
        "    return Box(2), Box.make()\n"
    )
    assert unset_defaults({"m.py": source}, {"m.py": source}) == [
        "m.py:1: by_keyword(tol)", "m.py:3: by_position(c)", "m.py:3: by_position(flag)",
        "m.py:8: __init__(name)", "m.py:10: grow(limit)", "m.py:13: make(n)"]
