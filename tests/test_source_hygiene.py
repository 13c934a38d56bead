"""Static checks on the package source, with the stdlib `ast` module only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "photonam"


def unused_imports(source: str) -> list[str]:
    """Each name an import binds that the module never reads; the strings of
    `__all__` count as read."""
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [f"{name} (line {node.lineno})" for name in names if name not in used]
    return unused


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def private_definitions(source: str) -> list[tuple[str, int]]:
    """Each `_`-prefixed name a module binds at its top level (function,
    class or assignment), and each private method of its classes, with its
    line; dunder names are not private."""
    tree = ast.parse(source)
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [
                (name.id, node.lineno)
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name)
            ]
        if isinstance(node, ast.ClassDef):
            found += [
                (item.name, item.lineno)
                for item in node.body
                if isinstance(item, ast.FunctionDef)
            ]
    return [(n, line) for n, line in found if n.startswith("_") and not n.endswith("__")]


def names_read(source: str) -> set[str]:
    """Every name a module loads, every attribute it reads and every name it
    imports."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
    return read


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Each private name or method of the modules that none of them reads."""
    read = set().union(*map(names_read, sources.values()))
    return [
        f"{module}: {name} (line {line})"
        for module, source in sorted(sources.items())
        for name, line in private_definitions(source)
        if name not in read
    ]


def test_no_dead_private_name():
    # reads from the tests do not count: a helper only a test calls is dead code
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []


def test_dead_private_name_is_caught():
    sources = {
        "a.py": (
            "_CAP = 3\n"
            "_UNUSED, _PAIR = 1, 2\n"
            "def _helper(x):\n"
            "    return x + _CAP\n"
            "def _orphan():\n"
            "    return _PAIR\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self._seen = _helper(1)\n"
            "    def _check(self):\n"
            "        return self._seen\n"
            "    def _stale(self):\n"
            "        return None\n"
        ),
        "b.py": "from .a import Box\ndef use(box: Box):\n    return box._check()\n",
    }
    assert dead_private_names(sources) == [
        "a.py: _UNUSED (line 2)",
        "a.py: _orphan (line 5)",
        "a.py: _stale (line 12)",
    ]


def unread_public_names(sources: dict[str, str]) -> list[str]:
    """Each public top-level function or class of the modules that none of
    them reads."""
    read = set().union(*map(names_read, sources.values()))
    return [
        f"{module}: {node.name} (line {node.lineno})"
        for module, source in sorted(sources.items())
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]


def test_no_unread_public_name():
    # as for private names, a function only a test calls is dead code
    sources = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unread_public_names(sources) == []


def test_unread_public_name_is_caught():
    sources = {
        "a.py": (
            "LIMIT = 3\n"
            "def used(x):\n"
            "    return x + LIMIT\n"
            "def dead():\n"
            "    return used(1)\n"
            "class Box:\n"
            "    def method(self):\n"
            "        return None\n"
            "class Stale:\n"
            "    pass\n"
            "def _private():\n"
            "    return None\n"
        ),
        "b.py": "from .a import Box\n",
    }
    assert unread_public_names(sources) == ["a.py: dead (line 4)", "a.py: Stale (line 9)"]


def test_unused_import_is_caught():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .fock import DEFAULT_DIM_CAP, FockSpace, max_abs\n"
        "from .errors import DimensionCapExceeded\n"
        "__all__ = ['max_abs']\n"
        "def f(fs: FockSpace):\n"
        "    return np.zeros(fs.dim)\n"
    )
    assert unused_imports(source) == ["DEFAULT_DIM_CAP (line 3)", "DimensionCapExceeded (line 4)"]
