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
