"""Every name an import binds is read somewhere in its module."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = (
    sorted((ROOT / "src" / "tidict").glob("*.py"))
    + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "perfbench").glob("**/*.py"))
)


def unused_imports(source: str) -> list:
    """Names bound by an import in ``source`` and never read, skipping
    ``from __future__`` imports and the names listed in ``__all__``."""
    tree = ast.parse(source)
    bound, read, exported = {}, set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return sorted(
        (line, name) for name, line in bound.items() if name not in read | exported
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(ROOT).as_posix().removeprefix("src/"))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "from json import dumps as d, loads\n"
        "from math import pi\n"
        "__all__ = ['pi']\n"
        "sys.exit(loads('0'))\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "d")]
