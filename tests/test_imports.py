"""Every module-level import of the package is read somewhere in its module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "idtree"


def unused_imports(source: str) -> list[str]:
    """Names that `source` imports at module level and never reads; names in `__all__` count as read."""
    module = ast.parse(source)
    imported = set()
    for node in module.body:
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names if alias.name != "*")
    read = {node.id for node in ast.walk(module) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in module.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_finds_what_is_never_read():
    source = "import math\nimport os.path\nfrom json import dumps as d, loads\n__all__ = ['loads']\nos.sep\nd(1)\n"
    assert unused_imports(source) == ["math"]
    assert unused_imports("from __future__ import annotations\nimport math as m\nm.pi\n") == []
