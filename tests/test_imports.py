"""Every module-level import of the package is read somewhere in its module, every
public name it defines is read by the package, its demos or its benchmark, and
only `corpus.py` builds a corpus with `CitationCorpus.__new__` and `_fill`."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "idtree"


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


def _reads(tree: ast.AST) -> set[str]:
    """Names `tree` reads: as a name, as an attribute, or as a string, as `getattr` looks one up."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unread_public_names(source: str, others: list[str]) -> list[str]:
    """Public module-level functions, classes and constants of `source` that neither
    `source`, outside their own definition, nor any of `others` reads."""
    defined, read = set(), set().union(*map(_reads, map(ast.parse, others)))
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            own = {node.name}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            own = {t.id for t in targets if isinstance(t, ast.Name)}
        else:
            own = set()
        defined.update(name for name in own if not name.startswith("_"))
        read.update(_reads(node) - own)
    return sorted(defined - read)


# what the package's commands, demos and benchmark run; not `__init__.py`, whose re-exports are no reads
_READERS = sorted({*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")}
                  - {SRC / "__init__.py"})


@pytest.mark.parametrize("path", [p for p in _READERS if p.parent == SRC], ids=lambda path: path.name)
def test_every_public_name_is_read(path):
    others = [p.read_text(encoding="utf-8") for p in _READERS if p != path]
    assert unread_public_names(path.read_text(encoding="utf-8"), others) == []


def test_unread_public_names_finds_what_only_its_definition_reads():
    source = ("import os\nLIMIT = 3\nSIZE: int = LIMIT\n_private = 1\n\ndef walk(n):\n    return walk(n - 1)\n\n"
              "def used():\n    pass\n\nclass Box:\n    pass\n\ndef looked_up():\n    pass\n")
    others = ["from m import used\nused()\n", "import m\nm.Box()\n", "getattr(m, 'looked_up')\n"]
    assert unread_public_names(source, others) == ["SIZE", "walk"]
    assert unread_public_names(source, []) == ["Box", "SIZE", "looked_up", "used", "walk"]


def private_corpus_builds(source: str) -> list[str]:
    """Each line of `source` that names `_fill` or calls `CitationCorpus.__new__`, with what it does."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if "_fill" in (getattr(node, key, None) for key in ("id", "attr", "name")):   # a name, attribute or import
            found.add((node.lineno, "_fill"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__"
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "CitationCorpus"):
            found.add((node.lineno, "CitationCorpus.__new__"))
    return [f"{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "corpus.py"), ids=lambda path: path.name)
def test_only_corpus_builds_from_arrays(path):
    # every other module goes through CitationCorpus(records, edges) or CitationCorpus._from_arrays
    assert private_corpus_builds(path.read_text(encoding="utf-8")) == []


def test_private_corpus_builds_finds_each_spelling():
    source = ("c = CitationCorpus.__new__(CitationCorpus)\nc._fill(1)\nfrom .corpus import _fill as f\n"
              "fill = _fill\nok = CitationCorpus._from_arrays(1)\n'_fill'\n")
    assert private_corpus_builds(source) == ["1: CitationCorpus.__new__", "2: _fill", "3: _fill", "4: _fill"]
