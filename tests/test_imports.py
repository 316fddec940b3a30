"""Every module-level import of the package is read somewhere in its module, every
import is of the package itself, numpy or the standard library, every public name
it defines is read by the package, its demos or its benchmark, and so is every
public method and property of its classes, every dataclass field and every public
slot of the corpus outside `corpus.py`; only `corpus.py` builds a corpus with
`CitationCorpus.__new__` and `_fill`, and the command line states no range rule
that the library owns."""

import ast
import sys
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


def foreign_imports(source: str) -> list[str]:
    """Modules that `source` imports anywhere and that are neither relative, numpy
    nor in the standard library, the only dependencies the package declares."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module)
    return sorted(name for name in found
                  if name.partition(".")[0] not in {"numpy", *sys.stdlib_module_names})


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_imports_only_numpy_and_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_foreign_imports_finds_test_only_dependencies():
    source = ("from __future__ import annotations\nimport os.path, scipy.sparse\nimport numpy as np\n"
              "from numpy.lib import stride_tricks\nfrom . import corpus\nfrom .tree import build_idg\n\n"
              "def f():\n    from hypothesis import given\n    import numpyx\n")
    assert foreign_imports(source) == ["hypothesis", "numpyx", "scipy.sparse"]


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


def unread_methods(source: str, others: list[str]) -> list[str]:
    """Public methods and properties of the classes of `source`, as `Class.name`, that
    neither `source`, outside their own definition, nor any of `others` reads."""
    module, read = ast.parse(source), set().union(*map(_reads, map(ast.parse, others)))
    unread = []
    for cls in module.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        outside = read.union(*map(_reads, (n for n in module.body if n is not cls)),
                             *map(_reads, cls.bases + cls.keywords + cls.decorator_list))
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                if node.name not in outside.union(*map(_reads, (n for n in cls.body if n is not node))):
                    unread.append(f"{cls.name}.{node.name}")
    return unread


@pytest.mark.parametrize("path", [p for p in _READERS if p.parent == SRC], ids=lambda path: path.name)
def test_every_public_method_is_read(path):
    # dataclass fields have their own check, `test_every_result_field_is_read`
    others = [p.read_text(encoding="utf-8") for p in _READERS if p != path]
    assert unread_methods(path.read_text(encoding="utf-8"), others) == []


def test_unread_methods_finds_what_only_its_definition_reads():
    source = ("class Box:\n    size: int = 0\n\n    def __len__(self):\n        return self.size\n\n"
              "    @property\n    def area(self):\n        return self.area\n\n"
              "    def fill(self):\n        return self.empty()\n\n    def empty(self):\n        pass\n\n"
              "    def shown(self):\n        pass\n\n\ndef show(box):\n    return box.shown()\n\n\n"
              "class Crate(Box):\n    def open(self):\n        pass\n")
    assert unread_methods(source, ["box.fill()\n", "getattr(crate, 'open')\n"]) == ["Box.area"]
    assert unread_methods(source, []) == ["Box.area", "Box.fill", "Crate.open"]


def _named(node: ast.AST, name: str) -> bool:
    """Whether `node` is the name `name`, bare or as an attribute."""
    return name in (getattr(node, "id", None), getattr(node, "attr", None))


def _calls(tree: ast.AST, name: str) -> list[ast.Call]:
    """The calls in `tree` of a function named `name`."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call) and _named(node.func, name)]


def unread_fields(source: str, others: list[str]) -> list[str]:
    """Fields of the dataclasses of `source`, as `Class.field`, that neither `source` nor
    any of `others` reads as an attribute.

    Name-based, like the checks above: a field counts as read when an attribute of its
    name is read anywhere, so a field that shares its name with a read one goes unseen.
    A class whose body calls `asdict` or `astuple`, or that `starmap` builds, is skipped,
    because those read every field by reflection."""
    module = ast.parse(source)
    trees = [module, *map(ast.parse, others)]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    starmapped = {getattr(call.args[0], "id", None) for tree in trees for call in _calls(tree, "starmap") if call.args}
    unread = []
    for cls in module.body:
        if (not isinstance(cls, ast.ClassDef) or cls.name in starmapped
                or not any(_named(d.func if isinstance(d, ast.Call) else d, "dataclass") for d in cls.decorator_list)
                or _calls(cls, "asdict") or _calls(cls, "astuple")):
            continue
        unread.extend(f"{cls.name}.{node.target.id}" for node in cls.body
                      if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
                      and node.target.id not in read)
    return unread


@pytest.mark.parametrize("path", [p for p in _READERS if p.parent == SRC], ids=lambda path: path.name)
def test_every_result_field_is_read(path):
    others = [p.read_text(encoding="utf-8") for p in _READERS if p != path]
    assert unread_fields(path.read_text(encoding="utf-8"), others) == []


def test_unread_fields_finds_what_no_attribute_reads():
    source = ("from dataclasses import asdict, dataclass\nimport dataclasses\nfrom itertools import starmap\n\n"
              "@dataclass(frozen=True)\nclass Case:\n    rank: int\n    rivals: tuple = ()\n\n"
              "    def best(self):\n        return self.rank == 1\n\n"
              "@dataclasses.dataclass\nclass Counts:\n    kept: int\n    lost: int\n\n"
              "    def as_dict(self):\n        return asdict(self)\n\n"
              "@dataclass\nclass Row:\n    name: str\n\n"
              "class Plain:\n    size: int\n\n"
              "rows = list(starmap(Row, [('a',)]))\n")
    assert unread_fields(source, ["case.rivals\n"]) == []
    assert unread_fields(source, ["getattr(case, 'rivals')\n", "case.rivals = ()\n"]) == ["Case.rivals"]
    assert unread_fields(source.replace("starmap(Row", "map(Row"), []) == ["Case.rivals", "Row.name"]


def unread_slots(source: str, others: list[str]) -> list[str]:
    """Public names in the `__slots__` of the classes of `source` that none of `others` reads."""
    slots, read = set(), set().union(*map(_reads, map(ast.parse, others)))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            slots.update(ast.literal_eval(node.value))
    return sorted(name for name in slots - read if not name.startswith("_"))


def test_every_corpus_slot_is_read():
    # a public array that only the corpus's own methods read is derived state they can compute
    others = [p.read_text(encoding="utf-8") for p in _READERS if p != SRC / "corpus.py"]
    assert unread_slots((SRC / "corpus.py").read_text(encoding="utf-8"), others) == []


def test_unread_slots_finds_what_only_its_class_reads():
    source = ("class Table:\n    __slots__ = ('_rows', 'keys', 'offsets', '__weakref__')\n\n"
              "    def find(self, key):\n        return self.offsets[self._rows[key]]\n")
    assert unread_slots(source, ["table.keys\n"]) == ["offsets"]
    assert unread_slots(source, ["getattr(table, 'offsets')\n", "keys = table.keys\n"]) == []
    assert unread_slots(source, []) == ["keys", "offsets"]


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


def cli_range_rules(source: str) -> list[str]:
    """Each `raise UsageError` of `source`, as `line: function`, that neither turns text the
    command line could not parse into a usage error nor is the `--seed` rule.  Parsing is
    argparse's `error`, a function passed as an argument's `type=`, and an `except` handler;
    the `--seed` rule is the body of an `if` whose test reads `seed`, as `_reads` finds it."""
    module = ast.parse(source)
    parsers = {kw.value.id for node in ast.walk(module) if isinstance(node, ast.Call)
               for kw in node.keywords if kw.arg == "type" and isinstance(kw.value, ast.Name)}
    found = []

    def visit(node, function, parsing):
        if isinstance(node, ast.Raise) and node.exc is not None and not parsing:
            if _named(getattr(node.exc, "func", node.exc), "UsageError"):
                found.append(f"{node.lineno}: {function}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function, parsing = node.name, node.name in parsers or node.name == "error"
        elif isinstance(node, ast.If) and "seed" in _reads(node.test):
            for child in node.body:
                visit(child, function, True)
            for child in [node.test, *node.orelse]:
                visit(child, function, parsing)
            return
        parsing = parsing or isinstance(node, ast.ExceptHandler)
        for child in ast.iter_child_nodes(node):
            visit(child, function, parsing)

    visit(module, "<module>", False)
    return found


def test_cli_states_no_range_rule():
    # the library checks its own arguments; the command line keeps only --seed >= 0,
    # a flag shared by commands whose library call may never read it
    assert cli_range_rules((SRC / "cli.py").read_text(encoding="utf-8")) == []


def test_cli_range_rules_finds_each_rule_outside_parsing():
    source = ("class P(ArgumentParser):\n    def error(self, message):\n        raise UsageError(message)\n\n"
              "def years(text):\n    if text == '':\n        raise UsageError('empty')\n\n"
              "def ids(text):\n    try:\n        return parse(text)\n    except Error:\n"
              "        raise UsageError('not a record') from None\n\n"
              "def main(args):\n    p.add_argument('--years', type=years)\n"
              "    if args.seed < 0:\n        raise UsageError('seed')\n"
              "    elif args.t1 >= args.t2:\n        raise UsageError('t1')\n"
              "    if args.pct <= 0:\n        raise cli.UsageError('pct')\n    raise ValueError('other')\n")
    assert cli_range_rules(source) == ["20: main", "22: main"]
    assert cli_range_rules(source.replace("type=years", "type=int")) == ["7: years", "20: main", "22: main"]
