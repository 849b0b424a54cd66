"""Every name a sympt module imports is read in that module, so an import
left behind when the code that used it is deleted fails here.  A name the
module lists in __all__ is a re-export and counts as read; __future__
imports bind no name.  Likewise every private function or class defined at
the top of a module is read somewhere in the package, and every __all__
entry names an attribute of its module."""

import ast
import importlib
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sympt"


def assigns_all(node) -> bool:
    """node is a top-level statement that assigns __all__."""
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def unread_imports(source: str) -> list:
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names]
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if assigns_all(node):
            read |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_reads(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unread_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from math import gcd, isqrt as root\n"
              "from .plcore import wedge\n"
              "__all__ = ['wedge']\n"
              "print(gcd(4, 6))\n")
    assert unread_imports(source) == [(2, "os"), (3, "root")]


def unread_private_defs(sources: dict) -> list:
    """(module, name) of each module-level private function or class that
    no module of sources (name -> text) reads, as a name or an attribute,
    outside the def itself: a helper that only calls itself is unread."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    reads = []  # (top-level statement, the names it reads)
    for tree in trees.values():
        for stmt in tree.body:
            read = set()
            for n in ast.walk(stmt):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    read.add(n.id)
                elif isinstance(n, ast.Attribute):
                    read.add(n.attr)
            reads.append((stmt, read))
    return [(name, node.name) for name, tree in sorted(trees.items())
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")
            and not any(node.name in read for stmt, read in reads
                        if stmt is not node)]


def test_every_private_def_is_read():
    assert unread_private_defs({p.name: p.read_text(encoding="utf-8")
                                for p in SRC.glob("*.py")}) == []


def test_the_check_sees_an_unread_private_def():
    sources = {"a.py": ("import functools\n"
                        "def _used(): pass\n"
                        "@functools.cache\n"
                        "def _stale_ring(): pass\n"
                        "class _Kept: pass\n"
                        "def _walk(t): return [_walk(c) for c in t]\n"
                        "def __getattr__(name): pass\n"),
               "b.py": "from .a import _Kept\nprint(_Kept, a._used)\n"}
    assert unread_private_defs(sources) == [("a.py", "_stale_ring"),
                                            ("a.py", "_walk")]


def stale_exports(module) -> list:
    """Each __all__ entry of module that names no attribute of it."""
    return [name for name in module.__all__ if not hasattr(module, name)]


def modules_with_all() -> list:
    """The name of each src/sympt module that assigns __all__."""
    return ["sympt" if path.stem == "__init__" else "sympt." + path.stem
            for path in sorted(SRC.glob("*.py"))
            if any(map(assigns_all,
                       ast.parse(path.read_text(encoding="utf-8")).body))]


@pytest.mark.parametrize("name", modules_with_all())
def test_every_all_entry_names_an_attribute(name):
    assert stale_exports(importlib.import_module(name)) == []


def test_the_check_finds_every_module_with_all():
    # every sympt module, imported, against what the source search finds
    names = ["sympt"] + ["sympt." + path.stem for path in SRC.glob("*.py")
                         if path.stem != "__init__"]
    found = modules_with_all()
    assert {"sympt", "sympt.picard", "sympt.thompson"} <= set(found)
    assert set(found) == {name for name in names
                          if "__all__" in vars(importlib.import_module(name))}


def test_the_check_sees_a_stale_all_entry():
    module = types.ModuleType("stale")
    exec("from math import gcd\n"
         "__all__ = ['gcd', 'kept', 'gone']\n"
         "def kept(): pass\n", module.__dict__)
    assert stale_exports(module) == ["gone"]
