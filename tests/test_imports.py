"""Every name a sympt module imports is read in that module, so an import
left behind when the code that used it is deleted fails here.  A name the
module lists in __all__ is a re-export and counts as read; __future__
imports bind no name."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sympt"


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
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
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
