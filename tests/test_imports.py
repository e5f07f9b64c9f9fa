"""Lint: no module of the package imports a name at top level and never uses
it, and no module-level private name of the package is left dead.

Standard library only (`ast`).  A name counts as used when it appears as an
identifier anywhere in the module or is listed in `__all__`; imports inside
functions and `from __future__` imports are not checked.  A private name
(one leading underscore) defined at module level is dead when no module of
the package refers to it outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import dirichlet_forge

MODULES = sorted(Path(dirichlet_forge.__file__).parent.glob("*.py"))


def _unused_imports(source: str) -> list:
    """(line, name) of every top-level import binding that is never used."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [(line, name) for line, name in bound if name not in used]


def test_checker_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "import sys\n"
              "from typing import Optional, List as L\n"
              "__all__ = ['L']\n"
              "def f(x: Optional[int]):\n"
              "    return sys.argv\n")
    assert _unused_imports(source) == [(2, "os"), (2, "osp")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_top_level_imports(path):
    assert _unused_imports(path.read_text()) == []


def _defined_names(node) -> list:
    """The names a module-level statement binds by def, class or assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _dead_helpers(sources: dict) -> list:
    """(module, name) of every module-level private name in `sources`
    (module name -> source) that no module refers to outside its own
    definition: as an identifier, an attribute or an imported name."""
    defined, refs = [], Counter()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            own = _defined_names(node)
            defined += [(module, n) for n in own
                        if n.startswith("_") and not n.startswith("__")]
            for n in ast.walk(node):
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                    names = [n.id]
                elif isinstance(n, ast.Attribute):
                    names = [n.attr]
                elif isinstance(n, ast.ImportFrom):
                    names = [a.name for a in n.names]
                else:
                    continue
                refs.update(name for name in names if name not in own)
    return [(module, n) for module, n in defined if not refs[n]]


def test_checker_finds_dead_helpers():
    sources = {
        "a": ("_CAP = 3\n"
              "_UNUSED: int = 4\n"
              "def _walk(n):\n"
              "    return _walk(n - 1) if n else _CAP\n"
              "def _order(x):\n"
              "    return sorted(x)\n"
              "class _Side:\n"
              "    pass\n"
              "def _helper():\n"
              "    pass\n"
              "def public():\n"
              "    return _Side()\n"),
        "b": ("from .a import _order\n"
              "import a\n"
              "def f():\n"
              "    return a._helper\n"),
    }
    assert _dead_helpers(sources) == [("a", "_UNUSED"), ("a", "_walk")]


def test_no_dead_private_helpers():
    sources = {p.stem: p.read_text() for p in MODULES}
    assert _dead_helpers(sources) == []
