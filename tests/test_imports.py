"""Lint: no module of the package imports a name at top level and never uses it.

Standard library only (`ast`).  A name counts as used when it appears as an
identifier anywhere in the module or is listed in `__all__`; imports inside
functions and `from __future__` imports are not checked.
"""

import ast
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
