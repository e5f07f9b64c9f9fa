"""Lint: no module of the package imports a name at top level and never uses
it, and no module-level name of the package is left dead.

Standard library only (`ast`).  An import counts as used when it appears as
an identifier anywhere in the module or is listed in `__all__`; imports
inside functions and `from __future__` imports are not checked.  A name
defined at module level is dead when nothing refers to it outside its own
definition and `__all__`: for a private name (one leading underscore)
nothing in the package, for a public one nothing in the package, `scripts/`
or `bench/` (its tests aside), unless the README offers it as a feature.
"""

import ast
import os
import subprocess
import sys
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


def _statements(source: str) -> list:
    """(own, refs) per module-level statement of `source`: the names it
    binds, and a Counter of the names it refers to outside its own
    definition: as an identifier, an attribute or an imported name.  The
    strings of `__all__` are not references."""
    out = []
    for node in ast.parse(source).body:
        own, refs = _defined_names(node), Counter()
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
        out.append((own, refs))
    return out


def _dead_names(package: dict, others: dict, keep=()) -> list:
    """(module, name) of every module-level name of `package` (module name
    -> source) that nothing live refers to.  A private name (one leading
    underscore) needs a reference from `package`; a public one, unless it
    is in `keep`, from `package` or `others`.  References made only by dead
    definitions do not count, so a dead name takes its own helpers along."""
    stmts = [(module, own, refs) for module, source in package.items()
             for own, refs in _statements(source)]
    outer = sum((refs for source in others.values() for _, refs in _statements(source)),
                Counter())
    dead = []
    while True:
        inner = sum((refs for module, own, refs in stmts
                     if not own or any((module, n) not in dead for n in own)), Counter())
        found = [(module, n) for module, own, _ in stmts for n in own
                 if not n.startswith("__") and not inner[n]
                 and (n.startswith("_") or (n not in keep and not outer[n]))]
        if found == dead:
            return dead
        dead = found


def test_checker_finds_dead_names():
    package = {
        "a": ("_CAP = 3\n"
              "_UNUSED: int = 4\n"
              "__all__ = ['gone']\n"
              "def _walk(n):\n"
              "    return _walk(n - 1) if n else _CAP\n"
              "def _order(x):\n"
              "    return sorted(x)\n"
              "class _Side:\n"
              "    pass\n"
              "def _helper():\n"
              "    pass\n"
              "def _for_scripts():\n"
              "    pass\n"
              "def gone(n):\n"
              "    return gone(n - 1)\n"
              "def public():\n"
              "    return _Side()\n"
              "def feature():\n"
              "    pass\n"),
        "b": ("from .a import _order\n"
              "import a\n"
              "def f():\n"
              "    return a._helper\n"),
    }
    others = {"script": "from a import public, _for_scripts\nimport b\nb.f()\n"}
    # _CAP is dead because only the dead _walk refers to it
    assert _dead_names(package, others, keep=("feature",)) == [
        ("a", "_CAP"), ("a", "_UNUSED"), ("a", "_walk"), ("a", "_for_scripts"), ("a", "gone")]


# Public names the README offers as features, though nothing in the
# package, its scripts or its benchmark calls them.
README_FEATURES = ("euler_factor", "mean_square_report", "omega_related",
                   "minimal_face_containing", "embedded_basis")

ROOT = Path(__file__).resolve().parents[1]


def test_no_dead_module_level_names():
    package = {p.stem: p.read_text() for p in MODULES}
    others = {str(p): p.read_text() for d in ("scripts", "bench")
              for p in sorted((ROOT / d).glob("*.py")) if p.name != "test_bench.py"}
    assert _dead_names(package, others, keep=README_FEATURES) == []


def test_library_never_imports_scipy():
    """The library runs on numpy alone: importing every module, extending a
    character and searching for a density point load no scipy."""
    code = "\n".join([
        "import importlib, sys",
        f"for m in {[p.stem for p in MODULES]!r}:",
        "    importlib.import_module('dirichlet_forge.' + m)",
        "from dirichlet_forge.algebra import from_coeffs",
        "from dirichlet_forge.characters import Character",
        "from dirichlet_forge.density import approximate_functional",
        "from dirichlet_forge.extension import CharacterExtensionProblem, extend_character",
        "from dirichlet_forge.semigroup import log_element, log_primes_basis",
        "extend_character(CharacterExtensionProblem(2, [(2, 1), (1, 2), (1, 1)],",
        "                                           {0: 0.25, 1: 0.5}))",
        "b = log_primes_basis(5)",
        "a = from_coeffs(b, [(log_element(b, 1), 1.0), (log_element(b, 2), 0.5)])",
        "approximate_functional(a, Character(b, (0.5, 0.5, 0.5)), 1e-2, 10 ** 4)",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
