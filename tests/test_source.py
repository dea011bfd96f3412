from __future__ import annotations

import ast
from pathlib import Path

import pytest

import bethe_dvf

MODULES = sorted(p for p in Path(bethe_dvf.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, ``from __future__`` aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Top-level ``_names`` that one of the modules defines and none reads,
    given the modules as file name -> source."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}
    out = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            out.extend(f"{name}: {d} (line {node.lineno})" for d in defined
                       if d.startswith("_") and not d.startswith("__")
                       and d not in read)
    return out


def test_unreferenced_private_names_are_found():
    assert unreferenced_private_names({
        "a.py": "def _f(): pass\n_X = 1\n_Y: int = 2\nclass _C: pass\n"
                "__all__ = []\nprint(_X)\n",
        "b.py": "import a\nfrom a import _C\na._Y\n_Z = 3\n"}) == [
        "a.py: _f (line 1)", "a.py: _C (line 4)", "b.py: _Z (line 4)"]


def test_no_unreferenced_private_names():
    # every private helper of the package is read by the package itself;
    # a name only the tests read is dead code
    package = Path(bethe_dvf.__file__).parent
    assert unreferenced_private_names(
        {p.name: p.read_text() for p in sorted(package.glob("*.py"))}) == []


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(tau)\n") == [
        "os (line 1)", "pi (line 2)"]
    assert unused_imports("from __future__ import annotations\n"
                          "import os.path\nos.path.join\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
