from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import bethe_dvf
from bethe_dvf import symbolic
from bethe_dvf.algebra import parse_spec
from bethe_dvf.dvf import BoxContext, build_dvf
from bethe_dvf.symbolic import Assignment, colors_of, evaluate, random_assignment
from bethe_dvf.tableaux import SkewDiagram

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


def imports_numpy(source: str) -> bool:
    """Whether a module imports numpy or a numpy submodule anywhere."""
    return any(isinstance(node, ast.Import)
               and any(a.name.partition(".")[0] == "numpy" for a in node.names)
               or isinstance(node, ast.ImportFrom)
               and (node.module or "").partition(".")[0] == "numpy"
               for node in ast.walk(ast.parse(source)))


def test_numpy_imports_are_found():
    assert imports_numpy("def f():\n    import numpy.linalg as la\n")
    assert imports_numpy("from numpy import array\n")
    assert not imports_numpy("import numpyro\nfrom . import newton\n")


def test_only_the_kernel_imports_numpy():
    package = Path(bethe_dvf.__file__).parent
    assert [p.name for p in sorted(package.glob("*.py"))
            if imports_numpy(p.read_text())] == ["newton.py"]


EXACT_COMMANDS = """
import bethe_dvf, bethe_dvf.bae, bethe_dvf.cli
for argv in (["count", "B(0|2)", "--shape", "2^2"],
             ["build", "B(2|1)", "--shape", "2,1"], ["verify", "golden"]):
    assert bethe_dvf.cli.main(argv) == 0
"""

ONE_SOLVE = """
from bethe_dvf.algebra import parse_spec
from bethe_dvf.bae import BetheSystem, solve_bae
solve_bae(BetheSystem(parse_spec("B(0|1)"), 2, (2.0, -1.0), (1,)), seed=3)
"""


def numpy_loaded(*snippets: str) -> list[bool]:
    """Run the snippets in turn in one fresh interpreter, and say after each
    whether numpy is loaded."""
    probe = "import sys\n" + "".join(
        f"{s}\nprint('numpy loaded:', 'numpy' in sys.modules)\n"
        for s in snippets)
    root = str(Path(bethe_dvf.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (root, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env, check=True).stdout
    return [line == "numpy loaded: True" for line in out.splitlines()
            if line.startswith("numpy loaded:")]


def test_exact_commands_start_without_numpy():
    # count, build and verify golden never solve a Bethe system, so they
    # never load numpy; the first solve does
    assert numpy_loaded(EXACT_COMMANDS, ONE_SOLVE) == [False, True]


def test_the_numpy_probe_sees_the_kernel():
    # the negative control: the probe reports numpy where a snippet loads it
    assert numpy_loaded("import bethe_dvf.newton") == [True]


MEMO_PARAMETERS = {"cache", "_cache", "memo"}


def memo_parameters(source: str) -> list[str]:
    """Each function or lambda parameter named as a memo (``cache``,
    ``_cache`` or ``memo``), as "function(parameter)"."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            out.extend(f"{getattr(node, 'name', '<lambda>')}({p.arg})"
                       for p in params if p and p.arg in MEMO_PARAMETERS)
    return out


def test_memo_parameters_are_found():
    assert memo_parameters(
        "def f(x, cache): pass\ng = lambda asg, memo=None: 0\n"
        "def h(*, _cache): pass\nasync def k(*memo): pass\n"
        "def m(caches, **cache): pass\n") == [
        "f(cache)", "h(_cache)", "k(memo)", "m(cache)", "<lambda>(memo)"]


def test_only_evaluate_and_run_take_a_memo():
    # a point owns its memo; the explicit ones left are the memo _run fills
    # and evaluate's, with which a caller values a point afresh
    assert [f"{p.name}: {m}" for p in MODULES
            for m in memo_parameters(p.read_text())] == [
        "symbolic.py: _run(memo)", "symbolic.py: evaluate(_cache)"]


def test_a_given_memo_isolates_each_evaluation(monkeypatch):
    # a fresh dict given to evaluate stands in for the point's own memo, so
    # each call values every base again, on the exact and the float path,
    # and the point's memo is never made
    counted = []
    base_int, poly_at = symbolic._base_int, symbolic.poly_at
    monkeypatch.setattr(symbolic, "_base_int",
                        lambda asg, c, s: counted.append((c, s)) or base_int(asg, c, s))
    monkeypatch.setattr(symbolic, "poly_at",
                        lambda zs, v, start: counted.append((zs, v)) or poly_at(zs, v, start))
    x = build_dvf(BoxContext(parse_spec("B(2|1)")), SkewDiagram.straight((2, 1)))
    exact = random_assignment(Random(9), colors_of(x))
    point = Assignment.float_point(exact.u, exact.roots, exact.inhoms)
    for asg in (exact, point):
        counted.clear()
        values = [evaluate(x, asg, {}) for _ in range(2)]
        assert values[0] == values[1]
        assert len(counted) == 2 * len(set(counted)) == 2 * 34
        assert "_memo" not in vars(asg)
