"""Every name a library module imports is used in that module, and every
private name it defines is read in it.

A stdlib ``ast`` walk stands in for a linter: a module's bound import names
must each appear as a name somewhere in its code.  The package
``__init__.py`` files only re-export, so they are skipped there.  A
module-level private function, class or constant (``_name``, dunders
exempt) must be read somewhere in its own module, or it is dead.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "llmdetect"
ALL_MODULES = sorted(SRC.rglob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in used]


def unread_private_names(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            dunder = name.startswith("__") and name.endswith("__")
            if name.startswith("_") and not dunder:
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in bound.items()
            if name not in read]


def _module_id(path):
    return str(path.relative_to(SRC))


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unused_import():
    assert unused_imports("import csv\nimport io as stream\n"
                          "from x import y, z\nz()\n") == [
        "line 1: csv", "line 2: stream", "line 3: y"]


@pytest.mark.parametrize("path", ALL_MODULES, ids=_module_id)
def test_no_unread_private_names(path):
    assert unread_private_names(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unread_private_name():
    assert unread_private_names(
        "__all__ = []\n_A, _B = 1, 2\n_C: int = 3\n"
        "def _used(): return _A\ndef _dead(): _used()\n"
        "class _Dead: pass\n_C = 4\n") == [
        "line 2: _B", "line 3: _C", "line 5: _dead", "line 6: _Dead"]
