"""No module of the package imports a name it never uses, and no function,
method or class it defines goes unreferenced.  The package `__init__` is
exempt: its imports are the re-exported public API, and the names it
re-exports count as used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "laakso_lab"
TESTS = Path(__file__).resolve().parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def definitions(tree: ast.Module) -> list[str]:
    """Top-level functions and classes, and the methods of those classes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{m.name}" for m in node.body
                    if isinstance(m, ast.FunctionDef)]
    return out


def unused_definitions(modules: dict[str, str], others: list[str],
                       exempt: frozenset = frozenset()) -> list[str]:
    """The definitions of ``modules`` (name -> source) that no ``Name`` or
    ``Attribute`` in ``modules`` or ``others`` refers to; dunders and the
    ``exempt`` names are skipped."""
    refs = set()
    for source in [*modules.values(), *others]:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name):
                refs.add(n.id)
            elif isinstance(n, ast.Attribute):
                refs.add(n.attr)
    out = []
    for name, source in modules.items():
        for qual in definitions(ast.parse(source)):
            leaf = qual.rsplit(".", 1)[-1]
            dunder = leaf.startswith("__") and leaf.endswith("__")
            if not dunder and qual not in exempt and leaf not in refs:
                out.append(f"{name}: {qual}")
    return out


def test_detects_unused_import():
    assert unused_imports("import os\nfrom math import inf, pi\nprint(pi)\n") == [
        "line 1: os", "line 2: inf",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_definition():
    source = (
        "class A:\n"
        "    def used(self): pass\n"
        "    def dead(self): pass\n"
        "    def __len__(self): return 0\n"
        "def f(): return A().used()\n"
        "def g(): pass\n"
        "def api(): pass\n"
    )
    assert unused_definitions({"m.py": source}, ["f()"], frozenset({"api"})) == [
        "m.py: A.dead", "m.py: g",
    ]


def test_no_unused_definitions():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = frozenset(
        alias.asname or alias.name
        for node in init.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    tests = [p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))]
    assert unused_definitions(modules, tests, exported) == []
