"""No module of the package imports a name it never uses, no function,
method or class it defines goes unreferenced, no function or method has a
parameter its body never reads, and no parameter has a default that every
caller leaves alone.  The package `__init__` is exempt from the first two:
its imports are the re-exported public API, and the names it re-exports
count as used.  Callers are the package and the benchmark harness, not the
tests; `beta_oracle`'s `sign` is the one default only tests pass, as the
reference for the sign convention.  The `__init__`'s `__all__` lists
exactly the names it imports, in sorted order, and every name the
benchmark worker takes from the package is in that `__all__` or is one of
its modules.  Every function the benchmark tracer names resolves in the
package, except a listed few that were deleted and that it still names."""

import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "laakso_lab"
TESTS = Path(__file__).resolve().parent
PERFBENCH = TESTS.parent / "perfbench"
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


def exports(source: str) -> tuple[list[str], list[str]]:
    """(the names a module imports, its ``__all__``), each in file order."""
    tree = ast.parse(source)
    imported = [alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    listed = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets
                       if isinstance(t, ast.Name)] == ["__all__"])
    return imported, listed


def test_detects_export_mismatch():
    source = ("from .a import f, g\nfrom .b import H as K\n"
              "__all__ = ['K', 'g']\n")
    imported, listed = exports(source)
    assert (imported, listed) == (["f", "g", "K"], ["K", "g"])
    assert listed != sorted(imported)


def test_all_lists_the_imports_in_sorted_order():
    imported, listed = exports((SRC / "__init__.py").read_text(
        encoding="utf-8"))
    assert listed == sorted(imported)


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
    exported = frozenset(
        exports((SRC / "__init__.py").read_text(encoding="utf-8"))[0])
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    tests = [p.read_text(encoding="utf-8") for p in sorted(TESTS.glob("*.py"))]
    assert unused_definitions(modules, tests, exported) == []


def signatures(tree: ast.Module) -> list[tuple[str, ast.FunctionDef, list]]:
    """(callee name, definition, parameters a call binds by position) of
    every function and method: a method drops its first parameter unless it
    is a staticmethod, and an ``__init__`` is called by its class's name."""
    owner = {
        id(f): c.name
        for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
        for f in c.body if isinstance(f, ast.FunctionDef)
    }
    out = []
    for f in ast.walk(tree):
        if not isinstance(f, ast.FunctionDef):
            continue
        params = [*f.args.posonlyargs, *f.args.args]
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in f.decorator_list)
        if id(f) in owner and not static:
            params = params[1:]
        init = f.name == "__init__" and id(f) in owner
        out.append((owner[id(f)] if init else f.name, f, params))
    return out


def unread_parameters(source: str) -> list[str]:
    """The parameters, ``self`` and ``cls`` aside, that no ``Name`` in the
    body of their function or method reads."""
    out = []
    for _, f, _ in signatures(ast.parse(source)):
        a = f.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *[p for p in (a.vararg, a.kwarg) if p is not None]]
        read = {n.id for stmt in f.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [f"{f.name}.{p.arg}" for p in params
                if p.arg not in ("self", "cls") and p.arg not in read]
    return out


def passes(call: ast.Call, positional: list, name: str) -> bool:
    """Whether ``call`` binds parameter ``name``: by keyword, by position,
    or possibly through ``*`` or ``**``."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    names = [p.arg for p in positional]
    return name in names and names.index(name) < len(call.args)


def unpassed_defaults(modules: dict[str, str], callers: list[str],
                      exempt: frozenset = frozenset()) -> list[str]:
    """The defaulted parameters of ``modules`` (name -> source) that no
    call in ``callers`` to a callee of their function's name passes; the
    ``exempt`` names (``function.parameter``) are skipped."""
    calls: dict[str, list[ast.Call]] = {}
    for source in callers:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Call):
                f = n.func
                callee = f.id if isinstance(f, ast.Name) else getattr(
                    f, "attr", None)
                calls.setdefault(callee, []).append(n)
    out = []
    for mod, source in modules.items():
        for name, f, positional in signatures(ast.parse(source)):
            a = f.args
            defaulted = positional[len(positional) - len(a.defaults):]
            defaulted += [p for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            for p in defaulted:
                qual = f"{name}.{p.arg}"
                if qual not in exempt and not any(
                    passes(call, positional, p.arg)
                    for call in calls.get(name, [])
                ):
                    out.append(f"{mod}: {qual}")
    return sorted(out)


def test_detects_unread_parameter():
    source = (
        "class A:\n"
        "    def m(self, x, y): return x\n"
        "    @classmethod\n"
        "    def c(cls): return 1\n"
        "def f(a, *rest, k=1, **kw): return a + k\n"
        "def g(z):\n"
        "    def inner(): return z\n"
        "    return inner\n"
        "def s(v):\n"
        "    v = 0\n"
    )
    assert unread_parameters(source) == ["f.rest", "f.kw", "s.v", "m.y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert unread_parameters(path.read_text(encoding="utf-8")) == []


def test_detects_unpassed_default():
    source = (
        "class A:\n"
        "    def __init__(self, x, cap=None): pass\n"
        "    def m(self, a, b=2): pass\n"
        "def f(a, b=1, *, c=3, d=4): pass\n"
        "def g(w, x=0): pass\n"
        "def h(y=0): pass\n"
        "def api(z=0): pass\n"
    )
    callers = [source, "A(1).m(1, 2)\nf(0, d=5)\ng(*xs)\nh(**kw)\n"]
    assert unpassed_defaults({"m.py": source}, callers,
                             frozenset({"api.z"})) == [
        "m.py: A.cap", "m.py: f.b", "m.py: f.c",
    ]


def test_every_default_is_passed_by_some_caller():
    modules = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    callers = [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    callers += [p.read_text(encoding="utf-8")
                for p in sorted(PERFBENCH.glob("*.py"))
                if not p.name.startswith("test_")]
    assert unpassed_defaults(modules, callers,
                             frozenset({"beta_oracle.sign"})) == []


def unexported(source: str, listed: list[str], modules: set[str]) -> list[str]:
    """The names a script takes from the package, by ``from laakso_lab
    import name`` or ``import laakso_lab.module``, that are neither in
    ``listed`` nor among ``modules``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "laakso_lab":
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names += [alias.name.partition(".")[2] for alias in node.names
                      if alias.name.startswith("laakso_lab.")]
    return [name for name in names if name not in {*listed, *modules}]


def test_detects_a_name_the_package_does_not_export():
    source = ("import laakso_lab\nimport laakso_lab.cli, json\n"
              "import laakso_lab.gone_module\n"
              "def step():\n    from laakso_lab import f, gone, cli\n")
    assert unexported(source, ["f"], {"cli"}) == ["gone_module", "gone"]
    assert unexported(source, ["f", "gone"], {"cli", "gone_module"}) == []


def test_benchmark_worker_imports_only_exported_names():
    # Read-only: a deletion from the package must not break the worker.
    listed = exports((SRC / "__init__.py").read_text(encoding="utf-8"))[1]
    modules = {p.stem for p in MODULES}
    worker = (PERFBENCH / "worker.py").read_text(encoding="utf-8")
    assert unexported(worker, listed, modules) == []
    assert unexported(worker, [], set()) != []  # the guard reads its imports


def traced_names(source: str) -> list[str]:
    """The dotted names, in file order, that a tracer source lists in the
    values of ``GROUPS`` and ``CALLS`` and as the functions of each
    ``RESULTS`` entry."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.Assign):
            continue
        [target] = node.targets
        if not isinstance(target, ast.Name):
            continue
        for value in getattr(node.value, "values", []):
            if target.id in ("GROUPS", "CALLS"):
                out += ast.literal_eval(value)
            elif target.id == "RESULTS":
                out += ast.literal_eval(value.elts[0])
    return out


def unresolved(names: list[str]) -> list[str]:
    """The ``names`` (``module.attribute...``) that do not resolve in
    ``laakso_lab``."""
    out = []
    for name in names:
        module, *attrs = name.split(".")
        try:
            obj = importlib.import_module(f"laakso_lab.{module}")
            for attr in attrs:
                obj = getattr(obj, attr)
        except (ImportError, AttributeError):
            out.append(name)
    return out


def test_detects_an_unresolved_traced_name():
    source = (
        "GROUPS = {'a.s': ('cli.main', 'cli.gone')}\n"
        "CALLS = {'b.calls': ('gone_module.f',)}\n"
        "RESULTS = {'c.n': (('staircase.verify_james',), len)}\n"
        "OTHER = {'d': ('cli.also_gone',)}\n"
    )
    names = traced_names(source)
    assert names == ["cli.main", "cli.gone", "gone_module.f",
                     "staircase.verify_james"]
    assert unresolved(names) == ["cli.gone", "gone_module.f"]


# Names the tracer still lists though the package no longer defines them;
# each zeroes its per-layer metric until the benchmark drops it.
STALE_TRACED = [
    "laakso_graph.LaaksoGraph.distance_oracle",
    "quotient_analysis.check_atd_colip",
]


def test_traced_names_resolve():
    # Read-only: a deletion from the package must not silently zero a
    # per-layer metric of the benchmark.
    names = traced_names((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    assert len(names) > 10  # the guard reads the tracer's tables
    assert unresolved(names) == STALE_TRACED
