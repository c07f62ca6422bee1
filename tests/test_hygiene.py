"""Source hygiene: every name a module of the package imports is used in
that module, every import sits at module level (the package's import
graph has no cycles to break), every module-level function and class is
referenced outside its own definition, and the package loads no numpy;
stdlib checks, so no linter is needed."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "mfcat"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(pathlib.Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source):
    """Names bound by an import anywhere in the module but never read."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def function_local_imports(source):
    """(line, function name) of every import inside a function body."""
    out = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.extend((node.lineno, func.name) for node in ast.walk(func)
                       if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(set(out))


def test_detects_an_unused_import():
    src = "import os\nfrom .x import a, b\n\ndef f():\n    return a\n"
    assert unused_imports(src) == [(1, "os"), (2, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_a_function_local_import():
    src = ("import os\n\ndef f():\n    from .x import a\n    return a\n\n"
           "class C:\n    def m(self):\n        if os:\n"
           "            import sys\n")
    assert function_local_imports(src) == [(4, "f"), (10, "m")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert function_local_imports(path.read_text(encoding="utf-8")) == []


def _referenced_names(node):
    """Every name read, attribute taken or imported in the tree of node."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name.split(".")[-1])
    return out


def orphaned_definitions(sources, users):
    """(module, name) of each module-level function or class of `sources`
    ({module: source}) that no tree of sources or users references outside
    its own definition."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    refs = {}
    for tree in list(trees.values()) + [ast.parse(src) for src in users]:
        for name in _referenced_names(tree):
            refs[name] = refs.get(name, 0) + 1
    out = []
    for mod, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                own = _referenced_names(node).count(node.name)
                if refs.get(node.name, 0) == own:
                    out.append((mod, node.name))
    return out


def test_detects_an_orphaned_definition():
    src = ("def used():\n    return 1\n\n"
           "def orphan(n):\n    return orphan(n - 1) if n else used()\n\n"
           "class Kept:\n    pass\n")
    assert orphaned_definitions({"m": src}, ["from m import Kept\n"]) == \
        [("m", "orphan")]


def test_no_orphaned_definitions():
    sources = {p.name: p.read_text(encoding="utf-8") for p in MODULES}
    users = [p.read_text(encoding="utf-8") for p in TESTS]
    assert orphaned_definitions(sources, users) == []


def test_cli_import_leaves_numpy_out():
    """The package computes in Python scalars only: importing the CLI,
    which imports every engine module, loads no numpy."""
    code = "import sys, mfcat.cli; print('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)))
    assert proc.stdout.strip() == "False"
