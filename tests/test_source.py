"""Source hygiene: every name a module of lpgd imports is read in that module,
every private module-level name or method is read somewhere in lpgd, and
every module parses as the oldest Python the package supports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lpgd"


def unused_imports(source: str) -> list:
    """Names bound by an import in `source` that nothing reads: no load of
    the name, no string annotation naming it, no entry of `__all__`."""
    tree = ast.parse(source)
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = [a for a in ast.walk(node.args) if isinstance(a, ast.arg)]
            annotations = [node.returns] + [a.annotation for a in args]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                named = ast.walk(ast.parse(ann.value, mode="eval"))
                read.update(n.id for n in named if isinstance(n, ast.Name))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


def test_scanner_finds_an_unused_import():
    source = (
        "from typing import List, Optional\n"
        "import numpy as np\n"
        "import os.path\n"
        "__all__ = ['Optional']\n"
        "def f(x: 'np.ndarray'):\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["List (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def unused_private_names(sources: dict) -> list:
    """Private names (`_x`, not dunders) that a module of `sources` (module
    name -> source) defines at module level or as a method, and that no
    module reads: no load of the name, no attribute of that name, no import
    of it."""
    defined, read = {}, set()
    for module, source in sources.items():
        tree = ast.parse(source)
        scopes = [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)) and scope is tree:
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                owner = module if scope is tree else f"{module}.{scope.name}"
                for name in filter(_private, names):
                    defined[f"{owner}.{name}"] = name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(where for where, name in defined.items() if name not in read)


def test_scanner_finds_an_unused_private_name():
    sources = {
        "a": (
            "_LIMIT = 1\n"
            "_SPARE = 2\n"
            "def _helper():\n"
            "    return _LIMIT\n"
            "def _dead():\n"
            "    pass\n"
            "class K:\n"
            "    def __init__(self):\n"
            "        self._unused_attr = _helper()\n"
            "    def _used(self):\n"
            "        pass\n"
            "    def _unused(self):\n"
            "        self._used()\n"
        ),
        "b": "from .a import _SPARE\n",
    }
    assert unused_private_names(sources) == ["a.K._unused", "a._dead"]


def test_no_unused_private_names():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert unused_private_names(sources) == []


@pytest.mark.parametrize(
    "path",
    sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "perfbench").glob("*.py")),
    ids=lambda p: f"{p.parent.name}/{p.name}",
)
def test_parses_as_python_3_10(path):
    # pyproject's requires-python floor
    ast.parse(path.read_text(), feature_version=(3, 10))
