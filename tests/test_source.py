"""Source hygiene: every name a module of lpgd imports is read in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "lpgd"


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
