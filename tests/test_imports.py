"""Every name a library module imports is used in that module."""

import ast
from pathlib import Path

import pytest

import hjsing

MODULES = sorted(p for p in Path(hjsing.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")     # __init__ imports to re-export


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scan_finds_unused_names():
    source = "from typing import Callable, Optional\nimport os.path\nx: Optional[int] = 0\n"
    assert unused_imports(source) == [(1, "Callable"), (2, "os")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
