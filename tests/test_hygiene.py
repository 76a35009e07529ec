"""Every name a library module imports is used in that module.

The package's __init__.py is skipped: its imports are the public
re-exports.  Names are found with the stdlib ast, so a name that appears
only in a comment or a string does not count as used.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cliffharm"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}  # bound name -> line
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, re as regex\n"
        "from .x import a, b as c, d\n"
        "print(a, regex, os.sep)\n"
    )
    assert unused_imports(source) == [(3, "c"), (3, "d")]


def test_modules_were_found():
    assert {p.stem for p in MODULES} >= {"exact", "linalg", "matrix_models", "cli"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
