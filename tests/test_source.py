"""Source rules of the core package: stdlib-only imports and no floats."""

import ast
import sys
from pathlib import Path

import pytest

import ccc

SOURCES = sorted(Path(ccc.__file__).parent.glob("*.py"))


def _violations(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            names = []
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names:
                found.append(f"line {node.lineno}: imports {name}")
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append(f"line {node.lineno}: float() call")
    return found


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"exactlin.py", "fm.py", "cohoracle.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_core_is_stdlib_only_and_float_free(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert _violations(tree) == []


def test_guard_flags_each_rule():
    tree = ast.parse("import numpy\nfrom os import path\nx = 0.5\ny = float(3)\n")
    assert _violations(tree) == [
        "line 1: imports numpy",
        "line 3: float literal 0.5",
        "line 4: float() call",
    ]
