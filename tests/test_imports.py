"""Every name a ``ringnet`` module imports is used in that module.

A name counts as used wherever it appears; a string that parses as an
expression, such as the annotation ``"Any"``, counts for the names in it.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ringnet"


def _names(tree: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                used |= _names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_checker_sees_string_annotations_and_unused_names():
    source = ("from typing import Any, Callable\nimport os.path\n"
              "def f(x: 'Any | None') -> None:\n    pass\n")
    assert unused_imports(source) == ["line 1: Callable", "line 2: os"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_module_uses_every_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []
