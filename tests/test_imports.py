"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import bfock

MODULES = sorted(
    path for path in Path(bfock.__file__).resolve().parent.glob("*.py") if path.name != "__init__.py"
)


def annotation_names(node: ast.AST) -> set[str]:
    """Names in an annotation, quoted forward references included."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= annotation_names(node.annotation)
        elif isinstance(node, ast.FunctionDef) and node.returns is not None:
            used |= annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= annotation_names(node.annotation)
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import_and_a_quoted_annotation():
    source = "from typing import Sequence\nfrom .scalars import Poly, ZERO\ndef f(x: 'Poly'): pass\n"
    assert unused_imports(source) == ["Sequence", "ZERO"]
