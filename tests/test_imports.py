"""Every name a package module imports is used in that module.

A stdlib-only form of the unused-import lint rule (F401). Package
`__init__.py` files are skipped: their imports are re-exports. An import
line marked `# noqa: F401` is exempt, and a name used only inside a string
annotation counts as used.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from conftest import repo_root

PACKAGE = repo_root() / "src" / "icl_miner"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"line {node.lineno}: {name}")
    return unused


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(PACKAGE)) for p in MODULES]
)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_guard_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nimport sys  # noqa: F401\nfrom typing import List\n"
        "def f(x: 'List[int]') -> None: ...\n",
        encoding="utf-8",
    )
    assert unused_imports(module) == ["line 1: os"]
