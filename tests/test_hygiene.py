"""Source hygiene that no installed linter checks."""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sources() -> list[Path]:
    package = [p for p in (ROOT / "src" / "infochain").glob("*.py") if p.name != "__init__.py"]
    return sorted([*package, *(ROOT / "scripts").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import (other than ``from __future__``) that no
    expression reads; an attribute read ``a.b`` reads its base ``a``."""
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in read]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): unused
        for path in _sources()
        if (unused := _unused_imports(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert found == {}
