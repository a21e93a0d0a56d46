"""Rules every module of the package keeps, checked on its source."""

import ast
from pathlib import Path

import specdec

PACKAGE = Path(specdec.__file__).parent


def test_no_assert_statements():
    # Invariants raise real exceptions: ``python -O`` strips assert statements.
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
