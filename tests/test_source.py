"""Rules every module of the package keeps, checked on its source."""

import ast
from pathlib import Path

import specdec

PACKAGE = Path(specdec.__file__).parent


def source_nodes():
    """(module path relative to the package, node) for every AST node of every module."""
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            yield path.relative_to(PACKAGE), node


def test_no_assert_statements():
    # Invariants raise real exceptions: ``python -O`` strips assert statements.
    found = [f"{path}:{node.lineno}" for path, node in source_nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_one_residual_kernel():
    # Every residual row [q - b p]_+ comes from dist._residual_rows. The only
    # other positive parts are exact.py's closed forms, W_{m+1} = (q - S_m p)_+.
    found = {
        str(path)
        for path, node in source_nodes()
        if isinstance(node, ast.Attribute)
        and node.attr == "maximum"
        and isinstance(node.value, ast.Name)
        and node.value.id == "np"
    }
    assert found <= {"dist.py", "exact.py"}
