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


def _imported_modules(node: ast.AST) -> list[str]:
    """Dotted names of the modules an import node reads, ``from . import x`` giving x."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        if node.module is None:
            return [alias.name for alias in node.names]
        return [node.module]
    return []


def test_the_oracle_stays_on_callbacks():
    # The enumeration oracle is the third route, held against the closed forms
    # and the samplers' campaigns, so it imports neither, and it reads a policy
    # through its callbacks only, never through Policy.tables.
    nodes = [node for path, node in source_nodes() if path == Path("enumeration.py")]
    assert nodes
    imported = {part for node in nodes for name in _imported_modules(node) for part in name.split(".")}
    assert "decoding" in imported
    assert not imported & {"exact", "montecarlo"}
    tables = [
        node.lineno
        for node in nodes
        if (isinstance(node, ast.Attribute) and node.attr == "tables")
        or (isinstance(node, ast.Constant) and node.value == "tables")
    ]
    assert tables == []


def test_only_the_cli_knows_output_formats():
    # Commands return their results and CSV table; cli.main alone writes them.
    found = {
        str(path)
        for path, node in source_nodes()
        if "json" in _imported_modules(node)
        or (isinstance(node, ast.FunctionDef) and node.name in ("csv_document", "report_header"))
    }
    assert found == {"cli.py"}


def test_one_row_check():
    # Every "this row is a distribution" check is dist._normalized_rows. The
    # one other reader of NORMALIZE_TOL is ModelPair's prompt agreement.
    found = [
        str(path)
        for path, node in source_nodes()
        if isinstance(node, ast.Name) and node.id == "NORMALIZE_TOL"
    ]
    assert set(found) == {"dist.py", "models.py"}
    assert found.count("models.py") == 1
