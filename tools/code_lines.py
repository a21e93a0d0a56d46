"""Count the code lines of each module of the specdec package.

    python3 tools/code_lines.py [package directory [second package directory]]

A code line is a source line that holds a token of code: blank lines,
comment-only lines and the lines of docstrings (a string literal standing
alone as the first statement of a module, class or function) do not count.
With one directory (by default this checkout's src/specdec), prints one
``<count> <module>`` line per module, then the total. With two, such as a
``git archive`` copy of an earlier commit's package and this one, prints
``<before> -> <after> <module>`` per module found in either (0 where a
module is missing), then the totals and their difference. Standard library
only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "specdec"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold code other than a docstring."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def package_counts(package: Path) -> dict[str, int]:
    """Code lines of each module under ``package``, keyed by its relative path."""
    return {str(path.relative_to(package)): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(package.rglob("*.py"))}


def main(argv: list[str]) -> int:
    counts = [package_counts(Path(arg)) for arg in argv[:2]] or [package_counts(PACKAGE)]
    if len(counts) == 1:
        for module, count in counts[0].items():
            print(f"{count:5d} {module}")
        print(f"{sum(counts[0].values()):5d} total")
        return 0
    before, after = counts
    for module in sorted(before.keys() | after.keys()):
        print(f"{before.get(module, 0):5d} -> {after.get(module, 0):5d} {module}")
    old, new = sum(before.values()), sum(after.values())
    print(f"{old:5d} -> {new:5d} total ({new - old:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
