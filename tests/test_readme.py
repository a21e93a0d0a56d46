"""README's Library tour: every ```python block runs as written, each in a fresh namespace."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[tuple[int, str]]:
    """(line of the opening fence, source) of every ```python block."""
    return [
        (text.count("\n", 0, match.start()) + 1, match.group(1))
        for match in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)
    ]


def test_python_blocks_run():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert blocks
    for line, source in blocks:
        code = compile("\n" * line + source, f"{README.name}:{line}", "exec")
        exec(code, {"__name__": "readme_block"})
