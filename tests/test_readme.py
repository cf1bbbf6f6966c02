"""Every ``python`` code block of README.md runs as written."""

from __future__ import annotations

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = [
    (TEXT.count("\n", 0, match.start()) + 1, match.group(1))
    for match in re.finditer(r"^```python\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)
]


def _section(line: int) -> str:
    """The README section a line lies in, as a slug: a test id that survives edits elsewhere."""
    headings = [h for h in TEXT.splitlines()[:line] if h.startswith("## ")]
    return re.sub(r"[^a-z0-9]+", "-", headings[-1][3:].lower()).strip("-")


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("line, source", BLOCKS, ids=[_section(line) for line, _ in BLOCKS])
def test_readme_python_block_runs(line, source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, f"{README.name}:{line}", "exec"), {"__name__": "readme"})
