"""Every ```python block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (first line number, source) per block; tracebacks then point into README.md
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)]


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("first_line, source", BLOCKS,
                         ids=[f"line{line}" for line, _ in BLOCKS])
def test_readme_example_runs(first_line, source):
    code = compile("\n" * (first_line - 1) + source, str(README), "exec")
    exec(code, {"__name__": "readme"})
