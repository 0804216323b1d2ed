"""Every ```python block of README.md runs as written, and its list of the
library surface is the package's."""

import importlib
import re
from pathlib import Path
from types import ModuleType

import pytest

import villadsen

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# (first line number, source) per block; tracebacks then point into README.md
BLOCKS = [(TEXT.count("\n", 0, m.start(1)) + 1, m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```", TEXT, re.DOTALL | re.MULTILINE)]


def test_readme_has_python_examples():
    assert BLOCKS


# named by position, so an edit above an example does not rename its test
@pytest.mark.parametrize("first_line, source", BLOCKS,
                         ids=[f"example{i}" for i in range(1, len(BLOCKS) + 1)])
def test_readme_example_runs(first_line, source):
    code = compile("\n" * (first_line - 1) + source, str(README), "exec")
    exec(code, {"__name__": "readme"})


def test_readme_lists_the_library_surface():
    section = TEXT[TEXT.index("### Library surface"):]
    listed = set()
    for module, names in re.findall(r"^- `(\w+)`: (.*(?:\n  .*)*)", section, re.MULTILINE):
        for name in re.findall(r"`(\w+)`", names):
            defined = getattr(importlib.import_module(f"villadsen.{module}"), name)
            assert defined is getattr(villadsen, name)
            listed.add(name)
    exported = {name for name in villadsen.__all__
                if not isinstance(getattr(villadsen, name), ModuleType)}
    assert listed == exported
    functions = section[section.index("Beyond `__all__`"):]
    for module, name in re.findall(r"`(\w+)\.(\w+)`", functions):
        assert callable(getattr(importlib.import_module(f"villadsen.{module}"), name))
