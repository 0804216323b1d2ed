"""The suite's pytest settings let a failing property test fail alone."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_passes():
    pass
'''


def test_failing_property_test_does_not_end_the_session(tmp_path):
    # under filterwarnings = "error", a warning the hypothesis plugin raised
    # while reporting the failure became an INTERNALERROR (exit 3), and every
    # later test went unrun
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 1, run.stdout[-2000:]
    assert "1 failed, 1 passed" in run.stdout.splitlines()[-1]
