"""The test configuration itself: under `pyproject.toml`'s settings, where
a warning is an error, a failing `hypothesis` test is reported as a
failure with its falsifying example, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 10


def test_after():
    pass
'''


def test_failing_given_test_is_reported(tmp_path):
    """Exit 1, not pytest's INTERNALERROR exit 3: hypothesis imports
    libcst to write the failure's patch, and the warning that import
    raises must not end the run."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA",
         "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example: test_fails(" in out
    assert "PASSED test_probe.py::test_after" in out
