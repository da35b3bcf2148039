"""The suite's pytest settings in pyproject.toml, as a separate pytest run applies them."""

import re
import subprocess
import sys
from pathlib import Path

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_TESTS = '''
import warnings

from hypothesis import given, strategies as st


@given(st.integers())
def test_property_that_fails(x):
    assert x < 5


def test_that_passes():
    pass


def test_that_deprecates():
    warnings.warn("an own deprecated call", DeprecationWarning)
'''


def test_failing_property_test_fails_alone_and_own_deprecation_still_fails(tmp_path):
    # Hypothesis' report of a failing property test imports a third-party module that
    # warns DeprecationWarning on import; the session must go on to the later tests
    (tmp_path / "test_three.py").write_text(_TESTS)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(_PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "-rfE", "test_three.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    report = done.stdout + done.stderr
    assert "INTERNALERROR" not in report, report[-3000:]
    assert "FAILED test_three.py::test_property_that_fails - assert" in report
    assert "FAILED test_three.py::test_that_deprecates - DeprecationWarning" in report
    assert re.search(r"^2 failed, 1 passed\b", report, re.MULTILINE), report[-3000:]
