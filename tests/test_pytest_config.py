"""The repo's pytest settings let a failing hypothesis test fail alone.

On a failure, hypothesis imports libcst to write a patch, and that import
raises a DeprecationWarning. Under `error::DeprecationWarning` alone the
warning aborts the whole run with INTERNALERROR (exit 3): the tests after it
never run and the falsifying example is lost.
"""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
                          "-q", "test_two.py"], cwd=tmp_path, capture_output=True, text=True)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
